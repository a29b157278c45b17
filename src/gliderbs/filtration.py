"""Finite presentations of separated, exhaustive, unbounded filtrations.

A filtration level F_n on a field K is cut out of K by the base ring's
valuations: F_nK = {x : v_j(x) >= -phi_j(n)} (componentwise for a family of
rank-1 valuations, lexicographically for the rank-2 composite).  The degree
map phi is a StepFunction: explicit on a finite window, periodic increments
beyond it.  Because the tails are periodic, every axiom that quantifies
over all degrees is decided exactly by a finite check on the window plus
two tail periods per side; the validator performs that check.

Algebra filtrations extend a field filtration to a matrix or quaternion
algebra, either induced (F_nA = F_nK * B) or by an explicit window of
lattices with multiplicative ideal tails.

Strength and the e-step property are decided in one degree each, for
every kind of filtration (`_strong_in`): degree 1 and the first degree e
where the negative part falls.  The product law carries strength in that
degree to every multiple of it, as superadditivity does for phi, so no
degree scan remains.
"""

from __future__ import annotations

import math

from .errors import (BaseMismatchError, SpecValidationError,
                     UnsupportedError)
from .fields import INF
from .lattice import BaseRing, FracIdeal, mult, require_int, require_order

__all__ = [
    "StepFunction", "FieldFiltration", "AlgebraFiltration",
    "member", "is_strong", "estep", "jacobson_check",
    "associated_strong", "strong_completion", "induced_on_K",
    "valuation_filtration", "scaled_valuation_filtration",
    "product_law_witness",
]


def _vec_add(a, b):
    return tuple(s + t for s, t in zip(a, b))


def _vec_scale(a, k):
    return tuple(s * k for s in a)


def _require_period_window(lo, hi, *periods):
    """A tail step lands in the window only when the window is at least
    one period long; a shorter one would bounce between the tails."""
    if hi - lo + 1 < max(periods):
        raise SpecValidationError(
            f"window [{lo},{hi}] is shorter than the tail period "
            f"{max(periods)}")


class StepFunction:
    """Degree map of a filtration: explicit window, periodic tails.

    phi(n + e_plus) = phi(n) + c_plus above the window and
    phi(n - e_minus) = phi(n) - c_minus below it.  Degrees, values,
    periods and increments must be ints; the lex order is Python's order
    on the equal-length value tuples.  `minus_start` is the least d >= 0
    with phi(-n - e_minus) = phi(-n) - c_minus for every n >= d: the
    degree from which the negative side is periodic.
    """

    __slots__ = ("lo", "hi", "table", "plus_period", "plus_inc",
                 "minus_period", "minus_inc", "r", "order", "minus_start")

    def __init__(self, window, table, plus, minus, order="componentwise"):
        lo, hi = map(require_int, window)
        if lo > 0 or hi < 0:
            raise SpecValidationError("window must contain degree 0")
        tbl = {require_int(n): tuple(map(require_int, v))
               for n, v in table.items()}
        # the keys are distinct, so hi - lo + 1 of them inside the window
        # cover it; the window is never enumerated
        if len(tbl) != hi - lo + 1 or not all(lo <= n <= hi for n in tbl):
            raise SpecValidationError("table must cover the window exactly")
        r = len(tbl[0])
        if r == 0:
            raise SpecValidationError(
                "degenerate spec with no valuations is rejected")
        if any(len(v) != r for v in tbl.values()):
            raise SpecValidationError("inconsistent vector lengths")
        ep, cp = plus
        em, cm = minus
        ep, em = require_int(ep), require_int(em)
        cp, cm = tuple(map(require_int, cp)), tuple(map(require_int, cm))
        if ep < 1 or em < 1 or len(cp) != r or len(cm) != r:
            raise SpecValidationError("tail periods must be >= 1")
        _require_period_window(lo, hi, ep, em)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "table", tbl)
        object.__setattr__(self, "plus_period", ep)
        object.__setattr__(self, "plus_inc", cp)
        object.__setattr__(self, "minus_period", em)
        object.__setattr__(self, "minus_inc", cm)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "order", order)
        self._validate()
        # the tail rule makes every n >= -lo periodic; walk down from there
        d = -lo
        while d and self(1 - d - em) == _vec_add(self(1 - d),
                                                 _vec_scale(cm, -1)):
            d -= 1
        object.__setattr__(self, "minus_start", d)

    def __setattr__(self, *a):
        raise AttributeError("StepFunction is immutable")

    def __call__(self, n):
        require_int(n)
        if self.lo <= n <= self.hi:
            return self.table[n]
        if n > self.hi:
            k = -((self.hi - n) // self.plus_period)
            return _vec_add(self(n - k * self.plus_period),
                            _vec_scale(self.plus_inc, k))
        k = -((n - self.lo) // self.minus_period)
        return _vec_add(self(n + k * self.minus_period),
                        _vec_scale(self.minus_inc, -k))

    @property
    def horizon(self):
        return max(abs(self.lo), self.hi) + 2 * max(self.plus_period,
                                                    self.minus_period)

    def _le(self, a, b):
        if self.order == "lex":
            return a <= b
        return all(s <= t for s, t in zip(a, b))

    def _validate(self):
        if self(0) != (0,) * self.r:
            raise SpecValidationError("phi(0) must be the zero vector")
        cp, cm = self.plus_inc, self.minus_inc
        if self.order == "lex":
            if cp[0] < 1:
                raise SpecValidationError(
                    "lex filtration not exhaustive: leading plus-increment < 1")
            if cm[0] < 1:
                raise SpecValidationError(
                    "lex filtration not separated: leading minus-increment < 1")
        else:
            if any(c < 1 for c in cp):
                raise SpecValidationError(
                    "not exhaustive: plus-tail increment must be >= 1 at "
                    "every valuation")
            if any(c < 0 for c in cm) or all(c == 0 for c in cm):
                raise SpecValidationError(
                    "not separated: minus-tail increment must be nonnegative "
                    "and nonzero")
        h = self.horizon
        vals = {n: self(n) for n in range(-2 * h, 2 * h + 1)}
        for n in range(-h, h):
            if not self._le(vals[n], vals[n + 1]):
                raise SpecValidationError(f"phi not monotone at {n}")
        # the condition is symmetric in (n, m): m >= n covers every pair
        for n in range(-h, h + 1):
            for m in range(n, h + 1):
                if not self._le(_vec_add(vals[n], vals[m]), vals[n + m]):
                    raise SpecValidationError(
                        f"phi not superadditive at ({n},{m})")
        # asymptotic superadditivity: the minus-side slope dominates
        left = _vec_scale(cm, self.plus_period)
        right = _vec_scale(cp, self.minus_period)
        if self.order == "lex":
            ok = right <= left
        else:
            ok = all(s >= t for s, t in zip(left, right))
        if not ok:
            raise SpecValidationError(
                "tail slopes violate superadditivity asymptotically")

    def as_dict(self):
        return {
            "window": [self.lo, self.hi],
            "table": {str(n): list(self.table[n])
                      for n in range(self.lo, self.hi + 1)},
            "tailPlus": {"period": self.plus_period,
                         "inc": list(self.plus_inc)},
            "tailMinus": {"period": self.minus_period,
                          "inc": list(self.minus_inc)},
        }

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        h = max(self.horizon, other.horizon)
        if self.r != other.r:
            return False
        if any(self(n) != other(n) for n in range(-h, h + 1)):
            return False
        # same values on the shared horizon plus identical eventual slopes
        return (_vec_scale(self.plus_inc, other.plus_period)
                == _vec_scale(other.plus_inc, self.plus_period)
                and _vec_scale(self.minus_inc, other.minus_period)
                == _vec_scale(other.minus_inc, self.minus_period))

    def __repr__(self):
        return (f"StepFunction([{self.lo},{self.hi}], +{self.plus_inc}/"
                f"{self.plus_period}, -{self.minus_inc}/{self.minus_period})")


class FieldFiltration:
    """Separated, exhaustive, unbounded filtration on a supported field."""

    def __init__(self, field, valuations, phi):
        valuations = tuple(valuations)
        if not valuations:
            raise SpecValidationError("a filtration needs valuations")
        self.field = field
        self.valuations = valuations
        self.composite = (valuations[0].rank == 2)
        if self.composite:
            if len(valuations) != 1:
                raise SpecValidationError(
                    "a rank-2 filtration takes exactly one composite valuation")
            if phi.r != 2 or phi.order != "lex":
                raise SpecValidationError(
                    "composite filtration needs a lex step function with r=2")
            self.base_ring = None
        else:
            if phi.order != "componentwise":
                raise SpecValidationError(
                    "rank-1 filtrations use componentwise step functions")
            self.base_ring = BaseRing(field, valuations)
            if phi.r != len(valuations):
                raise SpecValidationError(
                    "step function width must match the valuation count")
        for v in valuations:
            if v.field is not field:
                raise BaseMismatchError("valuation outside the field")
        self.phi = phi
        self._levels = {}

    def level(self, n):
        """F_n as a fractional ideal (rank-1 families only), built once per
        n: glider chains past their prefix ask for it on every level."""
        out = self._levels.get(n)
        if out is None:
            if self.composite:
                raise UnsupportedError(
                    "rank-2 filtration levels are not fractional ideals; "
                    "use the rank-2 module")
            out = self._levels[n] = FracIdeal(
                self.base_ring, tuple(-c for c in self.phi(n)))
        return out

    @property
    def horizon(self):
        return self.phi.horizon

    def plus_step(self):
        """(hi, e, exps): F_{n+e} = P^exps * F_n for every n > hi - e."""
        ph = self.phi
        return ph.hi, ph.plus_period, tuple(-c for c in ph.plus_inc)

    def is_dvr_valuation(self):
        """True iff this is the plain valuation filtration of a DVR: one
        rank-1 valuation, phi(1) = 1 and strong, so phi(n) = n."""
        return self.phi(1) == (1,) and is_strong(self)

    def __eq__(self, other):
        if not isinstance(other, FieldFiltration):
            return NotImplemented
        return (self.field is other.field
                and self.valuations == other.valuations
                and self.phi == other.phi)

    def __hash__(self):
        return hash((self.field.name,
                     tuple(v.name for v in self.valuations)))

    def __repr__(self):
        vs = ",".join(v.name for v in self.valuations)
        return f"FieldFiltration({self.field.name}; {vs}; {self.phi!r})"


def valuation_filtration(valuation):
    """The valuation filtration of a single rank-1 valuation: phi(n) = n."""
    phi = StepFunction((0, 0), {0: (0,)}, (1, (1,)), (1, (1,)))
    return FieldFiltration(valuation.field, (valuation,), phi)


def scaled_valuation_filtration(valuation, c):
    """phi(n) = c*n: strong, but not the plain valuation filtration for
    c >= 2 (its degree-(-1) part is the c-th power of the maximal ideal)."""
    if c < 1:
        raise SpecValidationError("scale must be >= 1")
    phi = StepFunction((0, 0), {0: (0,)}, (1, (c,)), (1, (c,)))
    return FieldFiltration(valuation.field, (valuation,), phi)


class AlgebraFiltration:
    """Filtration on a csa extending a rank-1 field filtration.

    Induced mode: F_nA = F_nK * B.  Explicit mode: a window of lattices
    with multiplicative fractional-ideal tails; the extension condition
    F_nA intersect K = F_nK is verified on the window.
    """

    def __init__(self, alg, base, order, mode="induced", window=None,
                 levels=None, plus=None, minus=None, validate=True):
        if base.composite:
            raise UnsupportedError("algebra filtrations need a rank-1 base")
        self.alg = alg
        self.base = base
        self.base_ring = base.base_ring
        if order.base is not self.base_ring or order.dim != alg.dim:
            raise BaseMismatchError("order does not match base/algebra")
        self.order = order
        self.mode = mode
        if mode == "explicit":
            self.lo, self.hi = window
            self.levels = tuple(levels)
            if len(self.levels) != self.hi - self.lo + 1:
                raise SpecValidationError("level window size mismatch")
            self.plus_period, self.plus_mult = plus
            self.minus_period, self.minus_mult = minus
            _require_period_window(self.lo, self.hi, self.plus_period,
                                   self.minus_period)
        elif mode != "induced":
            raise SpecValidationError(f"unknown mode {mode!r}")
        if validate:
            self._validate()

    def level(self, n):
        if self.mode == "induced":
            return self.order.scale_ideal(self.base.level(n))
        if self.lo <= n <= self.hi:
            return self.levels[n - self.lo]
        if n > self.hi:
            k = -((self.hi - n) // self.plus_period)
            return self.level(n - k * self.plus_period).scale_ideal(
                FracIdeal(self.base_ring,
                          _vec_scale(self.plus_mult.exps, k)))
        k = -((n - self.lo) // self.minus_period)
        return self.level(n + k * self.minus_period).scale_ideal(
            FracIdeal(self.base_ring, _vec_scale(self.minus_mult.exps, k)))

    @property
    def horizon(self):
        h = self.base.horizon
        if self.mode == "explicit":
            h = max(h, abs(self.lo), self.hi) + 2 * max(self.plus_period,
                                                        self.minus_period)
        return h

    def plus_step(self):
        if self.mode == "induced":
            return self.base.plus_step()
        return self.hi, self.plus_period, self.plus_mult.exps

    def _validate(self):
        require_order(self.order, self.alg)
        # B meet K = R needs no check: it is a ring and a finitely generated
        # R-module, so integral over R, and R is integrally closed
        if self.mode == "explicit":
            if self.level(0) != self.order:
                raise SpecValidationError("L_0 must equal the order")
            span_n = max(self.plus_period, self.minus_period)
            for n in range(self.lo - span_n, self.hi + span_n):
                if not self.level(n + 1).contains(self.level(n)):
                    raise SpecValidationError(
                        f"levels not ascending at degree {n}")
            bad = product_law_witness(self)
            if bad is not None:
                n, m = bad
                raise SpecValidationError(
                    f"L_{n} * L_{m} not inside L_{n + m}")
            self._check_extension()

    def _check_extension(self):
        """The extension condition L_n meet K = F_nK on the window of an
        explicit filtration; the tails carry it beyond."""
        for n in range(self.lo, self.hi + 1):
            if self._intersection_with_K(n) != self.base.level(n):
                raise SpecValidationError(
                    f"extension condition fails at degree {n}: "
                    "L_n meet K differs from F_nK")

    def _intersection_with_K(self, n):
        """L_n meet K = {x : x*1 in L_n}, a fractional ideal."""
        cs = self.level(n).coords(self.alg.one_vector(self.base_ring.field))
        if cs is None:
            raise SpecValidationError("1 is outside the lattice span")
        return FracIdeal(self.base_ring,
                         tuple(max(-v(c) for c in cs if c)
                               for v in self.base_ring.valuations))

    def __repr__(self):
        return f"AlgebraFiltration({self.alg!r}, {self.mode})"


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def member(filt, n, x):
    """x in F_n?"""
    if isinstance(filt, AlgebraFiltration):
        return filt.level(n).contains_vector(x)
    if filt.composite:
        v = filt.valuations[0](x)
        if v is INF:
            return True
        bound = tuple(-c for c in filt.phi(n))
        return bound <= v
    phi = filt.phi(n)
    for v, c in zip(filt.valuations, phi):
        t = v(x)
        if t is INF:
            continue
        if t < -c:
            return False
    return True


def _strong_in(filt, d):
    """Strength in degree d, the one test for every kind of filtration:
    phi(d) + phi(-d) = 0 for a field filtration, L_d L_-d = L_0 =
    L_-d L_d for an explicit algebra filtration, and its base's answer
    for an induced one (F_nK B F_mK B = F_nK F_mK B)."""
    if isinstance(filt, AlgebraFiltration):
        if filt.mode == "induced":
            return _strong_in(filt.base, d)
        ld, lmd, l0 = filt.level(d), filt.level(-d), filt.level(0)
        return (mult(ld, lmd, filt.alg) == l0
                and mult(lmd, ld, filt.alg) == l0)
    ph = filt.phi
    return _vec_add(ph(d), ph(-d)) == (0,) * ph.r


def is_strong(filt):
    """Strength at every degree, decided in degree 1 (`_strong_in`).

    Field filtration: superadditivity gives phi(n + 1) >= phi(n) + phi(1)
    and phi(n + 1) <= phi(n) - phi(-1), so phi(1) + phi(-1) = 0 makes
    phi(n) = n * phi(1) for every n (either order on the values).
    Explicit mode: L_0 is a ring with 1, so L_0 L_n = L_n = L_n L_0, and
    the product law gives L_{n+1} = L_{n+1} L_{-1} L_1 <= L_n L_1 <=
    L_{n+1}; so L_n = L_1^n and L_{-n} = L_{-1}^n, and L_1 L_{-1} = L_0 =
    L_{-1} L_1 telescopes to L_n L_m = L_{n+m}.  Induced mode is its
    base's."""
    return _strong_in(filt, 1)


def estep(filt):
    """The least e >= 1 with F_{-e} strictly above F_{-e-1} when the
    filtration is a strong e-step filtration; None otherwise.  That is
    strength in degree e (`_strong_in`), for every kind of filtration.

    The argument of `is_strong` on n -> F_{ne} gives F_{ne} = F_e^n,
    F_{ne} F_{-ne} = F_0 = F_{-ne} F_{ne} and F_{-e} F_{(n+1)e} = F_{ne}
    (phi(ne) = n phi(e) for a field).  Each block of e degrees is
    constant, as F_{-1} = ... = F_{-e}: for 0 <= t < e,
    phi(ne + t) + phi(-(n+1)e) <= phi(t - e) = phi(-e), and on lattices
    L_{ne+t} = L_{ne+t} L_{-(n+1)e} L_{(n+1)e} <= L_{t-e} L_{(n+1)e} =
    L_{-e} L_{(n+1)e} = L_{ne}.  The first fall lies within the horizon
    when there is one: below the window the levels repeat by the minus
    tail, which leaves them constant only when it is trivial."""
    level = filt.level if isinstance(filt, AlgebraFiltration) else filt.phi
    e = next((k for k in range(1, filt.horizon + 1)
              if level(-k) != level(-k - 1)), None)
    return e if e is not None and _strong_in(filt, e) else None


def product_law_witness(fa):
    """First (n, m) with L_n L_m not inside L_{n+m}, for n, m and n + m
    in the window widened by a tail period on each side, or None.
    Explicit-mode only; the validator and the maximal-order cross-checks
    use it."""
    if fa.mode != "explicit":
        return None
    span_n = max(fa.plus_period, fa.minus_period)
    lo, hi = fa.lo - span_n, fa.hi + span_n
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            if not (lo <= n + m <= hi):
                continue
            if not fa.level(n + m).contains(
                    mult(fa.level(n), fa.level(m), fa.alg)):
                return (n, m)
    return None


def jacobson_check(filt):
    """F_-1 inside the Jacobson radical of F_0 (every maximal ideal).

    True for every spec the validator accepts; False flags a violation.
    """
    if isinstance(filt, AlgebraFiltration):
        return jacobson_check(filt.base)
    phi1 = filt.phi(-1)
    if filt.composite:
        return phi1 < (0, 0)
    return all(c <= -1 for c in phi1)


def strong_completion(filt):
    """The strong e-step filtration with the same positive part, for e
    the first degree where phi jumps: phi_s(n) = (n // e) * phi(e), the
    negative part forced by strength on multiples of e and constant in
    between.  Returns (completion, e), or None when the positive part is
    not e-step (phi(n) != phi_s(n) for some n >= 0): then no strong e-step
    filtration has it."""
    if filt.composite:
        raise UnsupportedError("completion implemented for rank-1 only")
    ph = filt.phi
    h = ph.horizon
    # StepFunction makes the plus increment >= 1, so phi jumps within h
    e = next(k for k in range(1, h + 1) if ph(k) != ph(k - 1))
    period = math.lcm(e, ph.plus_period)
    step = ph(e)
    # past hi + period the plus slope, if it is phi(e) per e, carries the
    # identity on from one period back
    if _vec_scale(ph.plus_inc, e) != _vec_scale(step, ph.plus_period) or any(
            ph(n) != _vec_scale(step, n // e)
            for n in range(ph.hi + period + 1)):
        return None
    lo, hi = -(max(h, ph.hi) + 2 * period), max(ph.hi, 1)
    comp = StepFunction(
        (lo, hi), {n: _vec_scale(step, n // e) for n in range(lo, hi + 1)},
        (ph.plus_period, ph.plus_inc),
        (period, _vec_scale(ph.plus_inc, period // ph.plus_period)))
    return FieldFiltration(filt.field, filt.valuations, comp), e


def associated_strong(filt, glider):
    """Replace the negative part of the filtration by the chain of the
    given glider (which must start at F_0 and be a glider for the
    filtration); the result is a strong e-step filtration whose negative
    part contains the original one levelwise."""
    from . import glider as gl  # local import; no cycle at module load

    if filt.composite:
        raise UnsupportedError("rank-2 filtrations are classified separately")
    if glider.filtration is not filt and glider.filtration != filt:
        raise SpecValidationError("glider belongs to a different filtration")
    if glider.ambient != "field":
        raise SpecValidationError("expected a field glider")
    gl.require_glider(glider)
    if glider.level(0) != filt.level(0):
        raise SpecValidationError(
            "the glider must start at the degree-0 part")
    minus = _tail_of_glider(glider)
    ph = filt.phi
    h = ph.horizon + glider.prefix_end + 2 * ph.minus_period + 2
    lo, hi = -h, max(ph.hi, 1)
    table = {}
    for n in range(lo, hi + 1):
        if n >= 0:
            table[n] = ph(n)
        else:
            lvl = glider.level(-n)
            table[n] = tuple(-c for c in lvl.exps)
    comp = StepFunction((lo, hi), table,
                        (ph.plus_period, ph.plus_inc), minus)
    out = FieldFiltration(filt.field, filt.valuations, comp)
    e = estep(out)
    if e is None:
        raise SpecValidationError(
            "the glider chain does not complete to a strong e-step filtration")
    # the original negative part must sit inside the new one levelwise
    for n in range(1, out.phi.horizon + 1):
        if not out.level(-n).contains(filt.level(-n)):
            raise SpecValidationError(
                "completion does not contain the original negative part")
    return out


def _tail_of_glider(glider):
    period = glider.period
    growth = glider.growth_ideal(period)
    if growth is None:
        raise SpecValidationError(
            "glider tail does not define an unbounded filtration")
    return (period, growth.exps)


def induced_on_K(fa):
    """The field filtration F_nK = F_nA meet K, refit to a step function.

    Computed per degree by intersecting the level lattice with the scalar
    line; the tails are read off the extended window and verified periodic
    (error otherwise: the intersection is then not step-presentable).
    """
    if fa.mode == "induced":
        return fa.base
    ep, em = fa.plus_period, fa.minus_period
    lo = fa.lo - 2 * em
    hi = fa.hi + 2 * ep
    table = {n: tuple(-c for c in fa._intersection_with_K(n).exps)
             for n in range(lo, hi + 1)}
    cp = tuple(s - t for s, t in zip(table[fa.hi + ep], table[fa.hi]))
    cm = tuple(s - t for s, t in zip(table[fa.lo], table[fa.lo - em]))
    for n in range(fa.hi, hi + 1 - ep):
        if tuple(s - t for s, t in zip(table[n + ep], table[n])) != cp:
            raise SpecValidationError(
                "intersection with K is not plus-periodic; not presentable")
    for n in range(lo + em, fa.lo + 1):
        if tuple(s - t for s, t in zip(table[n], table[n - em])) != cm:
            raise SpecValidationError(
                "intersection with K is not minus-periodic; not presentable")
    sf = StepFunction((fa.lo, fa.hi),
                      {n: table[n] for n in range(fa.lo, fa.hi + 1)},
                      (ep, cp), (em, cm))
    return FieldFiltration(fa.base.field, fa.base.valuations, sf)
