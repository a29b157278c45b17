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
"""

from __future__ import annotations

from .errors import (BaseMismatchError, SpecValidationError,
                     UnsupportedError)
from .fields import INF
from .lattice import BaseRing, FracIdeal, mult

__all__ = [
    "StepFunction", "FieldFiltration", "AlgebraFiltration",
    "member", "is_strong", "estep", "jacobson_check",
    "associated_strong", "strong_completion", "induced_on_K",
    "valuation_filtration", "scaled_valuation_filtration",
    "product_law_witness",
]


def _lex_le(a, b):
    return a == b or _lex_lt(a, b)


def _lex_lt(a, b):
    for s, t in zip(a, b):
        if s != t:
            return s < t
    return False


def _vec_add(a, b):
    return tuple(s + t for s, t in zip(a, b))


def _vec_scale(a, k):
    return tuple(s * k for s in a)


class StepFunction:
    """Degree map of a filtration: explicit window, periodic tails.

    phi(n + e_plus) = phi(n) + c_plus above the window and
    phi(n - e_minus) = phi(n) - c_minus below it.
    """

    __slots__ = ("lo", "hi", "table", "plus_period", "plus_inc",
                 "minus_period", "minus_inc", "r", "order")

    def __init__(self, window, table, plus, minus, order="componentwise"):
        lo, hi = window
        if lo > 0 or hi < 0:
            raise SpecValidationError("window must contain degree 0")
        tbl = {int(n): tuple(int(c) for c in v) for n, v in table.items()}
        if set(tbl) != set(range(lo, hi + 1)):
            raise SpecValidationError("table must cover the window exactly")
        r = len(tbl[0])
        if r == 0:
            raise SpecValidationError(
                "degenerate spec with no valuations is rejected")
        if any(len(v) != r for v in tbl.values()):
            raise SpecValidationError("inconsistent vector lengths")
        ep, cp = plus
        em, cm = minus
        cp, cm = tuple(int(c) for c in cp), tuple(int(c) for c in cm)
        if ep < 1 or em < 1 or len(cp) != r or len(cm) != r:
            raise SpecValidationError("tail periods must be >= 1")
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

    def __setattr__(self, *a):
        raise AttributeError("StepFunction is immutable")

    def __call__(self, n):
        n = int(n)
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
            return _lex_le(a, b)
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
        for n in range(-h, h + 1):
            for m in range(-h, h + 1):
                if not self._le(_vec_add(vals[n], vals[m]), vals[n + m]):
                    raise SpecValidationError(
                        f"phi not superadditive at ({n},{m})")
        # asymptotic superadditivity: the minus-side slope dominates
        left = _vec_scale(cm, self.plus_period)
        right = _vec_scale(cp, self.minus_period)
        if self.order == "lex":
            ok = _lex_le(right, left)
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

    def level(self, n):
        """F_n as a fractional ideal (rank-1 families only)."""
        if self.composite:
            raise UnsupportedError(
                "rank-2 filtration levels are not fractional ideals; "
                "use the rank-2 module")
        return FracIdeal(self.base_ring, tuple(-c for c in self.phi(n)))

    @property
    def horizon(self):
        return self.phi.horizon

    def is_dvr_valuation(self):
        """True iff this is the plain valuation filtration of a DVR:
        one rank-1 valuation and phi(n) = n."""
        if self.composite or len(self.valuations) != 1:
            return False
        ph = self.phi
        if ph.plus_inc != (ph.plus_period,) or ph.minus_inc != (ph.minus_period,):
            return False
        return all(ph(n) == (n,) for n in range(-ph.horizon, ph.horizon + 1))

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

    def _validate(self):
        one = self.alg.one_vector(self.base_ring.field)
        if not self.order.full:
            raise SpecValidationError("the order must be a full lattice")
        if not self.order.contains_vector(one):
            raise SpecValidationError("the order must contain 1")
        if mult(self.order, self.order, self.alg) != self.order:
            raise SpecValidationError("the degree-0 part is not a ring")
        if self._unit_intersection_exps(self.order) != (0,) * \
                self.base_ring.nprimes:
            raise SpecValidationError(
                "order meets K in more than the base ring")
        if self.mode == "explicit":
            if self.level(0) != self.order:
                raise SpecValidationError("L_0 must equal the order")
            span_n = max(self.plus_period, self.minus_period)
            lo, hi = self.lo, self.hi + span_n
            for n in range(self.lo - span_n, hi):
                if not self.level(n + 1).contains(self.level(n)):
                    raise SpecValidationError(
                        f"levels not ascending at degree {n}")
            for n in range(self.lo - span_n, hi + 1):
                for m in range(self.lo - span_n, hi + 1):
                    if not (self.lo - span_n <= n + m <= hi):
                        continue
                    prod = mult(self.level(n), self.level(m), self.alg)
                    if not self.level(n + m).contains(prod):
                        raise SpecValidationError(
                            f"L_{n} * L_{m} not inside L_{n + m}")
            for n in range(self.lo, self.hi + 1):
                if self._intersection_with_K(n) != self.base.level(n):
                    raise SpecValidationError(
                        f"extension condition fails at degree {n}: "
                        "L_n meet K differs from F_nK")

    def _unit_intersection_exps(self, lat):
        one = self.alg.one_vector(self.base_ring.field)
        cs = lat.coords(one)
        if cs is None:
            raise SpecValidationError("1 is outside the lattice span")
        exps = []
        for v in self.base_ring.valuations:
            exps.append(max(-v(c) for c in cs if c))
        return tuple(exps)

    def _intersection_with_K(self, n):
        return FracIdeal(self.base_ring,
                         self._unit_intersection_exps(self.level(n)))

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
        return _lex_le(bound, v)
    phi = filt.phi(n)
    for v, c in zip(filt.valuations, phi):
        t = v(x)
        if t is INF:
            continue
        if t < -c:
            return False
    return True


def is_strong(filt):
    """Strength at every degree; by periodicity a finite check.

    Field / induced mode: phi(n) + phi(-n) = 0 for all n (checked on the
    horizon, plus matching tail slopes).  Explicit mode: the degree-1
    criterion L_1 L_-1 = L_0 = L_-1 L_1.
    """
    if isinstance(filt, AlgebraFiltration):
        if filt.mode == "induced":
            return is_strong(filt.base)
        l1, lm1, l0 = filt.level(1), filt.level(-1), filt.level(0)
        return (mult(l1, lm1, filt.alg) == l0
                and mult(lm1, l1, filt.alg) == l0)
    ph = filt.phi
    zero = (0,) * ph.r
    if any(_vec_add(ph(n), ph(-n)) != zero
           for n in range(ph.horizon + 1)):
        return False
    return (_vec_scale(ph.plus_inc, ph.minus_period)
            == _vec_scale(ph.minus_inc, ph.plus_period))


def estep(filt):
    """The least e >= 1 with F_-e strictly above F_-e-1 when the filtration
    is a strong e-step filtration; None otherwise."""
    if isinstance(filt, AlgebraFiltration) and filt.mode == "explicit":
        return _estep_lattice(filt)
    if isinstance(filt, AlgebraFiltration):
        return estep(filt.base)
    ph = filt.phi
    h = ph.horizon
    e = next((k for k in range(1, h + 1) if ph(-k) != ph(-k - 1)), None)
    if e is None:
        return None
    reach = 2 * h + 2 * e
    for n in range(0, reach // e + 1):
        if ph(-n * e) != _vec_scale(ph(-e), n):
            return None
        if _vec_add(ph(n * e), ph(-n * e)) != (0,) * ph.r:
            return None
        for k in range(e):
            if ph(-n * e + k) != ph(-n * e) or ph(n * e + k) != ph(n * e):
                return None
    # eventual slopes must keep the pattern
    if _vec_scale(ph.minus_inc, e) != _vec_scale(ph(-e), -ph.minus_period):
        return None
    if _vec_scale(ph.plus_inc, e) != _vec_scale(ph(e), ph.plus_period):
        return None
    return e


def _estep_lattice(fa):
    h = fa.horizon
    e = next((k for k in range(1, h + 1)
              if fa.level(-k) != fa.level(-k - 1)), None)
    if e is None:
        return None
    power = fa.level(0)
    reach = h + 2 * e
    for n in range(0, reach // e + 1):
        ln = fa.level(-n * e)
        if n > 0:
            power = mult(power, fa.level(-e), fa.alg)
            if power != ln:
                return None
        if mult(fa.level(n * e), ln, fa.alg) != fa.level(0):
            return None
        if mult(ln, fa.level(n * e), fa.alg) != fa.level(0):
            return None
        for k in range(e):
            if fa.level(-n * e + k) != ln:
                return None
            if fa.level(n * e + k) != fa.level(n * e):
                return None
    return e


def product_law_witness(fa, reach=None):
    """First (n, m) in the checked range with L_n L_m not inside L_{n+m},
    or None.  Explicit-mode only; used to exhibit when a candidate level
    chain fails to be a filtration at all."""
    if fa.mode != "explicit":
        return None
    span_n = max(fa.plus_period, fa.minus_period)
    lo = fa.lo - (reach if reach is not None else span_n)
    hi = fa.hi + (reach if reach is not None else span_n)
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
        return _lex_lt(phi1, (0, 0))
    return all(c <= -1 for c in phi1)


def strong_completion(filt):
    """The strong e-step filtration with the same positive part: the
    negative part is forced on multiples of e by strength (phi_s(-k) =
    -phi(e*ceil(k/e))) and constant in between.  Returns (completion, e)."""
    if filt.composite:
        raise UnsupportedError("completion implemented for rank-1 only")
    ph = filt.phi
    h = ph.horizon
    e = next((k for k in range(1, h + 1) if ph(k) != ph(k - 1)), None)
    if e is None:  # pragma: no cover - validator forbids flat positive part
        raise SpecValidationError("positive part never jumps")

    def lcm(a, b):
        g, x, y = a, a, b
        while y:
            x, y = y, x % y
        return a * b // x

    period = lcm(e, ph.plus_period)
    lo = -(max(h, ph.hi) + 2 * period)
    hi = max(ph.hi, 1)
    table = {}
    for n in range(lo, hi + 1):
        if n >= 0:
            table[n] = ph(n)
        else:
            m = e * ((-n + e - 1) // e)
            table[n] = tuple(-c for c in ph(m))
    minus_inc = _vec_scale(ph.plus_inc, period // ph.plus_period)
    comp = StepFunction((lo, hi), table,
                        (ph.plus_period, ph.plus_inc),
                        (period, minus_inc))
    out = FieldFiltration(filt.field, filt.valuations, comp)
    return out, e


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
    ok, cert = gl.is_glider(glider)
    if not ok:
        raise SpecValidationError(f"not a glider: witness {cert}")
    if glider.level(0) != filt.level(0):
        raise SpecValidationError(
            "the glider must start at the degree-0 part")
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
    minus = _tail_of_glider(glider)
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
