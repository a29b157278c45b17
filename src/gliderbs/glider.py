"""Descending glider chains with finite tail presentations.

A glider is a chain M_0 >= M_1 >= ... of modules (fractional ideals in the
field case, lattices in the algebra case) compatible with a filtration:
F_i * M_j inside M_{j-i} for 0 <= i <= j.  Chains are stored as a finite
prefix plus a tail rule; all tail rules are eventually geometric, so every
quantifier over levels is decided exactly on the prefix plus two tail
periods (the decision horizon, recorded in verdicts); the glider axiom
also needs the filtration's positive window (see `is_glider`).

Subglider triviality follows the degenerate patterns: the smaller glider
hits zero while the big one is nonzero (T2), or is an index
reparametrization N_n = M_{alpha(n)} along a strictly increasing alpha
(T3).  A glider over an exhaustive filtration that stabilizes ends in
zero (F_i C is not inside a nonzero constant level C for large i), so
every body is zero and the paper's body-hit pattern T1 is T2.
Everything else is a genuine witness of reducibility and is returned
with a strict sandwich certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BaseMismatchError, SpecValidationError, UnsupportedError
from .fields import INF
from .filtration import AlgebraFiltration, FieldFiltration
from .lattice import FracIdeal, Lattice, ZERO_MODULE, memo_scope, mult

__all__ = [
    "Tail", "FiltrationTail", "MultiplyBy", "Constant", "ZeroAfter",
    "Glider", "TrivialityVerdict",
    "is_glider", "body", "essential_length", "shift", "scalar_shift",
    "classify_subglider", "classify_subglider_unchecked", "require_glider",
    "fit_tail", "realize_field_chain", "negative_part",
]


# ---------------------------------------------------------------------------
# tail rules
# ---------------------------------------------------------------------------

TAIL_KINDS = ("filtration", "multiply", "constant", "zeroafter")


@dataclass(frozen=True)
class Tail:
    """How a chain continues past its prefix end N.  `kind` is the gbs/1
    JSON name:

    filtration  M_{N+k} = F_{-k}K * M_N (scalar action of the base field
                filtration);
    multiply    M_{N+k} = I^k * M_N for the integral ideal I = `ideal`
                (for rank-2 grids, `ideal` is the value increment pair);
    constant    M_{N+k} = M_N;
    zeroafter   M_{N+k} = 0.
    """

    kind: str
    ideal: object = None

    def __post_init__(self):
        if self.kind not in TAIL_KINDS or \
                (self.kind == "multiply") != (self.ideal is not None):
            raise SpecValidationError(f"malformed tail {self!r}")
        # a multiply tail descends: an integral ideal, a grid step <= (0, 0);
        # Glider and Z2Glider reject an ideal of any other kind
        if self.kind == "multiply" and (
                self.ideal > (0, 0) if isinstance(self.ideal, tuple)
                else any(e < 0 for e in getattr(self.ideal, "exps", ()))):
            raise SpecValidationError(f"multiply tail ascends: {self!r}")

    @property
    def stabilizes(self):
        """The chain is constant (possibly zero) from the prefix end on."""
        return self.kind in ("constant", "zeroafter") or (
            self.kind == "multiply" and self.ideal.is_unit_ideal())


def FiltrationTail():
    return Tail("filtration")


def MultiplyBy(ideal):
    return Tail("multiply", ideal)


def Constant():
    return Tail("constant")


def ZeroAfter():
    return Tail("zeroafter")


# ---------------------------------------------------------------------------
# gliders
# ---------------------------------------------------------------------------

class Glider:
    """A glider chain: finite prefix M_0..M_N plus a tail rule.

    ambient is 'field' (levels are fractional ideals of the base ring) or
    'algebra' (levels are lattices in the algebra; the filtration may be a
    field filtration acting by scalars or an algebra filtration acting by
    lattice multiplication).  A vanished level is ZERO_MODULE in both; a
    rank-0 lattice given as a level is stored as ZERO_MODULE, so zero has
    one spelling.  Levels are used only through the level protocol of
    `gliderbs.lattice` (`contains`, `==`, `add`, `scale_ideal`, `scale`).
    """

    def __init__(self, filtration, ambient, prefix, tail, alg=None):
        if ambient not in ("field", "algebra"):
            raise SpecValidationError(f"unknown ambient {ambient!r}")
        if not prefix:
            raise SpecValidationError("glider prefix must be nonempty")
        if ambient == "field":
            if not isinstance(filtration, FieldFiltration) or \
                    filtration.composite:
                raise SpecValidationError(
                    "field gliders need a rank-1 field filtration")
            for lvl in prefix:
                if lvl is not ZERO_MODULE and not isinstance(lvl, FracIdeal):
                    raise SpecValidationError(
                        "field glider levels are fractional ideals")
            self.alg = None
        else:
            if isinstance(filtration, AlgebraFiltration):
                self.alg = filtration.alg
            else:
                if alg is None:
                    raise SpecValidationError(
                        "algebra gliders over a field filtration need the "
                        "algebra descriptor")
                self.alg = alg
            levels = []
            for lvl in prefix:
                if isinstance(lvl, Lattice):
                    lvl = lvl if lvl.rank else ZERO_MODULE
                elif lvl is not ZERO_MODULE:
                    raise SpecValidationError(
                        "algebra glider levels are lattices")
                levels.append(lvl)
            prefix = levels
        self.filtration = filtration
        self.ambient = ambient
        self.prefix = tuple(prefix)
        if tail.kind == "multiply" and not isinstance(tail.ideal, FracIdeal):
            raise SpecValidationError(f"not a glider tail: {tail!r}")
        self.tail = tail
        self._levels = {}
        for i in range(len(self.prefix) - 1):
            if not self.prefix[i].contains(self.prefix[i + 1]):
                raise SpecValidationError(
                    f"prefix does not descend at level {i}")
        # every tail descends: F_-1 and a multiply ideal are integral

    def _base_field_filtration(self):
        f = self.filtration
        return f.base if isinstance(f, AlgebraFiltration) else f

    @property
    def stabilizes(self):
        """The chain is constant (possibly zero) from the prefix end on:
        the tail stabilizes, or the last prefix level is already zero."""
        return self.tail.stabilizes or self.prefix[-1] is ZERO_MODULE

    @property
    def prefix_end(self):
        return len(self.prefix) - 1

    def level(self, i):
        if i < 0:
            raise SpecValidationError("glider levels are indexed by N")
        n = self.prefix_end
        if i <= n:
            return self.prefix[i]
        t = self.tail
        if t.kind not in ("filtration", "multiply"):
            return self.prefix[n] if t.kind == "constant" else ZERO_MODULE
        # level(N + k) = S_k * level(N), S_k the tail's multiplier; built once
        out = self._levels.get(i)
        if out is None:
            s = self._base_field_filtration().level(n - i) \
                if t.kind == "filtration" else t.ideal.pow(i - n)
            out = self._levels[i] = self.prefix[n].scale_ideal(s)
        return out

    @property
    def horizon(self):
        # a tail period is 1 or the filtration's minus period; a filtration
        # tail repeats from the degree where phi's negative side does
        ph = self._base_field_filtration().phi
        start = ph.minus_start if self.tail.kind == "filtration" else 0
        return self.prefix_end + start + 2 * ph.minus_period + 2

    @property
    def period(self):
        """Number of tail steps after which the growth repeats."""
        if self.tail.kind == "filtration":
            return self._base_field_filtration().phi.minus_period
        return 1

    def act(self, i, level):
        """F_i * level inside the ambient (F_i * 0 = 0 without building
        F_i)."""
        if level is ZERO_MODULE:
            return level
        f = self.filtration
        if isinstance(f, AlgebraFiltration):
            return mult(f.level(i), level, self.alg)
        return level.scale_ideal(f.level(i))

    def levels(self, upto):
        return [self.level(i) for i in range(upto + 1)]

    def growth_ideal(self, steps):
        """Scalar ideal S with level(i + steps) = S * level(i) for deep i,
        or None when the chain stabilizes; steps is a multiple of `period`
        at every call."""
        if self.stabilizes:
            return None
        if self.tail.kind == "multiply":
            return self.tail.ideal.pow(steps)
        base = self._base_field_filtration()
        ph = base.phi
        k = steps // ph.minus_period
        return FracIdeal(base.base_ring, tuple(c * k for c in ph.minus_inc))

    def deep_start(self):
        """Index from which the tail increments are exactly periodic."""
        if self.tail.kind == "filtration":
            ph = self._base_field_filtration().phi
            return self.prefix_end + abs(ph.lo) + ph.minus_period
        return self.prefix_end

    def __eq__(self, other):
        if not isinstance(other, Glider):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        h = max(self.horizon, other.horizon)
        if any(self.level(i) != other.level(i) for i in range(h + 1)):
            return False
        return _same_growth(self, other)

    def __repr__(self):
        return (f"Glider({self.ambient}, N={self.prefix_end}, "
                f"tail={self.tail!r})")


def _same_growth(a, b):
    if a.stabilizes or b.stabilizes:
        h = max(a.horizon, b.horizon) + 2
        return all(a.level(i) == b.level(i) for i in range(h + 3))
    steps = a.period * b.period
    return a.growth_ideal(steps).exps == b.growth_ideal(steps).exps


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

@memo_scope()
def is_glider(m):
    """Check the glider axiom F_i M_j inside M_{j-i} for 0 <= i <= j.
    Returns (ok, certificate); the certificate of a failure is (i, j,
    witness vector/element).

    The window j <= D + p + q + hi decides the axiom, for D = deep_start(),
    p = period, F_{n+e} = P^c F_n when n > hi - e, and q = e*p: a failure
    further out recurs at (i, j - p), or at (i - q, j - q) when q steps
    move F_i M_j by an integral ideal P^delta.  When delta has a negative
    exponent and M does not end in zero, the axiom fails, and a scan past
    the window finds where."""
    hi, e, c = m.filtration.plus_step()
    q = e * m.period
    window = max(m.horizon, m.deep_start() + m.period + q + hi)
    levels = m.levels(window)
    # M_j inside M_{j-1} is the i = 1 case, since 1 lies in F_0 inside F_1
    for j, mj in enumerate(levels):
        for i in range(j + 1):
            prod = m.act(i, mj)
            target = levels[j - i]
            if not target.contains(prod):
                return False, (i, j, _containment_witness(prod, target))
    if levels[-1] is ZERO_MODULE:
        return True, None
    grow = m.growth_ideal(q)
    grow = grow.exps if grow is not None else (0,) * len(c)
    if all(g + x * m.period >= 0 for g, x in zip(grow, c)):
        return True, None
    # delta has a negative exponent, so F_j M_j leaves M_0 eventually
    j = window
    prod = levels[0]
    while levels[0].contains(prod):
        j += 1
        prod = m.act(j, m.level(j))
    return False, (j, j, _containment_witness(prod, levels[0]))


def require_glider(m):
    """Raise SpecValidationError, with the failure certificate, unless m
    satisfies the glider axiom."""
    ok, cert = is_glider(m)
    if not ok:
        raise SpecValidationError(f"not a glider: witness {cert}")


def _containment_witness(inner, outer):
    """An element of `inner` outside `outer`, for inner not inside outer
    (so inner is nonzero and one of its generators lies outside)."""
    if isinstance(inner, FracIdeal):
        return inner.generator()
    return next(row for row in inner.rows
                if outer is ZERO_MODULE or not outer.contains_vector(row))


def body(m):
    """Intersection of all levels, decided from the tail rule: a tail that
    does not stabilize has a growth exponent > 0, so coordinates acquire
    unbounded valuation and the levels pinch to zero."""
    if m.stabilizes:
        return m.level(m.prefix_end + 1)
    return ZERO_MODULE


def essential_length(m):
    """Least d with M_d strictly above M_{d+1} and the chain constant from
    d+1 on; INF marker when no such d exists."""
    if not m.stabilizes:
        return INF
    n = m.prefix_end
    drops = [d for d in range(n + 1)
             if not m.level(d + 1).contains(m.level(d))]
    return drops[-1] if drops else INF


def shift(m, gamma):
    """Index shift (M_gamma)_i = M_{gamma+i}; stays a glider, and an index
    shift of an irreducible glider remains irreducible."""
    if not isinstance(gamma, int) or gamma < 0:
        raise SpecValidationError("index shift must be a natural number")
    if gamma == 0:
        return m
    n = m.prefix_end
    if gamma <= n:
        return Glider(m.filtration, m.ambient, m.prefix[gamma:], m.tail,
                      alg=m.alg)
    if m.stabilizes:
        return Glider(m.filtration, m.ambient, (m.level(gamma),), m.tail,
                      alg=m.alg)
    # re-anchoring a filtration tail is exact only when the deep increments
    # match the filtration's own; a multiply tail always re-anchors
    ph = m._base_field_filtration().phi
    return fit_tail(m.filtration, m.ambient, lambda i: m.level(gamma + i),
                    abs(ph.lo) + 2 * ph.minus_period + 3, alg=m.alg,
                    own=m.tail)


def scalar_shift(m, x):
    """Levelwise multiplication by a nonzero field element."""
    if not x:
        raise SpecValidationError("scalar shift by zero")
    return Glider(m.filtration, m.ambient, [lvl.scale(x) for lvl in m.prefix],
                  m.tail, alg=m.alg)


# ---------------------------------------------------------------------------
# subglider triviality
# ---------------------------------------------------------------------------

class TrivialityVerdict:
    """Tagged verdict of the subglider classification.

    kind: 'not-subglider' | 'T2' | 'T3' | 'nontrivial'.
    """

    def __init__(self, kind, level=None, witness=None, alpha=None,
                 alpha_slope=None, horizon=None):
        self.kind = kind
        self.level = level
        self.witness = witness
        self.alpha = alpha
        self.alpha_slope = alpha_slope
        self.horizon = horizon

    def trivial(self):
        return self.kind in ("T2", "T3")

    def __repr__(self):
        extra = ""
        if self.level is not None:
            extra = f" at {self.level}"
        if self.alpha is not None:
            extra += f" alpha={self.alpha[:6]}..e+{self.alpha_slope}"
        return f"<{self.kind}{extra}>"


def classify_subglider(n_gl, m_gl):
    """First matching verdict in order: not-subglider, T2, T3,
    nontrivial (with a strict sandwich witness).  The big chain m_gl must
    be a glider (SpecValidationError otherwise)."""
    require_glider(m_gl)
    return classify_subglider_unchecked(n_gl, m_gl)


def classify_subglider_unchecked(n_gl, m_gl):
    """classify_subglider for a big chain the caller built from a checked
    glider (an index shift, or the same levels over another filtration)."""
    if n_gl.ambient != m_gl.ambient:
        raise BaseMismatchError("gliders in different ambients")
    if n_gl.filtration is not m_gl.filtration \
            and n_gl.filtration != m_gl.filtration:
        raise BaseMismatchError("gliders over different filtrations")
    ok, cert = is_glider(n_gl)
    if not ok:
        return TrivialityVerdict("not-subglider", level=cert[1],
                                 witness=cert[2])
    h = max(n_gl.horizon, m_gl.horizon) + 2
    # containment levelwise on the horizon, then slope comparison
    for i in range(h + 1):
        if not m_gl.level(i).contains(n_gl.level(i)):
            return TrivialityVerdict(
                "not-subglider", level=i,
                witness=_containment_witness(n_gl.level(i), m_gl.level(i)))
    bad = _containment_fails_eventually(n_gl, m_gl, h)
    if bad is not None:
        return TrivialityVerdict(
            "not-subglider", level=bad,
            witness=_containment_witness(n_gl.level(bad), m_gl.level(bad)))
    # T2: N hits zero while M is nonzero
    for i in range(h + 1):
        if n_gl.level(i) is ZERO_MODULE and m_gl.level(i) is not ZERO_MODULE:
            return TrivialityVerdict("T2", level=i, horizon=h)
    # T3: strictly increasing index reparametrization
    alpha, slope = _t3_search(n_gl, m_gl, h)
    if slope is not None:
        return TrivialityVerdict("T3", alpha=alpha, alpha_slope=slope,
                                 horizon=h)
    # the level is that of a strict sandwich, or where the walk stopped
    lvl, wit = _sandwich_witness(n_gl, m_gl, h) or (len(alpha), None)
    return TrivialityVerdict("nontrivial", level=lvl, witness=wit, horizon=h)


def _containment_fails_eventually(n_gl, m_gl, h):
    """None when N_i stays inside M_i forever; otherwise a failing index.

    Both chains are eventually geometric; containment persists iff it
    holds on the horizon and the growth of N dominates the growth of M
    componentwise.  When it does not, a failing level is found by scan.
    """
    if m_gl.stabilizes or n_gl.stabilizes:
        # M is constant from before h on and N descends, or the glider N
        # is zero from before h on
        return None
    steps = n_gl.period * m_gl.period
    sn = n_gl.growth_ideal(steps)
    sm = m_gl.growth_ideal(steps)
    if all(a >= b for a, b in zip(sn.exps, sm.exps)):
        return None
    # M pinches to zero faster than the nonzero N at some prime
    i = max(n_gl.deep_start(), m_gl.deep_start())
    while m_gl.level(i).contains(n_gl.level(i)):
        i += steps
    return i


def _next_distinct(m_gl, n):
    """Least j > n with M_j != M_n, or None when there is none."""
    j, mn = n + 1, m_gl.level(n)
    # a stable M is constant past prefix_end; else each deep period moves M
    while m_gl.level(j) == mn:
        if m_gl.stabilizes and j > m_gl.prefix_end:
            return None
        j += 1
    return j


def _t3_search(n_gl, m_gl, h):
    """Strictly increasing alpha with N_i = M_{alpha(i)} on the horizon and
    compatible periodic continuation: (alpha values, slope), or, when there
    is none, (the values matched before the walk stopped, None), so that
    len(alpha) is the first index without a match (h + 1 when only the
    continuation fails).

    Greedy earliest-match is complete here: level chains descend, so
    matches for N_i form a consecutive block of indices, and choosing the
    first available leaves maximal room later.
    """
    alpha = []
    for i in range(h + 1):
        target = n_gl.level(i)
        j = alpha[-1] + 1 if alpha else 0
        mj = m_gl.level(j)
        # ends where M_j drops below N_i (nonzero after T2) or M is constant
        while mj != target and mj.contains(target) and not (
                m_gl.stabilizes and j > m_gl.prefix_end):
            j += 1
            mj = m_gl.level(j)
        if mj != target:
            return alpha, None
        alpha.append(j)
    # periodic continuation: beyond the horizon both chains repeat with
    # their growth ideals; require matching slopes.  A stable chain is a
    # glider ending in zero, so both chains are zero before the horizon
    # (T2 did not fire) and the matched values continue verbatim
    if n_gl.stabilizes or m_gl.stabilizes:
        return alpha, 0
    steps_n = n_gl.period
    # slope: alpha advances s indices per steps_n levels, eventually
    s = alpha[-1] - alpha[-1 - steps_n]
    for back in range(1, steps_n + 1):
        if alpha[-back] - alpha[-back - steps_n] != s:
            return alpha, None
    deep = max(alpha[-1], m_gl.deep_start())
    if n_gl.growth_ideal(steps_n).exps != _growth_between(m_gl, deep, s):
        return alpha, None
    return alpha, s


def _growth_between(m_gl, deep, s):
    """Exponents of the scalar ideal taking level(deep) to level(deep + s),
    or None when the two levels are not scalar multiples of each other."""
    if s % m_gl.period == 0:
        return m_gl.growth_ideal(s).exps
    # sub-period step: read the increment off explicit levels
    a, b = m_gl.level(deep), m_gl.level(deep + s)
    if isinstance(a, FracIdeal):
        return tuple(t - u for t, u in zip(b.exps, a.exps))
    (qa, fa), (qb, fb) = a.primitive(), b.primitive()
    return tuple(t - u for t, u in zip(fb, fa)) if qa == qb else None


def _sandwich_witness(n_gl, m_gl, h):
    """Level n and module W with M_n strictly above W strictly above the
    next distinct M-level, or None; W is N_n when that already sits
    strictly between, else N_n + M_next."""
    for i in range(h + 1):
        mi, ni = m_gl.level(i), n_gl.level(i)
        if mi == ni:
            continue
        nd = _next_distinct(m_gl, i)
        if nd is None:
            continue
        mnext = m_gl.level(nd)
        for w in (ni, ni.add(mnext)):
            if mi.contains(w) and mi != w and w.contains(mnext) \
                    and w != mnext:
                return i, w
    return None


# ---------------------------------------------------------------------------
# realization helpers
# ---------------------------------------------------------------------------

def fit_tail(filtration, ambient, level, keep, alg=None, own=None):
    """The glider with prefix level(0..keep-1) whose tail reproduces
    level(i) for every i up to its decision horizon; each level is
    computed once.  Candidates in order: `own`, the filtration tail, and
    multiplication by the filtration's minus increment when its minus
    period is 1."""
    base = filtration.base if isinstance(filtration, AlgebraFiltration) \
        else filtration
    ph = base.phi
    known = []

    def computed(i):
        while len(known) <= i:
            known.append(level(len(known)))
        return known[i]

    prefix = [computed(i) for i in range(keep)]
    candidates = [own, FiltrationTail()]
    if ph.minus_period == 1:
        candidates.append(MultiplyBy(FracIdeal(base.base_ring, ph.minus_inc)))
    for j, tail in enumerate(candidates):
        if tail is None or tail in candidates[:j]:
            continue
        cand = Glider(filtration, ambient, prefix, tail, alg=alg)
        if all(cand.level(i) == computed(i)
               for i in range(keep, cand.horizon + 1)):
            return cand
    raise UnsupportedError(
        "computed levels are not presentable by the supported tail rules")


def realize_field_chain(filt, n):
    """The chain (F_n)_*: M_i = F_{n-i}.  Exact for every presentable
    filtration: the prefix absorbs the irregular window and the tail rule
    is verified against true levels before being accepted."""
    ph = filt.phi
    keep = max(n - ph.lo, 0) + 2 * ph.minus_period + 1
    return fit_tail(filt, "field", lambda i: filt.level(n - i), keep)


def negative_part(filt):
    """The glider F_0 >= F_-1 >= F_-2 >= ... (field case)."""
    return realize_field_chain(filt, 0)
