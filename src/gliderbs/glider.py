"""Descending glider chains with finite tail presentations.

A glider is a chain M_0 >= M_1 >= ... of modules (fractional ideals in the
field case, lattices in the algebra case) compatible with a filtration:
F_i * M_j inside M_{j-i} for 0 <= i <= j.  Chains are stored as a finite
prefix plus a tail rule; all tail rules are eventually geometric, so every
quantifier over levels is decided exactly on the prefix plus two tail
periods (the decision horizon, recorded in verdicts).

Subglider triviality follows the three degenerate patterns: the chain of
the smaller glider hits its own body while the big one moves (T1), hits
zero while the big one is nonzero (T2), or is an index reparametrization
N_n = M_{alpha(n)} along a strictly increasing alpha (T3).  Everything
else is a genuine witness of reducibility and is returned with a strict
sandwich certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (BaseMismatchError, SpecValidationError,
                     UnsupportedError)
from .fields import INF
from .filtration import AlgebraFiltration, FieldFiltration
from .lattice import FracIdeal, Lattice, ZERO_MODULE, add, mult

__all__ = [
    "Tail", "FiltrationTail", "MultiplyBy", "Constant", "ZeroAfter",
    "Glider", "TrivialityVerdict",
    "is_glider", "body", "essential_length", "shift", "scalar_shift",
    "classify_subglider",
    "level_contains", "level_eq", "level_scale_ideal",
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

    @property
    def stabilizes(self):
        """The chain is constant (possibly zero) from the prefix end on."""
        return self.kind in ("constant", "zeroafter") or (
            self.kind == "multiply" and self.ideal.is_unit_ideal())


def FiltrationTail():
    return Tail("filtration")


def MultiplyBy(ideal):
    if any(e < 0 for e in ideal.exps):
        raise SpecValidationError(
            "MultiplyBy tail must not ascend: ideal must be integral")
    return Tail("multiply", ideal)


def Constant():
    return Tail("constant")


def ZeroAfter():
    return Tail("zeroafter")


# ---------------------------------------------------------------------------
# level helpers (fractional ideals, lattices, the zero module)
# ---------------------------------------------------------------------------

def level_contains(big, small):
    if small is ZERO_MODULE:
        return True
    if big is ZERO_MODULE:
        return False
    if type(big) is not type(small):
        raise BaseMismatchError("mixed level kinds")
    return big.contains(small)


def level_eq(a, b):
    if a is ZERO_MODULE or b is ZERO_MODULE:
        return a is b
    return a == b


def level_add(a, b):
    if a is ZERO_MODULE:
        return b
    if b is ZERO_MODULE:
        return a
    if isinstance(a, FracIdeal):
        return a.add(b)
    return add(a, b)


def level_scale_ideal(level, ideal):
    if level is ZERO_MODULE:
        return ZERO_MODULE
    if isinstance(level, FracIdeal):
        return level.mul(ideal)
    return level.scale_ideal(ideal)


def _level_is_zero(level):
    return level is ZERO_MODULE


# ---------------------------------------------------------------------------
# gliders
# ---------------------------------------------------------------------------

class Glider:
    """A glider chain: finite prefix M_0..M_N plus a tail rule.

    ambient is 'field' (levels are fractional ideals of the base ring) or
    'algebra' (levels are lattices in the algebra; the filtration may be a
    field filtration acting by scalars or an algebra filtration acting by
    lattice multiplication).
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
            for lvl in prefix:
                if lvl is not ZERO_MODULE and not isinstance(lvl, Lattice):
                    raise SpecValidationError(
                        "algebra glider levels are lattices")
        self.filtration = filtration
        self.ambient = ambient
        self.prefix = tuple(prefix)
        if tail.kind == "multiply" and not isinstance(tail.ideal, FracIdeal):
            raise SpecValidationError(f"not a glider tail: {tail!r}")
        self.tail = tail
        for i in range(len(self.prefix) - 1):
            if not level_contains(self.prefix[i], self.prefix[i + 1]):
                raise SpecValidationError(
                    f"prefix does not descend at level {i}")
        # the other tails descend by construction
        if tail.kind == "filtration":
            base = self._base_field_filtration()
            if level_contains(self.prefix[-1],
                              level_scale_ideal(self.prefix[-1],
                                                base.level(-1))) is False:
                raise SpecValidationError("tail does not descend")

    def _base_field_filtration(self):
        f = self.filtration
        return f.base if isinstance(f, AlgebraFiltration) else f

    @property
    def prefix_end(self):
        return len(self.prefix) - 1

    def level(self, i):
        if i < 0:
            raise SpecValidationError("glider levels are indexed by N")
        n = self.prefix_end
        if i <= n:
            return self.prefix[i]
        # level(N + k) = S_k * level(N) for the tail's multiplier S_k
        t = self.tail
        if t.kind == "filtration":
            s = self._base_field_filtration().level(n - i)
        elif t.kind == "multiply":
            s = t.ideal.pow(i - n)
        else:
            return self.prefix[n] if t.kind == "constant" else ZERO_MODULE
        return level_scale_ideal(self.prefix[n], s)

    @property
    def horizon(self):
        # a tail period is 1 or the filtration's minus period
        return self.prefix_end + 2 * \
            self._base_field_filtration().phi.minus_period + 2

    @property
    def period(self):
        """Number of tail steps after which the growth repeats."""
        if self.tail.kind == "filtration":
            return self._base_field_filtration().phi.minus_period
        return 1

    def act(self, i, level):
        """F_i * level inside the ambient."""
        if level is ZERO_MODULE:
            return ZERO_MODULE
        f = self.filtration
        if self.ambient == "algebra" and isinstance(f, AlgebraFiltration):
            return mult(f.level(i), level, self.alg)
        return level_scale_ideal(level, f.level(i))

    def levels(self, upto):
        return [self.level(i) for i in range(upto + 1)]

    def growth_ideal(self, steps):
        """Scalar ideal S with level(i + steps) = S * level(i) for deep i,
        or None when the tail stabilizes."""
        if self.tail.stabilizes:
            return None
        if self.tail.kind == "multiply":
            return self.tail.ideal.pow(steps)
        base = self._base_field_filtration()
        ph = base.phi
        if steps % ph.minus_period:
            raise SpecValidationError("steps must be a period multiple")
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
        if any(not level_eq(self.level(i), other.level(i))
               for i in range(h + 1)):
            return False
        return _same_growth(self, other)

    def __repr__(self):
        return (f"Glider({self.ambient}, N={self.prefix_end}, "
                f"tail={self.tail!r})")


def _same_growth(a, b):
    if a.tail.stabilizes or b.tail.stabilizes:
        h = max(a.horizon, b.horizon) + 2
        return all(level_eq(a.level(i), b.level(i)) for i in range(h + 3))
    steps = a.period * b.period
    return a.growth_ideal(steps).exps == b.growth_ideal(steps).exps


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def is_glider(m):
    """Check the glider axiom F_i M_j inside M_{j-i} for 0 <= i <= j on the
    decision horizon.  Returns (ok, certificate); the certificate of a
    failure is (i, j, witness vector/element)."""
    h = m.horizon
    for i in range(h):
        if not level_contains(m.level(i), m.level(i + 1)):
            return False, (i, i + 1, _containment_witness(m.level(i + 1),
                                                          m.level(i)))
    for j in range(h + 1):
        mj = m.level(j)
        for i in range(j + 1):
            prod = m.act(i, mj)
            target = m.level(j - i)
            if not level_contains(target, prod):
                return False, (i, j, _containment_witness(prod, target))
    return True, None


def _containment_witness(inner, outer):
    """An element of `inner` outside `outer`."""
    if inner is ZERO_MODULE:  # pragma: no cover - never a failure
        return None
    if isinstance(inner, FracIdeal):
        return inner.generator()
    for row in inner.rows:
        if outer is ZERO_MODULE or not outer.contains_vector(row):
            return row
    return None  # pragma: no cover


def body(m):
    """Intersection of all levels, decided from the tail rule: a tail that
    does not stabilize has a growth exponent > 0, so coordinates acquire
    unbounded valuation and the levels pinch to zero."""
    if m.tail.stabilizes:
        return m.level(m.prefix_end + 1)
    return ZERO_MODULE


def essential_length(m):
    """Least d with M_d strictly above M_{d+1} and the chain constant from
    d+1 on; INF marker when no such d exists."""
    if not m.tail.stabilizes:
        return INF
    n = m.prefix_end
    drops = [d for d in range(n + 1)
             if not level_contains(m.level(d + 1), m.level(d))]
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
    if m.tail.stabilizes:
        return Glider(m.filtration, m.ambient, (m.level(gamma),), m.tail,
                      alg=m.alg)
    # re-anchoring a filtration tail is exact only when the deep increments
    # match the filtration's own; a multiply tail always re-anchors
    ph = m._base_field_filtration().phi
    span = abs(ph.lo) + 2 * ph.minus_period + 2
    check = span + 2 * ph.minus_period + 2
    levels = [m.level(gamma + i) for i in range(check + 1)]
    return fit_tail(m.filtration, m.ambient, levels, span + 1, alg=m.alg,
                    own=m.tail)


def scalar_shift(m, x):
    """Levelwise multiplication by a nonzero field element."""
    if not x:
        raise SpecValidationError("scalar shift by zero")
    prefix = []
    for lvl in m.prefix:
        if lvl is ZERO_MODULE:
            prefix.append(ZERO_MODULE)
        elif isinstance(lvl, FracIdeal):
            vec = lvl.base.val_vector(x)
            prefix.append(FracIdeal(
                lvl.base, tuple(e + v for e, v in zip(lvl.exps, vec))))
        else:
            prefix.append(lvl.scale(x))
    return Glider(m.filtration, m.ambient, prefix, m.tail, alg=m.alg)


# ---------------------------------------------------------------------------
# subglider triviality
# ---------------------------------------------------------------------------

class TrivialityVerdict:
    """Tagged verdict of the subglider classification.

    kind: 'not-subglider' | 'T1' | 'T2' | 'T3' | 'nontrivial'.
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
        return self.kind in ("T1", "T2", "T3")

    def __repr__(self):
        extra = ""
        if self.level is not None:
            extra = f" at {self.level}"
        if self.alpha is not None:
            extra += f" alpha={self.alpha[:6]}..e+{self.alpha_slope}"
        return f"<{self.kind}{extra}>"


def classify_subglider(n_gl, m_gl):
    """First matching verdict in order: not-subglider, T2, T1, T3,
    nontrivial (with a strict sandwich witness)."""
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
        if not level_contains(m_gl.level(i), n_gl.level(i)):
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
        if _level_is_zero(n_gl.level(i)) and not _level_is_zero(m_gl.level(i)):
            return TrivialityVerdict("T2", level=i, horizon=h)
    # T1: N hits its body while M is away from its own
    bn, bm = body(n_gl), body(m_gl)
    for i in range(h + 1):
        if level_eq(n_gl.level(i), bn) and not level_eq(m_gl.level(i), bm):
            return TrivialityVerdict("T1", level=i, horizon=h)
    # T3: strictly increasing index reparametrization
    alpha = _t3_search(n_gl, m_gl, h)
    if alpha is not None:
        return TrivialityVerdict("T3", alpha=alpha[0], alpha_slope=alpha[1],
                                 horizon=h)
    lvl, wit = _sandwich_witness(n_gl, m_gl, h)
    return TrivialityVerdict("nontrivial", level=lvl, witness=wit, horizon=h)


def _containment_fails_eventually(n_gl, m_gl, h):
    """None when N_i stays inside M_i forever; otherwise a failing index.

    Both chains are eventually geometric; containment persists iff it
    holds on the horizon and the growth of N dominates the growth of M
    componentwise.  When it does not, a failing level is found by scan.
    """
    if m_gl.tail.stabilizes:
        # M is constant (possibly zero) from before h on, and N descends
        return None
    if n_gl.tail.stabilizes:
        if _level_is_zero(n_gl.level(h)):
            return None
        # N constant nonzero inside strictly descending M: must fail; scan
        i = h
        while level_contains(m_gl.level(i), n_gl.level(i)):
            i += 1
            if i > h + 64 * (m_gl.horizon + 2):  # pragma: no cover
                raise UnsupportedError("containment scan exceeded bound")
        return i
    steps = n_gl.period * m_gl.period
    sn = n_gl.growth_ideal(steps)
    sm = m_gl.growth_ideal(steps)
    if all(a >= b for a, b in zip(sn.exps, sm.exps)):
        return None
    i = max(n_gl.deep_start(), m_gl.deep_start())
    while level_contains(m_gl.level(i), n_gl.level(i)):
        i += steps
        if i > h + 64 * steps * (m_gl.horizon + 2):  # pragma: no cover
            raise UnsupportedError("containment scan exceeded bound")
    return i


def _next_distinct(m_gl, n, bound):
    j = n + 1
    while j <= bound and level_eq(m_gl.level(j), m_gl.level(n)):
        j += 1
    return j if j <= bound else None


def _t3_search(n_gl, m_gl, h):
    """Strictly increasing alpha with N_i = M_{alpha(i)} on the horizon and
    compatible periodic continuation; returns (alpha values, slope) or None.

    Greedy earliest-match is complete here: level chains descend, so
    matches for N_i form a consecutive block of indices, and choosing the
    first available leaves maximal room later.
    """
    alpha = []
    prev = -1
    for i in range(h + 1):
        target = n_gl.level(i)
        j = prev + 1
        found = None
        while True:
            mj = m_gl.level(j)
            if level_eq(mj, target):
                found = j
                break
            # descending: once M_j drops strictly below N_i, no match left
            if not level_contains(mj, target):
                break
            if _level_is_zero(mj):
                break
            j += 1
            if j > prev + 1 + 256 * (h + 2):  # pragma: no cover
                raise UnsupportedError("T3 search exceeded bound")
        if found is None:
            return None
        alpha.append(found)
        prev = found
    # periodic continuation: beyond the horizon both chains repeat with
    # their growth ideals; require matching slopes
    n_stab, m_stab = n_gl.tail.stabilizes, m_gl.tail.stabilizes
    if n_stab or m_stab:
        # horizon extends beyond both stabilization points: matched values
        # continue verbatim (constant-to-constant or zero-to-zero)
        last_n = n_gl.level(h)
        if _level_is_zero(last_n) or not n_stab:
            return alpha, 0
        # N is eventually constant: alpha can stay put only if M also
        # stabilizes at the same level
        j = alpha[-1] + 1
        if level_eq(m_gl.level(j), last_n) or (
                m_stab and level_eq(m_gl.level(max(j, m_gl.prefix_end + 1)),
                                    last_n)):
            return alpha, 0
        return None
    steps_n = n_gl.period
    # slope: alpha advances s indices per steps_n levels, eventually
    s = alpha[-1] - alpha[-1 - steps_n]
    for back in range(1, steps_n + 1):
        if alpha[-back] - alpha[-back - steps_n] != s:
            return None
    gn = n_gl.growth_ideal(steps_n)
    deep = max(alpha[-1], m_gl.deep_start())
    sm = _growth_between(m_gl, deep, s)
    if sm is None or gn.exps != sm.exps:
        return None
    return alpha, s


def _growth_between(m_gl, deep, s):
    """Scalar ideal taking level(deep) to level(deep + s), if defined."""
    if s == 0:
        return FracIdeal(m_gl._base_field_filtration().base_ring,
                         (0,) * m_gl._base_field_filtration().base_ring.nprimes)
    if s % m_gl.period == 0:
        return m_gl.growth_ideal(s)
    # sub-period step: read the increment off explicit levels
    a, b = m_gl.level(deep), m_gl.level(deep + s)
    if isinstance(a, FracIdeal):
        return FracIdeal(a.base, tuple(t - u for t, u in zip(b.exps, a.exps)))
    return None


def _sandwich_witness(n_gl, m_gl, h):
    """Level n and module W with M_n strictly above W strictly above the
    next distinct M-level; W is N_n when that already sits strictly
    between, else N_n + M_next."""
    for i in range(h + 1):
        mi, ni = m_gl.level(i), n_gl.level(i)
        if level_eq(mi, ni):
            continue
        nd = _next_distinct(m_gl, i, h + (h + 2) * 8)
        if nd is None:
            continue
        mnext = m_gl.level(nd)
        for w in (ni, level_add(ni, mnext)):
            if w is ZERO_MODULE:
                continue
            if level_contains(mi, w) and not level_eq(mi, w) \
                    and level_contains(w, mnext) and not level_eq(w, mnext):
                return i, w
    raise UnsupportedError(
        "no sandwich witness found on the decision horizon; "
        "input outside the supported representation class")


# ---------------------------------------------------------------------------
# realization helpers
# ---------------------------------------------------------------------------

def fit_tail(filtration, ambient, levels, keep, alg=None, own=None):
    """The glider with prefix levels[:keep] whose tail reproduces every
    entry of `levels`.  Candidates in order: `own`, the filtration tail,
    and multiplication by the filtration's minus increment when its minus
    period is 1."""
    base = filtration.base if isinstance(filtration, AlgebraFiltration) \
        else filtration
    ph = base.phi
    candidates = [own, FiltrationTail()]
    if ph.minus_period == 1:
        candidates.append(MultiplyBy(FracIdeal(base.base_ring, ph.minus_inc)))
    for j, tail in enumerate(candidates):
        if tail is None or tail in candidates[:j]:
            continue
        cand = Glider(filtration, ambient, levels[:keep], tail, alg=alg)
        if all(level_eq(cand.level(i), lvl) for i, lvl in enumerate(levels)):
            return cand
    raise UnsupportedError(
        "computed levels are not presentable by the supported tail rules")


def realize_field_chain(filt, n, depth=None):
    """The chain (F_n)_*: M_i = F_{n-i}.  Exact for every presentable
    filtration: the prefix absorbs the irregular window and the tail rule
    is verified against true levels before being accepted."""
    ph = filt.phi
    if depth is None:
        depth = 0
    depth = max(depth, n - ph.lo + 2 * ph.minus_period, 2 * ph.minus_period)
    check = depth + 2 * ph.minus_period + 2
    levels = [filt.level(n - i) for i in range(check + 1)]
    return fit_tail(filt, "field", levels, depth + 1)


def negative_part(filt):
    """The glider F_0 >= F_-1 >= F_-2 >= ... (field case)."""
    return realize_field_chain(filt, 0)
