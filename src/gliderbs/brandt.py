"""The groupoid of normal glider ideals in a central simple algebra.

A normal glider ideal is a chain of full lattices M_0 >= M_1 >= ... inside
the algebra, compatible with the scalar action of a field filtration, whose
left and right glider orders (the elements stabilizing every level on the
respective side) are orders.  Chains multiply levelwise by the convolution
(M*N)_i = sum_k M_k N_{i-k}, invert by the two-sided colon
(M^-1)_i = {x : M x M inside M_i}, and the maximal idempotent acting on a
chain (its unit) equals both the product with the inverse and the
modulizer chain computed from colons.  `product` convolves any pair over
one algebra and filtration, with no gate on their units: the units are
products themselves (`unit_left` is `product(m, inverse(m))`), so a gate
inside `product` would recurse.  `verify_groupoid` checks the five
groupoid axioms levelwise on a sample, the units of a product on proper
pairs only (`_proper`: E^r(M) = E^l(N)).
"""

from __future__ import annotations

from .errors import MaximalityError, RankError, SpecValidationError
from .filtration import FieldFiltration
from .glider import Glider, fit_tail, require_glider
from .lattice import (ZERO_MODULE, colon_left, colon_right, intersect,
                      memo_scope, mult, span)
from .orders import OrderData

__all__ = [
    "NormalGliderIdeal", "left_glider_order", "right_glider_order",
    "product", "inverse", "unit_left", "unit_right", "modulizer_chain",
    "verify_groupoid", "GroupoidReport", "two_sided_translate",
]


class NormalGliderIdeal:
    """A finitely generated torsion-free glider chain of full lattices with
    K M = A, wrapped with lazily computed orders, units and inverse."""

    def __init__(self, glider):
        if glider.ambient != "algebra":
            raise SpecValidationError("normal glider ideals live in algebras")
        if not isinstance(glider.filtration, FieldFiltration):
            raise SpecValidationError(
                "normal glider ideals are chains over a field filtration")
        require_glider(glider)
        for i, lvl in enumerate(glider.prefix):
            if not getattr(lvl, "full", False):  # zero has no rank
                raise RankError(
                    f"level {i} is not a full lattice: K M must be the "
                    "whole algebra")
        self.glider = glider
        self.alg = glider.alg
        self.filtration = glider.filtration
        self._cache = {}

    def level(self, i):
        return self.glider.level(i)

    @property
    def window(self):
        return self.glider.prefix_end

    def __eq__(self, other):
        if not isinstance(other, NormalGliderIdeal):
            return NotImplemented
        return self.glider == other.glider

    def __hash__(self):
        return hash((self.level(0), self.level(1)))

    def __repr__(self):
        return f"NormalGliderIdeal(N={self.window})"


def _as_ideal(obj):
    if isinstance(obj, NormalGliderIdeal):
        return obj
    return NormalGliderIdeal(obj)


@memo_scope()
def left_glider_order(m):
    """O_l over all levels: the intersection of the left colons of the
    window levels (the scalar tails stabilize nothing new, since the left
    order of a scalar multiple is the left order of the level itself)."""
    return _glider_order(m, "left", colon_left)


@memo_scope()
def right_glider_order(m):
    """O_r over all levels, from the right colons likewise."""
    return _glider_order(m, "right", colon_right)


def _glider_order(m, side, colon):
    m = _as_ideal(m)
    key = f"{side}_order"
    if key not in m._cache:
        out = None
        for i in range(m.window + 1):
            c = colon(m.level(i), m.level(i), m.alg)
            out = c if out is None else intersect(out, c)
        # full without a check: the window levels are full, so are their
        # colons and the intersection (and OrderData checks it)
        m._cache[key] = OrderData(out, m.alg)
    return m._cache[key]


def _repackage(filtration, alg, level, keep):
    """The glider with prefix level(0..keep-1+d) and an exact tail rule
    fitted to the computed levels, for d the degree from which the
    filtration's negative side is periodic: past it a filtration tail or
    a multiply tail can reproduce the levels."""
    return fit_tail(filtration, "algebra", level,
                    keep + filtration.phi.minus_start, alg=alg)


@memo_scope()
def product(m, n):
    """(M*N)_i = sum_{k <= i} M_k N_{i-k}, levelwise exact.  The result
    is re-checked as a glider: when F_i F_j differs from F_{i+j} the
    product chain can fail the axiom (SpecValidationError)."""
    m, n = _as_ideal(m), _as_ideal(n)
    if m.alg is not n.alg or m.filtration != n.filtration:
        raise SpecValidationError("product needs matching algebra and base")

    def level(i):
        acc = ZERO_MODULE
        for k in range(i + 1):
            acc = acc.add(mult(m.level(k), n.level(i - k), m.alg))
        return acc

    return NormalGliderIdeal(_repackage(m.filtration, m.alg, level,
                                        m.window + n.window + 2))


@memo_scope()
def inverse(m):
    """(M^-1)_i = {x : M x M inside M_i}, via two colon solves; requires
    the left glider order to be maximal, which is certified a posteriori
    by the double-inverse identity."""
    m = _as_ideal(m)
    key = "inverse"
    if key in m._cache:
        return m._cache[key]
    inv = NormalGliderIdeal(_repackage(
        m.filtration, m.alg, lambda i: _two_sided_colon(m, i), m.window + 2))
    # maximal-order hypothesis, checked through its consequence; only a
    # checked inverse is cached
    back = all(_two_sided_colon(inv, i) == m.level(i)
               for i in range(m.glider.horizon + 1))
    if not back:
        raise MaximalityError(
            "double inverse differs from the chain: the left glider order "
            "is not maximal")
    m._cache[key] = inv
    inv._cache["inverse"] = m
    return inv


def _two_sided_colon(m, i):
    top = m.level(0)
    li = colon_right(m.level(i), top, m.alg)     # {y : M y inside M_i}
    return colon_left(li, top, m.alg)            # {x : x M inside L_i}


@memo_scope()
def unit_left(m):
    """E^l(M) = M * M^-1: the unique maximal idempotent with e*M = M."""
    m = _as_ideal(m)
    key = "unit_left"
    if key not in m._cache:
        m._cache[key] = product(m, inverse(m))
    return m._cache[key]


@memo_scope()
def unit_right(m):
    m = _as_ideal(m)
    key = "unit_right"
    if key not in m._cache:
        m._cache[key] = product(inverse(m), m)
    return m._cache[key]


@memo_scope()
def modulizer_chain(m):
    """The independent computation of the left unit: the chain
    E_d = {x : x M_{n-d} inside M_n for all n >= d}, evaluated by colon
    intersections over n up to 2h + 2p + 2 for the chain's horizon h and
    minus period p (the modulizer's own horizon plus h)."""
    m = _as_ideal(m)
    ph = m.filtration.phi
    reach = 2 * m.glider.horizon + 2 * ph.minus_period + 2

    def level(d):
        acc = None
        for n in range(d, reach + 1):
            c = colon_left(m.level(n), m.level(n - d), m.alg)
            acc = c if acc is None else intersect(acc, c)
        return acc

    return NormalGliderIdeal(_repackage(m.filtration, m.alg, level,
                                        m.window + 2 * ph.minus_period + 3))


@memo_scope()
def two_sided_translate(m, g, h):
    """The chain g * M_i * h for invertible algebra elements g, h: the
    window is translated and the tail kept, since g (S M_N) h = S (g M_N h)
    for every scalar ideal S."""
    m = _as_ideal(m)
    alg = m.alg
    field = m.filtration.base_ring.field
    levels = []
    for lvl in m.glider.prefix:
        rows = [alg.mul_coords(alg.mul_coords(g, row, field), h, field)
                for row in lvl.rows]
        levels.append(span(lvl.base, alg.dim, rows))
    return NormalGliderIdeal(Glider(m.filtration, "algebra", levels,
                                    m.glider.tail, alg=alg))


# ---------------------------------------------------------------------------
# groupoid verification
# ---------------------------------------------------------------------------

class GroupoidReport:
    def __init__(self):
        self.axioms = []

    def record(self, axiom, status, detail=None, counterexample=None):
        self.axioms.append({
            "axiom": axiom,
            "status": "pass" if status else "fail",
            "detail": detail,
            "counterexample": counterexample,
        })

    def all_pass(self):
        return all(a["status"] == "pass" for a in self.axioms)

    def __repr__(self):
        return "GroupoidReport(" + ", ".join(
            f"{a['axiom']}:{a['status']}" for a in self.axioms) + ")"


def _proper(m, n):
    return unit_right(m) == unit_left(n)


@memo_scope()
def verify_groupoid(sample):
    """Check the five groupoid axioms on the sample (closed under unit and
    inverse): units are idempotent and absorb; a proper pair (E^r(M) =
    E^l(N)) has E^l(MN) = E^l(M) and E^r(MN) = E^r(N); associativity holds
    levelwise for all composable-or-not triples of distinct elements;
    M M^-1 and M^-1 M equal the modulizer chains of M and M^-1; every pair
    of units is connected.  An element without a verified inverse has no
    units: it fails axiom 4 and the unit axioms run on the others.
    Failures are reported, not raised."""
    sample = [_as_ideal(m) for m in sample]
    report = GroupoidReport()
    memo = {}

    def prod(a, b):
        key = (a, b)
        out = memo.get(key)
        if out is None:
            out = product(a, b)
            memo[key] = out
        return out

    def units_of(m):
        """(E^l(M), E^r(M)), or None when M has no verified inverse."""
        try:
            return unit_left(m), unit_right(m)
        except MaximalityError:
            return None

    invertible = []     # (index, element) of the elements with units
    units = []
    for i, m in enumerate(sample):
        eu = units_of(m)
        if eu is None:
            continue
        invertible.append((i, m))
        for e in eu:
            if not any(e == u for u in units):
                units.append(e)

    # (1) units idempotent and absorbing
    ok1, ce1 = True, None
    for idx, e in enumerate(units):
        if not prod(e, e) == e:
            ok1, ce1 = False, {"unit": idx, "identity": "e*e = e"}
            break
    if ok1:
        for idx, m in invertible:
            if prod(unit_left(m), m) != m:
                ok1, ce1 = False, {"element": idx, "identity": "E^l M = M"}
                break
            if prod(m, unit_right(m)) != m:
                ok1, ce1 = False, {"element": idx, "identity": "M E^r = M"}
                break
    report.record(1, ok1, detail=f"{len(units)} distinct units",
                  counterexample=ce1)

    # (2) gate: a proper product keeps the outer units
    blocked, ok2, ce2 = [], True, None
    for i, m in invertible:
        for j, n in invertible:
            if not _proper(m, n):
                blocked.append((i, j))
            elif ok2 and units_of(prod(m, n)) != (unit_left(m),
                                                   unit_right(n)):
                ok2, ce2 = False, {"pair": (i, j),
                                   "identity": "E^l(MN) = E^l(M), "
                                               "E^r(MN) = E^r(N)"}
    report.record(2, ok2,
                  detail=f"{len(blocked)} blocked pairs out of "
                         f"{len(invertible) ** 2}",
                  counterexample=ce2)

    # (3) associativity levelwise on ordered triples of distinct elements
    ok3, ce3, triples = True, None, 0
    for i, m in enumerate(sample):
        for j, n in enumerate(sample):
            for k, v in enumerate(sample):
                if len({i, j, k}) != 3:
                    continue
                triples += 1
                left = prod(prod(m, n), v)
                right = prod(m, prod(n, v))
                if left != right:
                    ok3, ce3 = False, {"triple": (i, j, k)}
                    break
            if not ok3:
                break
        if not ok3:
            break
    report.record(3, ok3, detail=f"{triples} triples", counterexample=ce3)

    # (4) inverse identities
    ok4, ce4 = True, None
    for i, m in enumerate(sample):
        try:
            inv = inverse(m)
        except MaximalityError as exc:
            ok4, ce4 = False, {"element": i, "error": str(exc)}
            break
        # against the colon computation of the units, not the products
        # that define unit_left and unit_right
        if prod(m, inv) != modulizer_chain(m):
            ok4, ce4 = False, {"element": i, "identity": "M M^-1 = E^l"}
            break
        if prod(inv, m) != modulizer_chain(inv):
            ok4, ce4 = False, {"element": i, "identity": "M^-1 M = E^r"}
            break
    report.record(4, ok4, counterexample=ce4)

    # (5) connectivity of units: e*e' connects e to e'
    ok5, ce5, pairs = True, None, 0
    for i, e in enumerate(units):
        for j, e2 in enumerate(units):
            pairs += 1
            if units_of(prod(e, e2)) != (e, e2):
                ok5, ce5 = False, {"units": (i, j)}
                break
        if not ok5:
            break
    report.record(5, ok5, detail=f"{pairs} unit pairs", counterexample=ce5)
    return report
