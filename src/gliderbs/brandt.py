"""The groupoid of normal glider ideals in a central simple algebra.

A normal glider ideal is a chain of full lattices M_0 >= M_1 >= ... inside
the algebra, compatible with the scalar action of a field filtration, whose
left and right glider orders (the elements stabilizing every level on the
respective side) are orders.  Chains multiply levelwise by the convolution
(M*N)_i = sum_k M_k N_{i-k}, invert by the two-sided colon
(M^-1)_i = {x : M x M inside M_i}, and the maximal idempotent acting on a
chain (its unit) equals both the product with the inverse and the
modulizer chain computed from colons; multiplication is gated by matching
units, and the whole collection satisfies the five groupoid axioms, which
`verify_groupoid` checks levelwise on a sample.
"""

from __future__ import annotations

from .errors import MaximalityError, RankError, SpecValidationError
from .filtration import FieldFiltration
from .glider import fit_tail, is_glider, level_eq
from .lattice import add, colon_left, colon_right, intersect, mult, span
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
        ok, cert = is_glider(glider)
        if not ok:
            raise SpecValidationError(f"not a glider: witness {cert}")
        for i in range(glider.prefix_end + 1):
            lvl = glider.level(i)
            if lvl is None or not getattr(lvl, "full", False):
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


def left_glider_order(m):
    """O_l over all levels: the intersection of the left colons of the
    window levels (the scalar tails stabilize nothing new, since the left
    order of a scalar multiple is the left order of the level itself)."""
    m = _as_ideal(m)
    key = "left_order"
    if key not in m._cache:
        out = None
        for i in range(m.window + 1):
            c = colon_left(m.level(i), m.level(i), m.alg)
            out = c if out is None else intersect(out, c)
        if not out.full:
            raise RankError("left glider order is not a full lattice: "
                            "not a normal glider ideal")
        m._cache[key] = OrderData(out, m.alg)
    return m._cache[key]


def right_glider_order(m):
    m = _as_ideal(m)
    key = "right_order"
    if key not in m._cache:
        out = None
        for i in range(m.window + 1):
            c = colon_right(m.level(i), m.level(i), m.alg)
            out = c if out is None else intersect(out, c)
        if not out.full:
            raise RankError("right glider order is not a full lattice: "
                            "not a normal glider ideal")
        m._cache[key] = OrderData(out, m.alg)
    return m._cache[key]


def _repackage(filtration, alg, levels, own=None):
    """Build a glider from explicitly computed levels, fitting an exact
    tail rule; `levels` must extend far enough to verify the rule."""
    keep = len(levels) - 2 * filtration.phi.minus_period - 2
    if keep < 1:
        raise SpecValidationError("not enough levels to fit a tail")
    return fit_tail(filtration, "algebra", levels, keep, alg=alg, own=own)


def product(m, n):
    """(M*N)_i = sum_{k <= i} M_k N_{i-k}, levelwise exact."""
    m, n = _as_ideal(m), _as_ideal(n)
    if m.alg is not n.alg or m.filtration != n.filtration:
        raise SpecValidationError("product needs matching algebra and base")
    ph = m.filtration.phi
    upto = m.window + n.window + 2 * ph.minus_period + 3
    levels = []
    for i in range(upto + 1):
        acc = None
        for k in range(i + 1):
            term = mult(m.level(k), n.level(i - k), m.alg)
            acc = term if acc is None else add(acc, term)
        levels.append(acc)
    return NormalGliderIdeal(_repackage(m.filtration, m.alg, levels))


def inverse(m):
    """(M^-1)_i = {x : M x M inside M_i}, via two colon solves; requires
    the left glider order to be maximal, which is certified a posteriori
    by the double-inverse identity."""
    m = _as_ideal(m)
    key = "inverse"
    if key in m._cache:
        return m._cache[key]
    ph = m.filtration.phi
    upto = m.window + 2 * ph.minus_period + 3
    top = m.level(0)
    levels = []
    for i in range(upto + 1):
        li = colon_right(m.level(i), top, m.alg)     # {y : M y inside M_i}
        levels.append(colon_left(li, top, m.alg))    # {x : x M inside L_i}
    inv = NormalGliderIdeal(_repackage(m.filtration, m.alg, levels))
    m._cache[key] = inv
    inv._cache["inverse"] = m
    # maximal-order hypothesis, checked through its consequence
    upto2 = m.window + 2 * ph.minus_period + 2
    back = all(level_eq(_two_sided_colon(inv, i), m.level(i))
               for i in range(upto2 + 1))
    if not back:
        raise MaximalityError(
            "double inverse differs from the chain: the left glider order "
            "is not maximal")
    return inv


def _two_sided_colon(m, i):
    top = m.level(0)
    li = colon_right(m.level(i), top, m.alg)
    return colon_left(li, top, m.alg)


def unit_left(m):
    """E^l(M) = M * M^-1: the unique maximal idempotent with e*M = M."""
    m = _as_ideal(m)
    key = "unit_left"
    if key not in m._cache:
        m._cache[key] = product(m, inverse(m))
    return m._cache[key]


def unit_right(m):
    m = _as_ideal(m)
    key = "unit_right"
    if key not in m._cache:
        m._cache[key] = product(inverse(m), m)
    return m._cache[key]


def modulizer_chain(m):
    """The independent computation of the left unit: the chain
    E_d = {x : x M_{n-d} inside M_n for all n >= d}, evaluated by colon
    intersections over the window plus two tail periods."""
    m = _as_ideal(m)
    ph = m.filtration.phi
    upto = m.window + 4 * ph.minus_period + 4
    reach = upto + m.window + 2 * ph.minus_period + 2
    levels = []
    for d in range(upto + 1):
        acc = None
        for n in range(d, reach + 1):
            c = colon_left(m.level(n), m.level(n - d), m.alg)
            acc = c if acc is None else intersect(acc, c)
        levels.append(acc)
    return NormalGliderIdeal(_repackage(m.filtration, m.alg, levels))


def two_sided_translate(m, g, h):
    """The chain g * M_i * h for invertible algebra elements g, h."""
    m = _as_ideal(m)
    alg = m.alg
    field = m.filtration.base_ring.field
    levels = []
    ph = m.filtration.phi
    upto = m.window + 2 * ph.minus_period + 3
    for i in range(upto + 1):
        rows = [alg.mul_coords(alg.mul_coords(g, row, field), h, field)
                for row in m.level(i).rows]
        levels.append(span(m.level(i).base, alg.dim, rows))
    return NormalGliderIdeal(_repackage(m.filtration, alg, levels,
                                        own=m.glider.tail))


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


def verify_groupoid(sample):
    """Check the five groupoid axioms on the sample (closed under unit and
    inverse): units are idempotent and absorb; the multiplication gate
    compares units levelwise; associativity holds levelwise for all
    composable-or-not triples of distinct elements; the inverse identities
    hold; every pair of units is connected.  Failures are reported, not
    raised."""
    sample = [_as_ideal(m) for m in sample]
    report = GroupoidReport()
    memo = {}

    def prod(a, b):
        key = (id(a), id(b))
        out = memo.get(key)
        if out is None:
            out = product(a, b)
            memo[key] = out
        return out

    units = []
    for m in sample:
        for e in (unit_left(m), unit_right(m)):
            if not any(e == u for u in units):
                units.append(e)

    # (1) units idempotent and absorbing
    ok1, ce1 = True, None
    for idx, e in enumerate(units):
        if not prod(e, e) == e:
            ok1, ce1 = False, {"unit": idx, "identity": "e*e = e"}
            break
    if ok1:
        for idx, m in enumerate(sample):
            if prod(unit_left(m), m) != m:
                ok1, ce1 = False, {"element": idx, "identity": "E^l M = M"}
                break
            if prod(m, unit_right(m)) != m:
                ok1, ce1 = False, {"element": idx, "identity": "M E^r = M"}
                break
    report.record(1, ok1, detail=f"{len(units)} distinct units",
                  counterexample=ce1)

    # (2) gate: composable iff right unit matches left unit
    blocked = []
    for i, m in enumerate(sample):
        for j, n in enumerate(sample):
            if not _proper(m, n):
                blocked.append((i, j))
    report.record(2, True,
                  detail=f"{len(blocked)} blocked pairs out of "
                         f"{len(sample) ** 2}",
                  counterexample=None)

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
        if prod(m, inv) != unit_left(m):
            ok4, ce4 = False, {"element": i, "identity": "M M^-1 = E^l"}
            break
        if prod(inv, m) != unit_right(m):
            ok4, ce4 = False, {"element": i, "identity": "M^-1 M = E^r"}
            break
    report.record(4, ok4, counterexample=ce4)

    # (5) connectivity of units: e*e' connects e to e'
    ok5, ce5, pairs = True, None, 0
    for i, e in enumerate(units):
        for j, e2 in enumerate(units):
            pairs += 1
            a = prod(e, e2)
            if unit_left(a) != e or unit_right(a) != e2:
                ok5, ce5 = False, {"units": (i, j)}
                break
        if not ok5:
            break
    report.record(5, ok5, detail=f"{pairs} unit pairs", counterexample=ce5)
    return report
