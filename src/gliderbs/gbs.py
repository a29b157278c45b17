"""Classification and windowed enumeration of irreducible glider chains.

Field case: over the valuation filtration of a DVR the irreducible chains
are the integer shifts (F_n)_*; over any other strong filtration there are
none, and a non-strong filtration classifies through its strong e-step
completion.  Algebra case: over a split matrix algebra with an induced
filtration on a strong one-prime base, the irreducible chains are the
column chains (F_m A v)_* indexed by a projective point and a shift when
their level quotient is simple, and there are none when it is not.  Every
Reducible verdict carries a witness subglider that re-verifies as
nontrivial; every Irreducible verdict round-trips through realization.
"""

from __future__ import annotations

from . import linalg
from .errors import SpecValidationError, UnsupportedError
from .filtration import (AlgebraFiltration, is_strong,
                         strong_completion)
from .glider import (Glider, ZeroAfter, classify_subglider_unchecked,
                     fit_tail, realize_field_chain, require_glider)
from .lattice import (FracIdeal, ZERO_MODULE, intermediate_module,
                      intersect, is_simple_quotient, memo_scope, mult,
                      require_int, span)

__all__ = [
    "BsPoint", "LeftIdeal", "GbsElement", "Verdict",
    "bs_left_ideal", "classify_field_glider", "classify_csa_glider",
    "enumerate_gbs_field", "enumerate_gbs_csa",
    "realize_field_element", "realize_csa_element",
    "find_negative_part_witness", "represent_over",
]


class BsPoint:
    """A projective point: homogeneous coordinates normalized so the first
    nonzero coordinate is 1.  Parametrizes the minimal left ideal of the
    matrix algebra whose elements have all rows proportional to it."""

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise SpecValidationError("empty coordinate tuple")
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise SpecValidationError("a projective point cannot be zero")
        self.coords = tuple(c / lead for c in coords)
        self.field = self.coords[0].field

    @property
    def n(self):
        return len(self.coords)

    def sort_key(self):
        return tuple(str(c) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, BsPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class LeftIdeal:
    """Minimal left ideal of M_n(K) attached to a point: the span of the
    matrices with a single row equal to the point's coordinates."""

    def __init__(self, point):
        self.point = point
        self.n = point.n
        self.field = point.field
        n, f = self.n, point.coords
        zero = self.field.zero()
        basis = []
        for s in range(n):
            vec = [zero] * (n * n)
            for j in range(n):
                vec[s * n + j] = f[j]
            basis.append(tuple(vec))
        self.basis = tuple(basis)

    def contains(self, vec):
        # echelon rows: row s has its pivot, the point's leading 1, in block s
        return not any(linalg.reduce([vec], self.basis)[1][0])

    def generator(self):
        """The canonical generator: the matrix with first row the point."""
        return self.basis[0]


def bs_left_ideal(point, n):
    if point.n != n:
        raise SpecValidationError(
            f"point has {point.n} coordinates, expected {n}")
    return LeftIdeal(point)


class GbsElement:
    """A classified irreducible chain: a shift for fields, a projective
    point plus a shift for split algebras."""

    def __init__(self, kind, shift, point=None, filtration=None):
        if kind not in ("field", "csa"):
            raise SpecValidationError(f"unknown element kind {kind!r}")
        self.kind = kind
        self.shift = require_int(shift)
        self.point = point
        self.filtration = filtration

    def __eq__(self, other):
        if not isinstance(other, GbsElement):
            return NotImplemented
        return (self.kind == other.kind and self.shift == other.shift
                and self.point == other.point)

    def __hash__(self):
        return hash((self.kind, self.shift, self.point))

    def __repr__(self):
        if self.kind == "field":
            return f"GbsElement(field, shift={self.shift})"
        return f"GbsElement({self.point!r}, shift={self.shift})"


class Verdict:
    """Outcome of a classification: irreducible with the recognized
    element, reducible with a verified witness, or out-of-class."""

    def __init__(self, status, element=None, witness=None, witness_shift=0,
                 triviality=None, reason=None, rule=None, via=None):
        self.status = status
        self.element = element
        self.witness = witness
        self.witness_shift = witness_shift
        self.triviality = triviality
        self.reason = reason
        self.rule = rule
        self.via = via

    def __repr__(self):
        if self.status == "irreducible":
            return f"Irreducible({self.element!r})"
        if self.status == "reducible":
            return f"Reducible(level shift {self.witness_shift})"
        return f"OutOfClass({self.reason})"


def _reducible(m, witness, shift_by, rule):
    from .glider import shift as index_shift

    verdict = classify_subglider_unchecked(witness,
                                           index_shift(m, shift_by))
    # the csa witnesses are subgliders by construction (`_csa_witness`),
    # but nontrivial only through facts of M: a level of M whose K-span
    # misses the minimal left ideal would make the witness zero there
    if verdict.kind != "nontrivial":
        raise UnsupportedError(
            f"constructed witness re-classified as {verdict.kind}")
    return Verdict("reducible", witness=witness, witness_shift=shift_by,
                   triviality=verdict, rule=rule)


# ---------------------------------------------------------------------------
# field classification
# ---------------------------------------------------------------------------

def represent_over(m, filt):
    """The same levelwise chain as a glider over another filtration with an
    identical positive part; exactness verified."""
    # the chain's own tail is tried only when it multiplies by an ideal,
    # which means the same rule over any filtration
    own = m.tail if m.tail.kind == "multiply" else None
    return fit_tail(filt, m.ambient, m.level, m.horizon + 3, alg=m.alg,
                    own=own)


def _prime_multiple(m, j):
    """pi_j * M for the j-th prime: a subglider, as pi_j is integral."""
    ring = m._base_field_filtration().base_ring
    ideal = FracIdeal(ring, tuple(int(t == j) for t in range(ring.nprimes)))
    return Glider(m.filtration, m.ambient,
                  [lvl.scale_ideal(ideal) for lvl in m.prefix], m.tail,
                  alg=m.alg)


def _multiplier_witness(m, rule):
    """The first nontrivial pi_j * M as a reducible verdict, or None.
    No integral multiplier c does better: pi_j * M is zero only where M
    is, so it is T3 or nontrivial, and when every pi_j * M is an index
    reparametrization of M, composing them makes c * M one."""
    for j in range(m._base_field_filtration().base_ring.nprimes):
        witness = _prime_multiple(m, j)
        verdict = classify_subglider_unchecked(witness, m)
        if verdict.kind == "nontrivial":
            return Verdict("reducible", witness=witness, witness_shift=0,
                           triviality=verdict, rule=rule)
    return None


def _completion(filt):
    """The one decision of where chains over filt classify: (filt, 1) for
    a strong filtration, its strong e-step completion (comp, e) when the
    negative part refines into it, or the reason there is none."""
    if is_strong(filt):
        return filt, 1
    out = strong_completion(filt)
    if out is None:
        return "positive part is not e-step: no strong completion has it"
    if not _negative_part_refines(filt, out[0]):
        return "negative part does not refine into the strong completion"
    return out


def classify_field_glider(m):
    """Verdict for a chain of fractional ideals over a field filtration:
    the zero chain is out of class, and every other chain is classified
    over the strong filtration `_completion` names, if there is one."""
    require_glider(m)
    if m.level(0) is ZERO_MODULE:
        return Verdict("out-of-class", reason="zero chain",
                       rule="field.dvr-enumeration")
    completion = _completion(m.filtration)
    if isinstance(completion, str):
        return _multiplier_witness(m, "field.associated-strong") or Verdict(
            "out-of-class", rule="field.associated-strong", reason=completion)
    comp, e = completion
    if comp is m.filtration:
        return _classify_strong(m, comp)
    try:
        m = represent_over(m, comp)
    except UnsupportedError:
        # a strong comp presents each of its shifts by its filtration
        # tail, so M is none and stays over its own filtration, which has
        # comp's positive part; over an e-step comp no supported tail rule
        # presents the chain's growth
        if e > 1:
            return Verdict("out-of-class", rule="field.estep-unsupported",
                           reason=f"chain is not presentable over the strong "
                                  f"{e}-step completion")
    out = _classify_strong(m, comp) if e == 1 else _multiplier_witness(
        m, "field.estep-unsupported")
    if out is None:
        return Verdict("out-of-class", rule="field.estep-unsupported",
                       reason=f"strong {e}-step completion with e >= 2")
    out.via = "field.associated-strong"
    return out


def _negative_part_refines(filt, comp):
    """Every F_-n must be one of the completion's negative levels."""
    h = max(filt.horizon, comp.horizon)
    j = 0
    for n in range(1, h + 1):
        target = filt.level(-n)
        # the completion's negative levels pinch below the nonzero target
        while comp.level(-j) != target:
            if not comp.level(-j).contains(target):
                return False
            j += 1
        j += 1
    return True


def _classify_strong(m, filt):
    """Verdict for a nonzero chain whose filtration has the positive part
    of the strong filtration filt.  Over a DVR valuation filtration a
    chain that is not a shift has a gap M_j < pi M_{j-1}, with pi M_{j-1}
    strictly between; otherwise phi(1) >= 1 at every prime (>= 2 over
    one), so M_1 lies strictly inside pi_1 M_0.  Either way pi_1 M is a
    nontrivial witness, which `_reducible` re-checks."""
    rule = "field.strong-requires-dvr"
    if filt.is_dvr_valuation():
        n, rule = -m.level(0).exps[0], "field.dvr-enumeration"
        if m == realize_field_chain(filt, n):
            return Verdict("irreducible",
                           element=GbsElement("field", n, filtration=filt),
                           rule=rule)
    return _reducible(m, _prime_multiple(m, 0), 0, rule)


def realize_field_element(filt, n):
    return realize_field_chain(filt, n)


def enumerate_gbs_field(filt, window):
    """All field elements with shifts in the inclusive window, when the
    filtration is (or completes to) a DVR valuation filtration; empty
    otherwise."""
    completion = _completion(filt)
    if isinstance(completion, str) or not completion[0].is_dvr_valuation():
        return []
    a, b = window
    out = []
    for n in range(a, b + 1):
        g = GbsElement("field", n, filtration=filt)
        verdict = classify_field_glider(realize_field_chain(completion[0], n))
        if verdict.status != "irreducible" or verdict.element != g:
            raise UnsupportedError(  # pragma: no cover - internal guard
                f"round-trip failed at shift {n}")
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# algebra classification
# ---------------------------------------------------------------------------

def _column_module(filt, vec):
    """B*v for the order B of the filtration and the algebra element with
    coordinates vec."""
    return mult(filt.order, span(filt.base_ring, filt.alg.dim, [vec]),
                filt.alg)


def _row_space(vectors, n, field):
    """The reduced echelon basis of the common row space of a family of
    n x n matrices."""
    rows = []
    for vec in vectors:
        for s in range(n):
            row = list(vec[s * n:(s + 1) * n])
            if any(row):
                rows.append(row)
    return linalg.rref(rows, field)[0]


def _csa_class(filt):
    """The one decision of whether chains over filt are in the csa class:
    None for an induced filtration of a split matrix algebra over a strong
    one-prime base, else the (rule, reason) that puts them out."""
    if not isinstance(filt, AlgebraFiltration):
        return ("csa.relative-product",
                "chain is not over an algebra filtration")
    if filt.alg.kind != "matrix":
        return ("csa.unsupported-algebra",
                "point extraction needs a split matrix algebra")
    if filt.mode != "induced":
        return ("csa.relative-product",
                "classification implemented for induced filtrations")
    if len(filt.base.valuations) != 1:
        return ("csa.relative-product",
                "base must be a single discrete valuation")
    if not is_strong(filt.base):
        return "csa.relative-product", "base field filtration must be strong"
    return None


@memo_scope()
def classify_csa_glider(m):
    """Verdict for a lattice chain over an induced matrix-algebra
    filtration on a strong one-prime base: every nonzero chain in the
    class is a column chain (irreducible) or gets a witness."""
    require_glider(m)
    out_of_class = _csa_class(m.filtration)
    if out_of_class is not None:
        rule, reason = out_of_class
        return Verdict("out-of-class", reason=reason, rule=rule)
    filt = m.filtration
    alg = filt.alg
    n = alg.n
    field = filt.base_ring.field
    # the body is zero: F_1 scales by pi^-c over a strong base, so the
    # glider axiom lets no nonzero level stay constant
    top = m.level(0)
    if top is ZERO_MODULE:
        return Verdict("out-of-class", reason="zero chain",
                       rule="csa.principal")
    h = m.horizon
    for i in range(h + 1):
        if m.level(i + 1) is ZERO_MODULE:
            # finite essential length: scaling the last nonzero level
            # strictly between it and zero witnesses reducibility
            pi = filt.base_ring.uniformizers[0]
            witness = Glider(filt, "algebra", [m.level(i).scale(pi)],
                             ZeroAfter(), alg=alg)
            return _reducible(m, witness, i, "csa.principal")
    # matrix units only move rows, so the rows of the top level span the
    # row space of the left ideal they generate
    rows = _row_space(top.rows, n, field)
    if len(rows) > 1:
        # M_k cut with the minimal left ideal L of one row: rank n against
        # at least 2n; a scalar tail commutes with the cut, so N keeps M's
        # tail.  Every entry of M_0 has value >= -t, and an element of L
        # with such entries lies in pi^-t times L's span, as the point
        # has a leading 1
        ideal = LeftIdeal(BsPoint(rows[0]))
        t = max(0, -top.primitive()[1][0])
        cut = span(filt.base_ring, alg.dim, ideal.basis).scale_exponents(
            (-t,))
        return _reducible(m, Glider(filt, "algebra", [
            intersect(lvl, cut) for lvl in m.prefix], m.tail, alg=alg), 0,
            "csa.principal")
    point = BsPoint(rows[0])
    # level-quotient simplicity scan
    order = filt.order
    for i in range(h + 1):
        xi, yi = m.level(i), m.level(i + 1)
        if not is_simple_quotient(xi, yi, order, alg):
            # a quotient that is not simple has a module strictly inside
            w = intermediate_module(xi, yi, order, alg)
            rule = ("csa.ramification-one"
                    if _is_scalar_step_gap(filt) else
                    "csa.relative-product")
            return _reducible(m, _csa_witness(m, i, w), i, rule)
    # Every quotient is simple, so M is the column chain of (point, s):
    # phi(1) >= 2 would leave pi M_0 strictly between M_0 and M_1, so
    # F_1 A = pi^-1 B and M_{i+1} = pi M_i; for the least k with pi^k v in
    # M_0, B pi^k v + pi M_0 = M_0, so M_0 = pi^k B v by Nakayama.
    bv = _column_module(filt, LeftIdeal(point).generator())
    shift_s = _scalar_shift_exponent(top, bv)
    if shift_s is not None and m == realize_csa_element(filt, point, shift_s):
        return Verdict("irreducible",
                       element=GbsElement("csa", shift_s, point=point,
                                          filtration=filt),
                       rule="csa.relative-product")
    # unreachable by the argument above; `_reducible` raises if pi M is not
    # a nontrivial witness
    return _reducible(m, _prime_multiple(m, 0), 0, "csa.relative-product")


def _is_scalar_step_gap(filt):
    """A non-simple quotient caused by a scalar step deeper than the
    maximal ideal (the ramification obstruction)."""
    ph = filt.base.phi
    return ph(1)[0] >= 2


def _scalar_shift_exponent(lvl, bv):
    """s with lvl = pi^{-s} * bv, or None: two lattices differ by a
    scalar iff their primitive parts agree."""
    (q, f), (qb, fb) = lvl.primitive(), bv.primitive()
    return fb[0] - f[0] if q == qb else None


def _csa_witness(m, i, x):
    """The subglider N_k = M_{i+k} ∩ F_{-k}X of the index shift
    (M_{i+k})_k, for a B-module X inside M_i: F_j N_k lies in
    M_{i+k-j} ∩ F_{j-k}X.  It is presented with the shortest prefix that
    `fit_tail` accepts, trying the filtration tail first.  When M has a
    filtration tail from N on, so does N from N - i on (the filtration is
    strong); a multiply tail of M can need a longer prefix."""
    step = m.filtration.base.level
    known = {0: x}

    def level(k):
        if k not in known:
            known[k] = intersect(m.level(i + k), x.scale_ideal(step(-k)))
        return known[k]

    for keep in range(1, max(m.prefix_end - i, 0) + m.horizon + 2):
        try:
            return fit_tail(m.filtration, "algebra", level, keep, alg=m.alg,
                            own=None if keep == 1 else m.tail)
        except UnsupportedError:
            pass
    raise UnsupportedError(
        "the witness levels are not presentable by the supported tail rules")


def realize_csa_element(filt, point, m):
    """The chain (F_m A v)_* for the canonical generator v of the point:
    the column module B*v times the field chain (F_m K)_*, with the field
    chain's prefix and tail."""
    if not isinstance(filt, AlgebraFiltration) or filt.alg.kind != "matrix":
        raise UnsupportedError("realization needs a split matrix algebra")
    bv = _column_module(filt, LeftIdeal(point).generator())
    chain = realize_field_chain(filt.base, m)
    return Glider(filt, "algebra",
                  [bv.scale_ideal(lvl) for lvl in chain.prefix], chain.tail,
                  alg=filt.alg)


def enumerate_gbs_csa(filt, window, points):
    """The product set {(point, shift)} over the inputs when the column
    chains are irreducible, and [] when they are not; every element is
    verified by a classifier round-trip.  Deterministic output order:
    normalized point coordinates, then shift."""
    out_of_class = _csa_class(filt)
    if out_of_class is not None:
        raise UnsupportedError(out_of_class[1])
    a, b = window
    points = sorted(points, key=lambda p: p.sort_key())
    if not points:
        return []
    # c -> c f^T (f the point's coordinates) maps B e_1 onto B v, so all
    # column chains share one level quotient: all irreducible when it is
    # simple; else none, as only column chains pass the classifier's scan
    first = realize_csa_element(filt, points[0], a)
    if not is_simple_quotient(first.level(0), first.level(1), filt.order,
                              filt.alg):
        return []
    out = []
    for point in points:
        for mshift in range(a, b + 1):
            chain = realize_csa_element(filt, point, mshift)
            verdict = classify_csa_glider(chain)
            if verdict.status != "irreducible" \
                    or verdict.element.shift != mshift \
                    or verdict.element.point != point:
                raise UnsupportedError(  # pragma: no cover - internal guard
                    f"round-trip failed at ({point!r}, {mshift})")
            out.append(verdict.element)
    return out


def find_negative_part_witness(filt):
    """A nontrivial subglider of the negative part (F_0 A)_* for a split
    matrix algebra of size >= 2: the column chain of a standard point."""
    if not isinstance(filt, AlgebraFiltration) or filt.alg.kind != "matrix":
        raise UnsupportedError("witness construction needs a matrix algebra")
    n = filt.alg.n
    if n < 2:
        raise UnsupportedError(
            "no witness for n = 1: the negative part of a DVR valuation "
            "filtration on the field itself is irreducible")
    field = filt.base_ring.field
    coords = [field.one()] + [field.zero()] * (n - 1)
    point = BsPoint(coords)
    witness = realize_csa_element(filt, point, 0)
    return witness, point
