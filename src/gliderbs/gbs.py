"""Classification and windowed enumeration of irreducible glider chains.

Field case: over the valuation filtration of a DVR the irreducible chains
are the integer shifts (F_n)_*; over any other strong filtration there are
none, and a non-strong filtration classifies through its strong e-step
completion.  Algebra case: over a split matrix algebra with an induced
filtration on a DVR valuation base, the irreducible chains are the column
chains (F_m A v)_* indexed by a projective point and a shift, and the set
of irreducibles is the product of the point set with the integers.  Every
Reducible verdict carries a witness subglider that re-verifies as
nontrivial; every Irreducible verdict round-trips through realization.
"""

from __future__ import annotations

from . import linalg
from .errors import SpecValidationError, UnsupportedError
from .filtration import (AlgebraFiltration, is_strong,
                         strong_completion)
from .glider import (FiltrationTail, Glider, ZeroAfter, classify_subglider,
                     fit_tail, is_glider, realize_field_chain)
from .lattice import (FracIdeal, ZERO_MODULE, intermediate_module,
                      is_simple_quotient, mult, span)

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
        rows = [list(b) for b in self.basis]
        reduced, _ = linalg.rref(rows + [list(vec)], self.field)
        base_rank = len(linalg.rref(rows, self.field)[0])
        return len(reduced) == base_rank

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
        self.shift = int(shift)
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


def _require_glider(m):
    ok, cert = is_glider(m)
    if not ok:
        raise SpecValidationError(f"input chain is not a glider: {cert}")


def _reducible(m, witness, shift_by, rule):
    from .glider import shift as index_shift

    verdict = classify_subglider(witness, index_shift(m, shift_by))
    if verdict.kind != "nontrivial":  # pragma: no cover - internal guard
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
    h = m.horizon + 2
    levels = [m.level(i) for i in range(h + 2 * filt.phi.minus_period + 3)]
    # the chain's own tail is tried only when it multiplies by an ideal,
    # which means the same rule over any filtration
    own = m.tail if m.tail.kind == "multiply" else None
    return fit_tail(filt, m.ambient, levels, h + 1, alg=m.alg, own=own)


def _multiplier_witness(m, rule):
    """A reducibility witness of the form c*M for a maximal-ideal
    multiplier c; always a subglider, nontrivial whenever the chain has a
    level gap."""
    base = m._base_field_filtration()
    ring = base.base_ring
    r = ring.nprimes
    cands = []
    for j in range(r):
        cands.append(tuple(1 if t == j else 0 for t in range(r)))
    cands.append(tuple(1 for _ in range(r)))
    for j in range(r):
        cands.append(tuple(2 if t == j else 0 for t in range(r)))
    for exps in cands:
        ideal = FracIdeal(ring, exps)
        prefix = [lvl.mul(ideal) if lvl is not ZERO_MODULE else ZERO_MODULE
                  for lvl in (m.level(i) for i in range(m.prefix_end + 1))]
        witness = Glider(m.filtration, m.ambient, prefix, m.tail, alg=m.alg)
        verdict = classify_subglider(witness, m)
        if verdict.kind == "nontrivial":
            return Verdict("reducible", witness=witness, witness_shift=0,
                           triviality=verdict, rule=rule)
    return None


def classify_field_glider(m):
    """Verdict for a chain of fractional ideals over a field filtration."""
    _require_glider(m)
    filt = m.filtration
    if filt.is_dvr_valuation():
        return _classify_field_dvr(m, filt)
    if is_strong(filt):
        out = _multiplier_witness(m, "field.strong-requires-dvr")
        if out is not None:
            return out
        return Verdict("out-of-class", rule="field.strong-requires-dvr",
                       reason="no witness extractable from the bounded "
                              "multiplier search")
    comp, e = strong_completion(filt)
    if not _negative_part_refines(filt, comp):
        out = _multiplier_witness(m, "field.associated-strong")
        if out is not None:
            return out
        return Verdict("out-of-class", rule="field.associated-strong",
                       reason="negative part does not refine into the "
                              "strong completion")
    m2 = represent_over(m, comp)
    if comp.is_dvr_valuation():
        inner = _classify_field_dvr(m2, comp)
        inner.via = "field.associated-strong"
        return inner
    if is_strong(comp):
        out = _multiplier_witness(m2, "field.strong-requires-dvr")
        if out is not None:
            out.via = "field.associated-strong"
            return out
    out = _multiplier_witness(m2, "field.estep-unsupported")
    if out is not None:
        out.via = "field.associated-strong"
        return out
    return Verdict("out-of-class", rule="field.estep-unsupported",
                   reason=f"strong {e}-step completion with e >= 2")


def _negative_part_refines(filt, comp):
    """Every F_-n must be one of the completion's negative levels."""
    h = max(filt.horizon, comp.horizon)
    alpha_prev = -1
    for n in range(1, h + 1):
        target = filt.level(-n)
        j = alpha_prev + 1
        while True:
            lvl = comp.level(-j)
            if lvl == target:
                alpha_prev = j
                break
            if not lvl.contains(target):
                return False
            j += 1
            if j > alpha_prev + 8 * (h + 4):  # pragma: no cover
                return False
    return True


def _classify_field_dvr(m, filt):
    e0 = m.level(0)
    n = -e0.exps[0]
    target = realize_field_chain(filt, n)
    if m == target:
        return Verdict("irreducible",
                       element=GbsElement("field", n, filtration=filt),
                       rule="field.dvr-enumeration")
    out = _multiplier_witness(m, "field.dvr-enumeration")
    if out is not None:
        return out
    return Verdict("out-of-class", rule="field.dvr-enumeration",
                   reason="chain differs from the shifted valuation chain "
                          "but no multiplier witness was found")


def realize_field_element(filt, n):
    return realize_field_chain(filt, n)


def enumerate_gbs_field(filt, window):
    """All field elements with shifts in the inclusive window, when the
    filtration is (or completes to) a DVR valuation filtration; empty
    otherwise."""
    a, b = window
    target = None
    if filt.is_dvr_valuation():
        target = filt
    elif not is_strong(filt):
        comp, _ = strong_completion(filt)
        if _negative_part_refines(filt, comp) and comp.is_dvr_valuation():
            target = comp
    if target is None:
        return []
    out = []
    for n in range(a, b + 1):
        g = GbsElement("field", n, filtration=filt)
        chain = realize_field_chain(target, n)
        verdict = classify_field_glider(
            chain if target is filt else represent_over(chain, target))
        if verdict.status != "irreducible" or verdict.element != g:
            raise UnsupportedError(  # pragma: no cover - internal guard
                f"round-trip failed at shift {n}")
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# algebra classification
# ---------------------------------------------------------------------------

def _point_generator_vector(point, field):
    """Coordinates in the matrix algebra of the matrix whose first row is
    the point and whose other rows vanish."""
    n = point.n
    zero = field.zero()
    vec = [zero] * (n * n)
    for j in range(n):
        vec[j] = point.coords[j]
    return tuple(vec)


def _row_space_point(vectors, n, field):
    """The common row space of a family of n x n matrices, as a point;
    None when the space has dimension != 1."""
    rows = []
    for vec in vectors:
        for s in range(n):
            row = list(vec[s * n:(s + 1) * n])
            if any(row):
                rows.append(row)
    basis, _ = linalg.rref(rows, field)
    if len(basis) != 1:
        return None
    return BsPoint(basis[0])


def _csa_preconditions(m):
    filt = m.filtration
    if not isinstance(filt, AlgebraFiltration):
        return "chain is not over an algebra filtration"
    if filt.alg.kind != "matrix":
        return "point extraction needs a split matrix algebra"
    if filt.mode != "induced":
        return "classification implemented for induced filtrations"
    if len(filt.base.valuations) != 1:
        return "base must be a single discrete valuation"
    if not is_strong(filt.base):
        return "base field filtration must be strong"
    return None


def classify_csa_glider(m):
    """Verdict for a lattice chain over an induced matrix-algebra
    filtration on a strong DVR base."""
    _require_glider(m)
    reason = _csa_preconditions(m)
    if reason is not None:
        rule = ("csa.unsupported-algebra"
                if "matrix" in reason else "csa.relative-product")
        return Verdict("out-of-class", reason=reason, rule=rule)
    filt = m.filtration
    alg = filt.alg
    n = alg.n
    field = filt.base_ring.field
    from .glider import body as glider_body

    if glider_body(m) is not ZERO_MODULE:  # pragma: no cover - unreachable
        raise SpecValidationError("valid glider chains here have zero body")
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
    gen_vectors = []
    for row in top.rows:
        for s in range(alg.dim):
            gen_vectors.append(alg.mul_coords(alg.basis_vector(s, field),
                                              row, field))
    point = _row_space_point(gen_vectors, n, field)
    if point is None:
        wit = _column_subchain_witness(m)
        if wit is not None:
            return _reducible(m, wit, 0, "csa.principal")
        return Verdict("out-of-class", rule="csa.principal",
                       reason="the generated left ideal has reduced "
                              "dimension > 1 and no rank-1 element was "
                              "found in the top level")
    # level-quotient simplicity scan
    order = filt.order
    for i in range(h + 1):
        xi, yi = m.level(i), m.level(i + 1)
        if not is_simple_quotient(xi, yi, order, alg):
            w = intermediate_module(xi, yi, order, alg)
            if w is None:  # pragma: no cover - defensive
                return Verdict("out-of-class", rule="csa.relative-product",
                               reason="non-simple quotient without an "
                                      "intermediate module")
            rule = ("csa.ramification-one"
                    if _is_scalar_step_gap(m, filt, i) else
                    "csa.relative-product")
            witness = Glider(filt, "algebra", [w], FiltrationTail(),
                             alg=alg)
            return _reducible(m, witness, i, rule)
    # normal form: M_i = F_{m-i} A v for the canonical generator of the point
    vvec = _point_generator_vector(point, field)
    bv = mult(order, span(filt.base_ring, alg.dim, [vvec]), alg)
    shift_s = _scalar_shift_exponent(m.level(0), bv, filt)
    if shift_s is None:
        return Verdict("out-of-class", rule="csa.relative-product",
                       reason="top level is not a scalar multiple of the "
                              "point's column module")
    c = filt.base.phi(1)[0]
    if shift_s % c:  # pragma: no cover - simplicity forces c = 1
        return Verdict("out-of-class", rule="csa.relative-product",
                       reason="shift is not a filtration degree")
    mm = shift_s // c
    expected = realize_csa_element(filt, point, mm)
    if m != expected:
        out = _multiplier_witness(m, "csa.relative-product")
        if out is not None:
            return out
        return Verdict("out-of-class", rule="csa.relative-product",
                       reason="chain deviates from the column normal form")
    return Verdict("irreducible",
                   element=GbsElement("csa", mm, point=point,
                                      filtration=filt),
                   rule="csa.relative-product")


def _is_scalar_step_gap(m, filt, i):
    """A non-simple quotient caused by a scalar step deeper than the
    maximal ideal (the ramification obstruction)."""
    ph = filt.base.phi
    return ph(1)[0] >= 2


def _scalar_shift_exponent(lvl, bv, filt):
    """s with lvl = pi^{-s} * bv, or None."""
    if lvl.rank != bv.rank:
        return None
    v = filt.base.valuations[0]
    from . import linalg as la

    qmat = []
    for row in lvl.rows:
        cs = bv.coords(row)
        if cs is None:
            return None
        qmat.append(cs)
    d = la.det(qmat, filt.base_ring.field)
    if not d:
        return None
    t = v(d)
    if t % lvl.rank:
        return None
    s = -t // lvl.rank
    pi = filt.base_ring.uniformizers[0]
    return s if lvl == bv.scale(pi ** (-s)) else None


def _column_subchain_witness(m):
    """A column subchain F_{-i} A v inside the chain, built from a rank-1
    element of the top level; the negative-part witness for split A."""
    filt = m.filtration
    alg = filt.alg
    n = alg.n
    field = filt.base_ring.field
    rank1 = None
    for row in m.level(0).rows:
        mat = [list(row[s * n:(s + 1) * n]) for s in range(n)]
        basis, _ = linalg.rref(mat, field)
        if len(basis) == 1:
            rank1 = row
            break
    if rank1 is None:
        return None
    bv = mult(filt.order, span(filt.base_ring, alg.dim, [list(rank1)]), alg)
    return Glider(filt, "algebra", [bv], FiltrationTail(), alg=alg)


def realize_csa_element(filt, point, m):
    """The chain (F_m A v)_* for the canonical generator v of the point."""
    if not isinstance(filt, AlgebraFiltration) or filt.alg.kind != "matrix":
        raise UnsupportedError("realization needs a split matrix algebra")
    field = filt.base_ring.field
    vvec = _point_generator_vector(point, field)
    bv = mult(filt.order, span(filt.base_ring, filt.alg.dim, [vvec]),
              filt.alg)
    base = filt.base
    ph = base.phi
    depth = max(m - ph.lo + 2 * ph.minus_period, 2 * ph.minus_period, 2)
    check = depth + 2 * ph.minus_period + 2
    levels = [bv.scale_ideal(base.level(m - i)) for i in range(check + 1)]
    return fit_tail(filt, "algebra", levels, depth + 1, alg=filt.alg)


def enumerate_gbs_csa(filt, window, points):
    """The product set {(point, shift)} over the inputs; every element is
    verified by a classifier round-trip.  Deterministic output order:
    normalized point coordinates, then shift."""
    reason = _csa_preconditions_from_filtration(filt)
    if reason is not None:
        raise UnsupportedError(reason)
    a, b = window
    out = []
    for point in sorted(points, key=lambda p: p.sort_key()):
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


def _csa_preconditions_from_filtration(filt):
    if not isinstance(filt, AlgebraFiltration):
        return "enumeration needs an algebra filtration"
    if filt.alg.kind != "matrix":
        return "enumeration needs a split matrix algebra"
    if filt.mode != "induced":
        return "enumeration implemented for induced filtrations"
    if not filt.base.is_dvr_valuation():
        return "enumeration needs a DVR valuation base"
    return None


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
