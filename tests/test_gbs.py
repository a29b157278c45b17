import random

import pytest

from gliderbs.errors import SpecValidationError, UnsupportedError
from gliderbs import lattice
from gliderbs.fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD, gauss_prime,
                             padic, poly_prime)
from gliderbs.filtration import (AlgebraFiltration, FieldFiltration,
                                 StepFunction, scaled_valuation_filtration,
                                 valuation_filtration)
from gliderbs.gbs import (BsPoint, LeftIdeal, _column_module,
                          _scalar_shift_exponent, bs_left_ideal,
                          classify_csa_glider, classify_field_glider,
                          enumerate_gbs_csa, enumerate_gbs_field,
                          find_negative_part_witness, realize_csa_element,
                          realize_field_element)
from gliderbs.glider import (Constant, FiltrationTail, Glider,
                             classify_subglider, negative_part, scalar_shift,
                             shift)
from gliderbs.lattice import (FracIdeal, canonicalize, matrix_algebra,
                              quaternion_algebra, span)
from gliderbs.orders import builtin_mnr


def fe(n):
    return QQ_FIELD.from_int(n)


def test_bs_point_normalization():
    p = BsPoint([fe(2), fe(4)])
    assert [str(c) for c in p.coords] == ["1", "2"]
    with pytest.raises(SpecValidationError):
        BsPoint([fe(0), fe(0)])


def test_bs_left_ideal_examples():
    p10 = BsPoint([fe(1), fe(0)])
    L = bs_left_ideal(p10, 2)
    e11 = (fe(1), fe(0), fe(0), fe(0))
    e21 = (fe(0), fe(0), fe(1), fe(0))
    e12 = (fe(0), fe(1), fe(0), fe(0))
    assert L.contains(e11) and L.contains(e21) and not L.contains(e12)
    p11 = BsPoint([fe(1), fe(1)])
    L2 = bs_left_ideal(p11, 2)
    assert L2.contains((fe(1), fe(1), fe(0), fe(0)))
    assert L2.contains((fe(0), fe(0), fe(1), fe(1)))
    assert not L2.contains(e11)


def test_classify_field_dvr(f5):
    v = classify_field_glider(realize_field_element(f5, 2))
    assert v.status == "irreducible" and v.element.shift == 2


def test_classify_field_gap_reducible(f5):
    gap = Glider(f5, "field", [f5.level(0), f5.level(-2)],
                 FiltrationTail())
    v = classify_field_glider(gap)
    assert v.status == "reducible"
    assert classify_subglider(v.witness,
                              shift(gap, v.witness_shift)).kind == \
        "nontrivial"


def test_classify_field_pq(f23):
    v = classify_field_glider(negative_part(f23))
    assert v.status == "reducible"
    assert [v.witness.level(n).exps for n in range(3)] == \
        [(1, 0), (2, 1), (3, 2)]


def test_classify_field_through_a_strong_completion_that_is_not_dvr():
    # deeper negatives at 2 and 3: the completion is strong but has two
    # valuations, so the verdict is the multiplier witness 2*M
    deep = FieldFiltration(
        QQ_FIELD, (padic(2), padic(3)),
        StepFunction((-1, 1), {-1: (-2, -2), 0: (0, 0), 1: (1, 1)},
                     (1, (1, 1)), (1, (1, 1))))
    v = classify_field_glider(negative_part(deep))
    assert v.status == "reducible"
    assert (v.rule, v.via) == ("field.strong-requires-dvr",
                               "field.associated-strong")
    assert [v.witness.level(n).exps for n in range(3)] == \
        [(1, 0), (3, 2), (4, 3)]


@pytest.mark.parametrize("prefix", [[0], [0, 1], [-1, 0], [0, 0, 1],
                                    [1, 2], [0, 2]])
def test_classify_field_through_a_two_step_completion_is_out_of_class(
        prefix):
    # the negative part grows by P^2 per step, the strong completion has
    # minus period 2: no supported tail presents the chain over it
    filt = FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-1, 2), {-1: (-2,), 0: (0,), 1: (0,), 2: (1,)},
                     (2, (1,)), (1, (2,))))
    m = Glider(filt, "field",
               [FracIdeal(filt.base_ring, (e,)) for e in prefix],
               FiltrationTail())
    v = classify_field_glider(m)
    assert (v.status, v.rule) == ("out-of-class", "field.estep-unsupported")
    assert "2-step completion" in v.reason


def test_enumerate_field(f5, f23, f_mod):
    assert [e.shift for e in enumerate_gbs_field(f5, (-1, 1))] == [-1, 0, 1]
    assert enumerate_gbs_field(f23, (-2, 2)) == []
    assert len(enumerate_gbs_field(f_mod, (-1, 1))) == 3


def test_shift_equivariance_of_classification(f5):
    g = realize_field_element(f5, 2)
    v = classify_field_glider(scalar_shift(g, fe(5)))
    assert v.status == "irreducible" and v.element.shift == 1


def test_classify_csa_examples(fa_m2):
    p10 = BsPoint([fe(1), fe(0)])
    v = classify_csa_glider(realize_csa_element(fa_m2, p10, 0))
    assert v.status == "irreducible"
    assert v.element.point == p10 and v.element.shift == 0


def test_classify_csa_negative_part_reducible(fa_m2):
    neg = Glider(fa_m2, "algebra", [fa_m2.level(0)], FiltrationTail(),
                 alg=fa_m2.alg)
    v = classify_csa_glider(neg)
    assert v.status == "reducible"
    assert v.witness.level(0).rank == 2  # a column subchain


def test_classify_csa_gap_reducible(fa_m2):
    p10 = BsPoint([fe(1), fe(0)])
    g = realize_csa_element(fa_m2, p10, 0)
    gap = Glider(fa_m2, "algebra", [g.level(0), g.level(2)],
                 FiltrationTail(), alg=fa_m2.alg)
    v = classify_csa_glider(gap)
    assert v.status == "reducible" and v.witness_shift == 0
    assert v.witness.level(0) == g.level(1)


def test_enumerate_csa(fa_m2):
    pts = [BsPoint([fe(1), fe(0)]), BsPoint([fe(0), fe(1)])]
    els = enumerate_gbs_csa(fa_m2, (0, 1), pts)
    assert len(els) == 4
    assert els[0].point.sort_key() <= els[-1].point.sort_key()


def test_negative_part_witness_errors(f5):
    one = canonicalize(f5.base_ring, 1, [[fe(1)]])
    fa1 = AlgebraFiltration(matrix_algebra(1), f5, one, mode="induced")
    with pytest.raises(UnsupportedError):
        find_negative_part_witness(fa1)


def test_ramified_scalar_step_reducible(monkeypatch):
    """The golden case over Q(i): M_2 over the (1+i)-adic base with the
    doubled scalar step; column chains have non-simple level quotients.
    The scan analyses its first non-simple quotient once: the witness call
    after `is_simple_quotient` reads the classifier's memo scope."""
    searches = []
    killing_prime = lattice._killing_prime

    def counted(x, y):
        searches.append((x, y))
        return killing_prime(x, y)

    monkeypatch.setattr(lattice, "_killing_prime", counted)
    w = gauss_prime("1+i")
    fr = scaled_valuation_filtration(w, 2)
    ring = fr.base_ring
    g = GAUSS_FIELD
    rows = [[g.one() if i == j else g.zero() for j in range(4)]
            for i in range(4)]
    b = canonicalize(ring, 4, rows)
    fa = AlgebraFiltration(matrix_algebra(2), fr, b, mode="induced")
    p = BsPoint([g.one(), g.zero()])
    v = classify_csa_glider(realize_csa_element(fa, p, 0))
    assert v.status == "reducible"
    assert v.rule == "csa.ramification-one"
    # witness top level is (1+i) B v
    pi = g.parse("1+i")
    assert v.witness.level(0).rows[0][0] == pi
    assert len(searches) == 1


def test_quaternion_out_of_class(f5):
    # division-algebra inputs classify out-of-class for point extraction
    from gliderbs.orders import builtin_hurwitz2
    from gliderbs.filtration import valuation_filtration

    hur = builtin_hurwitz2()
    f2 = valuation_filtration(padic(2))
    fa = AlgebraFiltration(quaternion_algebra(-1, -1), f2, hur.lattice,
                           mode="induced")
    neg = Glider(fa, "algebra", [fa.level(0)], FiltrationTail(),
                 alg=fa.alg)
    v = classify_csa_glider(neg)
    assert v.status == "out-of-class"
    assert v.rule == "csa.unsupported-algebra"


def test_zero_hitting_chains_reducible(f5, fa_m2):
    from gliderbs.glider import ZeroAfter

    z = Glider(f5, "field", [f5.level(0), f5.level(-1)], ZeroAfter())
    assert classify_field_glider(z).status == "reducible"
    zc = Glider(fa_m2, "algebra", [fa_m2.level(0)], ZeroAfter(),
                alg=fa_m2.alg)
    v = classify_csa_glider(zc)
    assert v.status == "reducible" and v.rule == "csa.principal"


def test_round_trip_property(fa_m2):
    pts = [BsPoint([fe(1), fe(2)]), BsPoint([fe(3), fe(1)])]
    for el in enumerate_gbs_csa(fa_m2, (-1, 1), pts):
        chain = realize_csa_element(fa_m2, el.point, el.shift)
        v = classify_csa_glider(chain)
        assert v.status == "irreducible" and v.element == el


@pytest.mark.parametrize("p,n", [(5, 2), (13, 2), (2, 3), (3, 3)])
def test_scalar_shift_exponent_reads_primitive_parts(p, n):
    """Against the ground truth: the unique s in [-6, 6] with
    lvl = pi^(-s) * B*v, or None.  The levels are re-spanned, so their
    roots differ from that of B*v, as after JSON decoding."""
    rng = random.Random(1000 * p + n)
    f = valuation_filtration(padic(p))
    order = builtin_mnr(n, f.base_ring)
    fa = AlgebraFiltration(order.alg, f, order.lattice)
    ring, pi = f.base_ring, fe(p)

    def point():
        coords = [fe(rng.randint(-6, 6)) for _ in range(n)]
        return BsPoint(coords) if any(coords) else point()

    def respan(lat):
        rows = list(lat.rows)
        rng.shuffle(rows)
        return span(ring, lat.dim, rows + [[a + b for a, b in
                                           zip(rows[0], rows[-1])]])

    for _ in range(6):
        bv = _column_module(fa, LeftIdeal(point()).generator())
        s = rng.randint(-4, 4)
        near = span(ring, bv.dim, [bv.rows[0]] + list(bv.scale(pi).rows))
        other = _column_module(fa, LeftIdeal(point()).generator())
        for lvl in (bv.scale(pi ** (-s)), near.scale(pi ** s),
                    other.scale(pi ** s)):
            lvl = respan(lvl)
            truth = next((t for t in range(-6, 7)
                          if lvl == bv.scale(pi ** (-t))), None)
            assert _scalar_shift_exponent(lvl, bv) == truth


def _csa_filtration(p, n):
    f = valuation_filtration(padic(p))
    return AlgebraFiltration(matrix_algebra(n), f,
                             builtin_mnr(n, f.base_ring).lattice,
                             mode="induced")


def _random_csa_chain(fa, p, rnd, point):
    """A seeded chain pi^e_k X with steps of 1 to 3 and a filtration tail:
    X = B*v for the generator v of a random point, or B*v + B*w for two
    random matrices (a top level with no point)."""
    alg, d = fa.alg, fa.alg.dim
    if point:
        pt = BsPoint([fe(rnd.randint(-3, 3) or 1) for _ in range(alg.n)])
        x = _column_module(fa, LeftIdeal(pt).generator())
    else:
        while True:
            vecs = [[fe(rnd.randint(-4, 4)) for _ in range(d)]
                    for _ in range(2)]
            x = span(fa.base_ring, d, [alg.mul_coords(row, v, QQ_FIELD)
                                       for v in vecs
                                       for row in fa.order.rows])
            if x.rank == d:
                break
    exps = [rnd.randint(-2, 2)]
    for _ in range(rnd.randint(1, 3)):
        exps.append(exps[-1] + rnd.randint(1, 3))
    return Glider(fa, "algebra", [x.scale(fe(p) ** e) for e in exps],
                  FiltrationTail(), alg=alg)


@pytest.mark.parametrize("p, n, count", [(5, 2, 40), (13, 2, 40),
                                         (2, 3, 20)])
def test_csa_witnesses_reverify_on_random_chains(p, n, count):
    """Every reducible verdict's witness N_k = M_{i+k} ∩ F_{-k}X is a
    nontrivial subglider of the shifted chain, for X a module strictly
    between two levels or the cut of M_0 with a minimal left ideal."""
    fa = _csa_filtration(p, n)
    rnd = random.Random(f"csa-witness-{p}-{n}")
    rules = set()
    for k in range(count):
        m = _random_csa_chain(fa, p, rnd, point=k % 2 == 0)
        verdict = classify_csa_glider(m)
        assert verdict.status in ("reducible", "irreducible")
        if verdict.status == "reducible":
            rules.add(verdict.rule)
            assert classify_subglider(
                verdict.witness, shift(m, verdict.witness_shift)).kind == \
                "nontrivial"
    # both constructions ran: a non-simple quotient and no point
    assert {"csa.relative-product", "csa.principal"} <= rules


def test_csa_witness_stays_inside_a_chain_with_a_later_wide_step(fa_m2):
    """M = [Bv, 5^2 Bv, 5^3 Bv, 5^5 Bv] with a filtration tail: the
    non-simple quotient at level 0 has W = 5Bv, and W with a filtration
    tail would leave M at level 3 (5^4 Bv is not in 5^5 Bv)."""
    v = LeftIdeal(BsPoint([fe(1), fe(2)])).generator()
    bv = _column_module(fa_m2, v)
    m = Glider(fa_m2, "algebra", [bv.scale(fe(5) ** e) for e in (0, 2, 3, 5)],
               FiltrationTail(), alg=fa_m2.alg)
    verdict = classify_csa_glider(m)
    assert verdict.status == "reducible" and verdict.witness_shift == 0
    assert verdict.witness.prefix == tuple(
        bv.scale(fe(5) ** e) for e in (1, 2, 3, 5))
    assert classify_subglider(verdict.witness, m).kind == "nontrivial"


@pytest.mark.parametrize("valuation, n", [
    (padic(23), 4),             # 12,720 directions
    (padic(8209), 2),           # 8,210 directions
    (poly_prime("x"), 2),       # residue field Q
    (poly_prime("x^2+1"), 2),   # residue field Q(i)
], ids=["M4-Z23", "M2-Z8209", "M2-Qx-x", "M2-Qx-x2+1"])
def test_split_quotients_past_the_direction_cap_are_decided(valuation, n):
    """M_n acts on the column module mod p through all of End(V), so the
    rank test decides the scan where enumerating directions cannot."""
    f = valuation_filtration(valuation)
    fa = AlgebraFiltration(matrix_algebra(n), f,
                           builtin_mnr(n, f.base_ring).lattice,
                           mode="induced")
    field = f.base_ring.field
    point = BsPoint([field.one()] * n)
    v = classify_csa_glider(realize_csa_element(fa, point, 1))
    assert v.status == "irreducible"
    assert (v.element.point, v.element.shift) == (point, 1)


def test_csa_classifier_computes_each_product_once(fa_m2, monkeypatch):
    """The glider check and the scan share one memo scope, which is gone
    once the classifier returns or raises; the rank test leaves no
    direction to enumerate on a realized chain."""
    m = realize_csa_element(fa_m2, BsPoint([fe(1), fe(2)]), 1)
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(lattice, "_span_products")
    counted(lattice, "_hnf")
    counted(lattice._QuotientSpace, "enumerate_directions")
    v = classify_csa_glider(m)
    assert v.status == "irreducible"
    assert calls.get("_span_products", 0) <= 2
    assert calls.get("_hnf", 0) <= 4
    assert calls.get("enumerate_directions", 0) == 0
    assert lattice._MEMO.memo is None
    const = Glider(fa_m2, "algebra", [fa_m2.level(0)], Constant(),
                   alg=fa_m2.alg)
    with pytest.raises(SpecValidationError, match="not a glider"):
        classify_csa_glider(const)
    assert lattice._MEMO.memo is None
