import pytest

from gliderbs import brandt, lattice
from gliderbs.brandt import (NormalGliderIdeal, inverse, left_glider_order,
                             modulizer_chain, product, right_glider_order,
                             two_sided_translate, unit_left, unit_right,
                             verify_groupoid)
from gliderbs.errors import MaximalityError, RankError, SpecValidationError
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import FieldFiltration, StepFunction
from gliderbs.glider import FiltrationTail, Glider, scalar_shift
from gliderbs.lattice import add, mult, span


def fe(n):
    return QQ_FIELD.from_int(n)


@pytest.fixture()
def neg_part(f5, b_m2, m2):
    return NormalGliderIdeal(
        Glider(f5, "algebra", [b_m2], FiltrationTail(), alg=m2))


def test_left_order_of_negative_part(neg_part, b_m2):
    assert left_glider_order(neg_part).lattice == b_m2
    assert right_glider_order(neg_part).lattice == b_m2


def test_normal_ideal_requires_full_levels(f5, b_m2, m2, r5):
    col = span(r5, 4, [b_m2.rows[0], b_m2.rows[2]])
    with pytest.raises(RankError):
        NormalGliderIdeal(Glider(f5, "algebra", [col], FiltrationTail(),
                                 alg=m2))


def test_product_level_unfolding(neg_part, b_m2, m2):
    """(M*N)_2 = M_0 N_2 + M_1 N_1 + M_2 N_0."""
    m = neg_part
    prod = product(m, m)
    direct = add(add(mult(m.level(0), m.level(2), m2),
                     mult(m.level(1), m.level(1), m2)),
                 mult(m.level(2), m.level(0), m2))
    assert prod.level(2) == direct


def test_negative_part_is_idempotent(neg_part):
    assert product(neg_part, neg_part) == neg_part


def test_inverse_and_units(neg_part, fa_m2):
    inv = inverse(neg_part)
    for i in range(4):
        assert inv.level(i) == fa_m2.level(-i)
    assert inverse(inv) == neg_part
    e = unit_left(neg_part)
    for i in range(7):
        assert e.level(i) == fa_m2.level(-i)
    assert unit_right(neg_part) == e
    assert product(e, e) == e


def test_unit_equals_modulizer(neg_part):
    assert unit_left(neg_part) == modulizer_chain(neg_part)


def test_shifted_chain_product(neg_part, f5, b_m2, m2):
    pi_k = b_m2.scale(fe(25))
    pi_l = b_m2.scale(QQ_FIELD.parse("1/5"))
    mk = NormalGliderIdeal(Glider(f5, "algebra", [pi_k],
                                  FiltrationTail(), alg=m2))
    ml = NormalGliderIdeal(Glider(f5, "algebra", [pi_l],
                                  FiltrationTail(), alg=m2))
    out = product(mk, ml)
    assert out.level(0) == b_m2.scale(fe(5))


def test_conjugate_left_order(neg_part, f5, m2):
    g = (fe(5), fe(0), fe(0), fe(1))
    ginv = (QQ_FIELD.parse("1/5"), fe(0), fe(0), fe(1))
    moved = two_sided_translate(neg_part, g, ginv)
    conj_rows = [m2.mul_coords(m2.mul_coords(g, row, QQ_FIELD), ginv,
                               QQ_FIELD)
                 for row in neg_part.level(0).rows]
    conj = span(neg_part.level(0).base, 4, conj_rows)
    assert left_glider_order(moved).lattice == conj


def test_groupoid_on_shifts(neg_part, f5, b_m2, m2):
    sample = [neg_part]
    for k in (-1, 1):
        x = fe(5) ** k if k > 0 else QQ_FIELD.parse("1/5")
        sample.append(NormalGliderIdeal(
            Glider(f5, "algebra", [b_m2.scale(x)], FiltrationTail(),
                   alg=m2)))
    rep = verify_groupoid(sample)
    assert rep.all_pass()
    gate = next(a for a in rep.axioms if a["axiom"] == 2)
    assert "0 blocked" in gate["detail"]


def test_groupoid_gate_blocks_improper_pairs(neg_part):
    g = (fe(5), fe(0), fe(0), fe(1))
    ginv = (QQ_FIELD.parse("1/5"), fe(0), fe(0), fe(1))
    other = two_sided_translate(neg_part, g, ginv)
    rep = verify_groupoid([neg_part, other])
    assert rep.all_pass()
    gate = next(a for a in rep.axioms if a["axiom"] == 2)
    assert gate["detail"].startswith("2 blocked")


def _translate(neg_part, g, h):
    return two_sided_translate(neg_part, tuple(fe(t) for t in g),
                               tuple(fe(t) for t in h))


@pytest.fixture()
def non_maximal(f5, r5, m2):
    """A chain whose left glider order is not maximal: it has no inverse."""
    rows = [[fe(t) for t in r]
            for r in ([1, 0, 0, 3], [0, 1, 0, 3], [0, 0, 1, 3], [0, 0, 0, 5])]
    return NormalGliderIdeal(Glider(f5, "algebra", [span(r5, 4, rows)],
                                    FiltrationTail(), alg=m2))


def test_failed_inverse_is_not_cached(non_maximal):
    for _ in range(2):
        with pytest.raises(MaximalityError):
            inverse(non_maximal)
    for _ in range(2):
        with pytest.raises(MaximalityError):
            unit_left(non_maximal)


def test_groupoid_reports_missing_inverse(non_maximal):
    rep = verify_groupoid([non_maximal])
    ax4 = next(a for a in rep.axioms if a["axiom"] == 4)
    assert ax4["status"] == "fail"
    assert ax4["counterexample"]["element"] == 0
    assert "not maximal" in ax4["counterexample"]["error"]


def test_groupoid_gate_checks_units_of_products(neg_part, monkeypatch):
    """Axiom 2 fails when unit_left answers with another element's unit."""
    other = two_sided_translate(
        neg_part, (fe(5), fe(0), fe(0), fe(1)),
        (QQ_FIELD.parse("1/5"), fe(0), fe(0), fe(1)))
    sample = [neg_part, other]
    gate = next(a for a in verify_groupoid(sample).axioms if a["axiom"] == 2)
    assert gate["status"] == "pass"
    real = brandt.unit_left
    swapped = {0: real(other), 1: real(neg_part)}

    def wrong_unit(m):
        for idx, el in enumerate(sample):
            if m == el:
                return swapped[idx]
        return real(m)

    monkeypatch.setattr(brandt, "unit_left", wrong_unit)
    gate = next(a for a in verify_groupoid(sample).axioms if a["axiom"] == 2)
    assert gate["status"] == "fail"
    assert gate["counterexample"]["pair"] == (0, 1)
    assert gate["detail"] == "2 blocked pairs out of 4"


def test_groupoid_product_memo_is_keyed_on_content(neg_part, f5, b_m2, m2,
                                                   monkeypatch):
    """An equal ideal built separately adds only its own two unit
    products (E^l and E^r, cached per instance); every product that
    verify_groupoid takes of it is the memo entry of the first copy."""
    twin = NormalGliderIdeal(Glider(f5, "algebra", [span(b_m2.base, 4,
                                                         b_m2.rows)],
                                    FiltrationTail(), alg=m2))
    assert twin == neg_part and twin is not neg_part
    calls = []
    real = brandt.product
    monkeypatch.setattr(brandt, "product",
                        lambda m, n: calls.append(1) or real(m, n))

    def products(sample):
        calls.clear()
        fresh = [NormalGliderIdeal(m.glider) for m in sample]
        assert verify_groupoid(fresh).all_pass()
        return len(calls)

    assert products([neg_part, twin]) == products([neg_part]) + 2


def test_translate_hnf_count(neg_part, monkeypatch):
    """HNFs behind inverse, product and modulizer chain of one translate
    g M_2(Z_(5)) h.  The memo scope computes each product and colon once
    up to scaling: 11 HNFs, against 533 without the memo (8 + 1 + 2
    against 52 + 81 + 400)."""
    m = _translate(neg_part, (1, 1, 0, 1), (5, 0, 0, 1))
    calls = []
    real = lattice._hnf
    monkeypatch.setattr(lattice, "_hnf",
                        lambda *args: calls.append(1) or real(*args))
    inv = inverse(m)
    product(m, inv)
    modulizer_chain(m)
    assert len(calls) == 11


def test_translate_keeps_the_tail(neg_part, monkeypatch):
    """The translate spans its window once and keeps the chain's tail,
    since g (S M_N) h = S (g M_N h) for a scalar ideal S: one HNF for
    g M_2(Z_(5)) h, and the levels are g M_i h."""
    g, h = (1, 1, 0, 1), (5, 0, 0, 1)
    calls = []
    real = lattice._hnf
    monkeypatch.setattr(lattice, "_hnf",
                        lambda *args: calls.append(1) or real(*args))
    m = _translate(neg_part, g, h)
    assert len(calls) == 1
    assert m.glider.tail == neg_part.glider.tail
    monkeypatch.setattr(lattice, "_hnf", real)
    alg = neg_part.alg
    for i in range(6):
        rows = [alg.mul_coords(alg.mul_coords(tuple(map(fe, g)), row,
                                              QQ_FIELD),
                               tuple(map(fe, h)), QQ_FIELD)
                for row in neg_part.level(i).rows]
        assert m.level(i) == span(neg_part.level(i).base, 4, rows)


def test_product_is_rechecked_as_a_glider(b_m2, m2):
    """Over the filtration at 5 with F_n = 5^(-2n)R for n <= 0 and
    5^(1-2n)R for n >= 1 (so F_1 F_1 is not F_2), the chain [O, 5O] is a
    normal glider ideal with an inverse and a modulizer chain, but its
    square fails the glider axiom at (2, 2): (MM)_2 = 25 O, and
    F_2 (MM)_2 = 5^-1 O is not inside (MM)_0 = O.  The re-check of the
    product is what rejects it."""
    filt = FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-1, 1), {-1: (-2,), 0: (0,), 1: (1,)},
                     (1, (2,)), (1, (2,))))
    o = span(filt.base_ring, 4, b_m2.rows)
    m = NormalGliderIdeal(Glider(filt, "algebra", [o, o.scale(fe(5))],
                                 FiltrationTail(), alg=m2))
    inverse(m)
    modulizer_chain(m)
    for op in (lambda: product(m, m), lambda: unit_left(m)):
        with pytest.raises(SpecValidationError,
                           match=r"not a glider: witness \(2, 2,"):
            op()


def test_groupoid_axiom4_rejects_a_wrong_inverse(neg_part, monkeypatch):
    """An inverse that is wrong in a consistent way (5 M^-1) also changes
    the units defined as M M^-1 and M^-1 M, so axiom 4 compares the
    products with the modulizer chains, which only use colons."""
    real = brandt.inverse

    def wrong_inverse(m):
        return NormalGliderIdeal(scalar_shift(real(m).glider, fe(5)))

    monkeypatch.setattr(brandt, "inverse", wrong_inverse)
    ax4 = next(a for a in verify_groupoid([neg_part]).axioms
               if a["axiom"] == 4)
    assert ax4["status"] == "fail"
    assert ax4["counterexample"] == {"element": 0,
                                     "identity": "M M^-1 = E^l"}


def test_groupoid_chains_over_an_irregular_negative_side(b_m2, m2):
    # phi(n) = -min(3|n|, 2|n| + 10) on [-10, 0]: the negative side is
    # periodic from degree 10 on, so the fitted prefixes reach it
    f = FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-10, 0), {n: (-min(-3 * n, -2 * n + 10),)
                                for n in range(-10, 1)},
                     (1, (2,)), (1, (2,))))
    m = NormalGliderIdeal(Glider(f, "algebra", [b_m2], FiltrationTail(),
                                 alg=m2))
    for chain in (product(m, m), inverse(m), modulizer_chain(m)):
        assert all(chain.level(i) == m.level(i) for i in range(31))
        assert chain == m
