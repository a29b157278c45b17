import pytest

from gliderbs.errors import SpecValidationError, UnsupportedError
from gliderbs.fields import GAUSS_FIELD, QQ_FIELD, QX_FIELD, padic, xadic
from gliderbs.filtration import valuation_filtration
from gliderbs.gbs import (BsPoint, GbsElement, classify_csa_glider,
                          realize_csa_element)
from gliderbs.glider import (FiltrationTail, Glider, ZeroAfter,
                             is_glider)
from gliderbs.lattice import ZERO_MODULE, FracIdeal
from gliderbs.tensorext import (gauss_extension, gbs_map, sqrt_x_extension,
                                tensor_filtration, tensor_glider)


def fe(n):
    return QQ_FIELD.from_int(n)


@pytest.fixture(scope="module")
def ext_split():
    return gauss_extension(5, "split", "2+i")


def test_extension_constructors():
    assert gauss_extension(5).e == 1
    assert gauss_extension(3).f == 2
    assert gauss_extension(2).e == 2
    with pytest.raises(SpecValidationError):
        gauss_extension(5, "inert")
    with pytest.raises(SpecValidationError):
        gauss_extension(3, "ramified")
    ex = sqrt_x_extension()
    assert ex.e == 2
    x = QX_FIELD.parse("x")
    assert ex.w(ex.embed(x)) == 2


def test_tensor_filtration_collapse(fa_m2, ext_split):
    tf = tensor_filtration(fa_m2, ext_split)
    for q in range(-2, 3):
        assert tf.sum_level(q) == tf.level(q)


def test_tensor_table_containments(fa_m2, ext_split):
    tf = tensor_filtration(fa_m2, ext_split)
    f0 = tf.level(0)
    assert f0.contains(tf.term(0, 0))
    assert f0.contains(tf.term(-1, 1))
    assert f0.contains(tf.term(-2, 2))


def test_field_factor_reproduces_scalar_filtration(f5, ext_split):
    tf = tensor_filtration(f5, ext_split)
    assert tf.kind == "field"
    for q in range(-2, 3):
        assert tf.level(q).exps == (-q,)


def test_tensor_glider_strong_collapse(fa_m2, ext_split):
    tf = tensor_filtration(fa_m2, ext_split)
    p = BsPoint([fe(1), fe(0)])
    g = realize_csa_element(fa_m2, p, 0)
    tg = tensor_glider(g, ext_split, tf=tf)
    assert is_glider(tg)[0]
    for i in range(5):
        assert tg.level(i) == tf.embed_lattice(g.level(i))


def test_tensor_glider_sum_contains_cross_terms(fa_m2, ext_split):
    tf = tensor_filtration(fa_m2, ext_split)
    p = BsPoint([fe(1), fe(1)])
    g = realize_csa_element(fa_m2, p, 0)
    tg = tensor_glider(g, ext_split, tf=tf)
    term = tf.embed_lattice(g.level(1)).scale(
        tf.fl.base_ring.from_exponents((-1,)))
    assert tg.level(0).contains(term)


def test_gbs_map_examples(fa_m2, ext_split):
    p = BsPoint([fe(1), fe(0)])
    el = GbsElement("csa", 0, point=p, filtration=fa_m2)
    img = gbs_map(el, ext_split)
    assert img.shift == 0
    assert img.point == BsPoint([GAUSS_FIELD.one(), GAUSS_FIELD.zero()])
    v = classify_csa_glider(
        realize_csa_element(img.filtration, img.point, img.shift))
    assert v.status == "irreducible"


def test_gbs_map_shift_equivariance(fa_m2, ext_split):
    p = BsPoint([fe(2), fe(1)])
    for m in (-1, 0, 2):
        el = GbsElement("csa", m, point=p, filtration=fa_m2)
        assert gbs_map(el, ext_split).shift == m


def test_gbs_map_field_cases(f5, ext_split):
    el = GbsElement("field", 3, filtration=f5)
    assert gbs_map(el, ext_split).shift == 3
    f2 = valuation_filtration(padic(2))
    el2 = GbsElement("field", 3, filtration=f2)
    assert gbs_map(el2, gauss_extension(2)).shift == 6
    fx = valuation_filtration(xadic(QX_FIELD))
    elx = GbsElement("field", 2, filtration=fx)
    assert gbs_map(elx, sqrt_x_extension()).shift == 4


def test_gbs_map_ramified_algebra_unsupported(fa_m2):
    # over the valuation base at 2, the ramified extension scales the
    # filtration; the algebra-level map has no irreducible image there
    f2 = valuation_filtration(padic(2))
    from gliderbs.lattice import canonicalize, matrix_algebra
    from gliderbs.filtration import AlgebraFiltration

    rows = [[fe(1 if i == j else 0) for j in range(4)] for i in range(4)]
    b = canonicalize(f2.base_ring, 4, rows)
    fa = AlgebraFiltration(matrix_algebra(2), f2, b, mode="induced")
    el = GbsElement("csa", 0, point=BsPoint([fe(1), fe(0)]),
                    filtration=fa)
    with pytest.raises(UnsupportedError):
        gbs_map(el, gauss_extension(2))


def test_inert_extension_map():
    f3 = valuation_filtration(padic(3))
    from gliderbs.lattice import canonicalize, matrix_algebra
    from gliderbs.filtration import AlgebraFiltration

    rows = [[fe(1 if i == j else 0) for j in range(4)] for i in range(4)]
    b = canonicalize(f3.base_ring, 4, rows)
    fa = AlgebraFiltration(matrix_algebra(2), f3, b, mode="induced")
    el = GbsElement("csa", 1, point=BsPoint([fe(1), fe(2)]), filtration=fa)
    img = gbs_map(el, gauss_extension(3))
    assert img.shift == 1


def test_tensor_glider_of_a_zero_level(f5, fa_m2, b_m2, m2):
    """The term of a zero level is zero, in the field and the algebra
    branch alike."""
    ext = gauss_extension(5)
    unit = FracIdeal(f5.base_ring, (0,))
    chains = [Glider(f5, "field", [unit, ZERO_MODULE], ZeroAfter())]
    chains += [Glider(fa_m2, "algebra", [b_m2, ZERO_MODULE], tail, alg=m2)
               for tail in (ZeroAfter(), FiltrationTail())]
    for chain in chains:
        out = tensor_glider(chain, ext)
        assert out.level(1) is ZERO_MODULE
        assert is_glider(out)[0]
