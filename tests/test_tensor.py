"""Quadratic scalar extension: the extension data, the tensor filtration,
tensored gliders and the induced map.  The convolution sums that the
library no longer forms are kept here as the reference its collapsed
levels are checked against."""

import random
import time
from itertools import count

import pytest

from gliderbs.errors import SpecValidationError, UnsupportedError
from gliderbs.fields import GAUSS_FIELD, QQ_FIELD, QX_FIELD, padic, xadic
from gliderbs.filtration import (AlgebraFiltration,
                                 scaled_valuation_filtration,
                                 valuation_filtration)
from gliderbs.gbs import (BsPoint, GbsElement, classify_csa_glider,
                          realize_csa_element)
from gliderbs.glider import (Constant, FiltrationTail, Glider, MultiplyBy,
                             ZeroAfter, fit_tail, is_glider)
from gliderbs.lattice import (ZERO_MODULE, FracIdeal, canonicalize,
                              matrix_algebra, span)
from gliderbs.tensorext import (gauss_extension, gbs_map, sqrt_x_extension,
                                tensor_filtration, tensor_glider)


# ---------------------------------------------------------------------------
# the reference: convolution sums, truncated once `depth` consecutive terms
# leave them unchanged (the glider axiom makes the terms eventually nested,
# so the truncation is exact)
# ---------------------------------------------------------------------------

def _tensor(tf, module, j):
    """module (x) F_jL over the extension base ring."""
    if module is ZERO_MODULE:
        return module
    lring = tf.fl.base_ring
    gen = lring.from_exponents(tuple(-c for c in tf.fl.phi(j)))
    if tf.kind == "algebra":
        return tf.embed_lattice(module).scale(gen)
    g = tf.ext.embed(module.generator())
    w = lring.valuations[0]
    return FracIdeal(lring, (w(g) + w(gen),))


def _term(tf, source, k, qk):
    """F_kA (x) F_{qk}L for the source filtration of tf."""
    return _tensor(tf, source.level(k), qk)


def _sum_level(tf, source, q):
    """The convolution sum of the tensor filtration at degree q."""
    ph = (source.base if tf.kind == "algebra" else source).phi
    depth = abs(ph.lo) + ph.hi + 2 * max(ph.minus_period,
                                         ph.plus_period) + 3
    return _stable_sum((_term(tf, source, k, q - k) for k in count(q, -1)),
                       depth)


def _glider_sum_level(m, tf, p):
    """(M (x) L)_p = sum_{i >= p} M_i (x) F_{i-p}L."""
    src_ph = m._base_field_filtration().phi
    depth = m.prefix_end + abs(src_ph.lo) + 2 * src_ph.minus_period + 4
    return _stable_sum((_tensor(tf, m.level(i), i - p) for i in count(p)),
                       depth)


def _stable_sum(terms, depth):
    """The sum of the terms, stopped once more than `depth` consecutive
    terms leave it unchanged (the glider axiom makes the terms eventually
    nested, so the truncation is exact)."""
    acc, stable = None, 0
    for term in terms:
        acc2 = term if acc is None else acc.add(term)
        stable = stable + 1 if acc is not None and acc2 == acc else 0
        acc = acc2
        if stable > depth:
            return acc


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
        assert _sum_level(tf, fa_m2, q) == tf.level(q)


def test_tensor_table_containments(fa_m2, ext_split):
    tf = tensor_filtration(fa_m2, ext_split)
    f0 = tf.level(0)
    assert f0.contains(_term(tf, fa_m2, 0, 0))
    assert f0.contains(_term(tf, fa_m2, -1, 1))
    assert f0.contains(_term(tf, fa_m2, -2, 2))


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


def test_gbs_map_ramified_algebra_unsupported():
    # over the valuation base at 2, the ramified extension scales the
    # filtration; the algebra-level map has no irreducible image there
    el = GbsElement("csa", 0, point=BsPoint([fe(1), fe(0)]),
                    filtration=_m2_filtration(2))
    with pytest.raises(UnsupportedError):
        gbs_map(el, gauss_extension(2))


def test_inert_extension_map():
    el = GbsElement("csa", 1, point=BsPoint([fe(1), fe(2)]),
                    filtration=_m2_filtration(3))
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


# ---------------------------------------------------------------------------
# the collapse against the convolution sums, on seeded gliders
# ---------------------------------------------------------------------------

def _steps(rnd, c, n):
    """A start exponent and n steps of c to c + 2 after it."""
    exps = [rnd.randint(-3, 3)]
    for _ in range(n):
        exps.append(exps[-1] + c + rnd.randint(0, 2))
    return exps


def _tail(rnd, ring, c, kind):
    if kind == "multiply":
        return MultiplyBy(FracIdeal(ring, (c + rnd.randint(0, 2),)))
    return FiltrationTail()


def _field_chain(filt, c, rnd, kind):
    """A glider over phi = c n: every step, and a multiply tail's ideal,
    descends by at least c."""
    ring = filt.base_ring
    exps = _steps(rnd, c, rnd.randint(0, 3))
    prefix = [FracIdeal(ring, (e,)) for e in exps]
    return Glider(filt, "field", prefix, _tail(rnd, ring, c, kind))


def _m2_chain(fa, rnd, kind):
    """pi^e_k X for X = B v + B w a full left ideal and steps of 1 to 3:
    F_i M_j = pi^-i M_j lies in M_{j-i}."""
    q, ring = QQ_FIELD, fa.base_ring
    while True:
        gens = [fa.alg.mul_coords(row, [q.from_int(rnd.randint(-4, 4))
                                        for _ in range(4)], q)
                for _ in range(2) for row in fa.order.rows]
        x = span(ring, 4, gens)
        if x.rank == 4:
            break
    exps = _steps(rnd, 1, rnd.randint(0, 1))
    prefix = [x.scale_exponents((e,)) for e in exps]
    return Glider(fa, "algebra", prefix, _tail(rnd, ring, 1, kind))


def _m2_filtration(p):
    f = valuation_filtration(padic(p))
    rows = [[QQ_FIELD.from_int(int(i == j)) for j in range(4)]
            for i in range(4)]
    return AlgebraFiltration(matrix_algebra(2), f,
                             canonicalize(f.base_ring, 4, rows),
                             mode="induced")


def _cases():
    """(label, chain, extension): field chains over Q(i) at 1+2i, 2+3i, 3
    and 1+i with phi = n and 2n, M_2 chains over Q(i) at 1+2i and 3, and
    chains over Q(x) -> Q(t); filtration and multiply tails alike."""
    rnd = random.Random("tensor-collapse")
    exts = [gauss_extension(5, "split", "1+2i"),
            gauss_extension(13, "split", "2+3i"),
            gauss_extension(3), gauss_extension(2)]
    out = []
    for ext in exts:
        for c in (1, 2):
            filt = valuation_filtration(ext.v) if c == 1 else \
                scaled_valuation_filtration(ext.v, c)
            for kind in ("filtration", "multiply") * 3:
                out.append((f"{ext.w.name} phi={c}n {kind}",
                            _field_chain(filt, c, rnd, kind), ext))
    for ext in exts[0], exts[2]:
        fa = _m2_filtration(ext.v.p)
        for kind in ("filtration", "multiply") * 2:
            out.append((f"M_2 {ext.w.name} {kind}",
                        _m2_chain(fa, rnd, kind), ext))
    ext = sqrt_x_extension()
    for c in (1, 2):
        filt = valuation_filtration(ext.v) if c == 1 else \
            scaled_valuation_filtration(ext.v, c)
        for kind in ("filtration", "multiply"):
            out.append((f"Q(x) phi={c}n {kind}",
                        _field_chain(filt, c, rnd, kind), ext))
    return out


CASES = _cases()


@pytest.mark.parametrize("label, chain, ext", CASES,
                         ids=[c[0] for c in CASES])
def test_tensor_glider_is_the_convolution_sum(label, chain, ext):
    """M_p (x) O_L is the whole sum up to the horizon, and the result is
    a glider.  A filtration tail is presented as a fit of the sums
    presents it; a multiply tail by I is carried over as I^e."""
    tf = tensor_filtration(chain.filtration, ext)
    tg = tensor_glider(chain, ext, tf=tf)
    sums = [_glider_sum_level(chain, tf, p) for p in range(tg.horizon + 1)]
    assert [tg.level(p) for p in range(len(sums))] == sums
    assert is_glider(tg)[0]
    if chain.tail.kind == "multiply":
        exps = tuple(ext.e * k for k in chain.tail.ideal.exps)
        assert tg.tail == MultiplyBy(FracIdeal(tf.fl.base_ring, exps))
    else:
        ref = fit_tail(tf.fa, tf.kind, sums.__getitem__,
                       chain.prefix_end + 2, alg=tf.alg)
        assert (tg.prefix, tg.tail) == (ref.prefix, ref.tail)


def test_a_multiply_tail_off_the_filtration_step_carries_over(f5, fa_m2):
    """Tails P^2 and P^3 were not presentable from the tensored levels
    before the tail itself was carried across."""
    ext = gauss_extension(5, "split", "2+i")
    r = f5.base_ring
    for k in (2, 3):
        field = Glider(f5, "field", [FracIdeal(r, (0,))],
                       MultiplyBy(FracIdeal(r, (k,))))
        out = tensor_glider(field, ext)
        assert out.level(2).exps == (2 * k,)
        algebra = realize_csa_element(fa_m2, BsPoint([fe(1), fe(0)]), 0)
        algebra = Glider(fa_m2, "algebra", algebra.prefix,
                         MultiplyBy(FracIdeal(r, (k,))), alg=fa_m2.alg)
        assert is_glider(tensor_glider(algebra, ext))[0]


def test_a_non_glider_is_rejected(f5):
    """The collapse holds only for gliders: a constant nonzero chain over
    the 5-adic filtration fails F_1 M_1 inside M_0, and the sums over it
    would grow forever."""
    chain = Glider(f5, "field", [FracIdeal(f5.base_ring, (0,))], Constant())
    with pytest.raises(SpecValidationError, match=r"witness \(1, 1, .*1/5"):
        tensor_glider(chain, gauss_extension(5, "split", "2+i"))


def _searched_factor(p):
    """The split factor a+bi of p, a <= b, by the search over every pair
    that the construction replaced: the reference."""
    a = next(a for a in range(1, p)
             if any(a * a + b * b == p for b in range(1, p)))
    b = next(b for b in range(1, p) if a * a + b * b == p)
    return a, b


def test_the_split_factor_is_constructed():
    """Below 2,000 the factor is the one the search gives; at 10^9 + 9,
    where the search did not end within 20 s, it takes well under 1 s."""
    from math import isqrt

    i = GAUSS_FIELD.gen("i")
    for p in range(5, 2000, 4):
        if all(p % d for d in range(2, isqrt(p) + 1)):
            a, b = _searched_factor(p)
            assert gauss_extension(p).w.pi == a + b * i, p
    start = time.perf_counter()
    ext = gauss_extension(1000000009)
    assert time.perf_counter() - start < 1
    assert ext.w.pi == 3747 + 31400 * i
