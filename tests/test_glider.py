import random

import pytest

from gliderbs.errors import SpecValidationError
from gliderbs.fields import INF, QQ_FIELD, padic
from gliderbs.filtration import FieldFiltration, StepFunction
from gliderbs.glider import (Constant, FiltrationTail, Glider, MultiplyBy,
                             ZeroAfter, body, classify_subglider,
                             classify_subglider_unchecked, essential_length,
                             is_glider, negative_part, realize_field_chain,
                             scalar_shift, shift)
from gliderbs.lattice import FracIdeal, ZERO_MODULE


def ideal(filt, *exps):
    return FracIdeal(filt.base_ring, tuple(exps))


def test_negative_part_is_glider(f5):
    m = negative_part(f5)
    ok, cert = is_glider(m)
    assert ok and cert is None
    assert body(m) is ZERO_MODULE
    assert essential_length(m) is INF


def test_ascending_prefix_rejected(f5):
    with pytest.raises(SpecValidationError):
        Glider(f5, "field", [f5.level(0), f5.level(1)], FiltrationTail())


def test_constant_nonzero_chain_fails_axiom(f5):
    c = Glider(f5, "field", [f5.level(0)], Constant())
    ok, cert = is_glider(c)
    assert not ok
    i, j, witness = cert
    assert i >= 1 and witness is not None


def test_gap_chain_is_glider(f5):
    g = Glider(f5, "field", [f5.level(0), f5.level(-2)], FiltrationTail())
    assert is_glider(g)[0]


def test_body_examples(f5):
    const_zero = Glider(f5, "field", [f5.level(0), f5.level(-1)],
                        ZeroAfter())
    assert body(const_zero) is ZERO_MODULE
    const = Glider(f5, "field", [f5.level(0)], Constant())
    assert body(const) == f5.level(0)
    unit_tail = Glider(f5, "field", [f5.level(0)],
                       MultiplyBy(ideal(f5, 0)))
    assert body(unit_tail) == f5.level(0)
    assert body(negative_part(f5)) is ZERO_MODULE


def test_essential_length_examples(f5):
    # chain hitting zero after level N has length N
    z = Glider(f5, "field", [f5.level(0), f5.level(-1)], ZeroAfter())
    assert essential_length(z) == 1
    # strictly descending then constant: the last strict drop
    c = Glider(f5, "field",
               [ideal(f5, 0), ideal(f5, 1), ideal(f5, 2), ideal(f5, 3)],
               Constant())
    assert essential_length(c) == 2
    assert essential_length(negative_part(f5)) is INF
    flat = Glider(f5, "field", [ideal(f5, 1)], Constant())
    assert essential_length(flat) is INF


def test_shift_examples(f5):
    m = negative_part(f5)
    t = realize_field_chain(f5, -1)
    assert shift(m, 1) == t
    assert scalar_shift(m, QQ_FIELD.from_int(5)) == t
    assert shift(m, 0) is m


def test_shift_equivariance(f5):
    z = Glider(f5, "field", [ideal(f5, 0), ideal(f5, 1), ideal(f5, 2)],
               ZeroAfter())
    assert essential_length(z) == 2
    assert essential_length(shift(z, 1)) == 1
    assert essential_length(shift(z, 3)) is INF  # all-zero chain
    for gamma in range(3):
        assert is_glider(shift(z, gamma))[0]


def test_deep_shift_of_irregular_tail(f_mod):
    m = negative_part(f_mod)
    s = shift(m, 4)
    for k in range(6):
        assert s.level(k) == m.level(4 + k)


def test_self_classification_is_T3(f5):
    m = negative_part(f5)
    v = classify_subglider(m, m)
    assert v.kind == "T3"
    assert v.alpha[:4] == [0, 1, 2, 3] and v.alpha_slope == 1


def test_shift_by_one_is_T3(f5):
    m = negative_part(f5)
    v = classify_subglider(shift(m, 1), m)
    assert v.kind == "T3"
    assert v.alpha[:3] == [1, 2, 3]


def test_T2_verdict(f5):
    m = negative_part(f5)
    n = Glider(f5, "field", [ideal(f5, 0), ideal(f5, 1)], ZeroAfter())
    v = classify_subglider(n, m)
    assert v.kind == "T2" and v.level == 2


def test_T2_precedes_T1():
    # Valid chains here have zero bodies (the tails descend or hit zero),
    # so a body-hit always happens at a zero level and T2 fires first;
    # the body-hit pattern with a nonzero body needs an ambient module
    # larger than the algebra, which is out of the representation class.
    from gliderbs.filtration import valuation_filtration
    from gliderbs.fields import padic

    f = valuation_filtration(padic(5))
    big = Glider(f, "field", [ideal(f, 0), ideal(f, 1), ideal(f, 2)],
                 FiltrationTail())
    small = Glider(f, "field", [ideal(f, 0), ideal(f, 1)], ZeroAfter())
    v = classify_subglider(small, big)
    assert v.kind == "T2"


def test_not_subglider_witness(f5):
    m = negative_part(f5)
    n = Glider(f5, "field", [ideal(f5, -1)], FiltrationTail())
    v = classify_subglider(n, m)
    assert v.kind == "not-subglider"
    assert v.witness is not None and v.level == 0


def test_pq_product_witness(f23):
    m = negative_part(f23)
    n = Glider(f23, "field", [ideal(f23, 1, 0)],
               MultiplyBy(ideal(f23, 1, 1)))
    v = classify_subglider(n, m)
    assert v.kind == "nontrivial"
    assert v.witness == ideal(f23, 1, 0)
    assert v.level == 0


def test_step_two_subchain_is_T3(f5):
    # over the full valuation chain every subchain reindexes: alpha(n)=2n+1
    m = negative_part(f5)
    n = Glider(f5, "field", [ideal(f5, 1)], MultiplyBy(ideal(f5, 2)))
    v = classify_subglider(n, m)
    assert v.kind == "T3"
    assert v.alpha[:3] == [1, 3, 5]


def test_nontrivial_carries_strict_sandwich(f5):
    # a gap chain misses the level between its jumps; the valuation
    # subchain lands there and witnesses reducibility
    gap = Glider(f5, "field", [ideal(f5, 0), ideal(f5, 2), ideal(f5, 3)],
                 FiltrationTail())
    n = Glider(f5, "field", [ideal(f5, 1)], FiltrationTail())
    v = classify_subglider(n, gap)
    assert v.kind == "nontrivial"
    w = v.witness
    lvl = v.level
    big, nxt = gap.level(lvl), gap.level(lvl + 1)
    assert big.contains(w) and w != big
    assert w.contains(nxt) and w != nxt


def test_randomized_self_T3_and_shift_validity(f5):
    rnd = random.Random(7)
    for _ in range(40):
        start = rnd.randint(-3, 3)
        exps = [start]
        for _ in range(rnd.randint(1, 4)):
            exps.append(exps[-1] + rnd.randint(1, 2))
        tail = rnd.choice([FiltrationTail(),
                           MultiplyBy(ideal(f5, rnd.randint(1, 2))),
                           ZeroAfter()])
        g = Glider(f5, "field", [ideal(f5, e) for e in exps], tail)
        assert is_glider(g)[0]
        assert classify_subglider(g, g).trivial()
        gamma = rnd.randint(0, len(exps) - 1)
        assert is_glider(shift(g, gamma))[0]


def flat_window():
    """phi(n) = 0 on [0, 10], then slope 1: F_11 is the first level above
    F_0, past the horizon of a one-level chain."""
    return FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-1, 10), {-1: (-1,), **{n: (0,) for n in range(11)}},
                     (1, (1,)), (1, (1,))))


def test_classify_subglider_rejects_a_big_chain_that_is_not_a_glider(f5):
    # a constant nonzero tail breaks the axiom; the T3 search used to
    # walk its whole bound on these inputs instead of rejecting them
    flat = flat_window()
    cases = [
        (Glider(f5, "field", [ideal(f5, 0), ideal(f5, 1)], Constant()),
         (negative_part(f5), shift(negative_part(f5), 2))),
        (Glider(flat, "field", [flat.level(0)], Constant()),
         (Glider(flat, "field", [flat.level(0), ideal(flat, 1)],
                 FiltrationTail()),)),
    ]
    for big, subs in cases:
        for sub in subs:
            with pytest.raises(SpecValidationError, match="not a glider"):
                classify_subglider(sub, big)


def steep_after_flat():
    """phi(n) = 0 on [0, 10], then slope 2."""
    return FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((0, 10), {n: (0,) for n in range(11)},
                     (1, (2,)), (1, (2,))))


@pytest.mark.parametrize("filt, growth, first", [
    # a constant tail: F_11 M_11 = 5^-1 R is not inside M_0 = R
    (flat_window, None, 11),
    # phi(n) = 2(n - 10) outgrows M_j = 5^j R at n = 21, past the
    # filtration's horizon 12 as well
    (steep_after_flat, 1, 21),
])
def test_is_glider_finds_failures_past_the_chain_horizon(filt, growth, first):
    f = filt()
    tail = Constant() if growth is None else MultiplyBy(ideal(f, growth))
    m = Glider(f, "field", [f.level(0)], tail)
    assert m.horizon < first
    ok, (i, j, witness) = is_glider(m)
    assert not ok and (i, j) == (first, first)
    assert witness == QQ_FIELD.parse("1/5")


def test_is_glider_accepts_a_tail_as_steep_as_the_filtration():
    f = steep_after_flat()
    m = Glider(f, "field", [f.level(0)], MultiplyBy(ideal(f, 2)))
    assert is_glider(m) == (True, None)


def test_unchecked_classification_of_a_non_glider_ends():
    # the T3 walk and the sandwich walk stop where the stable big chain
    # is constant: N_1 matches no later level of M, and no module sits
    # strictly between two distinct levels, so the verdict is nontrivial
    # at the index where the walk stopped, without a sandwich
    flat = flat_window()
    big = Glider(flat, "field", [flat.level(0)], Constant())
    sub = Glider(flat, "field", [flat.level(0), ideal(flat, 1)],
                 FiltrationTail())
    v = classify_subglider_unchecked(sub, big)
    assert (v.kind, v.level, v.witness) == ("nontrivial", 1, None)


@pytest.mark.parametrize("tail", ["filtration", "zeroafter", "multiply"])
def test_zero_last_level_stabilizes_under_every_tail(f5, tail):
    tails = {"filtration": FiltrationTail(), "zeroafter": ZeroAfter(),
             "multiply": MultiplyBy(ideal(f5, 1))}
    m = Glider(f5, "field", [ideal(f5, 0), ideal(f5, 1), ZERO_MODULE],
               tails[tail])
    assert m.stabilizes and m.tail == tails[tail]
    assert body(m) is ZERO_MODULE
    assert essential_length(m) == 1
    v = classify_subglider(m, m)
    assert v.kind == "T3" and v.alpha_slope == 0
    assert shift(m, 5).level(0) is ZERO_MODULE


@pytest.mark.parametrize("tail", ["filtration", "multiply"])
def test_levels_past_the_prefix_are_built_once(f5, b_m2, m2, tail):
    step = 1 if tail == "filtration" else 2
    m = Glider(f5, "algebra", [b_m2],
               FiltrationTail() if tail == "filtration"
               else MultiplyBy(ideal(f5, step)), alg=m2)
    first = [m.level(i) for i in range(8)]
    assert all(m.level(i) is lvl for i, lvl in enumerate(first))
    assert first == [b_m2.scale_exponents((step * i,)) for i in range(8)]


def irregular_negative_side():
    """phi(n) = -min(3|n|, 2|n| + 10) on [-10, 0], both tails (1, (2,)):
    the negative side is periodic from degree 10 on."""
    return FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-10, 0), {n: (-min(3 * -n, 2 * -n + 10),)
                                for n in range(-10, 1)},
                     (1, (2,)), (1, (2,))))


def test_horizon_reaches_the_periodic_negative_side():
    f = irregular_negative_side()
    assert f.phi.minus_start == 10
    a = Glider(f, "field", [ideal(f, 0)], FiltrationTail())
    b = Glider(f, "field", [ideal(f, 3 * k) for k in range(6)],
               FiltrationTail())
    # the chains agree up to level 10 and have the same growth
    assert a.level(11) == ideal(f, 32) and b.level(11) == ideal(f, 33)
    assert a.horizon >= a.deep_start() and b.horizon >= b.deep_start()
    assert a != b


def test_lattice_sub_period_pair_is_T3_in_both_orders(b_m2, m2):
    # phi(n) = n written with minus period 2: a filtration tail and a
    # multiply-by-P tail give one chain, whose slope is half a period
    f = FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-1, 1), {-1: (-1,), 0: (0,), 1: (1,)},
                     (1, (1,)), (2, (2,))))
    m = Glider(f, "algebra", [b_m2], FiltrationTail(), alg=m2)
    n = Glider(f, "algebra", [b_m2], MultiplyBy(ideal(f, 1)), alg=m2)
    assert m == n
    for sub, big, slope in ((m, n, 2), (n, m, 1)):
        v = classify_subglider(sub, big)
        assert (v.kind, v.alpha_slope) == ("T3", slope)
        assert v.alpha == list(range(v.horizon + 1))


def test_containment_that_fails_past_the_horizon_is_found_by_scan(f5):
    # N_i = P^(10+i) lies in M_i = P^(2i) up to i = 10 only
    m = Glider(f5, "field", [ideal(f5, 0)], MultiplyBy(ideal(f5, 2)))
    n = Glider(f5, "field", [ideal(f5, 10)], MultiplyBy(ideal(f5, 1)))
    v = classify_subglider(n, m)
    assert v.horizon is None and 11 > max(m.horizon, n.horizon) + 2
    assert (v.kind, v.level, v.witness) == (
        "not-subglider", 11, QQ_FIELD.from_int(5 ** 21))
