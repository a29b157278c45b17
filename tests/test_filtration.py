import random

import pytest

from gliderbs.errors import SpecValidationError
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import (AlgebraFiltration, FieldFiltration,
                                 StepFunction, associated_strong, estep,
                                 induced_on_K, is_strong, jacobson_check,
                                 member, product_law_witness,
                                 strong_completion, valuation_filtration)
from gliderbs.gbs import GbsElement
from gliderbs.glider import FiltrationTail, Glider, MultiplyBy
from gliderbs.lattice import ZERO_MODULE, FracIdeal
from gliderbs.orders import builtin_hurwitz2, maxorder_filtration


def test_member_examples(f5, f23):
    q = QQ_FIELD
    assert member(f5, -2, q.from_int(50))
    assert not member(f5, -3, q.from_int(50))
    assert member(f23, 0, q.parse("1/5"))
    assert not member(f23, 0, q.parse("1/2"))
    assert member(f23, 1, q.parse("1/6"))


def test_is_strong_examples(f5, f23, f_mod):
    assert is_strong(f5)
    assert is_strong(f23)
    assert not is_strong(f_mod)


def test_estep_examples(f5, f_mod):
    assert estep(f5) == 1
    assert estep(f_mod) is None
    two_step = FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-2, 2), {-2: (-1,), -1: (-1,), 0: (0,),
                               1: (0,), 2: (1,)}, (2, (1,)), (2, (1,))))
    assert estep(two_step) == 2
    assert not is_strong(two_step)


def test_jacobson_examples(f5, f23):
    assert jacobson_check(f5)
    assert jacobson_check(f23)


def test_validator_rejects_flat_negative_degree():
    # phi(-1) = 0 cannot coexist with a growing positive part
    with pytest.raises(SpecValidationError):
        FieldFiltration(
            QQ_FIELD, (padic(5),),
            StepFunction((-1, 1), {-1: (0,), 0: (0,), 1: (1,)},
                         (1, (1,)), (1, (1,))))


def test_validator_rejects_a_table_that_is_not_superadditive():
    # phi(1) + phi(1) = 2 exceeds phi(2) = 1; the scan visits each
    # unordered pair once, the smaller degree first
    with pytest.raises(SpecValidationError,
                       match=r"phi not superadditive at \(1,1\)"):
        StepFunction((0, 2), {0: (0,), 1: (1,), 2: (1,)},
                     (1, (1,)), (1, (1,)))


def test_a_table_short_of_its_window_is_rejected_by_size():
    """The table's size is compared with the window's before anything is
    built over the window: [0, 10^30] must not be enumerated."""
    with pytest.raises(SpecValidationError, match="cover the window"):
        StepFunction((0, 10 ** 30), {0: (0,)}, (1, (1,)), (1, (1,)))
    with pytest.raises(SpecValidationError, match="cover the window"):
        StepFunction((0, 1), {0: (0,), 2: (1,)}, (1, (1,)), (1, (1,)))


def test_validator_rejects_degenerate():
    with pytest.raises(SpecValidationError):
        StepFunction((0, 0), {0: ()}, (1, ()), (1, ()))
    with pytest.raises(SpecValidationError):
        StepFunction((0, 0), {0: (0,)}, (1, (0,)), (1, (1,)))


def test_associated_strong_examples(f5, f_mod):
    # already strong: the valuation chain reproduces the filtration
    m = Glider(f5, "field",
               [FracIdeal(f5.base_ring, (i,)) for i in range(3)],
               MultiplyBy(FracIdeal(f5.base_ring, (1,))))
    assert associated_strong(f5, m) == f5
    # the modified filtration completes to the valuation filtration
    m2 = Glider(f_mod, "field",
                [FracIdeal(f_mod.base_ring, (i,)) for i in range(4)],
                MultiplyBy(FracIdeal(f_mod.base_ring, (1,))))
    out = associated_strong(f_mod, m2)
    assert out == f5 and out.is_dvr_valuation()
    # a chain that ends in zero defines no unbounded negative part
    m3 = Glider(f5, "field", [FracIdeal(f5.base_ring, (0,)),
                              FracIdeal(f5.base_ring, (1,)), ZERO_MODULE],
                FiltrationTail())
    with pytest.raises(SpecValidationError, match="unbounded"):
        associated_strong(f5, m3)


def test_associated_strong_two_step():
    # positive part jumping every 2 steps + the matching glider
    f = FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-2, 2), {-2: (-1,), -1: (-1,), 0: (0,),
                               1: (0,), 2: (1,)}, (2, (1,)), (2, (1,))))
    chain = [FracIdeal(f.base_ring, ((i + 1) // 2,)) for i in range(7)]
    m = Glider(f, "field", chain, FiltrationTail())
    out = associated_strong(f, m)
    assert estep(out) == 2


def test_associated_strong_rejects_wrong_start(f5):
    m = Glider(f5, "field", [FracIdeal(f5.base_ring, (1,))],
               MultiplyBy(FracIdeal(f5.base_ring, (1,))))
    with pytest.raises(SpecValidationError):
        associated_strong(f5, m)


def test_strong_completion(f_mod, f5):
    comp, e = strong_completion(f_mod)
    assert e == 1 and comp.is_dvr_valuation() and comp == f5


def test_induced_on_K_induced_mode(fa_m2, f5):
    assert induced_on_K(fa_m2) is f5


def test_induced_on_K_explicit_powers(m2_order):
    fa = maxorder_filtration(m2_order, (1,))
    fk = induced_on_K(fa)
    assert fk.is_dvr_valuation()


def test_induced_on_K_hurwitz_radical():
    fa = maxorder_filtration(builtin_hurwitz2(), (1,))
    fk = induced_on_K(fa)
    # P meet Q = 2 Z_(2): phi(-1) = phi(-2) = -1
    assert fk.phi(-1) == (-1,) and fk.phi(-2) == (-1,)
    assert fk.phi(-3) == (-2,)


def test_product_law_dichotomy():
    hur = builtin_hurwitz2()
    assert product_law_witness(maxorder_filtration(hur, (2,))) is None
    assert product_law_witness(maxorder_filtration(hur, (1,))) is not None


def test_validator_reports_the_product_law_witness():
    # the Hurwitz chain with F_-1 A = P is no filtration; built with the
    # validator, it fails at the pair that product_law_witness finds
    fa = maxorder_filtration(builtin_hurwitz2(), (1,))
    n, m = product_law_witness(fa)
    with pytest.raises(SpecValidationError) as err:
        AlgebraFiltration(fa.alg, fa.base, fa.order, mode="explicit",
                          window=(fa.lo, fa.hi), levels=fa.levels,
                          plus=(fa.plus_period, fa.plus_mult),
                          minus=(fa.minus_period, fa.minus_mult))
    assert str(err.value) == f"L_{n} * L_{m} not inside L_{n + m}"


def test_levelwise_product_randomized(f23):
    # member-set products F_n F_m inside F_{n+m} on sampled elements
    rnd = random.Random(11)
    q = QQ_FIELD
    for _ in range(60):
        n, m = rnd.randint(-3, 3), rnd.randint(-3, 3)
        xn = f23.level(n).generator() * q.from_int(rnd.randint(1, 9))
        xm = f23.level(m).generator() * q.from_int(rnd.randint(1, 9))
        assert member(f23, n + m, xn * xm)


def test_algebra_filtration_validation(f5, b_m2, m2):
    fa = AlgebraFiltration(m2, f5, b_m2, mode="induced")
    assert fa.level(0) == b_m2
    assert fa.level(-1) == b_m2.scale(QQ_FIELD.from_int(5))
    assert is_strong(fa)
    with pytest.raises(SpecValidationError):
        AlgebraFiltration(m2, f5, b_m2.scale(QQ_FIELD.from_int(5)),
                          mode="induced")


def test_explicit_equals_induced(f5, b_m2, m2):
    levels = [f5.level(n).generator() for n in range(-1, 2)]
    lats = [b_m2.scale(g) for g in levels]
    fa = AlgebraFiltration(
        m2, f5, b_m2, mode="explicit", window=(-1, 1), levels=lats,
        plus=(1, FracIdeal(f5.base_ring, (-1,))),
        minus=(1, FracIdeal(f5.base_ring, (1,))))
    assert induced_on_K(fa) == f5
    assert is_strong(fa)
    assert estep(fa) == 1


def test_field_filtration_builds_each_level_once():
    phi = StepFunction((-1, 1), {-1: (-2,), 0: (0,), 1: (1,)},
                       (1, (1,)), (1, (1,)))
    filt = FieldFiltration(QQ_FIELD, (padic(5),), phi)
    seen = []

    class Counting:
        def __call__(self, n):
            seen.append(n)
            return phi(n)

        def __getattr__(self, name):
            return getattr(phi, name)

    filt.phi = Counting()
    m = Glider(filt, "field", [FracIdeal(filt.base_ring, (0,))],
               FiltrationTail())
    first = [m.level(i) for i in range(12)]
    assert [m.level(i) for i in range(12)] == first
    assert sorted(seen) == sorted(set(seen))
    assert filt.level(-5) is filt.level(-5)
    assert filt.level(-5) == FracIdeal(filt.base_ring, (6,))


def _step(window=(-1, 1), table=None, plus=(1, (1,)), minus=(1, (1,))):
    table = {-1: (-1,), 0: (0,), 1: (1,)} if table is None else table
    return StepFunction(window, table, plus, minus)


NON_INTEGERS = {
    "FracIdeal exps 1.7": lambda r5: FracIdeal(r5, (1.7,)),
    "FracIdeal exps True": lambda r5: FracIdeal(r5, (True,)),
    "window True": lambda r5: _step(window=(-1, True)),
    "table key 0.4": lambda r5: _step(
        table={-1: (-1,), 0.4: (0,), 1: (1,)}),
    "table value 0.0": lambda r5: _step(
        table={-1: (-1,), 0: (0.0,), 1: (1,)}),
    "plus increment 1.9": lambda r5: _step(plus=(1, (1.9,))),
    "minus increment True": lambda r5: _step(minus=(1, (True,))),
    "plus period 1.5": lambda r5: _step(plus=(1.5, (1,))),
    "degree 0.5": lambda r5: _step()(0.5),
    "shift 1.7": lambda r5: GbsElement("field", 1.7),
}


@pytest.mark.parametrize("probe", sorted(NON_INTEGERS))
def test_non_integers_are_rejected(probe, r5):
    """Exponents, degrees, periods, increments and shifts must be ints, as
    in the gbs/1 decoder: a float or a bool is named, not truncated."""
    with pytest.raises(SpecValidationError, match="expected an integer"):
        NON_INTEGERS[probe](r5)


@pytest.mark.parametrize("plus, minus", [(2, 1), (1, 3)])
def test_a_window_is_at_least_a_tail_period_long(plus, minus):
    """Beyond a window shorter than a period, a tail step would land past
    the other end of it, and the two tails would hand a degree back and
    forth without end."""
    period = max(plus, minus)

    def phi(hi):
        return StepFunction((0, hi), {n: (n,) for n in range(hi + 1)},
                            (plus, (plus,)), (minus, (minus,)))

    assert [phi(period - 1)(n) for n in (-7, 5)] == [(-7,), (5,)]
    with pytest.raises(SpecValidationError, match=rf"window \[0,{period - 2}"
                       rf"\] is shorter than the tail period {period}$"):
        phi(period - 2)


def test_an_explicit_window_is_at_least_a_tail_period_long(f5, b_m2, m2):
    ring = f5.base_ring
    tails = {"plus": (2, FracIdeal(ring, (-2,))),
             "minus": (2, FracIdeal(ring, (2,)))}
    levels = [b_m2, b_m2.scale(QQ_FIELD.parse("1/5"))]
    fa = AlgebraFiltration(m2, f5, b_m2, mode="explicit", window=(0, 1),
                           levels=levels, **tails)
    assert fa.level(-3) == b_m2.scale(QQ_FIELD.from_int(125))
    assert induced_on_K(fa) == f5
    with pytest.raises(SpecValidationError,
                       match=r"window \[0,0\] is shorter than the tail "
                             r"period 2"):
        AlgebraFiltration(m2, f5, b_m2, mode="explicit", window=(0, 0),
                          levels=levels[:1], **tails)


def test_minus_start_is_where_the_negative_side_turns_periodic(f5, f_mod):
    # phi(-1) = -2 but phi(-n - 1) = phi(-n) - 1 from n = 1 on
    assert (f5.phi.minus_start, f_mod.phi.minus_start) == (0, 1)
    # phi(n) = n written with minus period 2 is periodic from degree 0
    ph = StepFunction((-1, 1), {-1: (-1,), 0: (0,), 1: (1,)},
                      (1, (1,)), (2, (2,)))
    assert ph.minus_start == 0
