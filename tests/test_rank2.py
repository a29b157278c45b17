import random

import pytest

from gliderbs.errors import SpecValidationError, UnsupportedError
from gliderbs.fields import QXY_FIELD, composite2
from gliderbs.filtration import member
from gliderbs.gbs import classify_field_glider
from gliderbs.glider import (Constant, FiltrationTail, ZeroAfter)
from gliderbs.lattice import ZERO_MODULE
from gliderbs.rank2 import (Z2Filtration, Z2Glider, Z2Ideal, Z2MultiplyBy,
                            classify_z2_glider, horizontal_coarsening,
                            realize_z2, residue_glider,
                            vertical_body_glider)


def test_round_trip_all_shifts():
    for m in range(-2, 3):
        for n in range(-2, 3):
            v = classify_z2_glider(realize_z2((m, n)))
            assert v.status == "irreducible" and v.shift == (m, n)


def test_grid_axiom_rejections():
    filt = Z2Filtration()
    # rows must descend rightward
    with pytest.raises(SpecValidationError):
        Z2Glider(filt, (1, 0), [[Z2Ideal.point(0, 0)],
                                [Z2Ideal.point(1, 0)]],
                 FiltrationTail(), FiltrationTail())
    # a vertically-skipping column next to a normal one violates the
    # lex-coupled axiom
    grid = [[Z2Ideal.point(1, -2 * i) for i in range(2)],
            [Z2Ideal.point(0, -i) for i in range(2)]]
    with pytest.raises(SpecValidationError):
        Z2Glider(filt, (1, 1), grid, FiltrationTail(), FiltrationTail())


def test_vertical_skip_classifies_reducible():
    filt = Z2Filtration()
    grid = [[Z2Ideal.point(1 - 2 * j, -2 * i) for i in range(3)]
            for j in range(2)]
    g = Z2Glider(filt, (1, 2), grid, Z2MultiplyBy(-2, 0),
                 Z2MultiplyBy(0, -2))
    v = classify_z2_glider(g)
    assert v.status == "reducible"
    assert v.witness is not None


def test_degenerate_presentation_out_of_class():
    filt = Z2Filtration("horizontal-only")
    grid = [[Z2Ideal.horizontal(-j) for _ in range(2)] for j in range(2)]
    g = Z2Glider(filt, (1, 1), grid, FiltrationTail(), Constant())
    v = classify_z2_glider(g)
    assert v.status == "out-of-class" and v.rule == "rank2.z-degenerate"


def test_horizontal_coarsening_members():
    filt = Z2Filtration()
    fh = horizontal_coarsening(filt)
    y_inv = QXY_FIELD.parse("1/y")
    assert member(fh, 0, y_inv)
    assert composite2()(y_inv) == (0, -1)
    # lex: (0,-1) < (0,0), so y^-1 is outside the composite degree-0 ring
    assert not member_composite((0, 0), y_inv)


def member_composite(gamma, x):
    v = composite2()(x)
    a, b = gamma
    if v[0] != -a:
        return v[0] > -a
    return v[1] >= -b


def test_vertical_bodies_of_pure_shift():
    g = realize_z2((1, -1))
    vb = vertical_body_glider(g)
    assert vb.body(0) == Z2Ideal.horizontal(1)
    assert vb.body(1) == Z2Ideal.horizontal(0)
    chain = vb.as_glider()
    v = classify_field_glider(chain)
    assert v.status == "irreducible" and v.element.shift == 1


def test_grid_with_a_constant_vertical_tail_is_rejected():
    # F_(0,1) lifts a point cell above itself, so a nonzero column that
    # stays constant upward breaks the axiom
    filt = Z2Filtration()
    grid = [[Z2Ideal.point(2 - j, -i) for i in range(2)]
            for j in range(2)]
    with pytest.raises(SpecValidationError, match="glider axiom fails"):
        Z2Glider(filt, (1, 1), grid, FiltrationTail(), Constant())


def test_horizontal_only_bodies_are_unsupported():
    filt = Z2Filtration("horizontal-only")
    grid = [[Z2Ideal.horizontal(-j) for _ in range(2)] for j in range(2)]
    g = Z2Glider(filt, (1, 1), grid, FiltrationTail(), Constant())
    with pytest.raises(UnsupportedError):
        vertical_body_glider(g).as_glider()


def test_vertical_bodies_zero_tail():
    filt = Z2Filtration()
    grid = [[Z2Ideal.point(2 - j, -i) for i in range(2)]
            for j in range(2)]
    g = Z2Glider(filt, (1, 1), grid, ZeroAfter(), FiltrationTail())
    chain = vertical_body_glider(g).as_glider()
    assert chain.level(2) is ZERO_MODULE
    v = classify_field_glider(chain)
    assert v.status != "irreducible"


def test_residue_gliders_shift_agree():
    g = realize_z2((0, 2))
    r0 = residue_glider(g, 0)
    r1 = residue_glider(g, 1)
    v0 = classify_field_glider(r0)
    v1 = classify_field_glider(r1)
    assert v0.status == v1.status == "irreducible"
    assert v0.element.shift == v1.element.shift == 2


def test_residue_glider_errors():
    g = realize_z2((0, 0))
    with pytest.raises(SpecValidationError):
        residue_glider(g, 7)


def test_lex_multiplicativity_random():
    rnd = random.Random(2)
    c2 = composite2()
    f = QXY_FIELD
    for _ in range(30):
        a = f.parse("x") ** rnd.randint(-3, 3) * \
            f.parse("y") ** rnd.randint(-3, 3) * f.parse("1+x*y")
        b = f.parse("x") ** rnd.randint(-2, 2) * \
            f.parse("(1+y)/(2+x)")
        va, vb = c2(a), c2(b)
        assert c2(a * b) == (va[0] + vb[0], va[1] + vb[1])
