"""Laws of the lattice kernel that need no second path, on the polynomial
rings F_3[x]_(x), F_3[x]_(x+2), Q[x]_(x^2+1) and Q[x]_(3x+1) (the last
at a prime that is not monic): the normal form is canonical under row
permutation, unimodular mixing and unit scaling; `mult` is associative;
`quotient_length` is additive along a chain."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from gliderbs.fields import QX_FIELD, fp_func_field, poly_prime, xadic
from gliderbs.lattice import (BaseRing, matrix_algebra, mult,
                              quotient_length, span)

F3X = fp_func_field(3)
BASES = {
    "F_3(x) at x": BaseRing(F3X, [xadic(F3X)]),
    "F_3(x) at x+2": BaseRing(F3X, [poly_prime("x+2", F3X)]),
    "Q(x) at x^2+1": BaseRing(QX_FIELD, [poly_prime("x^2+1")]),
    "Q(x) at 3x+1": BaseRing(QX_FIELD, [poly_prime("3*x+1")]),
}
DIM = 4
M2 = matrix_algebra(2)
# denominators inside and outside each prime
DENOMINATORS = ["1", "x", "x+2", "x^2+1", "3*x+1", "x+1", "x^2+x+2"]
UNITS = ["1", "-1", "x+1", "1/(x+1)"]
# integral multipliers: the units, and elements with a positive value at
# some base's prime
MULTIPLIERS = UNITS + ["x", "x+2", "x^2+1", "3*x+1"]


def entries(field):
    def build(cs, den):
        x, den = field.gen("x"), field.parse(den)
        num = sum((field.from_int(c) * x ** k for k, c in enumerate(cs)),
                  field.zero())
        # 3x+1 is a unit of F_3
        return num / den if den else num

    return st.builds(build, st.lists(st.integers(-2, 2), max_size=3),
                     st.sampled_from(DENOMINATORS))


def full_rows(field):
    return st.lists(st.lists(entries(field), min_size=DIM, max_size=DIM),
                    min_size=DIM, max_size=DIM)


def _mixed(base, rows, rnd, steps):
    """The rows shuffled, mixed by elementary operations over the ring and
    scaled by units: generators of the same module."""
    parse = base.field.parse
    rows = [list(r) for r in rows]
    rnd.shuffle(rows)
    for _ in range(steps):
        a, b = rnd.sample(range(len(rows)), 2)
        s = parse(rnd.choice(MULTIPLIERS))
        rows[b] = [y + s * x for x, y in zip(rows[a], rows[b])]
    for r in rows:
        u = parse(rnd.choice(UNITS))
        r[:] = [u * x for x in r]
    return rows


def _sublattice(base, lat, rnd):
    """A sublattice of lat with the same span: its rows times integral
    multipliers (the uniformizer at odds 1 in 3), mixed."""
    ms = [*map(base.field.parse, MULTIPLIERS), *base.uniformizers * 4]
    rows = [[s * x for x in r] for r in lat.rows for s in [rnd.choice(ms)]]
    return span(base, DIM, _mixed(base, rows, rnd, 2))


@pytest.mark.parametrize("name", BASES)
def test_normal_form_is_canonical(name):
    base = BASES[name]

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(full_rows(base.field), st.randoms(use_true_random=False))
    def same_rows(rows, rnd):
        lat = span(base, DIM, rows)
        assert span(base, DIM, _mixed(base, rows, rnd, 4)).rows == lat.rows
        assert span(base, DIM, lat.rows[::-1]) == lat

    same_rows()


@pytest.mark.parametrize("name", BASES)
def test_mult_is_associative(name):
    base = BASES[name]

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(full_rows(base.field), full_rows(base.field),
           full_rows(base.field))
    def associative(x, y, z):
        a, b, c = (span(base, DIM, r) for r in (x, y, z))
        assume(a.full and b.full and c.full)
        assert mult(mult(a, b, M2), c, M2) == mult(a, mult(b, c, M2), M2)

    associative()


@pytest.mark.parametrize("name", BASES)
def test_quotient_length_is_additive(name):
    base = BASES[name]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(full_rows(base.field), st.randoms(use_true_random=False))
    def additive(rows, rnd):
        a = span(base, DIM, rows)
        assume(a.full)
        b = _sublattice(base, a, rnd)
        c = _sublattice(base, b, rnd)
        ab, bc = quotient_length(a, b), quotient_length(b, c)
        assert quotient_length(a, a) == 0 and ab >= 0 and bc >= 0
        assert quotient_length(a, c) == ab + bc

    additive()
