"""The normal form `lattice._hnf` over Z_(S) inside Q against the
field-arithmetic kernel of `plain_kernel`, which is the reference, also
where the values leave the gcd reading of `_IntegersAt` for its division
loop; the closed-form p-adic principal parts against the digit loop; and
which ring each base ring takes."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gliderbs import fields, lattice
from gliderbs.errors import BaseMismatchError, FieldMismatchError
from gliderbs.fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD, QXY_FIELD,
                             FieldElem, gauss_prime, padic, poly_prime,
                             rational_value, xadic)
from gliderbs.lattice import BaseRing, span
from plain_kernel import field_hnf, reduce_mod, ring_hnf, store_rows

BASES = {
    "Q at 5": BaseRing(QQ_FIELD, [padic(5)]),
    "Q at 2,3": BaseRing(QQ_FIELD, [padic(2), padic(3)]),
    "Q at 2,3,5": BaseRing(QQ_FIELD, [padic(2), padic(3), padic(5)]),
}

# denominators with parts inside S = {2, 3, 5}, outside it, and both
DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 25, 35, 49, 60, 77, 125]
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-300, 300),
              st.sampled_from(DENOMINATORS)))
# multipliers of a row: units of each Z_(S), prime powers and mixtures
MULTIPLIERS = [Fraction(1), Fraction(-1), Fraction(7, 11), Fraction(5),
               Fraction(1, 6), Fraction(-12, 49), Fraction(250, 3)]


@st.composite
def generators(draw):
    """(dim, rows) with dims 1-9: random rows, then zero rows, duplicate
    rows, combinations of rows and zero columns, so that many spans are
    rank-deficient."""
    dim = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                         max_size=dim + 1))
    for extra in draw(st.lists(st.sampled_from(
            ["zero", "duplicate", "combination", "zero column"]),
            max_size=3)):
        if extra == "zero":
            rows.append([Fraction(0)] * dim)
        elif rows and extra == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif rows and extra == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = (draw(st.sampled_from(MULTIPLIERS)) for _ in range(2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif extra == "zero column":
            col = draw(st.integers(0, dim - 1))
            for r in rows:
                r[col] = Fraction(0)
    draw(st.randoms()).shuffle(rows)
    return dim, [[QQ_FIELD.from_fraction(q) for q in r] for r in rows]


@pytest.mark.parametrize("name", BASES)
def test_integer_kernel_gives_the_rows_of_the_field_kernel(name):
    base = BASES[name]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(generators())
    def same_rows(gen):
        dim, vecs = gen
        reps = [base.scalars.unwrap_row(v) for v in vecs]
        # both kernels take and give reps (the library's through its
        # ring); the field kernel computes on field elements in between
        assert ring_hnf(base, dim, reps) == field_hnf(base, dim, reps)

    same_rows()


# Q at 2, at 5 and at {2, 3}: `_IntegersAt` reads v_p(n) off gcd(n, p^K)
# for p^K the largest power of p below 2^64, and by its division loop
# (`_strip`) from p^K on
EDGE_BASES = {
    "Q at 2": BaseRing(QQ_FIELD, [padic(2)]),
    "Q at 5": BASES["Q at 5"],
    "Q at 2,3": BASES["Q at 2,3"],
}
# units of every Z_(S) here, signs included
EDGE_UNITS = [1, -1, 7, -11, 221, -49]
# denominators with parts outside S: 7 * 5^k, and 11 * 2^70
EDGE_DENOMINATORS = [1, 7, 35, 7 * 5 ** 3, 7 * 5 ** 30, 24, 11 * 2 ** 70]


def _edge_exponents(ring, p):
    """0, 1, K - 1, K, K + 1 and 2K for p^K where the table ends."""
    k = ring._exp[ring._top[p] // p] + 1
    return [0, 1, k - 1, k, k + 1, 2 * k]


def _edge_entries(ring):
    return st.one_of(
        st.just(0),
        st.builds(lambda m, es: m * prod(p ** e for p, e in
                                         zip(ring.primes, es)),
                  st.sampled_from(EDGE_UNITS),
                  st.tuples(*[st.sampled_from(_edge_exponents(ring, p))
                              for p in ring.primes])))


@st.composite
def edge_inputs(draw, ring):
    """Rows (nums, d) on the ring in dim 4 with entries m p^e at the edges
    of the table: four rows as a span, or the sixteen products of two sets
    of four 2x2 matrices, as `mult` builds them (the conditions of a colon
    are such products too)."""
    def rows(n):
        return [[draw(_edge_entries(ring)) for _ in range(4)]
                for _ in range(n)]

    if draw(st.booleans()):
        nums = rows(4)
    else:
        xs, ys = rows(4), rows(4)
        nums = [[a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                 a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]]
                for a in xs for b in ys]
    return [(r, draw(st.sampled_from(EDGE_DENOMINATORS))) for r in nums]


@pytest.mark.parametrize("name", EDGE_BASES)
def test_values_and_splits_at_the_edges_of_the_table(name):
    ring = EDGE_BASES[name].ring
    for exps in product(*[_edge_exponents(ring, p) for p in ring.primes]):
        s = prod(p ** e for p, e in zip(ring.primes, exps))
        for m in EDGE_UNITS:
            assert ring.val(m * s) == exps
            assert ring.split(m * s) == (s, m)
            for p, e in zip(ring.primes, exps):
                assert ring._part(m * s, p) == (e, p ** e, m * s // p ** e)


@pytest.mark.parametrize("name", EDGE_BASES)
def test_edge_values_give_the_rows_of_the_field_kernel(name, monkeypatch):
    base = EDGE_BASES[name]
    ring = base.ring
    strips = []
    strip = fields._IntegersAt._strip

    def counted_strip(self, n, p):
        strips.append(p)
        return strip(self, n, p)

    monkeypatch.setattr(fields._IntegersAt, "_strip", counted_strip)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(edge_inputs(ring))
    def same_rows(rows):
        reps = [ring.rat_row(*r) for r in rows]
        reference = field_hnf(base, 4, reps)
        assert store_rows(base, lattice._hnf(base, 4, rows)) == reference
        assert ring_hnf(base, 4, reps) == reference

    same_rows()
    # values from p^K on were read by the division loop
    assert set(strips) == set(ring.primes)


@pytest.mark.parametrize("name", ["Q at 5", "Q at 2,3"])
def test_small_entries_take_no_division_loop(name, monkeypatch):
    """Seeded 4x4 spans with entries far below p^K: every value is read by
    one gcd, and `_IntegersAt._strip` is never called."""
    base = BASES[name]
    rnd = random.Random(f"gcd values {name}")
    inputs = [[base.scalars.unwrap_row([QQ_FIELD.from_fraction(Fraction(
        rnd.randint(-10 ** 6, 10 ** 6), rnd.choice(DENOMINATORS)))
        for _ in range(4)]) for _ in range(4)] for _ in range(25)]
    def no_strip(*args):
        raise AssertionError("division loop called")

    monkeypatch.setattr(fields._IntegersAt, "_strip", no_strip)
    assert all(ring_hnf(base, 4, rows) for rows in inputs)


def _pair(x):
    q = rational_value(x)
    return q.numerator, q.denominator


def _value(pair):
    return QQ_FIELD.from_fraction(Fraction(*pair))


@pytest.mark.parametrize("name", BASES)
def test_closed_form_reduce_mod_matches_the_digit_loop(name):
    base = BASES[name]
    r = base.nprimes

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(entries, st.lists(st.integers(-4, 4), min_size=r, max_size=r),
           st.sampled_from(MULTIPLIERS))
    def same_coset(q, exps, unit):
        u = QQ_FIELD.from_fraction(q)
        g = base.from_exponents(exps)
        # reduce_mod takes and gives fractions (n, d) of ints here
        red = base.reduce_mod(_pair(u), _pair(g))
        assert _value(red) == reduce_mod(base, u, g)
        # and the parts alone, of an element with a principal part anywhere
        h = u * QQ_FIELD.from_fraction(unit) / g
        assert _value(base.reduce_mod(_pair(h), (1, 1))) == \
            reduce_mod(base, h, QQ_FIELD.one())

    same_coset()


def _q(text):
    return QQ_FIELD.parse(text)


@pytest.mark.parametrize("name", BASES)
def test_padic_bases_take_the_integer_path(name):
    """Z_(S): the ring's elements are ints and its primes the p of S."""
    base = BASES[name]
    assert isinstance(base.ring, fields._IntegersAt)
    assert base.ring.primes == tuple(v.p for v in base.valuations)
    nums, den = base.ring.int_row(base.scalars.unwrap_row(
        [_q("1/10"), _q("3")]))
    assert (nums, den) == ([1, 30], 10)


# the polynomial rings are rings of their own (tests/test_pid_kernel.py);
# Q(i) and Q(x,y) take R given by its valuations, on the field's elements
OTHER_BASES = {
    "Q(i) at 3": (BaseRing(GAUSS_FIELD, [gauss_prime("3")]), GAUSS_FIELD),
    "Q(i) at 1+i": (BaseRing(GAUSS_FIELD, [gauss_prime("1+i")]),
                    GAUSS_FIELD),
    "Q(x,y) at x": (BaseRing(QXY_FIELD, [xadic(QXY_FIELD)]), QXY_FIELD),
}


@pytest.mark.parametrize("name", OTHER_BASES)
def test_other_bases_take_the_field_path(name):
    """The ring given by the valuations computes on field elements: its
    primes are the uniformizers, a row enters over the denominator 1, and
    `split` takes out the uniformizer powers of the values."""
    base, field = OTHER_BASES[name]
    ring = base.ring
    assert isinstance(ring, fields._ValuedRing)
    assert ring.primes == base.uniformizers
    gen = field.gen(field.generator_names()[0])
    pi = base.uniformizers[0]
    nums, den = ring.int_row(base.scalars.unwrap_row([gen / pi, gen]))
    assert nums == [gen / pi, gen] and den == field.one()
    assert all(isinstance(e, FieldElem) for e in nums)
    assert ring.split(pi ** 2 * (gen + 2)) == (pi ** 2, gen + 2)
    lat = span(base, 2, [[gen, field.one()], [field.one(), gen * gen]])
    assert lat.rank == 2


def test_a_constant_factor_names_the_pid_at_its_associate():
    """2x^2+2 names the place of x^2+1: one valuation, whose uniformizer
    is the canonical associate, on the polynomial ring Q[x]_(x^2+1)."""
    base = BaseRing(QX_FIELD, [poly_prime("2*x^2+2")])
    assert base.valuations == (poly_prime("x^2+1"),)
    assert isinstance(base.ring, fields._PolynomialsAt)
    assert base.uniformizers == (QX_FIELD.parse("x^2+1"),)
    assert base.ring.primes == ((1, 0, 1),)


def test_integer_kernel_failures_stay_typed():
    base = BASES["Q at 5"]
    with pytest.raises(BaseMismatchError):
        span(base, 2, [[_q("1")]])
    with pytest.raises(FieldMismatchError):
        span(base, 2, [[_q("1"), GAUSS_FIELD.parse("i")]])
    # a plain zero is the zero of Q, as on the field path
    assert span(base, 2, [[0, _q("5")]]).rows == ((QQ_FIELD.zero(),
                                                   _q("5")),)
