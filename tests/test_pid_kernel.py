"""The normal form `lattice._hnf` over the polynomial rings F_p[x]_(S)
and Q[x]_(S) against the field-arithmetic kernel of `plain_kernel`, which
is the reference; at polynomial primes in characteristic p, where the
reference has no residues, the laws of a normal form; the closed-form
principal parts at polynomial primes against the digit loop; which ring
each polynomial base ring takes; and that the PID path does no field
arithmetic between its input and output conversions, nor builds a
`Fraction` at a prime that is not monic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gliderbs import fields, lattice
from gliderbs.errors import ContainmentError
from gliderbs.fields import (QX_FIELD, FieldElem, fp_func_field, poly_prime,
                             xadic)
from gliderbs.lattice import BaseRing, span
from plain_kernel import field_hnf, reduce_mod, ring_hnf, store_rows

F3X, F5X = fp_func_field(3), fp_func_field(5)
BASES = {
    "F_3(x) at x": BaseRing(F3X, [xadic(F3X)]),
    "F_5(x) at x": BaseRing(F5X, [xadic(F5X)]),
    "Q(x) at x": BaseRing(QX_FIELD, [xadic(QX_FIELD)]),
    "Q(x) at x^2+1": BaseRing(QX_FIELD, [poly_prime("x^2+1")]),
    "Q(x) at x, x^2+1": BaseRing(QX_FIELD, [xadic(QX_FIELD),
                                            poly_prime("x^2+1")]),
}
# the field kernel's digit loop needs residues, which `fields` computes at
# a polynomial prime only in characteristic 0: here the reference has no
# normal form
CHAR_P_BASES = {
    "F_3(x) at x^2+1": BaseRing(F3X, [poly_prime("x^2+1", F3X)]),
    "F_5(x) at x^2+2": BaseRing(F5X, [poly_prime("x^2+2", F5X)]),
    "F_3(x) at x, x^2+1": BaseRing(F3X, [xadic(F3X),
                                         poly_prime("x^2+1", F3X)]),
}

# denominators with factors inside S (x, x^2+1), outside it, and both;
# over F_3 and F_5 x^2+1 is outside S
DENOMINATORS = ["1", "x", "x^2", "x+1", "x^2+1", "(x^2+1)^2", "2*x+1",
                "x*(x^2+1)", "3*x^2+3", "x^2+x+2"]
# multipliers of a row: units, uniformizers and mixtures; each is
# integral at every base here, and the first four are units
MULTIPLIERS = ["1", "-1", "x+1", "1/(x+2)", "x", "x^2+1", "x/(x^2+x+2)"]
UNITS = MULTIPLIERS[:4]


def entries(field):
    numerators = st.lists(st.integers(-2, 2), min_size=1, max_size=3)

    def build(cs, den):
        num = sum((field.from_int(c) * field.gen("x") ** k
                   for k, c in enumerate(cs)), field.zero())
        den = field.parse(den)
        # 3x^2+3 vanishes in characteristic 3
        return num / den if den else num

    return st.one_of(st.just(field.zero()),
                     st.builds(build, numerators,
                               st.sampled_from(DENOMINATORS)))


@st.composite
def generators(draw, field):
    """(dim, rows) with dims 1-6: random rows, then zero rows, duplicate
    rows, combinations of rows and zero columns, so that many spans are
    rank-deficient."""
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries(field), min_size=dim,
                                  max_size=dim), max_size=min(dim + 1, 4)))
    for extra in draw(st.lists(st.sampled_from(
            ["zero", "duplicate", "combination", "zero column"]),
            max_size=3)):
        if extra == "zero":
            rows.append([field.zero()] * dim)
        elif rows and extra == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif rows and extra == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = (field.parse(draw(st.sampled_from(MULTIPLIERS)))
                    for _ in range(2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif extra == "zero column":
            col = draw(st.integers(0, dim - 1))
            for r in rows:
                r[col] = field.zero()
    draw(st.randoms()).shuffle(rows)
    return dim, rows


@pytest.mark.parametrize("name", BASES)
def test_pid_kernel_gives_the_rows_of_the_field_kernel(name):
    base = BASES[name]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(generators(base.field))
    def same_rows(gen):
        dim, vecs = gen
        # both kernels take and give reps (the library's through its
        # ring); the canonical ones are equal
        reps = [base.scalars.unwrap_row(v) for v in vecs]
        assert ring_hnf(base, dim, reps) == field_hnf(base, dim, reps)

    same_rows()


@pytest.mark.parametrize("name", BASES)
def test_closed_form_reduce_mod_matches_the_digit_loop(name):
    base = BASES[name]
    ring, r, k = base.ring, base.nprimes, base.scalars

    def pair(x):
        (n,), d = ring.int_row(k.unwrap_row([x]))
        return n, d

    def value(fraction):
        return k.wrap(ring.rat_row([fraction[0]], fraction[1])[0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(entries(base.field),
           st.lists(st.integers(-3, 3), min_size=r, max_size=r),
           st.sampled_from(MULTIPLIERS))
    def same_coset(u, exps, unit):
        g = base.from_exponents(exps)
        # reduce_mod takes and gives fractions of polynomials here
        red = base.reduce_mod(pair(u), pair(g))
        assert value(red) == reduce_mod(base, u, g)
        h = u * base.field.parse(unit) / g
        assert value(base.reduce_mod(pair(h), (ring.one, ring.one))) == \
            reduce_mod(base, h, base.field.one())

    same_coset()


@pytest.mark.parametrize("name", CHAR_P_BASES)
def test_char_p_rows_are_canonical(name):
    """The rows of a span do not change when its generators are permuted,
    mixed by elementary row operations over the ring and scaled by
    units."""
    base = CHAR_P_BASES[name]
    field = base.field
    parse = field.parse

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(generators(field), st.randoms(use_true_random=False))
    def same_rows(gen, rnd):
        dim, vecs = gen
        rows = [list(v) for v in vecs]
        rnd.shuffle(rows)
        for _ in range(4 if len(rows) > 1 else 0):
            a, b = rnd.sample(range(len(rows)), 2)
            s = parse(rnd.choice(MULTIPLIERS))
            rows[b] = [y + s * x for x, y in zip(rows[a], rows[b])]
        for r in rows:
            u = parse(rnd.choice(UNITS))
            r[:] = [u * x for x in r]
        assert span(base, dim, rows).rows == span(base, dim, vecs).rows

    same_rows()


def test_char_p_reduction_above_a_pivot():
    """Over F_3(x) at g = x^2+1 the entry above the pivot g reduces to the
    principal part of 1/g; the field kernel raised here, for want of
    residues mod g in characteristic 3."""
    base = CHAR_P_BASES["F_3(x) at x^2+1"]
    field = base.field
    g, x, zero = field.parse("x^2+1"), field.gen("x"), field.zero()
    lat = span(base, 2, [[x / g, x / g], [zero, g]])
    assert lat.rows == ((1 / g, 1 / g), (zero, g))


@pytest.mark.parametrize("name", [*BASES, *CHAR_P_BASES])
def test_polynomial_bases_take_the_pid_path(name):
    """F_p[x]_(S) and Q[x]_(S): the ring's elements are polynomials, its
    primes the uniformizers' numerators, and a row enters over one
    polynomial denominator."""
    base = {**BASES, **CHAR_P_BASES}[name]
    field, ring = base.field, base.ring
    assert isinstance(ring, fields._PolynomialsAt)
    assert base.scalars is field.reps
    pis = [ring.int_row(base.scalars.unwrap_row([pi])) for pi in
           base.uniformizers]
    assert tuple(n for (n,), _ in pis) == ring.primes
    x, one = field.gen("x"), field.one()
    nums, den = ring.int_row(base.scalars.unwrap_row([x / (x + 1), one]))
    poly = ring.one.__class__
    assert (nums, den) == ([poly((0, 1)), poly((1, 1))], poly((1, 1)))
    lat = span(base, 2, [[x, one], [one, x * x + one]])
    assert lat.rank == 2


@pytest.mark.parametrize("name", ["F_3(x) at x", "Q(x) at x^2+1"])
def test_pid_path_does_no_field_arithmetic(name, monkeypatch):
    """Between the input and the output conversion the PID path computes
    on polynomials only, and it reaches `BaseRing.reduce_mod` (which the
    benchmark's tracer times as a span of its own)."""
    base = BASES[name]
    field, ring = base.field, base.ring
    state = {"inside": False, "binops": 0, "reduce_mod": 0}
    int_row, rat_row = ring.int_row, ring.rat_row
    binop, reduce_mod = FieldElem._binop, BaseRing.reduce_mod

    def counted_int_row(row):
        out = int_row(row)
        state["inside"] = True
        return out

    def counted_rat_row(nums, den):
        state["inside"] = False
        return rat_row(nums, den)

    def counted_binop(self, other, op):
        state["binops"] += state["inside"]
        return binop(self, other, op)

    def counted_reduce_mod(self, u, g):
        state["reduce_mod"] += 1
        return reduce_mod(self, u, g)

    monkeypatch.setattr(ring, "int_row", counted_int_row)
    monkeypatch.setattr(ring, "rat_row", counted_rat_row)
    monkeypatch.setattr(FieldElem, "_binop", counted_binop)
    monkeypatch.setattr(BaseRing, "reduce_mod", counted_reduce_mod)
    p = base.uniformizers[0]
    x, one = field.gen("x"), field.one()
    zero = field.zero()
    # (p, 1 + x p^2, 0), (0, p^2, 0), (0, 0, p) up to units and mixing:
    # back-substitution reduces the 1 + x p^2 above the pivot p^2 to 1
    rows = [[p, one + x * p * p, zero], [p, one + (x + 1) * p * p, zero],
            [zero, zero, p / (x + 2)]]
    lat = span(base, 3, rows)
    assert lat.rows == ((p, one, zero), (zero, p * p, zero),
                        (zero, zero, p))
    assert state["binops"] == 0
    assert state["reduce_mod"] >= 1


AT_3X_PLUS_1 = BaseRing(QX_FIELD, [poly_prime("3*x+1")])


def _rows_at_3x_plus_1(seed, count):
    """Seeded rows of 4 entries of Q(x), with denominators at 3x+1."""
    field = QX_FIELD
    rnd = random.Random(seed)
    x = field.gen("x")
    dens = [field.parse(d) for d in ("1", "3*x+1", "(3*x+1)^2", "x+2")]
    return [[(field.from_int(rnd.randint(-9, 9))
              + field.from_int(rnd.randint(-3, 3)) * x
              + field.from_int(rnd.randint(-2, 2)) * x * x)
             / rnd.choice(dens) for _ in range(4)] for _ in range(count)]


def _no_fraction(*args):
    raise AssertionError("Fraction built")


def test_no_fraction_at_a_prime_that_is_not_monic(monkeypatch):
    """Q(x) at 3x+1: the ring reads divisibility by pseudo-division, so the
    normal form of a seeded 4x4 span builds no `Fraction` between its input
    and output conversions (`divmod` by 3x+1 would, to find a remainder),
    and it gives the rows of the field kernel."""
    base = AT_3X_PLUS_1
    reps = [base.scalars.unwrap_row(r)
            for r in _rows_at_3x_plus_1("no fraction at 3x+1", 4)]
    ring_rows = [base.ring.int_row(r) for r in reps]
    monkeypatch.setattr(fields, "Fraction", _no_fraction)
    store = lattice._hnf(base, 4, ring_rows)
    monkeypatch.undo()
    out = store_rows(base, store)
    assert out == field_hnf(base, 4, reps)
    assert len(out) == 4


def test_no_fraction_in_membership_at_a_prime_that_is_not_monic(
        monkeypatch):
    """Q(x) at 3x+1: `Lattice.contains` and `quotient_length` ask the
    ring's `divides` whether coordinates are integral, which builds no
    `Fraction` where `x % s` would (one per quotient coefficient that the
    lead of s does not divide).  Two rank-3 lattices with one K-span,
    neither inside the other: free columns give the coordinates
    numerators of any degree.  The lattices' inverse pivot blocks are
    built first, as `Lattice.contains` and `quotient_length` read them."""
    base = AT_3X_PLUS_1
    g, x = QX_FIELD.parse("3*x+1"), QX_FIELD.gen("x")
    rows = _rows_at_3x_plus_1("membership at 3x+1", 3)
    a = span(base, 4, rows)
    b = span(base, 4, [[e / g for e in rows[0]],
                       [u + x / g * v for u, v in zip(rows[1], rows[2])],
                       rows[2]])
    for lat in (a, b):
        lattice._inverse(lat)
    monkeypatch.setattr(fields, "Fraction", _no_fraction)
    got = [a.contains(b), b.contains(a)]
    for big, small in ((a, b), (b, a)):
        with pytest.raises(ContainmentError, match="not contained in X$"):
            lattice.quotient_length(big, small)
    monkeypatch.undo()
    assert got == [False, False]
    assert (a.rank, b.rank) == (3, 3)
