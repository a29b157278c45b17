"""The lattice kernel computes on the reps of its field (`BaseRing.scalars`
is the field's `reps`) on every base-field kind.  Each case below draws
its inputs once (derandomized hypothesis over Q, a seeded `random.Random`
elsewhere, so the same inputs every run),
runs the same operations in the library and in the plain kernel of
`plain_kernel` on field elements, and asks for the same lattices, the
same values and the same errors.  The plain kernel's scalars are a test
fake, `ElementScalars`, so that it computes on field elements with the
field kernel's normal form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gliderbs import lattice as L
from gliderbs.errors import FieldMismatchError, GbsError
from gliderbs.fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD, QXY_FIELD,
                             FieldElem, fp_func_field, gauss_prime, padic,
                             poly_prime, xadic)
from gliderbs.lattice import BaseRing, matrix_algebra
from plain_kernel import Library, Plain, PlainKernel, store_rows

F3X = fp_func_field(3)
QQ_BASES = {
    "Q at 5": BaseRing(QQ_FIELD, [padic(5)]),
    "Q at 2,3": BaseRing(QQ_FIELD, [padic(2), padic(3)]),
    "Q at 2,3,5": BaseRing(QQ_FIELD, [padic(2), padic(3), padic(5)]),
}
# per base: the ring, the generator of the entries' numerators, their
# denominators (with factors inside S, outside it, and both), and the
# number of drawn cases, kept small: the plain path is slow there
OTHER_BASES = {
    "Q(i) at 2+i": (BaseRing(GAUSS_FIELD, [gauss_prime("2+i")]), "i",
                    ["1", "5", "2+i", "2-i", "3", "10", "(2+i)^2"], 2),
    "Q(i) at 1+i": (BaseRing(GAUSS_FIELD, [gauss_prime("1+i")]), "i",
                    ["1", "2", "1+i", "3", "4", "6"], 2),
    "Q(i) at 3": (BaseRing(GAUSS_FIELD, [gauss_prime("3")]), "i",
                  ["1", "3", "2", "9", "1+i", "6"], 2),
    "Q(x) at x": (BaseRing(QX_FIELD, [xadic(QX_FIELD)]), "x",
                  ["1", "x", "x^2", "x+1", "2*x", "x*(x-1)"], 1),
    "Q(x) at x^2+1": (BaseRing(QX_FIELD, [poly_prime("x^2+1")]), "x",
                      ["1", "x^2+1", "x", "2", "x*(x^2+1)"], 1),
    "F_3(x) at x": (BaseRing(F3X, [xadic(F3X)]), "x",
                    ["1", "x", "2*x", "x^2", "x+1", "2*x+1", "x*(x+2)"], 1),
    "Q(x,y) at x": (BaseRing(QXY_FIELD, [xadic(QXY_FIELD)]), "y",
                    ["1", "x", "y", "x*y"], 2),
}
M2 = matrix_algebra(2)


class ElementScalars:
    """Kernel scalars that are the field's own elements: the scalars of
    the plain kernel the library is compared with."""

    def __init__(self, field):
        self.field = field

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def from_fraction(self, q):
        return self.field.from_fraction(q)

    def wrap(self, x):
        return x

    unwrap = wrap

    def wrap_row(self, row):
        return tuple(row)

    def unwrap_row(self, row):
        out = []
        for e in row:
            if not (isinstance(e, FieldElem) and e.field is self.field):
                if isinstance(e, FieldElem) or e != 0:
                    raise FieldMismatchError(
                        f"{e!r} is not an element of {self.field.name}")
                e = self.field.zero()
            out.append(e)
        return out


# one plain kernel per base ring: `AlgebraDesc` keeps a product table per
# scalar object
PLAIN = {}

# Q: denominators with parts inside S = {2, 3, 5}, outside it, and both
DENOMINATORS = [1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 25, 35, 60]
q_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from(DENOMINATORS)))


def _draw_rows(field, gen, dens, rnd, count):
    """`count` rows of 4 entries (a + b*gen) / den of a field other than Q,
    two fifths of them zero."""
    g = field.gen(gen)
    dens = [field.parse(d) for d in dens]

    def entry():
        if rnd.random() < 0.4:
            return field.zero()
        return (field.from_int(rnd.randint(-6, 6))
                + field.from_int(rnd.randint(-3, 3)) * g) / rnd.choice(dens)

    return [[entry() for _ in range(4)] for _ in range(count)]


def _attempt(ops, fn):
    """fn() as plain data: lattice rows as field elements, or the error."""
    try:
        out = fn()
    except GbsError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(out, (L.Lattice, Plain)):
        return ("lattice", ops.rows(out))
    if out is L.ZERO_MODULE:
        return ("zero module",)
    return ("value", out)


def _scaled(ops, lat):
    """A scaled lattice against the span of its own rows: equal lattices
    on different roots compare and hash by their stores, so this checks
    that scaling keeps the store canonical."""
    again = ops.span(4, list(ops.rows(lat)))
    return ops.rows(lat), ops.equal(lat, again), \
        ops.hash(lat) == ops.hash(again)


def _outcomes(ops, base, x_rows, y_rows, vec, mix):
    """Every kernel operation on the drawn inputs, as plain data, computed
    by `ops` (`Library` or `PlainKernel`)."""
    x, y = ops.span(4, x_rows), ops.span(4, y_rows)
    pi = base.uniformizers[-1]
    # rank-deficient modules sharing the direction of x_rows[0] + y_rows[0]
    shared = [a + b for a, b in zip(x_rows[0], y_rows[0])]
    xd = ops.span(4, [x_rows[1], shared])
    yd = ops.span(4, [shared, y_rows[2], y_rows[3]])
    # x again from rows permuted and mixed by a unimodular step
    i, j, c = mix
    again = [list(r) for r in reversed(x_rows)]
    if i != j:
        again[i] = [a + c * b for a, b in zip(again[i], again[j])]
    x2 = ops.span(4, again)
    meet = ops.intersect(x, y)

    def attempt(fn):
        return _attempt(ops, fn)

    out = {
        "span x": attempt(lambda: x),
        "span y": attempt(lambda: y),
        "span xd": attempt(lambda: xd),
        "mult": attempt(lambda: ops.mult(x, y, M2)),
        "mult deficient": attempt(lambda: ops.mult(xd, yd, M2)),
        "colon_left": attempt(lambda: ops.colon(x, y, M2, "left")),
        "colon_right": attempt(lambda: ops.colon(x, y, M2, "right")),
        "colon_right deficient": attempt(
            lambda: ops.colon(xd, yd, M2, "right")),
        "intersect": attempt(lambda: meet),
        "intersect deficient": attempt(lambda: ops.intersect(xd, yd)),
        "intersect mixed": attempt(lambda: ops.intersect(x, yd)),
        "contains": attempt(lambda: (
            ops.contains(x, y), ops.contains(x, meet),
            ops.contains(meet, x), ops.contains(xd, yd))),
        "contains_vector": attempt(lambda: (
            ops.contains_vector(x, vec), ops.contains_vector(xd, vec),
            ops.contains_vector(x, y_rows[0]),
            ops.contains_vector(xd, shared))),
        "coords": attempt(lambda: (ops.coords(x, vec), ops.coords(xd, vec),
                                   ops.coords(xd, shared))),
        "quotient_length": attempt(lambda: ops.quotient_length(x, meet)),
        "quotient_length sum": attempt(
            lambda: ops.quotient_length(ops.add(x, y), y)),
        "quotient_length scaled": attempt(lambda: ops.quotient_length(
            ops.add(x, y), ops.scale(meet, pi ** 2))),
        "quotient_length deficient": attempt(
            lambda: ops.quotient_length(xd, ops.intersect(xd, x))),
        "quotient_length fails": attempt(
            lambda: ops.quotient_length(meet, x)),
        "scaled": attempt(lambda: (_scaled(ops, ops.scale(x, pi ** 2)),
                                   _scaled(ops, ops.scale(meet, pi ** -1)),
                                   _scaled(ops, ops.scale(xd, pi)))),
        "==": attempt(lambda: (
            ops.equal(x, x2), ops.equal(x, y),
            ops.equal(meet, ops.intersect(y, x)),
            ops.equal(xd, ops.span(4, list(ops.rows(xd)))))),
        "hash": attempt(lambda: (
            ops.hash(x) == ops.hash(x2),
            ops.hash(meet) == ops.hash(ops.intersect(y, x)),
            ops.hash(xd) == ops.hash(ops.span(4, list(ops.rows(xd)))))),
    }
    # equal lattices hash alike on each path
    for a, b in ((x, x2), (meet, ops.intersect(y, x))):
        if ops.equal(a, b):
            assert ops.hash(a) == ops.hash(b)
    return out


def _both_paths(base, *inputs):
    """(library outcomes, plain kernel outcomes) on one input."""
    assert base.scalars is base.field.reps
    plain = PLAIN.setdefault(base, PlainKernel(
        base, k=ElementScalars(base.field)))
    return (_outcomes(Library(base), base, *inputs),
            _outcomes(plain, base, *inputs))


@pytest.mark.parametrize("name", QQ_BASES)
def test_kernel_scalars_match_field_elements(name):
    base = QQ_BASES[name]
    rows4 = st.lists(st.lists(q_entries, min_size=4, max_size=4),
                     min_size=4, max_size=4)

    def elems(rows):
        return [[QQ_FIELD.from_fraction(q) for q in r] for r in rows]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows4, rows4, st.lists(q_entries, min_size=4, max_size=4),
           st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(-4, 4)))
    def same(x_rows, y_rows, vec, mix):
        fast, plain = _both_paths(base, elems(x_rows), elems(y_rows),
                                  elems([vec])[0], mix)
        assert fast == plain

    same()


@pytest.mark.parametrize("name", OTHER_BASES)
def test_kernel_scalars_match_field_elements_on_every_field(name):
    base, gen, dens, cases = OTHER_BASES[name]
    rnd = random.Random(name)
    for _ in range(cases):
        x_rows, y_rows, (vec,) = (_draw_rows(base.field, gen, dens, rnd, k)
                                  for k in (4, 4, 1))
        mix = (rnd.randint(0, 3), rnd.randint(0, 3), rnd.randint(-2, 2))
        fast, plain = _both_paths(base, x_rows, y_rows, vec, mix)
        assert fast == plain


def test_both_paths_build_the_same_lattice_from_reps_and_elements():
    base = QQ_BASES["Q at 2,3"]
    rows = [[QQ_FIELD.from_fraction(Fraction(q)) for q in r]
            for r in [[1, Fraction(1, 6), 0, 7], [0, 4, Fraction(5, 9), 1],
                      [3, 0, 0, Fraction(1, 12)], [0, 0, 2, 0]]]
    lat = L.span(base, 4, rows)
    # rows pass in as field elements or as the kernel's own scalars
    assert L.span(base, 4, store_rows(base, lat.store)) == lat
    assert lat.rows == tuple(map(base.scalars.wrap_row,
                                 store_rows(base, lat.store)))
    assert all(e.field is QQ_FIELD for r in lat.rows for e in r)
    assert lat.rows is lat.rows  # built once


def test_wrap_makes_function_field_reps_canonical():
    """F_p(x) arithmetic on reps gives the canonical rep, with a monic
    denominator (1/(2x) over F_3), so the element it becomes is the
    canonical one, and == and hash follow the value."""
    k = F3X.reps
    x = k.unwrap(F3X.gen("x"))
    rep = k.div(k.one(), k.mul(k.from_fraction(Fraction(2)), x))
    elem = F3X.one() / (F3X.from_int(2) * F3X.gen("x"))
    assert k.wrap(rep) == elem and hash(k.wrap(rep)) == hash(elem)
    assert k.wrap_row([rep, k.zero()]) == (elem, F3X.zero())


def _guard_inputs(field):
    """Two sets of full rows and a vector of `field`."""
    names = field.generator_names()
    g = field.gen(names[0]) if names else field.from_fraction(Fraction(7, 3))
    one, two = field.one(), field.from_int(2)
    x_rows = [[g, one, two, one / (g + one)], [one, g * g, one, two],
              [two / g, one, g, one], [one, one, one, g + two]]
    y_rows = [[one, g, one, two], [g + one, one, two / (g + two), one],
              [one, two, g * g, one], [two, one, one, one / g]]
    return x_rows, y_rows, [one, g, two / g, one]


@pytest.mark.parametrize("name", ["Q at 5", "F_3(x) at x", "Q(x) at x^2+1"])
def test_kernel_does_no_base_field_arithmetic(name, monkeypatch):
    """span, mult, the colons, intersect, solve_dual and coords compute on
    reps: no element arithmetic of the base field runs inside them."""
    base = QQ_BASES[name] if name in QQ_BASES else OTHER_BASES[name][0]
    field = base.field
    x_rows, y_rows, vec = _guard_inputs(field)
    state = {"on": False, "binops": 0}
    binop = FieldElem._binop

    def counted_binop(self, other, op):
        if state["on"] and self.field is field:
            state["binops"] += 1
        return binop(self, other, op)

    monkeypatch.setattr(FieldElem, "_binop", counted_binop)
    state["on"] = True
    x, y = L.span(base, 4, x_rows), L.span(base, 4, y_rows)
    L.mult(x, y, M2)
    L.colon_left(x, y, M2)
    L.colon_right(x, y, M2)
    meet = L.intersect(x, y)
    L.solve_dual(base, 4, x_rows, [vec])
    coords = x.coords(vec)
    assert x.contains(meet)
    state["on"] = False
    assert state["binops"] == 0
    assert all(c.field is field for c in coords)
