"""The lattice kernel over Z_(S) inside Q computes on the reps of Q
(`BaseRing.scalars`); over every other base ring, and over Q when a base
ring has no integer primes, it computes on field elements.  Each case
below draws its inputs once (derandomized hypothesis, so the same seeds
every run), runs the same operations on both paths, and asks for the same
lattices, the same values and the same errors.  The plain path is reached
by setting the base ring's `ring` to None."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gliderbs import lattice as L
from gliderbs.errors import GbsError
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.lattice import BaseRing, matrix_algebra

BASES = {
    "Q at 5": BaseRing(QQ_FIELD, [padic(5)]),
    "Q at 2,3": BaseRing(QQ_FIELD, [padic(2), padic(3)]),
    "Q at 2,3,5": BaseRing(QQ_FIELD, [padic(2), padic(3), padic(5)]),
}
M2 = matrix_algebra(2)

# denominators with parts inside S = {2, 3, 5}, outside it, and both
DENOMINATORS = [1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 25, 35, 60]
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from(DENOMINATORS)))
rows4 = st.lists(st.lists(entries, min_size=4, max_size=4),
                 min_size=4, max_size=4)


def _elems(rows):
    return [[QQ_FIELD.from_fraction(q) for q in r] for r in rows]


def _attempt(fn):
    """fn() as plain data: lattice rows as field elements, or the error."""
    try:
        out = fn()
    except GbsError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(out, L.Lattice):
        return ("lattice", out.rows)
    if out is L.ZERO_MODULE:
        return ("zero module",)
    return ("value", out)


def _outcomes(base, x_rows, y_rows, vec, mix):
    """Every kernel operation on the drawn inputs, as plain data."""
    x, y = L.span(base, 4, x_rows), L.span(base, 4, y_rows)
    # rank-deficient modules sharing the direction of x_rows[0] + y_rows[0]
    shared = [a + b for a, b in zip(x_rows[0], y_rows[0])]
    xd = L.span(base, 4, [x_rows[1], shared])
    yd = L.span(base, 4, [shared, y_rows[2], y_rows[3]])
    # x again from rows permuted and mixed by a unimodular step
    i, j, c = mix
    again = [list(r) for r in reversed(x_rows)]
    if i != j:
        again[i] = [a + c * b for a, b in zip(again[i], again[j])]
    x2 = L.span(base, 4, again)
    meet = L.intersect(x, y)
    out = {
        "span x": _attempt(lambda: x),
        "span y": _attempt(lambda: y),
        "span xd": _attempt(lambda: xd),
        "mult": _attempt(lambda: L.mult(x, y, M2)),
        "mult deficient": _attempt(lambda: L.mult(xd, yd, M2)),
        "colon_left": _attempt(lambda: L.colon_left(x, y, M2)),
        "colon_right": _attempt(lambda: L.colon_right(x, y, M2)),
        "colon_right deficient": _attempt(
            lambda: L.colon_right(xd, yd, M2)),
        "intersect": _attempt(lambda: meet),
        "intersect deficient": _attempt(lambda: L.intersect(xd, yd)),
        "intersect mixed": _attempt(lambda: L.intersect(x, yd)),
        "contains": _attempt(lambda: (x.contains(y), x.contains(meet),
                                      meet.contains(x), xd.contains(yd))),
        "contains_vector": _attempt(lambda: (
            x.contains_vector(vec), xd.contains_vector(vec),
            x.contains_vector(y_rows[0]), xd.contains_vector(shared))),
        "coords": _attempt(lambda: (x.coords(vec), xd.coords(vec),
                                    xd.coords(shared))),
        "quotient_length": _attempt(lambda: L.quotient_length(x, meet)),
        "quotient_length sum": _attempt(
            lambda: L.quotient_length(L.add(x, y), y)),
        "quotient_length scaled": _attempt(lambda: L.quotient_length(
            L.add(x, y), meet.scale(base.uniformizers[-1] ** 2))),
        "quotient_length deficient": _attempt(
            lambda: L.quotient_length(xd, L.intersect(xd, x))),
        "quotient_length fails": _attempt(
            lambda: L.quotient_length(meet, x)),
        "==": _attempt(lambda: (x == x2, x == y, meet == L.intersect(y, x),
                                xd == L.span(base, 4, list(xd.rows)))),
        "hash": _attempt(lambda: (hash(x) == hash(x2), hash(meet) == hash(
            L.intersect(y, x)), hash(xd) == hash(L.span(base, 4,
                                                       list(xd.rows))))),
    }
    # equal lattices hash alike on each path
    for a, b in ((x, x2), (meet, L.intersect(y, x))):
        if a == b:
            assert hash(a) == hash(b)
    return out


def _both_paths(base, *inputs):
    """(kernel-scalar outcomes, field-element outcomes) on one input."""
    fast = _outcomes(base, *inputs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "ring", None)
        assert base.scalars is QQ_FIELD
        plain = _outcomes(base, *inputs)
    return fast, plain


@pytest.mark.parametrize("name", BASES)
def test_kernel_scalars_match_field_elements(name):
    base = BASES[name]
    assert base.scalars is not QQ_FIELD

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows4, rows4, st.lists(entries, min_size=4, max_size=4),
           st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(-4, 4)))
    def same(x_rows, y_rows, vec, mix):
        fast, plain = _both_paths(base, _elems(x_rows), _elems(y_rows),
                                  _elems([vec])[0], mix)
        assert fast == plain

    same()


def test_both_paths_build_the_same_lattice_from_reps_and_elements():
    base = BASES["Q at 2,3"]
    rows = _elems([[1, Fraction(1, 6), 0, 7], [0, 4, Fraction(5, 9), 1],
                   [3, 0, 0, Fraction(1, 12)], [0, 0, 2, 0]])
    lat = L.span(base, 4, rows)
    # rows pass in as field elements or as the kernel's own scalars
    assert L.span(base, 4, lat.krows) == lat
    assert lat.rows == tuple(map(base.scalars.wrap_row, lat.krows))
    assert all(e.field is QQ_FIELD for r in lat.rows for e in r)
    assert lat.rows is lat.rows  # built once
