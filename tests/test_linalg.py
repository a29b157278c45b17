"""The two eliminations of `linalg`: `reduce` against echelon rows and
`rref`, with the inverse of the reference kernel (`plain_kernel.mat_inv`)
read off `rref`."""

import random
from fractions import Fraction

import pytest

from gliderbs import linalg
from gliderbs.errors import RankError
from gliderbs.fields import QQ_FIELD, prime_field
from plain_kernel import mat_inv

FIELDS = {"Q": QQ_FIELD, "F_7": prime_field(7)}


def _vectors(field, rnd, count, dim):
    return [[field.from_int(rnd.randint(-4, 4)) for _ in range(dim)]
            for _ in range(count)]


def _echelon_rows(field, rnd, dim):
    """Echelon rows with pivots, not scaled to 1, in random increasing
    columns."""
    cols = sorted(rnd.sample(range(dim), rnd.randint(1, dim)))
    rows = []
    for c in cols:
        row = [field.zero()] * c + [field.from_int(rnd.choice([1, 2, 3, -2]))]
        row += [field.from_int(rnd.randint(-4, 4)) for _ in range(dim - c - 1)]
        rows.append(row)
    return rows, cols


def _combination(field, coeffs, rows, dim):
    out = [field.zero()] * dim
    for q, row in zip(coeffs, rows):
        out = [a + q * b for a, b in zip(out, row)]
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_reduce_gives_coordinates_and_a_remainder_off_the_pivots(name):
    field, rnd = FIELDS[name], random.Random(12)
    for _ in range(40):
        dim = rnd.randint(1, 5)
        rows, pivots = _echelon_rows(field, rnd, dim)
        vectors = _vectors(field, rnd, 3, dim)
        Q, rest = linalg.reduce(vectors, rows)
        for v, q, r in zip(vectors, Q, rest):
            assert len(q) == len(rows)
            assert [a + b for a, b in zip(_combination(field, q, rows, dim),
                                          r)] == v
            assert not any(r[c] for c in pivots)


@pytest.mark.parametrize("name", FIELDS)
def test_reduce_tells_the_span(name):
    field, rnd = FIELDS[name], random.Random(13)
    for _ in range(40):
        dim = rnd.randint(2, 5)
        rows, pivots = _echelon_rows(field, rnd, dim)
        coeffs = [field.from_int(rnd.randint(-3, 3)) for _ in rows]
        inside = _combination(field, coeffs, rows, dim)
        # a unit vector at a column without a pivot lies outside the span
        outside = [[field.one() if c == f else field.zero()
                    for c in range(dim)]
                   for f in range(dim) if f not in pivots]
        Q, rest = linalg.reduce([inside] + outside, rows)
        assert Q[0] == coeffs and not any(rest[0])
        assert all(any(r) for r in rest[1:])


def test_reduce_with_no_rows_returns_the_vectors():
    v = [QQ_FIELD.from_int(3), QQ_FIELD.zero()]
    assert linalg.reduce([v], []) == ([[]], [v])


@pytest.mark.parametrize("name", FIELDS)
def test_mat_inv(name):
    field, rnd = FIELDS[name], random.Random(14)
    seen = 0
    for _ in range(60):
        n = rnd.randint(1, 4)
        A = _vectors(field, rnd, n, n)
        try:
            inv = mat_inv(A, field)
        except RankError:
            assert len(linalg.rref(A, field)[0]) < n
            continue
        seen += 1
        ident = [[field.one() if i == j else field.zero() for j in range(n)]
                 for i in range(n)]
        assert [linalg.vec_mat(row, inv) for row in A] == ident
        assert [linalg.vec_mat(row, A) for row in inv] == ident
    assert seen > 30


def test_mat_inv_rejects_a_singular_matrix():
    q = QQ_FIELD.from_fraction
    A = [[q(Fraction(1)), q(Fraction(2))],
         [q(Fraction(1, 2)), q(Fraction(1))]]
    with pytest.raises(RankError, match="singular"):
        mat_inv(A, QQ_FIELD)
