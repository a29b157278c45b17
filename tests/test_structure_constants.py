"""The algebras' structure constants are right by construction:
`AlgebraDesc` builds its tables and checks nothing.  This test proves the
three facts that make an algebra central simple on samples, M_1 to M_4 and
quaternion algebras (a, b): associativity on every triple of basis
vectors, `one_coords` a two-sided unit, and a centre of dimension 1.  A
table with one entry changed fails it."""

from fractions import Fraction

import pytest

from gliderbs import linalg
from gliderbs.errors import SpecValidationError
from gliderbs.fields import QQ_FIELD
from gliderbs.lattice import AlgebraDesc, matrix_algebra, quaternion_algebra

K = QQ_FIELD.reps
ALGEBRAS = [matrix_algebra(n) for n in range(1, 5)] + [
    quaternion_algebra(a, b) for a, b in
    [(-1, -1), (2, 3), (-1, 3), (Fraction(1, 2), Fraction(-5, 3)), (1, 1)]]


def table_faults(alg):
    """The facts that alg's table breaks, by name: "associative" with the
    first triple, "unit", "centre" with its dimension."""
    d = alg.dim

    def mul(u, w):
        return alg.mul_coords(u, w, K)

    basis = [list(alg.basis_vector(s, K)) for s in range(d)]
    faults = []
    triple = next(((s, t, u) for s in range(d) for t in range(d)
                   for u in range(d)
                   if mul(mul(basis[s], basis[t]), basis[u])
                   != mul(basis[s], mul(basis[t], basis[u]))), None)
    if triple:
        faults.append(("associative", triple))
    one = alg.one_vector(K)
    if any(mul(one, e) != e or mul(e, one) != e for e in basis):
        faults.append(("unit",))
    # z is central iff z e_t = e_t z for every t: d^2 linear conditions
    rows = []
    for e_t in basis:
        comm = [[a - b for a, b in zip(mul(e_s, e_t), mul(e_t, e_s))]
                for e_s in basis]
        rows += [[c[u] for c in comm] for u in range(d)]
    centre = d - len(linalg.rref(rows, K)[0])
    if centre != 1:
        faults.append(("centre", centre))
    return faults


@pytest.mark.parametrize("alg", ALGEBRAS, ids=repr)
def test_structure_constants_are_central_simple(alg):
    assert table_faults(alg) == []


def _with_entry(alg, key, entries):
    """A copy of alg whose table has `entries` at `key`."""
    out = object.__new__(AlgebraDesc)
    out.__dict__.update({k: v for k, v in alg.__dict__.items()
                         if not k.startswith("_")})
    out._table = dict(alg._table)
    out._table[key] = entries
    return out


@pytest.mark.parametrize("alg, key, entries, fault", [
    # e_12 e_21 = 2 e_11 breaks associativity: (e_12 e_21) e_12 = 2 e_12,
    # e_12 (e_21 e_12) = e_12
    (matrix_algebra(2), (1, 2), ((0, Fraction(2)),), "associative"),
    # e_11 e_11 = e_12
    (matrix_algebra(2), (0, 0), ((1, Fraction(1)),), "associative"),
    # i j = -k for (-1, -1): the Hamilton table with one sign flipped
    (quaternion_algebra(-1, -1), (1, 2), ((3, Fraction(-1)),),
     "associative"),
    # 1 i = 2 i: the unit is no longer a unit
    (quaternion_algebra(2, 3), (0, 1), ((1, Fraction(2)),), "unit"),
])
def test_a_changed_entry_is_caught(alg, key, entries, fault):
    faults = table_faults(_with_entry(alg, key, entries))
    assert fault in [f[0] for f in faults]


def test_a_commutative_table_has_a_large_centre():
    # j i = i j = k, k i = i k = -j and k j = j k = i in (-1, -1): every
    # basis vector is central
    alg = quaternion_algebra(-1, -1)
    for key, entries in [((2, 1), ((3, Fraction(1)),)),
                         ((3, 1), ((2, Fraction(-1)),)),
                         ((3, 2), ((1, Fraction(1)),))]:
        alg = _with_entry(alg, key, entries)
    assert ("centre", 4) in table_faults(alg)


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "2"])
def test_matrix_algebra_takes_a_positive_int(n):
    # a bool or a float was taken as an int: "M_True", or a TypeError
    with pytest.raises(SpecValidationError):
        matrix_algebra(n)
