"""Containment inside a memo scope: `Lattice.contains` between lattices on
different roots reads the shift bound mu(P, Q) of their primitive parts
from the scope's memo, and pi^a P holds pi^b Q iff b - a >= mu.  Outside
a scope it decides on the ring (`_ring_holds`).  Both must agree on every
base kind, and mu must be tight."""

import random

import pytest

from gliderbs import lattice as L
from gliderbs.fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD, fp_func_field,
                             gauss_prime, padic, poly_prime, xadic)
from gliderbs.lattice import (ZERO_MODULE, BaseRing, memo_scope, span,
                              zero_lattice)

F3X = fp_func_field(3)
# per base: the entries that random rows combine, with small int factors
BASES = {
    "Q at 5": (BaseRing(QQ_FIELD, [padic(5)]),
               ["1", "5", "1/5", "2/3", "7"]),
    "Q at 2,3": (BaseRing(QQ_FIELD, [padic(2), padic(3)]),
                 ["1", "2", "3", "1/6", "5/4"]),
    "F_3(x) at x": (BaseRing(F3X, [xadic(F3X)]),
                    ["1", "x", "1/x", "x+1", "x^2+2"]),
    "Q(x) at x^2+1": (BaseRing(QX_FIELD, [poly_prime("x^2+1")]),
                      ["1", "x", "x^2+1", "1/(x^2+1)", "x-2"]),
    "Q(i) at 2+i": (BaseRing(GAUSS_FIELD, [gauss_prime("2+i")]),
                    ["1", "i", "2+i", "1/(2+i)", "2-i"]),
}
DIM = 3


def _rows(atoms, rnd, count):
    return [[atoms[rnd.randrange(len(atoms))] * rnd.randint(-2, 2)
             for _ in range(DIM)] for _ in range(count)]


def _lattices(name):
    """Seeded lattices of one base: full and rank-deficient spans, the zero
    lattice, scalings on one root, and a span of scaled rows, which has
    its own root and the primitive part of the lattice it scales."""
    base, texts = BASES[name]
    atoms = [base.field.parse(t) for t in texts]
    rnd = random.Random(f"memo-contains-{name}")
    a = span(base, DIM, _rows(atoms, rnd, DIM))
    b = span(base, DIM, _rows(atoms, rnd, DIM))
    low = span(base, DIM, _rows(atoms, rnd, 1))
    lats = [a, b, low, a.add(low), zero_lattice(base, DIM)]
    for j, pi in enumerate(base.uniformizers):
        shift = [0] * base.nprimes
        shift[j] = 1
        lats += [a.scale(pi), b.scale_exponents(tuple(-s for s in shift)),
                 span(base, DIM, [[e * pi for e in row] for row in a.rows]),
                 low.scale(pi ** 2)]
    return base, lats


@pytest.mark.parametrize("name", BASES)
def test_contains_in_a_scope_equals_contains_outside(name):
    _, lats = _lattices(name)
    pairs = [(x, y) for x in lats for y in lats + [ZERO_MODULE]]
    outside = [x.contains(y) for x, y in pairs]
    with memo_scope():
        inside = [x.contains(y) for x, y in pairs]
        # a second pass reads every bound from the memo
        again = [x.contains(y) for x, y in pairs]
        assert any(k[0] == "contains" for k in L._MEMO.memo)
    assert inside == outside == again
    assert set(outside) == {True, False}


@pytest.mark.parametrize("name", BASES)
def test_the_shift_bound_is_tight(name):
    """pi^mu Q lies in P, and lowering any one exponent of mu by 1 breaks
    it; with no bound, Q leaves P's K-span and no shift of it lies in P."""
    base, lats = _lattices(name)
    bounded = unbounded = 0
    for x in lats:
        for y in lats:
            if not (x.rank and y.rank):
                continue
            p, q = x.primitive()[0], y.primitive()[0]
            mu = L._shift_bound(p, q)
            if mu is None:
                unbounded += 1
                assert not p.contains(q.scale_exponents((9,) * base.nprimes))
                continue
            bounded += 1
            assert p.contains(q.scale_exponents(mu))
            for j in range(base.nprimes):
                lower = tuple(m - (i == j) for i, m in enumerate(mu))
                assert not p.contains(q.scale_exponents(lower))
    assert bounded and unbounded
