"""classify_subglider against the definitions read on the first levels.

Seeded pairs (N, M) over the 5-adic base, with field levels (ideals P^e)
and algebra levels (the lattices with basis 5^a e_11, 5^b e_12, 5^c e_21,
5^d e_22 of M_2(Q)), under filtration, multiply, constant and zero-ending
tails and filtrations of minus period 1 and 2.  The reference reads each
verdict off LEVELS levels of N:

- not-subglider: N fails F_i N_j inside N_{j-i}, or N_i is not inside M_i;
- T2: N_i is zero where M_i is not;
- T3: a strictly increasing alpha with N_i = M_alpha(i) (greedy search);
- nontrivial otherwise.

Every chain here is presented by a prefix of at most five levels and a
tail of period at most 2, so each pattern shows within LEVELS levels.
"""

import random

from gliderbs.errors import SpecValidationError
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import FieldFiltration, StepFunction
from gliderbs.glider import (Constant, FiltrationTail, Glider, MultiplyBy,
                             ZeroAfter, classify_subglider, is_glider)
from gliderbs.lattice import FracIdeal, ZERO_MODULE, canonicalize, \
    matrix_algebra

LEVELS = 60


def _filtration(table, plus, minus):
    return FieldFiltration(QQ_FIELD, (padic(5),), StepFunction(
        (min(table), max(table)), {n: (v,) for n, v in table.items()},
        (plus[0], (plus[1],)), (minus[0], (minus[1],))))


FILTRATIONS = [
    # phi(n) = n
    _filtration({0: 0}, (1, 1), (1, 1)),
    # phi(n) = n, written with minus period 2
    _filtration({-1: -1, 0: 0, 1: 1}, (1, 1), (2, 2)),
    # R > P^2 > P^3 > ...: not strong, periodic from degree 1
    _filtration({-1: -2, 0: 0, 1: 1}, (1, 1), (1, 1)),
    # minus period 2 with increment 3
    _filtration({-2: -3, -1: -2, 0: 0, 1: 1}, (1, 1), (2, 3)),
]
M2 = matrix_algebra(2)


def _level(f, ambient, exps):
    """P^e (field) or the lattice with basis 5^a_k e_k (algebra)."""
    if exps is None:
        return ZERO_MODULE
    if ambient == "field":
        return FracIdeal(f.base_ring, (exps,))
    rows = [[QQ_FIELD.from_fraction(5 ** a) if j == k else QQ_FIELD.zero()
             for j in range(4)] for k, a in enumerate(exps)]
    return canonicalize(f.base_ring, 4, rows)


def _step(rnd, ambient, exps):
    if ambient == "field":
        return exps + rnd.randint(0, 2)
    return tuple(a + rnd.randint(0, 1) for a in exps)


def _tail(rnd, f):
    return rnd.choice([FiltrationTail(), FiltrationTail(), ZeroAfter(),
                       Constant(),
                       MultiplyBy(FracIdeal(f.base_ring, (1,))),
                       MultiplyBy(FracIdeal(f.base_ring, (2,)))])


def _chain(f, ambient, prefix, tail):
    return Glider(f, ambient, [_level(f, ambient, e) for e in prefix], tail,
                  alg=M2 if ambient == "algebra" else None)


def _random_exps(rnd, ambient, n):
    exps = [rnd.randint(0, 2) if ambient == "field"
            else tuple(rnd.randint(0, 1) for _ in range(4))]
    while len(exps) < n:
        exps.append(_step(rnd, ambient, exps[-1]))
    if rnd.random() < 0.15:
        exps[-1] = None
    return exps


def _big(rnd, f, ambient):
    while True:
        m = _chain(f, ambient, _random_exps(rnd, ambient,
                                                 rnd.randint(1, 4)),
                   _tail(rnd, f))
        if is_glider(m)[0]:
            return m


def _small(rnd, f, ambient, m):
    """A random chain, or one read off M's levels: reindexed, scaled, or
    cut to zero."""
    how = rnd.choice(["random", "reindex", "reindex", "scaled", "cut"])
    if how == "random":
        return _chain(f, ambient, _random_exps(rnd, ambient,
                                                    rnd.randint(1, 4)),
                      _tail(rnd, f))
    if how == "reindex":
        idx = sorted(rnd.sample(range(8), rnd.randint(1, 4)))
        prefix = [m.level(i) for i in idx]
    elif how == "scaled":
        prefix = [lvl.scale_ideal(FracIdeal(f.base_ring, (1,)))
                  if lvl is not ZERO_MODULE else lvl
                  for lvl in m.levels(rnd.randint(0, 3))]
    else:
        prefix = m.levels(rnd.randint(0, 3)) + [ZERO_MODULE]
    return Glider(f, ambient, prefix, _tail(rnd, f), alg=m.alg)


def _reference(n, m):
    """The verdict kind, and alpha on its first levels for T3, read off
    the first LEVELS levels."""
    f = n.filtration
    ns = n.levels(LEVELS - 1)
    for j, nj in enumerate(ns):
        for i in range(j + 1):
            if nj is not ZERO_MODULE and \
                    not ns[j - i].contains(nj.scale_ideal(f.level(i))):
                return "not-subglider", None
    if any(not m.level(i).contains(ni) for i, ni in enumerate(ns)):
        return "not-subglider", None
    if any(ni is ZERO_MODULE and m.level(i) is not ZERO_MODULE
           for i, ni in enumerate(ns)):
        return "T2", None
    alpha, j = [], 0
    for ni in ns:
        # levels descend: once M_j is not above N_i, no later one matches
        while m.level(j) != ni and m.level(j).contains(ni) and \
                j < 8 * LEVELS:
            j += 1
        if m.level(j) != ni:
            return "nontrivial", None
        alpha.append(j)
        j += 1
    return "T3", alpha


def _pairs(seed, count):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        f = rnd.choice(FILTRATIONS)
        ambient = rnd.choice(["field", "field", "algebra"])
        m = _big(rnd, f, ambient)
        try:
            n = _small(rnd, f, ambient, m)
        except SpecValidationError as exc:  # an ascending prefix
            assert "does not descend" in str(exc)
            continue
        out.append((n, m))
    return out


def test_verdicts_match_the_definitions_on_the_first_levels():
    kinds = {}
    tails = set()
    for n, m in _pairs(0, 520):
        v = classify_subglider(n, m)
        kind, alpha = _reference(n, m)
        assert v.kind == kind, (n, m, v)
        if kind == "T3":
            assert v.alpha == alpha[:len(v.alpha)]
        kinds[kind] = kinds.get(kind, 0) + 1
        tails.add((m.ambient, m.tail.kind, m.filtration.phi.minus_period))
    assert set(kinds) == {"not-subglider", "T2", "T3", "nontrivial"}
    assert min(kinds.values()) >= 20, kinds
    assert {(a, t, p) for a in ("field", "algebra")
            for t in ("filtration", "multiply", "zeroafter")
            for p in (1, 2)} <= tails
