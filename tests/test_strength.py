"""Strength of a filtration in degree 1, and the e-step test in degree e,
against the horizon scans they replaced: on seeded step functions,
componentwise over one and two valuations and lex over the composite
valuation, and on explicit algebra filtrations over the Hurwitz order at
2 and over M_2(Z_(5)), against the block scan of the lattices."""

import random

import pytest

from gliderbs.errors import SpecValidationError
from gliderbs.fields import QQ_FIELD, QXY_FIELD, composite2, padic
from gliderbs.filtration import (AlgebraFiltration, FieldFiltration,
                                 StepFunction, estep, induced_on_K,
                                 is_strong, valuation_filtration)
from gliderbs.lattice import BaseRing, FracIdeal, mult
from gliderbs.orders import builtin_hurwitz2, builtin_mnr, radical

KINDS = {
    "r1": (QQ_FIELD, (padic(5),), "componentwise"),
    "r2": (QQ_FIELD, (padic(2), padic(3)), "componentwise"),
    "lex": (QXY_FIELD, (composite2(),), "lex"),
}


def scan_is_strong(filt):
    """phi(n) + phi(-n) = 0 on the horizon, and matching tail slopes."""
    ph = filt.phi
    zero = (0,) * ph.r
    if any(tuple(a + b for a, b in zip(ph(n), ph(-n))) != zero
           for n in range(ph.horizon + 1)):
        return False
    return (tuple(c * ph.minus_period for c in ph.plus_inc)
            == tuple(c * ph.plus_period for c in ph.minus_inc))


def scan_is_dvr_valuation(filt):
    """One rank-1 valuation, tails of slope 1 and phi(n) = n on the
    horizon."""
    if filt.composite or len(filt.valuations) != 1:
        return False
    ph = filt.phi
    if ph.plus_inc != (ph.plus_period,) or \
            ph.minus_inc != (ph.minus_period,):
        return False
    return all(ph(n) == (n,) for n in range(-ph.horizon, ph.horizon + 1))


def scan_estep(filt):
    """The e-step pattern checked degree by degree on the horizon: powers
    of phi(-e), phi(n e) + phi(-n e) = 0, constant blocks, and the tail
    slopes."""
    ph = filt.phi
    h = ph.horizon
    e = next((k for k in range(1, h + 1) if ph(-k) != ph(-k - 1)), None)
    if e is None:
        return None

    def scale(a, k):
        return tuple(s * k for s in a)

    for n in range(0, (2 * h + 2 * e) // e + 1):
        if ph(-n * e) != scale(ph(-e), n):
            return None
        if tuple(a + b for a, b in zip(ph(n * e), ph(-n * e))) != \
                (0,) * ph.r:
            return None
        for k in range(e):
            if ph(-n * e + k) != ph(-n * e) or ph(n * e + k) != ph(n * e):
                return None
    if scale(ph.minus_inc, e) != scale(ph(-e), -ph.minus_period):
        return None
    if scale(ph.plus_inc, e) != scale(ph(e), ph.plus_period):
        return None
    return e


def _floor_slope(n, a, b):
    return (n * a) // b


def _draw(kind, rnd):
    """A step function from one of three superadditive families, with an
    entry nudged now and then: n*c (strong), floor(n*a/b) (strong iff b
    divides a), and floor(n*a/b) for n >= 0 below a steeper n*d."""
    field, vals, order = KINDS[kind]
    r = len(vals) if order == "componentwise" else 2
    family = rnd.randrange(3)
    b = 1 if family == 0 else rnd.randint(1, 2)
    a = [rnd.randint(1, 3) * (b if family == 0 else 1) for _ in range(r)]
    if order == "lex":
        a[1] = rnd.randint(-3, 3) * (b if family == 0 else 1)
    d = [-(-x // b) + (rnd.randint(0, 1) if family == 2 else 0) for x in a]
    if family != 2:
        d = None
    lo, hi = -rnd.randint(0, 1), rnd.randint(0, 1)
    hi = max(hi, lo + b - 1)

    def phi(n):
        if d is not None and n < 0:
            return [n * x for x in d]
        return [_floor_slope(n, x, b) for x in a]

    table = {n: phi(n) for n in range(lo, hi + 1)}
    minus = (1, list(d)) if d is not None else (b, list(a))
    if rnd.random() < 0.2:
        vec = rnd.choice([table[n] for n in table if n] + [minus[1]])
        vec[rnd.randrange(r)] += rnd.choice((-1, 1))
    sf = StepFunction((lo, hi), table, (b, a), minus, order=order)
    return FieldFiltration(field, vals, sf)


def test_degree_one_strength_matches_the_horizon_scan():
    rnd = random.Random(2024)
    counts = {kind: [0, 0] for kind in KINDS}
    dvr = longer = 0
    for i in range(12000):
        kind = ("r1", "r2", "lex")[i % 3]
        try:
            filt = _draw(kind, rnd)
        except SpecValidationError:
            continue
        strong = is_strong(filt)
        assert strong == scan_is_strong(filt), filt
        assert filt.is_dvr_valuation() == scan_is_dvr_valuation(filt), filt
        e = estep(filt)
        assert e == scan_estep(filt), filt
        counts[kind][strong] += 1
        dvr += filt.is_dvr_valuation()
        longer += e is not None and e > 1
    assert sum(sum(c) for c in counts.values()) >= 10000
    assert all(min(c) >= 1000 for c in counts.values()), counts
    assert dvr >= 300 and longer >= 200


def test_strength_reads_degrees_one_and_minus_one():
    seen = []

    class Recording(StepFunction):
        __slots__ = ()

        def __call__(self, n):
            seen.append(n)
            return super().__call__(n)

    sf = Recording((-1, 1), {-1: (-1,), 0: (0,), 1: (1,)},
                   (1, (1,)), (1, (1,)))
    filt = FieldFiltration(QQ_FIELD, (padic(5),), sf)
    del seen[:]
    assert is_strong(filt) and filt.is_dvr_valuation()
    assert set(seen) == {1, -1}


# -- explicit algebra filtrations ------------------------------------------

def scan_estep_lattice(fa):
    """The e-step pattern checked block by block on the horizon: L_-ne =
    L_-e^n, L_ne L_-ne = L_0 = L_-ne L_ne, and constant blocks of e
    degrees."""
    h = fa.horizon
    e = next((k for k in range(1, h + 1)
              if fa.level(-k) != fa.level(-k - 1)), None)
    if e is None:
        return None
    power = fa.level(0)
    for n in range(0, (h + 2 * e) // e + 1):
        ln = fa.level(-n * e)
        if n > 0:
            power = mult(power, fa.level(-e), fa.alg)
            if power != ln:
                return None
        if mult(fa.level(n * e), ln, fa.alg) != fa.level(0):
            return None
        if mult(ln, fa.level(n * e), fa.alg) != fa.level(0):
            return None
        for k in range(e):
            if fa.level(-n * e + k) != ln:
                return None
            if fa.level(n * e + k) != fa.level(n * e):
                return None
    return e


def scan_is_strong_lattice(fa):
    """L_n L_-n = L_0 = L_-n L_n on the horizon, and tails that undo each
    other."""
    l0 = fa.level(0)
    if any(mult(fa.level(n), fa.level(-n), fa.alg) != l0
           or mult(fa.level(-n), fa.level(n), fa.alg) != l0
           for n in range(fa.horizon + 1)):
        return False
    return fa.plus_mult.pow(fa.minus_period).mul(
        fa.minus_mult.pow(fa.plus_period)).is_unit_ideal()


def _hurwitz():
    """The Hurwitz order at 2, its ramification index r = 2 and P^j for its
    prime P, P^2 = 2B: 2^(j/2) B for even j, 2^((j-1)/2) P for odd j."""
    order = builtin_hurwitz2()
    b, p = order.lattice, radical(order, 2).ideal
    return order, 2, lambda j: (b if j % 2 == 0 else p).scale_exponents(
        (j // 2,))


def _m2():
    """M_2(Z_(5)), r = 1 and P^j for its prime P = 5B."""
    order = builtin_mnr(2, BaseRing(QQ_FIELD, (padic(5),)))
    return order, 1, lambda j: order.lattice.scale_exponents((j,))


# name -> (e, the exponent f(n, r) of L_n = P^f(n), plus period, minus
# period); pi B = P^r for the ramification index r
CHAINS = {
    "P^-n": (1, lambda n, r: -n, 2, 2),
    "P^-2[n/2]": (2, lambda n, r: -2 * (n // 2), 2, 2),
    "P^-2[n/4]": (4, lambda n, r: -2 * (n // 4), 4, 4),
    "pi^-[n/1]B": (1, lambda n, r: -r * n, 1, 1),
    "pi^-[n/2]B": (2, lambda n, r: -r * (n // 2), 2, 2),
    "pi^-[n/3]B": (3, lambda n, r: -r * (n // 3), 3, 3),
    # P^-n above degree 0 and P^-2n below: a filtration, not strong
    "asymmetric": (None, lambda n, r: -n if n >= 0 else -2 * n, 2, 1),
}


def _explicit(order, r, power, f, plus_period, minus_period):
    """The explicit filtration L_n = P^f(n), built over its own
    `induced_on_K` base with the validator on: past the window
    [-w, w] each tail multiplies by the scalar its period steps P by."""
    base_ring = order.base
    w = max(plus_period, minus_period)
    levels = [power(f(n, r)) for n in range(-w, w + 1)]
    plus = (plus_period, FracIdeal(base_ring, (
        (f(w, r) - f(w - plus_period, r)) // r,)))
    minus = (minus_period, FracIdeal(base_ring, (
        (f(-w, r) - f(minus_period - w, r)) // r,)))

    def build(base, validate):
        return AlgebraFiltration(order.alg, base, order.lattice,
                                 mode="explicit", window=(-w, w),
                                 levels=levels, plus=plus, minus=minus,
                                 validate=validate)

    rough = build(valuation_filtration(base_ring.valuations[0]), False)
    return build(induced_on_K(rough), True)


@pytest.mark.parametrize("make", [_hurwitz, _m2], ids=["hurwitz", "m2"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_explicit_strength_matches_the_block_scan(make, chain):
    e, f, plus_period, minus_period = CHAINS[chain]
    fa = _explicit(*make(), f, plus_period, minus_period)
    assert estep(fa) == scan_estep_lattice(fa) == e
    assert is_strong(fa) == scan_is_strong_lattice(fa) == (e == 1)
