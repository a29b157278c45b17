"""Orders in the supported algebras: prime ideals, ramification indices,
and the divisibility criterion for strongness over a maximal order.

Builtins: the full matrix order M_n(R) over any semilocal base (unramified,
e = 1 at every prime) and the Hurwitz quaternion order at 2 (ramified,
e = 2), both declared maximal.  Every order gets its radical from the
trace conditions of the residue algebra B/pB, read over the prime field
(linear algebra over F_p, or over the residue field in characteristic 0);
that requires a declaration of maximality, and the declared hypothesis is
re-checked against the computed identities (P^e = pB, two-sidedness).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import linalg
from .errors import MaximalityError, SpecValidationError
from .fields import QQ_FIELD, padic, prime_field
from .filtration import (AlgebraFiltration, FieldFiltration,
                         StepFunction)
from .lattice import (BaseRing, FracIdeal, _QuotientSpace, canonicalize,
                      matrix_algebra, mult, quaternion_algebra, require_order,
                      span)

__all__ = [
    "OrderData", "PrimeData",
    "builtin_mnr", "builtin_hurwitz2",
    "ceil_sum_compare", "radical", "induced_degree_minus_one",
    "maxorder_strong_check", "maxorder_filtration",
]


class OrderData:
    """A verified order: a full lattice that is a ring containing 1."""

    def __init__(self, lattice, alg, declared_maximal=False):
        require_order(lattice, alg)
        self.lattice = lattice
        self.alg = alg
        self.declared_maximal = declared_maximal

    @property
    def base(self):
        return self.lattice.base

    def __repr__(self):
        return f"OrderData({self.alg!r})"


class PrimeData:
    """A prime (= maximal two-sided) ideal of an order with its
    ramification index: p_j B = P^e."""

    def __init__(self, order, ideal, prime_index, e):
        self.order = order
        self.ideal = ideal
        self.prime_index = prime_index
        self.e = e

    def __repr__(self):
        return f"PrimeData(j={self.prime_index}, e={self.e})"


def builtin_mnr(n, base):
    """M_n(R): the standard maximal order in the split matrix algebra."""
    alg = matrix_algebra(n)
    field = base.field
    d = alg.dim
    rows = [[field.one() if i == j else field.zero() for j in range(d)]
            for i in range(d)]
    return OrderData(canonicalize(base, d, rows), alg, declared_maximal=True)


def builtin_hurwitz2():
    """The Hurwitz quaternion order over Z localized at 2, inside the
    rational quaternions (-1, -1): basis 1, i, j, (1+i+j+k)/2."""
    base = BaseRing(QQ_FIELD, (padic(2),))
    alg = quaternion_algebra(-1, -1)
    fe = QQ_FIELD.from_fraction
    one, zero, half = fe(1), fe(0), fe(Fraction(1, 2))
    rows = [
        [one, zero, zero, zero],
        [zero, one, zero, zero],
        [zero, zero, one, zero],
        [half, half, half, half],
    ]
    return OrderData(canonicalize(base, 4, rows), alg, declared_maximal=True)


# ---------------------------------------------------------------------------
# the ceiling comparison
# ---------------------------------------------------------------------------

def _ceil_div(k, e):
    return -((-k) // e)


def ceil_sum_compare(e, k, l):
    """'strict' when ceil(k/e) + ceil(l/e) > ceil((k+l)/e), else 'equal'.

    Characterization: strict iff both remainders k mod e and l mod e are
    nonzero and their sum is at most e.
    """
    if e <= 0:
        raise SpecValidationError("the step e must be positive")
    i, j = k % e, l % e
    strict = (0 < i and 0 < j and 2 <= i + j <= e)
    return "strict" if strict else "equal"


# ---------------------------------------------------------------------------
# radicals and ramification
# ---------------------------------------------------------------------------

def _prime_index(order, p):
    """The index of the base prime p.  On a base with p-adic valuations an
    int must be one of their primes; an index names a prime only on a
    base with none."""
    vals = order.base.valuations
    padics = [j for j, v in enumerate(vals) if v.kind == "padic"]
    for j in padics:
        if vals[j].p == p:
            return j
    if not padics and type(p) is int and 0 <= p < len(vals):
        return p
    raise SpecValidationError(f"{p} is not a maximal ideal of the base")


def radical(order, p):
    """The prime of the order over the base prime p, with its ramification
    index e (the least power landing in pB)."""
    return _radical(order, _prime_index(order, p))


def _radical(order, j):
    if not order.declared_maximal:
        raise MaximalityError(
            "the radical of an order requires declared maximality")
    prime = _custom_radical(order, j)
    _verify_prime(prime)
    return prime


def _verify_prime(prime):
    order, j = prime.order, prime.prime_index
    b, alg = order.lattice, order.alg
    pb = b.scale(order.base.uniformizers[j])
    power = b
    for _ in range(prime.e):
        power = mult(power, prime.ideal, alg)
    if power != pb:
        raise MaximalityError(
            f"P^{prime.e} differs from pB: the order is not maximal at "
            f"prime {j} (or the declared maximality certificate is wrong)")
    if mult(b, prime.ideal, alg) != prime.ideal or \
            mult(prime.ideal, b, alg) != prime.ideal:
        raise MaximalityError("computed prime is not two-sided")


def _custom_radical(order, j):
    """The preimage P of the radical J of A = B/pB at the j-th prime, with
    the least e such that P^e lies in pB.

    A is the residue quotient `_QuotientSpace(B, pB, B, alg, j)`: its
    `actions[s]` are the matrices of left multiplication by b_s on A, in
    the residue field's reps.  J comes from trace conditions (Cohen,
    Ivanyos and Wales, "Finding the radical of an algebra of linear
    transformations", J. Pure Appl. Algebra 117/118, 1997), stated over a
    prime field: from I_-1 = A, I_i = {a in I_{i-1} : g_i(a b_t) = 0 for
    every t}, where g_i(z) = Tr(M^(p^i)) / p^i mod p for the int lift M of
    the matrix of z, and J = I_l for l = floor(log_p n), n = dim A over
    F_p.  Each g_i is linear on I_{i-1}, so each step is a null space.
    Over F_q = F_p[t]/(g), A is read over F_p (`_over_prime_field`): J
    does not depend on the ground field, so no Galois ring is needed.  In
    characteristic 0, or when p > n, l = 0: Dickson's condition
    Tr(ab) = 0, on the reps of any residue field."""
    b, alg = order.lattice, order.alg
    base = order.base
    pb = b.scale(base.uniformizers[j])
    V = _QuotientSpace(b, pb, b, alg, j)
    k, d, fld = V.reps, V.dim, V.res_field
    actions, fold, p = V.actions, (lambda u: u), fld.char
    if p and fld is not prime_field(p):
        actions, fold = _over_prime_field(actions, k)
        k = prime_field(p).reps
    n = len(actions)
    steps = 0
    while p and p ** (steps + 1) <= n:
        steps += 1
    # row s of prods[t] is the matrix of b_s b_t flattened to a row: b_s b_t
    # is row t of actions[s], and z's matrix is sum_w z_w actions[w]; so
    # vec_mat(u, prods[t]) is the matrix of u b_t
    flat = [[e for row in a for e in row] for a in actions]
    prods = [[linalg.vec_mat(a[t], flat, k) for a in actions]
             for t in range(n)]
    rad = [[k.one() if c == s else k.zero() for c in range(n)]
           for s in range(n)]
    for i in range(steps + 1):
        g = [[_trace_condition(linalg.vec_mat(u, pt, k), n, k, p, i)
              for u in rad] for pt in prods]
        rad = [linalg.vec_mat(c, rad, k) for c in linalg.right_nullspace(g, k)]
        if not rad:
            break
    ideal = span(base, d, [V.lift(fold(u)) for u in rad] + list(pb.rows))
    power, e = ideal, 1
    # the ideal is nilpotent in the d-dimensional B/pB, so its d-th power
    # lies in pB
    while e < d and not pb.contains(power):
        power = mult(power, ideal, alg)
        e += 1
    return PrimeData(order, ideal, j, e)


def _over_prime_field(actions, k):
    """The actions on A over F_q = F_p[t]/(g), m = deg g, read over F_p, on
    the coordinate (s, i) that is the t^i coefficient of the s-th F_q one:
    in the matrix of b_s t^r (r < m), entry c of b_s's becomes the m x m
    block whose row i is c t^(r+i) in the basis 1, ..., t^(m-1).  Returns
    them with the fold of an F_p row back to F_q."""
    m = len(k.modulus) - 1
    (t,) = k.gens.values()
    tpow = [functools.reduce(k.mul, [t] * i, k.one()) for i in range(2 * m)]

    def coords(c):
        cs = {i: a for (i,), a in k.terms(c)[0]}
        return [cs.get(i, 0) for i in range(m)]

    def fold(u):
        return [functools.reduce(k.add, [
            k.mul(k.from_fraction(a), tp) for a, tp in zip(u[s:s + m], tpow)])
            for s in range(0, len(u), m)]

    return [[sum([coords(k.mul(c, tpow[r + i])) for c in row], [])
             for row in a for i in range(m)]
            for a in actions for r in range(m)], fold


def _trace_condition(m, d, k, p, i):
    """g_i of a d x d matrix m flattened to a row: its trace in k's reps
    for i = 0; for i > 0, over F_p, Tr(M^(p^i)) / p^i mod p, for M the int
    lift of m, computed mod p^(i+1).  p^i <= d, so the power takes fewer
    than d products."""
    if i == 0:
        return functools.reduce(k.add, m[::d + 1])
    q = p ** (i + 1)
    lift = [m[c:c + d] for c in range(0, d * d, d)]
    power = lift
    for _ in range(p ** i - 1):
        power = [[sum(a * b for a, b in zip(row, col)) % q
                  for col in zip(*lift)] for row in power]
    return sum(power[c][c] for c in range(d)) % q // p ** i


# ---------------------------------------------------------------------------
# the maximal-order strongness criterion
# ---------------------------------------------------------------------------

def induced_degree_minus_one(primes):
    """The degree -1 part of the induced field filtration: the fractional
    ideal prod p_i^{ceil(k_i/e_i)} for F_-1 A = prod P_i^{k_i}."""
    if not primes:
        raise SpecValidationError("need at least one prime")
    order = primes[0][0].order
    seen = set()
    exps = [0] * order.base.nprimes
    for prime, k in primes:
        if prime.order is not order:
            raise SpecValidationError("primes over different orders")
        if k < 0:
            raise SpecValidationError("exponents must be nonnegative")
        if prime.prime_index in seen:
            raise SpecValidationError("repeated underlying prime")
        seen.add(prime.prime_index)
        exps[prime.prime_index] = _ceil_div(k, prime.e)
    return FracIdeal(order.base, tuple(exps))


def maxorder_strong_check(order, ks):
    """True iff e_i divides k_i at every base prime: the filtration with
    F_-1 A = prod P_i^{k_i} over the maximal order is then strong."""
    return all(k % _radical(order, j).e == 0
               for j, k in enumerate(_exponents(order, ks)))


def _exponents(order, ks):
    """ks as a list, checked: one nonnegative exponent per base prime."""
    ks = list(ks)
    if len(ks) != order.base.nprimes:
        raise SpecValidationError("one exponent per base prime required")
    if any(k < 0 for k in ks):
        raise SpecValidationError("exponents must be nonnegative")
    return ks


def maxorder_filtration(order, ks):
    """The candidate chain with F_-1 A = prod P_i^{k_i}, positive part
    F_m A = (prod p_i^{-floor(k_i m / e_i)}) B, and the induced field
    filtration as base.

    This hybrid satisfies the filtration product law exactly when each e_i
    divides k_i (that equivalence is the content of the divisibility
    criterion), so it is built without the product-law validation; the
    degree-1 strength test and `product_law_witness` are run on it by the
    cross-checks.  The levels ascend and L_0 = B by construction (prime
    powers inside B below degree 0, scaled copies of B above it); the
    extension condition against the ceiling formula is verified here, by
    the filtration's own check."""
    ks = _exponents(order, ks)
    base = order.base
    primes = [_radical(order, j) for j in range(base.nprimes)]
    degenerate = all(k == 0 for k in ks)
    es = [p.e for p in primes]
    period = math.lcm(*es)

    def phi_of(mdeg):
        if mdeg >= 0:
            return tuple(k * mdeg // e for k, e in zip(ks, es))
        return tuple(-_ceil_div(k * (-mdeg), e) for k, e in zip(ks, es))

    window = (-period, period)
    table = {nn: phi_of(nn) for nn in range(-period, period + 1)}
    inc = tuple(k * period // e for k, e in zip(ks, es))
    if degenerate:
        # a constant chain is no filtration; this base, phi(n) = n, serves
        # only the degree-1 identity L_1 L_-1 = L_0
        r = base.nprimes
        sf = StepFunction((-1, 1), {-1: (-1,) * r, 0: (0,) * r, 1: (1,) * r},
                          (1, (1,) * r), (1, (1,) * r))
    else:
        sf = StepFunction(window, table, (period, inc), (period, inc))
    fk = FieldFiltration(base.field, base.valuations, sf)

    ppow = {}

    def neg_level(mdeg):
        if mdeg in ppow:
            return ppow[mdeg]
        if mdeg == 0:
            out = order.lattice
        else:
            out = neg_level(mdeg - 1)
            for prime, k in zip(primes, ks):
                for _ in range(k):
                    out = mult(out, prime.ideal, order.alg)
        ppow[mdeg] = out
        return out

    levels = []
    for nn in range(-period, period + 1):
        if nn <= 0:
            levels.append(neg_level(-nn))
        else:
            exps = tuple(-(k * nn // e) for k, e in zip(ks, es))
            levels.append(order.lattice.scale_ideal(FracIdeal(base, exps)))
    jminus = FracIdeal(base, inc)
    jplus = jminus.inverse()
    fa = AlgebraFiltration(order.alg, fk, order.lattice,
                           mode="explicit", window=window,
                           levels=levels, plus=(period, jplus),
                           minus=(period, jminus), validate=False)
    # ascent and L_0 = B need no check: see the docstring
    if not degenerate:
        fa._check_extension()
    return fa
