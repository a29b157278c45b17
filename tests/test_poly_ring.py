"""The elements of the polynomial rings F_p[x]_(S) and Q[x]_(S) against
sympy's `Poly`: the arithmetic of `fields._Poly` over GF(3), GF(7), ZZ and
QQ, and the ring operations of `fields._PolynomialsAt` (gcd, the p-part,
split, values, residues and principal parts) at the primes x, x+2 (monic,
not a monomial), x^2+1 and, over Q, 3x+1 (not monic).  At x the p-part is
a shift; it agrees with the pseudo-division loop it replaces."""

import copy
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ, ZZ, Poly

from gliderbs import fields
from gliderbs.fields import QX_FIELD, fp_func_field, poly_prime, xadic

X = sympy.Symbol("x")
DOMAINS = {"GF(3)": 3, "GF(7)": 7, "ZZ": 0}


def _ring(p, prime):
    field = fp_func_field(p) if p else QX_FIELD
    v = xadic(field) if prime == "x" else poly_prime(prime, field)
    return fields.pid_ring(field, [v])


RINGS = {f"{'F_%d' % p if p else 'Q'}[x] at {g}": (p, g)
         for p in (3, 7, 0) for g in ("x", "x+2", "x^2+1")}
RINGS["Q[x] at 3x+1"] = (0, "3*x+1")


def polys(p, size=6):
    """Lists of coefficients low to high, normalized as `_Poly` keeps them:
    reduced mod p, with no trailing zero."""
    coeff = st.integers(0, p - 1) if p else st.integers(-9, 9)

    def normal(cs):
        cs = [c % p for c in cs] if p else list(cs)
        while cs and not cs[-1]:
            cs.pop()
        return fields._poly_class(p)(cs)

    return st.builds(normal, st.lists(coeff, max_size=size))


def nonzero(p, size=6):
    return polys(p, size).filter(bool)


def _sym(a, p, dom=None):
    """The sympy `Poly` of a `_Poly`, over GF(p), or else over dom."""
    cs = [sympy.Rational(c.numerator, c.denominator) if
          isinstance(c, Fraction) else c for c in reversed(a)] or [0]
    return Poly(cs, X, domain=GF(p, symmetric=False) if p else dom or ZZ)


def _same(a, sym, p):
    """Whether the `_Poly` a is sym, and keeps the invariants: no trailing
    zero, coefficients reduced mod p."""
    assert not a or a[-1], f"trailing zero in {a}"
    if p:
        assert all(0 <= c < p for c in a), f"unreduced {a}"
    return _sym(a, p, sym.domain) == sym


@pytest.mark.parametrize("dom", DOMAINS)
def test_arithmetic_matches_sympy(dom):
    p = DOMAINS[dom]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(polys(p), polys(p), nonzero(p, 4))
    def same(a, b, c):
        sa, sb, sc = _sym(a, p), _sym(b, p), _sym(c, p)
        assert _same(a + b, sa + sb, p) and _same(a - b, sa - sb, p)
        assert _same(-a, -sa, p) and _same(a * b, sa * sb, p)
        assert _same(b * c, sb * sc, p) and _same(a * c, sa * sc, p)
        q, r = divmod(a, c)
        if p:
            assert _same(q, sa.quo(sc), p) and _same(r, sa.rem(sc), p)
        else:
            # Q[x]: the quotient may hold `Fraction`s
            qa, qc = sa.set_domain(QQ), sc.set_domain(QQ)
            assert _same(q, qa.quo(qc), 0) and _same(r, qa.rem(qc), 0)
        q, r, k = a.pdivmod(c)
        assert k and len(r) < len(c)
        assert _same(r, sa.mul_ground(k) - _sym(q, p) * sc, p)

    same()


def test_products_keep_their_lead():
    """F_p and Z have no zero divisors: a product is never stripped, and
    a constant factor takes the short path, reduced mod p."""
    f3 = fields._poly_class(3)
    assert f3((2, 2)) * f3((2,)) == (1, 1)
    assert f3((1, 2)) * f3((1, 1)) == (1, 0, 2)
    assert f3((0, 1)) - f3((0, 1)) == () and -f3((1, 2)) == (2, 1)


def _ring_data(name):
    p, g = RINGS[name]
    ring = _ring(p, g)
    (prime,) = ring.primes
    return p, ring, prime


def _pow(x, k, one):
    out = one
    for _ in range(k):
        out = out * x
    return out


def _sym_part(n, prime, p):
    """(k, n / prime^k) by sympy over GF(p) or QQ, for the largest k."""
    sn, sp, k = _sym(n, p, QQ), _sym(prime, p, QQ), 0
    while True:
        q, r = sn.div(sp)
        if not r.is_zero:
            return k, sn
        k, sn = k + 1, q


@pytest.mark.parametrize("name", RINGS)
def test_ring_operations_match_sympy(name):
    p, ring, prime = _ring_data(name)
    one = ring.one

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(nonzero(p), polys(p), polys(p), st.integers(0, 3))
    def same(n, a, b, e):
        n = n * _pow(prime, e, one)
        assert _same(ring.gcd(n, a, b), _sym(n, p).gcd(_sym(a, p)).gcd(
            _sym(b, p)), p)
        k, sq = _sym_part(n, prime, p)
        kk, pk, q = ring._part(n, prime)
        assert kk == k and pk == _pow(prime, k, one) and _same(q, sq, p)
        s, u = ring.split(n)
        assert ring.val(n) == (k,) and s == _pow(prime, k, one)
        assert _same(u, sq, p)

    same()


@pytest.mark.parametrize("name", RINGS)
def test_residues_and_principal_parts_match_sympy(name):
    p, ring, prime = _ring_data(name)
    one, dom = ring.one, None if p else QQ

    def sq(a):
        return _sym(a, p, dom)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(polys(p), nonzero(p, 4), st.integers(1, 3), nonzero(p, 4),
           nonzero(p, 3), st.integers(0, 3))
    def same(a, b, k, d, pd, e):
        m = _pow(prime, k, one)
        if ring._part(b, prime)[0] == 0:
            # r / c = a b^-1 mod m, of least degree
            r, c = ring.residue(a, b, m)
            assert len(c) == 1 and len(r) < len(m)
            assert sq(r) == (sq(a) * sq(b).invert(sq(m))).rem(sq(m)) \
                .mul_ground(c[0])
        # reduce_mod((a, d), (g, pd)): g/pd times the principal part at
        # the prime of h = a pd / (d g), with g a power of the prime
        g = _pow(prime, e, one)
        n, mm = ring.reduce_mod((a, d), (g, pd))
        j, bb = _sym_part(d * g, prime, p)
        pj = sq(_pow(prime, j, one))
        if not j or not a:
            assert not n
            return
        r = (sq(a * pd) * bb.set_domain(pj.domain).invert(pj)).rem(pj)
        assert sq(n) * sq(pd) * pj == sq(mm) * sq(g) * r

    same()


@pytest.mark.parametrize("name", [n for n in RINGS if n.endswith(" x")])
def test_part_at_x_is_the_pseudo_division_loop(name):
    """The shift at x gives the (k, x^k, n / x^k) of the general loop."""
    p, ring, prime = _ring_data(name)
    loop = copy.copy(ring)
    loop._x = None  # no prime is None: every prime takes the loop

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(nonzero(p), st.integers(0, 4))
    def same(n, e):
        n = n * _pow(prime, e, ring.one)
        assert ring._part(n, prime) == loop._part(n, prime)
        assert ring.val(n) == loop.val(n)

    same()
