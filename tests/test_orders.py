from fractions import Fraction

import pytest

from gliderbs.errors import (MaximalityError, SpecValidationError,
                             UnsupportedError)
from gliderbs.fields import (QQ_FIELD, QX_FIELD, field_from_name,
                             fp_func_field, gauss_prime, padic, poly_prime,
                             xadic)
from gliderbs.filtration import AlgebraFiltration, induced_on_K, is_strong
from gliderbs.lattice import (BaseRing, add, canonicalize, mult,
                              quaternion_algebra, quotient_length, span)
from gliderbs.orders import (OrderData, _custom_radical, builtin_hurwitz2,
                             builtin_mnr, ceil_sum_compare,
                             induced_degree_minus_one, maxorder_filtration,
                             maxorder_strong_check, radical)

from radical_probe import probe_radical


def fe(n):
    return QQ_FIELD.from_fraction(Fraction(n))


def test_ceil_examples():
    assert ceil_sum_compare(2, 1, 1) == "strict"
    assert ceil_sum_compare(2, 2, 2) == "equal"
    assert ceil_sum_compare(3, 1, 1) == "strict"
    with pytest.raises(SpecValidationError):
        ceil_sum_compare(0, 1, 1)


def test_ceil_agrees_with_direct_evaluation():
    def ceil_div(a, b):
        return -((-a) // b)

    for e in range(1, 8):
        for k in range(-20, 21):
            for l in range(-20, 21):
                direct = ("strict" if ceil_div(k, e) + ceil_div(l, e)
                          > ceil_div(k + l, e) else "equal")
                assert ceil_sum_compare(e, k, l) == direct


def test_mnr_radical(m2_order):
    p = radical(m2_order, 5)
    assert p.e == 1
    assert p.ideal == m2_order.lattice.scale(fe(5))


def test_hurwitz_radical(hurwitz):
    p = radical(hurwitz, 2)
    assert p.e == 2
    assert quotient_length(hurwitz.lattice, p.ideal) == 2
    sq = mult(p.ideal, p.ideal, hurwitz.alg)
    assert sq == hurwitz.lattice.scale(fe(2))


def test_custom_radical_matches_builtin(hurwitz):
    custom = OrderData(hurwitz.lattice, hurwitz.alg,
                       declared_maximal=True)
    p = radical(custom, 2)
    assert p.e == 2 and p.ideal == radical(hurwitz, 2).ideal


def _declared(order):
    """The lattice of a builtin order as a custom order declared maximal."""
    return OrderData(order.lattice, order.alg, declared_maximal=True)


def test_custom_radical_has_no_probing_cap():
    # M_2(Z_(11)) mod 11 has 11^4 = 14641 elements, more than a probe of
    # the residue algebra can enumerate; the trace condition needs none
    custom = _declared(builtin_mnr(2, BaseRing(QQ_FIELD, (padic(11),))))
    p = radical(custom, 11)
    assert p.e == 1 and p.ideal == custom.lattice.scale(fe(11))


def test_custom_radical_of_m3_at_2():
    # p = 2 < d = 9, so up to l = 3 conditions of the int lift are due;
    # the regular trace is 3 tr, nondegenerate mod 2, so I_0 is already
    # zero and the radical is 2B
    custom = _declared(builtin_mnr(3, BaseRing(QQ_FIELD, (padic(2),))))
    p = radical(custom, 2)
    assert p.e == 1 and p.ideal == custom.lattice.scale(fe(2))


def test_custom_radical_in_characteristic_zero():
    # Q(x) at x: the residue field Q is infinite, and Dickson's trace
    # condition finds the radical xB
    custom = _declared(builtin_mnr(2, BaseRing(QX_FIELD, (xadic(),))))
    p = radical(custom, 0)
    assert p.e == 1 and p.ideal == custom.lattice.scale(QX_FIELD.gen("x"))


def test_custom_radical_over_f3i_in_dimension_4_is_unsupported():
    qi = field_from_name("Q(i)")
    base = BaseRing(qi, (gauss_prime(qi.from_int(3)),))
    custom = _declared(builtin_mnr(2, base))
    with pytest.raises(UnsupportedError, match="F3\\[i\\] in dimension 4"):
        radical(custom, 0)


def _declared_m2_at(p, g):
    """M_2 over F_p(x) at the polynomial prime g, declared maximal, with
    the prime's uniformizer."""
    v = poly_prime(g, fp_func_field(p))
    return _declared(builtin_mnr(2, BaseRing(v.field, (v,)))), \
        v.uniformizer()


def test_custom_radical_over_f9_in_dimension_4_is_unsupported():
    # the residue field F_3[x]/(x^2+1) = F_9 has p = 3 <= d = 4, as F_3[i]
    custom, _ = _declared_m2_at(3, "x^2+1")
    with pytest.raises(UnsupportedError,
                       match="F3\\[x\\]/\\(g\\) in dimension 4 needs "
                             "trace conditions over a Galois ring"):
        radical(custom, 0)


def test_custom_radical_over_f25():
    # p = 5 > d = 4: Dickson's condition over F_25 = F_5[x]/(x^2+2) finds
    # the radical pi B, with e = 1
    custom, pi = _declared_m2_at(5, "x^2+2")
    p = radical(custom, 0)
    assert p.e == 1 and p.ideal == custom.lattice.scale(pi)


def test_radical_names_a_prime_of_the_base():
    base = BaseRing(QQ_FIELD, (padic(3), padic(5), padic(7)))
    mnr = builtin_mnr(2, base)
    assert radical(mnr, 7).prime_index == 2
    # 2 is neither a prime of the base nor, on a p-adic base, an index
    for p in (2, 0):
        with pytest.raises(SpecValidationError, match="not a maximal ideal"):
            radical(mnr, p)


def _order(base, alg, rows):
    return OrderData(canonicalize(base, alg.dim, rows), alg)


def _z_order(a, b, p):
    """Z_(p)<1, i, j, k> in the quaternion algebra (a, b)."""
    alg = quaternion_algebra(Fraction(a), Fraction(b))
    return _order(BaseRing(QQ_FIELD, (padic(p),)), alg,
                  [[fe(int(r == c)) for c in range(4)] for r in range(4)])


def _eichler(p):
    """The Eichler order of level p: M_2(Z_(p)) with its (2,1) entry in
    pZ_(p)."""
    mnr = _mnr_at(p)
    return _order(mnr.base, mnr.alg,
                  [[fe(p if r == c == 2 else int(r == c)) for c in range(4)]
                   for r in range(4)])


def _plus_p(order, p):
    """Z_(p) + p*B."""
    rows = [order.alg.one_vector(QQ_FIELD)] + \
        [[fe(p) * e for e in row] for row in order.lattice.rows]
    return _order(order.base, order.alg, rows)


def _mnr_at(*primes):
    return builtin_mnr(2, BaseRing(QQ_FIELD, tuple(map(padic, primes))))


RADICAL_FAMILY = {
    "Hurwitz at 2": (builtin_hurwitz2, 0),
    "M_2 at 2": (lambda: _mnr_at(2), 0),
    "M_2 at 3": (lambda: _mnr_at(3), 0),
    "Z_(2) + 2 Hurwitz": (lambda: _plus_p(builtin_hurwitz2(), 2), 0),
    "Eichler at 2": (lambda: _eichler(2), 0),
    "Eichler at 3": (lambda: _eichler(3), 0),
    "Z_(2) + 2 M_2": (lambda: _plus_p(_mnr_at(2), 2), 0),
    "Z_(3) + 3 M_2": (lambda: _plus_p(_mnr_at(3), 3), 0),
    "(-1,-1) at 3": (lambda: _z_order(-1, -1, 3), 0),
    "(-1,-3) at 2": (lambda: _z_order(-1, -3, 2), 0),
    "(-1,-3) at 3": (lambda: _z_order(-1, -3, 3), 0),
    "(3,7) at 3": (lambda: _z_order(3, 7, 3), 0),
    "M_2 over Z_(2,3) at 2": (lambda: _mnr_at(2, 3), 0),
    "M_2 over Z_(2,3) at 3": (lambda: _mnr_at(2, 3), 1),
}


@pytest.mark.parametrize("name", RADICAL_FAMILY)
def test_radical_matches_the_probe(name):
    """The trace conditions and the probe of every element of B/pB find
    one ideal with one e, maximal order or not."""
    build, j = RADICAL_FAMILY[name]
    order = build()
    prime = _custom_radical(order, j)
    assert (prime.ideal, prime.e) == probe_radical(order, j)


def test_custom_radical_of_an_unramified_order():
    # the radical is pB itself, so the power walk stops at e = 1
    base = BaseRing(QQ_FIELD, (padic(2),))
    mnr = builtin_mnr(2, base)
    custom = OrderData(mnr.lattice, mnr.alg, declared_maximal=True)
    p = radical(custom, 2)
    assert p.e == 1 and p.ideal == radical(mnr, 2).ideal


def test_custom_radical_requires_declaration(hurwitz):
    undeclared = OrderData(hurwitz.lattice, hurwitz.alg)
    with pytest.raises(MaximalityError):
        radical(undeclared, 2)


def test_nonmaximal_custom_rejected(hurwitz):
    # Z_(2) + 2*Hurwitz: a ring, but not maximal; the P^e = pB identity
    # fails and the declared certificate is refuted
    base = hurwitz.base
    rows = [hurwitz.alg.one_vector(QQ_FIELD)] + \
        [[fe(2) * e for e in row] for row in hurwitz.lattice.rows]
    small = canonicalize(base, 4, rows)
    order = OrderData(small, hurwitz.alg, declared_maximal=True)
    with pytest.raises(MaximalityError):
        radical(order, 2)


def test_induced_degree_minus_one(hurwitz, m2_order):
    p = radical(hurwitz, 2)
    assert induced_degree_minus_one([(p, 1)]).exps == (1,)
    assert induced_degree_minus_one([(p, 2)]).exps == (1,)
    assert induced_degree_minus_one([(p, 3)]).exps == (2,)
    rs = BaseRing(QQ_FIELD, (padic(2), padic(3)))
    m2s = builtin_mnr(2, rs)
    p2, p3 = radical(m2s, 2), radical(m2s, 3)
    assert induced_degree_minus_one([(p2, 1), (p3, 1)]).exps == (1, 1)
    with pytest.raises(SpecValidationError):
        induced_degree_minus_one([(p2, 1), (p2, 1)])


def test_degree_minus_one_cross_check(hurwitz):
    """The ceiling formula against a direct lattice intersection."""
    p = radical(hurwitz, 2)
    for k in range(1, 4):
        fa = maxorder_filtration(hurwitz, (k,))
        direct = fa._intersection_with_K(-1)
        assert direct == induced_degree_minus_one([(p, k)])


def test_maxorder_check_examples(hurwitz, m2_order):
    assert maxorder_strong_check(hurwitz, (2,)) is True
    assert maxorder_strong_check(hurwitz, (1,)) is False
    assert maxorder_strong_check(m2_order, (3,)) is True
    with pytest.raises(SpecValidationError):
        maxorder_strong_check(hurwitz, (-1,))


def test_maxorder_cross_check(hurwitz, m2_order):
    for order in (hurwitz, m2_order):
        for k in range(5):
            fa = maxorder_filtration(order, (k,))
            assert maxorder_strong_check(order, (k,)) == is_strong(fa)


def test_two_prime_scenario():
    rs = BaseRing(QQ_FIELD, (padic(2), padic(3)))
    m2s = builtin_mnr(2, rs)
    assert maxorder_strong_check(m2s, (1, 1)) is True
    fa = maxorder_filtration(m2s, (1, 1))
    assert is_strong(fa)
    fk = induced_on_K(fa)
    assert fk.phi(-1) == (-1, -1)


def test_radical_powers_identity(hurwitz, m2_order):
    for order in (hurwitz, m2_order):
        p = radical(order, 2 if order is hurwitz else 5)
        power = order.lattice
        for _ in range(p.e):
            power = mult(power, p.ideal, order.alg)
        pi = order.base.uniformizers[p.prime_index]
        assert power == order.lattice.scale(pi)


@pytest.mark.parametrize("build, message", [
    (lambda r5, b: span(r5, 4, b.rows[:2]),
     "an order must be a full lattice"),
    (lambda r5, b: b.scale(fe(5)), "an order must contain 1"),
    (lambda r5, b: add(b, span(r5, 4, [[fe(Fraction(1, 5)), fe(1), fe(0),
                                        fe(0)]])),
     "an order must be closed under multiplication"),
], ids=["rank 2", "5 M_2(Z_(5))", "row (1/5, 1, 0, 0)"])
def test_order_facts_have_one_message(build, message, f5, r5, b_m2, m2):
    """OrderData and AlgebraFiltration check the order facts with one
    validator, so an invalid lattice gets one message from both."""
    lat = build(r5, b_m2)
    with pytest.raises(SpecValidationError) as from_order:
        OrderData(lat, m2)
    with pytest.raises(SpecValidationError) as from_filtration:
        AlgebraFiltration(m2, f5, lat, mode="induced")
    assert str(from_order.value) == str(from_filtration.value) == message
