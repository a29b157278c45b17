import itertools
import math
import random
import re
import signal
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import GF, QQ, QQ_I, ZZ_I

from gliderbs import fields
from gliderbs.errors import (FieldMismatchError, ParseError,
                             SpecValidationError, UnsupportedError)
from gliderbs.fields import (GAUSS_FIELD, INF, QQ_FIELD, QX_FIELD,
                             QXY_FIELD, QY_FIELD, composite2, fp_func_field,
                             gauss_prime, inert_residue_field, padic,
                             poly_prime, prime_field, quot_field,
                             rational_value, xadic, yadic)


def test_val_padic_examples():
    v5 = padic(5)
    assert v5(QQ_FIELD.from_int(50)) == 2
    assert v5(QQ_FIELD.zero()) is INF
    assert v5(QQ_FIELD.parse("1/5")) == -1


def test_uniformizers():
    assert str(padic(5).uniformizer()) == "5"
    assert str(xadic(QX_FIELD).uniformizer()) == "x"
    assert str(gauss_prime("1+i").uniformizer()) == "1+i"
    with pytest.raises(UnsupportedError):
        composite2().uniformizer()


def test_uniformizer_pair():
    x, y = composite2().uniformizer_pair()
    assert (str(x), str(y)) == ("x", "y")
    c2 = composite2()
    assert c2(x) == (1, 0)
    assert c2(y) == (0, 1)


def test_composite_val_example():
    c2 = composite2()
    e = QXY_FIELD.parse("x^2*y^3 + x^3")
    assert c2(e) == (2, 3)


def test_residue_examples():
    v5 = padic(5)
    r = v5.residue(QQ_FIELD.parse("7/2"))
    assert str(r) == "1" and r.field.name == "F5"
    assert str(v5.residue(QQ_FIELD.one())) == "1"
    r2 = xadic(QXY_FIELD).residue(QXY_FIELD.parse("x+y"))
    assert str(r2) == "y" and r2.field.name == "Q(y)"
    with pytest.raises(UnsupportedError):
        v5.residue(QQ_FIELD.parse("1/5"))


def test_gauss_prime_cases():
    assert gauss_prime("1+i").case == "ramified"
    assert gauss_prime("3").case == "inert"
    assert gauss_prime("2+i").case == "split"
    with pytest.raises(UnsupportedError):
        gauss_prime("5")  # splits; 5 itself is not prime in Z[i]
    with pytest.raises(UnsupportedError):
        gauss_prime("1/2+i")


def test_gauss_valuations():
    w = gauss_prime("2+i")
    G = GAUSS_FIELD
    assert w(G.from_int(5)) == 1
    assert w(G.parse("2-i")) == 0
    assert w(G.parse("(2+i)^3")) == 3
    vr = gauss_prime("1+i")
    assert vr(G.from_int(2)) == 2
    vi = gauss_prime("3")
    assert vi(G.from_int(9)) == 2
    assert vi(G.parse("1+i")) == 0


def test_gauss_residues():
    vr = gauss_prime("1+i")
    assert str(vr.residue(GAUSS_FIELD.parse("3+2i"))) == "1"
    vs = gauss_prime("2+i")
    # i = -2 = 3 mod (2+i)
    assert str(vs.residue(GAUSS_FIELD.gen("i"))) == "3"
    vi = gauss_prime("3")
    r = vi.residue(GAUSS_FIELD.parse("4+5i"))
    assert str(r) == "1+2i" and r.field.name == "F3[i]"


@pytest.mark.parametrize("pi", ["2+i", "1+2i", "3+2i"])
def test_split_gauss_residue_is_a_ring_map(pi):
    """At a split prime pi | p the residue is additive and multiplicative
    on elements of value >= 0, also when p divides the denominator (then
    pi divides the numerator, and the factor p must be moved out)."""
    v = gauss_prime(pi)
    gen, i = v.uniformizer(), GAUSS_FIELD.gen("i")
    norm = {"2+i": 5, "1+2i": 5, "3+2i": 13}[pi]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30),
                              st.sampled_from([1, 2, 3, 7, norm, 3 * norm,
                                               norm ** 2, norm ** 3]),
                              st.integers(0, 2)), min_size=2, max_size=2))
    def ring_map(pairs):
        xs = []
        for a, b, den, extra in pairs:
            z = GAUSS_FIELD.from_fraction(Fraction(a, den)) + \
                GAUSS_FIELD.from_fraction(Fraction(b, den)) * i
            # pi^m z has value >= 0 and keeps p in its denominator
            m = extra + max(0, -v(z)) if z else 0
            xs.append(z * gen ** m)
        x, y = xs
        assert v(x) >= 0 and v(y) >= 0
        assert v.residue(x + y) == v.residue(x) + v.residue(y)
        assert v.residue(x * y) == v.residue(x) * v.residue(y)

    ring_map()


def test_poly_prime():
    g = poly_prime("x^2+1", QX_FIELD)
    e = QX_FIELD.parse("(x^2+1)^2/(x-1)")
    assert g(e) == 2
    r = g.residue(QX_FIELD.parse("x^3"))
    # x^3 = x*(x^2+1) - x, so the residue is -x
    assert str(r) == "-x"
    with pytest.raises(UnsupportedError):
        poly_prime("x^2-1", QX_FIELD)
    # a constant is no prime, and would never stop dividing
    for text in ("3", "0", "1/2"):
        with pytest.raises(UnsupportedError):
            poly_prime(text, QX_FIELD)
    with pytest.raises(UnsupportedError):
        poly_prime("2", fp_func_field(3))
    # over F_3 the residue field is F_3[x]/(x^2+1), and x^3 = x*(x^2+1) - x
    # has the residue -x = 2x, which lifts back to 2x
    f3x = fp_func_field(3)
    g3 = poly_prime("x^2+1", f3x)
    r = g3.residue(f3x.parse("x^3"))
    assert str(r) == "2*x" and r.field.name == "F3[x]/(g)"
    assert g3.lift(r) == f3x.parse("2*x")


def test_parse_print_roundtrip_examples():
    cases = {
        QQ_FIELD: ["7/2", "-3", "0"],
        GAUSS_FIELD: ["1+i", "-i", "2+3/4i", "1/2-5i"],
        QX_FIELD: ["x^2 + 1", "(1/2*x^2 + 1/2)/(x + 1)", "-x"],
        QXY_FIELD: ["x^3 + x^2*y^3", "(x*y)/(y + 1)"],
    }
    for field, texts in cases.items():
        for t in texts:
            e = field.parse(t)
            assert field.parse(str(e)) == e
            assert str(field.parse(str(e))) == str(e)


def test_parse_errors():
    with pytest.raises(ParseError):
        QQ_FIELD.parse("2 +")
    with pytest.raises(ParseError):
        QQ_FIELD.parse("x")
    with pytest.raises(ParseError):
        QX_FIELD.parse("$")


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        QQ_FIELD.one() + QX_FIELD.one()
    with pytest.raises(FieldMismatchError):
        padic(5)(QX_FIELD.one())


def test_fp_function_field():
    F = fp_func_field(5)
    e = F.parse("(x+7)/(x-1)")
    assert str(e) == "(x + 2)/(x + 4)"
    assert xadic(F)(F.parse("x^3")) == 3


nonzero_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50),
    max_denominator=40).filter(lambda r: r != 0)


@given(nonzero_rationals, nonzero_rationals)
def test_val_multiplicative(a, b):
    v = padic(5)
    x, y = QQ_FIELD.from_fraction(a), QQ_FIELD.from_fraction(b)
    assert v(x * y) == v(x) + v(y)


@given(nonzero_rationals, nonzero_rationals)
def test_ultrametric(a, b):
    v = padic(3)
    x, y = QQ_FIELD.from_fraction(a), QQ_FIELD.from_fraction(b)
    s = x + y
    lo = min(v(x), v(y))
    if s:
        assert v(s) >= lo
        if v(x) != v(y):
            assert v(s) == lo


@given(nonzero_rationals, nonzero_rationals)
def test_residue_multiplicative(a, b):
    v = padic(7)
    x, y = QQ_FIELD.from_fraction(a), QQ_FIELD.from_fraction(b)
    if v(x) == 0 and v(y) == 0:
        assert v.residue(x * y) == v.residue(x) * v.residue(y)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4))
def test_composite_additive(a1, b1, a2, b2):
    c2 = composite2()
    F = QXY_FIELD
    u = F.parse("x") ** a1 * F.parse("y") ** b1 * F.parse("1+x")
    w = F.parse("x") ** a2 * F.parse("y") ** b2 * F.parse("(2+y)/(3+x*y)")
    va, vb = c2(u), c2(w)
    assert c2(u * w) == (va[0] + vb[0], va[1] + vb[1])


# ---------------------------------------------------------------------------
# field laws on every field kind
# ---------------------------------------------------------------------------

F3X = fp_func_field(3)
F5 = prime_field(5)
F3I = inert_residue_field(3)
QUOT = quot_field([1, 0, 1])  # Q[x]/(x^2+1)

# (field, characteristic) for each of the seven field kinds; F_p(x) is the
# one-variable kind in characteristic p
LAW_FIELDS = {"Q": (QQ_FIELD, 0), "Q(i)": (GAUSS_FIELD, 0),
              "Q(x)": (QX_FIELD, 0), "F3(x)": (F3X, 3),
              "Q(x,y)": (QXY_FIELD, 0), "F5": (F5, 5), "F3[i]": (F3I, 3),
              "Q[x]/(x^2+1)": (QUOT, 0)}


def _coefficients(char):
    if char:
        return st.integers(-6, 6).map(Fraction)
    return st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _elements(draw, field, char):
    """Sums of coefficient times a product of small generator powers."""
    gens = [field.gen(name) for name in field.generator_names()]
    out = field.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = field.from_fraction(draw(_coefficients(char)))
        for g in gens:
            term = term * g ** draw(st.integers(0, 2))
        out = out + term
    return out


def _same(x, y):
    # the laws compare values; `==` agrees with them
    # (test_equality_and_hash_follow_the_value)
    return not (x - y)


@pytest.mark.parametrize("name", sorted(LAW_FIELDS))
def test_field_laws(name):
    field, char = LAW_FIELDS[name]
    elems = _elements(field, char)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(elems, elems, elems)
    def laws(a, b, c):
        zero, one = field.zero(), field.one()
        assert _same((a + b) + c, a + (b + c)) and _same(a + b, b + a)
        assert _same((a * b) * c, a * (b * c)) and _same(a * b, b * a)
        assert _same(a * (b + c), a * b + a * c)
        assert _same(-a + a, zero) and _same(a - b, a + (-b))
        assert _same(a + zero, a) and _same(a * one, a)
        assert not (a * zero) and bool(one) and not zero
        if b:
            assert _same((a / b) * b, a) and _same(b ** -2 * b * b, one)
        with pytest.raises(ZeroDivisionError):
            a / zero

    laws()


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(x)", "F3(x)", "Q(x,y)"])
def test_equality_and_hash_follow_the_value(name):
    """On Q, Q(i), the one-variable function fields and Q(x,y), `==` and
    `hash` agree with `not (a - b)`: a value has one rep however it was
    computed (over F_3, 2/(2x) and 1/x)."""
    field, char = LAW_FIELDS[name]
    elems = _elements(field, char)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(elems, elems, elems)
    def agree(a, b, c):
        pairs = [(a, b), (a + b, b + a)]
        if c:
            pairs += [(a, a * c / c), ((a + b) / c, a / c + b / c)]
            if b:
                pairs.append((a / b, (a * c) / (b * c)))
        for x, y in pairs:
            assert (x == y) is (not (x - y))
            if x == y:
                assert hash(x) == hash(y)

    agree()
    names = field.generator_names()
    two = field.from_int(2)
    x = field.gen(names[0]) if names else field.from_int(3)
    assert two / (two * x) == field.one() / x


@pytest.mark.parametrize("v", [padic(5), xadic(F3X)],
                         ids=lambda v: v.name)
def test_a_wrong_lift_raises_instead_of_spinning(v, monkeypatch):
    """Each digit of the principal part must raise the value of what is
    left; a wrong residue lift raises UnsupportedError within a second."""
    right_lift = v.lift
    monkeypatch.setattr(v, "lift", lambda r: right_lift(r) + 1)

    def spinning(*_):
        raise TimeoutError("the digit loop did not stop")

    field = v.field
    h = field.one() / v.uniformizer() ** 2
    old = signal.signal(signal.SIGALRM, spinning)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(UnsupportedError, match=re.escape(v.name)):
            v.strip_principal_part(field.zero(), h)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("name", sorted(LAW_FIELDS))
def test_mixed_fields_raise(name):
    field, _ = LAW_FIELDS[name]
    other = GAUSS_FIELD if field is QQ_FIELD else QQ_FIELD
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(FieldMismatchError):
            getattr(field.one(), op)(other.one())


def test_zero_and_one_are_built_once():
    for field, _ in LAW_FIELDS.values():
        assert field.zero() is field.zero() and field.one() is field.one()
        assert field.from_int(0) == field.zero()
        assert field.from_int(1) == field.one()


@pytest.mark.parametrize("n, d", [(-6, 4), (6, -4), (-10, -14), (12, 8),
                                  (0, 7), (-1, 1)])
def test_from_fraction_matches_the_domain(n, d):
    """A rational's rep on Q, Q(i) and F_p(x), negative or given in
    non-reduced form, is the one canonical rep of its value, with sympy's
    `QQ` as the reference: over Q the `Fraction` itself; over Q(i) the int
    triple (n, 0, d) in lowest terms with d > 0; over F_3(x) the pair
    (n/d mod 3, 1) of `_Poly`."""
    q, ref = Fraction(n, d), QQ(n, d)
    f3 = fields._poly_class(3)
    c = q.numerator * pow(q.denominator, -1, 3) % 3
    num, den = int(ref.numerator), int(ref.denominator)
    expected = {QQ_FIELD: Fraction(num, den),
                GAUSS_FIELD: (num, 0, den),
                F3X: (f3((c,) if c else ()), f3((1,)))}
    for field, want in expected.items():
        got = field.from_fraction(q).rep
        assert got == want and type(got) is type(want)
        if field is GAUSS_FIELD:
            assert [type(x) for x in got] == [int, int, int]
        if field is F3X:
            assert [type(x) for x in got] == [f3, f3]


# a float or a bool at the scalar boundary: each is rejected, not rounded
NOT_RATIONAL = [(QQ_FIELD, 0.1), (GAUSS_FIELD, 0.5), (F3X, 0.5),
                (QQ_FIELD, True), (GAUSS_FIELD, False), (F3X, 1.0)]
NOT_RATIONAL_IDS = [f"{f.name}-{v!r}" for f, v in NOT_RATIONAL]


@pytest.mark.parametrize("field, value", NOT_RATIONAL,
                         ids=NOT_RATIONAL_IDS)
def test_from_fraction_takes_only_ints_and_fractions(field, value):
    with pytest.raises(SpecValidationError, match="int or a Fraction"):
        field.from_fraction(value)


@pytest.mark.parametrize("field, value", NOT_RATIONAL,
                         ids=NOT_RATIONAL_IDS)
def test_from_int_takes_only_ints_and_fractions(field, value):
    with pytest.raises(SpecValidationError, match="int or a Fraction"):
        field.from_int(value)
    assert field.from_int(3) == field.from_fraction(Fraction(3))


@pytest.mark.parametrize("field, value", NOT_RATIONAL[3:5],
                         ids=NOT_RATIONAL_IDS[3:5])
def test_an_element_takes_no_bool(field, value):
    one = field.one()
    for op in (lambda: one + value, lambda: value * one,
               lambda: one - value):
        with pytest.raises(SpecValidationError, match="int or a Fraction"):
            op()
    assert one != value and not one == value
    assert one + int(value) == field.from_int(1 + int(value))


def test_finite_denominators_raise():
    for field in (F5, F3I, F3X):
        with pytest.raises(FieldMismatchError):
            field.from_fraction(Fraction(1, 3 if field is not F5 else 5))


def test_finite_fields_list_their_elements():
    assert [str(e) for e in F5.elements()] == ["0", "1", "2", "3", "4"]
    assert [str(e) for e in F3I.elements()] == [
        "0", "i", "2i", "1", "1+i", "1+2i", "2", "2+i", "2+2i"]
    assert F5.elements() is F5.elements()
    for field in (QQ_FIELD, GAUSS_FIELD, F3X, QUOT):
        with pytest.raises(UnsupportedError):
            field.elements()


# (p, monic g low to high) -> F_q = F_p[t]/(g), q = p^deg g
FQ_MODULI = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1)),
             25: (5, (2, 0, 1)), 27: (3, (1, 2, 0, 1))}


def _table_mul(a, b, p, g):
    """a b mod (p, g) on coefficient tuples, low to high: the schoolbook
    product, then the top coefficients cleared by the monic g."""
    n = len(g) - 1
    c = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for k in reversed(range(n, len(c))):
        top, c[k] = c[k], 0
        for j in range(n):
            c[k - n + j] -= top * g[j]
    return tuple(x % p for x in c[:n])


@pytest.mark.parametrize("q", sorted(FQ_MODULI))
def test_finite_quotient_fields_match_tables(q):
    """Every sum, product and inverse in F_p[t]/(g) agrees with int tuples
    multiplied mod (p, g), and the field lists its q elements in the
    order of the tuples, constant coefficient outermost."""
    p, g = FQ_MODULI[q]
    field = quot_field(g, p, "t")
    assert field.name == f"F{p}[t]/(g)" and field.char == p
    t = field.gen("t")
    tuples = list(itertools.product(range(p), repeat=len(g) - 1))
    elem = {cs: sum((field.from_int(c) * t ** k for k, c in enumerate(cs)),
                    field.zero()) for cs in tuples}
    assert list(field.elements()) == [elem[cs] for cs in tuples]
    assert len(set(field.elements())) == q
    unit = (1,) + (0,) * (len(g) - 2)
    assert elem[unit] == field.one()
    for a in tuples:
        for b in tuples:
            total = tuple((x + y) % p for x, y in zip(a, b))
            assert elem[a] + elem[b] == elem[total]
            assert elem[a] * elem[b] == elem[_table_mul(a, b, p, g)]
        if any(a):
            inv = [b for b in tuples if _table_mul(a, b, p, g) == unit]
            assert len(inv) == 1 and elem[a] ** -1 == elem[inv[0]]
    with pytest.raises(ZeroDivisionError):
        field.one() / field.zero()


def test_f3i_is_the_quotient_by_t2_plus_1():
    """F_3[i] is F_3[t]/(t^2+1) under the generator name i: the same
    element order, printed as a+bi."""
    assert F3I.char == 3 and F3I.generator_names() == ("i",)
    i = F3I.gen("i")
    assert i * i == -F3I.one()
    assert list(F3I.elements()) == [
        F3I.from_int(a) + F3I.from_int(b) * i
        for a, b in itertools.product(range(3), repeat=2)]
    assert str(F3I.one() + 2 * i) == "1+2i"
    with pytest.raises(UnsupportedError, match="p = 3 mod 4"):
        inert_residue_field(5)


# str() of fixed elements, recorded before each field kind got its own
# implementation object
PRINTED = {
    "Q": (["0", "7/2", "-3", "1/3 - 1/2", "(2/3)^-2"],
          ["0", "7/2", "-3", "-1/6", "9/4"]),
    "Q(i)": (["0", "1+i", "-i", "2+3/4i", "1/2-5i", "(1+i)/(1-i)",
              "(2+i)^-1", "-3/2-i"],
             ["0", "1+i", "-i", "2+3/4i", "1/2-5i", "i", "2/5-1/5i",
              "-3/2-i"]),
    "Q(x)": (["0", "x^2+1", "(x^2+1)/(2*x+2)", "-x", "1/x - x",
              "(3*x^2 - 1/2)/(-x+4)"],
             ["0", "x^2 + 1", "(1/2*x^2 + 1/2)/(x + 1)", "-x",
              "(-x^2 + 1)/(x)", "(-3*x^2 + 1/2)/(x - 4)"]),
    "F3(x)": (["0", "x^3 + 5*x", "(2*x+1)/(x+2)", "1/x", "-x^2 - 1",
               "(x+1)^3/(2*x)"],
              ["0", "x^3 + 2*x", "2", "(1)/(x)", "2*x^2 + 2",
               "(2*x^3 + 2)/(x)"]),
    "Q(x,y)": (["0", "x^3 + x^2*y^3", "(x*y)/(y+1)", "(2*x - y)/(3*x*y)",
                "-y^2 + x - 1/2"],
               ["0", "x^3 + x^2*y^3", "(x*y)/(y + 1)",
                "(2/3*x - 1/3*y)/(x*y)", "x - y^2 - 1/2"]),
    "F5": (["0", "3", "7", "1/2", "-1", "3/4", "2^-1"],
           ["0", "3", "2", "3", "4", "2", "3"]),
    "F3[i]": (["0", "i", "1+i", "2+2i", "(1+i)^-1", "-i", "2",
               "(2+i)*(1+2i)"],
              ["0", "i", "1+i", "2+2i", "2+i", "2i", "2", "2i"]),
    "Q[x]/(x^2+1)": (["0", "x", "x^2", "x^3 + 1/2", "1/(1+x)", "-x",
                      "-3/2*x + 2", "(x+2)^3"],
                     ["0", "x", "-1", "-x + 1/2", "-1/2*x + 1/2", "-x",
                      "-3/2*x + 2", "11*x + 2"]),
}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_printed_forms(name):
    field, _ = LAW_FIELDS[name]
    texts, printed = PRINTED[name]
    assert [str(field.parse(t)) for t in texts] == printed


@pytest.mark.parametrize("field", [
    QQ_FIELD, GAUSS_FIELD, QX_FIELD, QXY_FIELD, fp_func_field(3),
    prime_field(5), inert_residue_field(3), quot_field([1, 0, 1])],
    ids=lambda f: f.name)
def test_elements_are_immutable(field):
    x = field.from_int(2)
    assert x.field is field and not field.from_int(0)
    for name in ("field", "rep"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
    assert x == field.from_int(2) and x - field.from_int(2) == field.zero()


# ---------------------------------------------------------------------------
# one-variable function fields against sympy's fraction field
# ---------------------------------------------------------------------------

# field -> its polynomial prime, as text, and as coefficients low to high
FUNC_PRIMES = {fp_func_field(3): ("x+2", (2, 1)),
               fp_func_field(5): ("x+2", (2, 1)),
               QX_FIELD: ("x^2+1", (1, 0, 1)),
               QY_FIELD: ("y^2+1", (1, 0, 1))}


class _Reference:
    """One field's elements twice: as library elements and as elements of
    sympy's `frac_field` over QQ or GF(p), the reference."""

    def __init__(self, field):
        self.field, self.p = field, field.char
        var = field.generator_names()[0]
        self.dom = (GF(self.p) if self.p else QQ).frac_field(
            sympy.Symbol(var))
        self.gen, self.ref_gen = field.gen(var), self.dom(sympy.Symbol(var))

    def coefficient(self, c):
        return self.dom(int(c)) if self.p else \
            self.dom(QQ(c.numerator, c.denominator))

    def poly(self, cs):
        """(library element, reference) of the polynomial sum cs[i] x^i."""
        elem, ref = self.field.zero(), self.dom(0)
        for i, c in enumerate(cs):
            elem = elem + self.field.from_fraction(c) * self.gen ** i
            ref = ref + self.coefficient(c) * self.ref_gen ** i
        return elem, ref

    def draw(self, rnd):
        """A random quotient of polynomials of degree at most 2."""
        def coeffs():
            if self.p:
                return [Fraction(rnd.randint(-4, 4)) for _ in range(3)]
            return [Fraction(rnd.randint(-4, 4), rnd.choice([1, 2, 3]))
                    for _ in range(3)]

        num = self.poly(coeffs())
        while True:
            den = self.poly(coeffs())
            if den[0]:
                return num[0] / den[0], num[1] / den[1]

    def fraction(self, c):
        """A coefficient of a reference polynomial as a `Fraction` (over
        GF(p) its least residue)."""
        return Fraction(int(c) % self.p) if self.p else \
            Fraction(int(c.numerator), int(c.denominator))

    def coeffs(self, poly):
        """{exponent: Fraction} of a reference polynomial."""
        return {m[0]: self.fraction(c) for m, c in poly.terms()}

    def show(self, ref):
        """The printed form of the reference: over a monic denominator."""
        num, den = self.coeffs(ref.numer), self.coeffs(ref.denom)
        lead = den[max(den)]
        if self.p:
            inv = pow(int(lead), -1, self.p)
            num, den = [{e: c * inv % self.p for e, c in x.items()}
                        for x in (num, den)]
        else:
            num, den = [{e: c / lead for e, c in x.items()}
                        for x in (num, den)]
        var = (self.field.generator_names()[0],)
        num_s, den_s = [fields._print_terms(
            [((e,), c) for e, c in x.items() if c], var, self.p)
            for x in (num, den)]
        return num_s if list(den) == [0] else f"({num_s})/({den_s})"

    def value_at_gen(self, ref):
        return min(self.coeffs(ref.numer)) - min(self.coeffs(ref.denom))

    def residue_at_gen(self, ref):
        num, den = self.coeffs(ref.numer), self.coeffs(ref.denom)
        n, d = num[min(num)], den[min(den)]
        return n * pow(int(d), -1, self.p) % self.p if self.p else n / d

    def value_at_prime(self, ref, g):
        def count(poly):
            v = 0
            while True:
                q, r = poly.div(g)
                if r:
                    return v
                poly, v = q, v + 1

        return count(ref.numer) - count(ref.denom)


@pytest.mark.parametrize("field", list(FUNC_PRIMES), ids=lambda f: f.name)
def test_function_fields_match_sympy(field):
    """Seeded elements of F_3(x), F_5(x), Q(x) and Q(y) and their sums,
    products and quotients agree with sympy's fraction field: printed
    forms, == and hash, values and residues at the generator and at a
    polynomial prime."""
    ref = _Reference(field)
    rnd = random.Random(f"func-{field.name}")
    text, g_coeffs = FUNC_PRIMES[field]
    at_gen = xadic(field) if field is not QY_FIELD else yadic(field)
    at_g = poly_prime(text, field)
    g_ref = ref.poly([Fraction(c) for c in g_coeffs])[1].numer
    k_g = at_g.residue_field()
    for _ in range(40):
        (a, ra), (b, rb) = ref.draw(rnd), ref.draw(rnd)
        results = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb),
                   (a * b, ra * rb)]
        if b:
            results.append((a / b, ra / rb))
        for x, rx in results:
            assert str(x) == ref.show(rx)
            assert field.parse(str(x)) == x
            if not x:
                continue
            assert at_gen(x) == ref.value_at_gen(rx)
            if at_gen(x) == 0:
                assert rational_value(at_gen.residue(x)) == \
                    ref.residue_at_gen(rx)
            assert at_g(x) == ref.value_at_prime(rx, g_ref)
            if at_g(x) == 0:
                # the residue r of num/den at g: r * [den] = [num] in the
                # residue field, the classes read off sympy's remainders
                num, den = [ref.coeffs(y.rem(g_ref))
                            for y in (rx.numer, rx.denom)]
                if field.char:
                    num, den = [k_g.from_fraction(y.get(0, Fraction(0)))
                                for y in (num, den)]
                else:
                    gen = k_g.gen("x")
                    num, den = [sum((k_g.from_fraction(c) * gen ** e
                                     for e, c in y.items()), k_g.zero())
                                for y in (num, den)]
                assert at_g.residue(x) * den == num
        assert (a == b) is (not (ra - rb))
        for x, y in ((a * b / b if b else a, a), (a + b - b, a)):
            assert x == y and hash(x) == hash(y)


def test_function_field_arithmetic_calls_no_sympy():
    """Arithmetic, values, residues, parsing and printing on Q, Q(i),
    F_3(x) and Q(x) elements run no function of a sympy module, once the
    fields and valuations are built: Q at 5, Q(i) at 1+i, 3 and 2+i, and
    F_3(x) and Q(x) at x and at a polynomial prime."""
    # field -> (x, a literal, valuations)
    cases = {field: (field.gen("x"), "(x^3 - 1)/(x^2 + 1)",
                     [xadic(field), poly_prime(prime, field)])
             for field, prime in ((F3X, "x+2"), (QX_FIELD, "x^2+1"))}
    cases[QQ_FIELD] = (QQ_FIELD.parse("-7/10"), "(7/3 - 1)/(5/2)",
                       [padic(5)])
    cases[GAUSS_FIELD] = (GAUSS_FIELD.gen("i"), "(2+i)^3/(1-3i)",
                          [gauss_prime(pi) for pi in ("1+i", "3", "2+i")])
    for _, _, vals in cases.values():
        for v in vals:
            v.residue_field()
    called = []

    def profile(frame, event, arg):
        if event == "call" and \
                frame.f_globals.get("__name__", "").startswith("sympy"):
            called.append(frame.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        for field, (x, text, vals) in cases.items():
            two = field.from_int(2)
            a = (x * x + two) / (two * x + 1)
            b = a - x / (x + 1) + field.parse(text)
            for e in (a, b, a * b, a / b, -a, b ** -2):
                str(e)
                e == b and hash(e)
                for v in vals:
                    if v(e) >= 0:
                        str(v.residue(e))
    finally:
        sys.setprofile(old)
    assert called == []


# ---------------------------------------------------------------------------
# Q(i) against sympy's QQ_I
# ---------------------------------------------------------------------------

def _ref_fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def _ref_show(z):
    """The printed form of z in QQ_I: a+bi, with i for 1i."""
    re_part, im_part = _ref_fraction(z.x), _ref_fraction(z.y)
    im = {1: "i", -1: "-i"}.get(im_part, f"{im_part}i")
    if not im_part:
        return str(re_part)
    return im if not re_part else \
        f"{re_part}{'' if im_part < 0 else '+'}{im}"


def _ref_value(z, pi):
    """The value of z != 0 in QQ_I at the Gaussian prime pi in ZZ_I, by
    exact division of its numerator and denominator in ZZ_I."""
    def count(n):
        k = 0
        while not ZZ_I.rem(n, pi):
            n, k = ZZ_I.quo(n, pi), k + 1
        return k

    return count(QQ_I.numer(z)) - count(ZZ_I(QQ_I.denom(z), 0))


def _ref_residue(z, pi, k):
    """The residue in k of z in QQ_I of value 0 at pi: numerator and
    denominator rid of their factors pi, each a+bi read into k with i the
    root of x^2+1 at which pi vanishes (over F_p[i], its generator)."""
    def image(n, root):
        return k.from_int(int(n.x)) + k.from_int(int(n.y)) * root

    roots = [k.gen("i")] if k.generator_names() else k.elements()
    root = next(r for r in roots if not r * r + 1 and not image(pi, r))

    def part(n):
        while not ZZ_I.rem(n, pi):
            n = ZZ_I.quo(n, pi)
        return image(n, root)

    return part(QQ_I.numer(z)) / part(ZZ_I(QQ_I.denom(z), 0))


def test_gauss_field_matches_sympy():
    """Seeded elements of Q(i) and their sums, differences, products and
    quotients agree with sympy's QQ_I: the canonical triple (a, b, d),
    d > 0 and gcd(a, b, d) = 1, printed forms and their parse, == and
    hash, and values and residues at 1+i, 3 and 2+i."""
    rnd = random.Random("gauss-triples")
    primes = [(gauss_prime(text), ZZ_I(a, b))
              for text, a, b in (("1+i", 1, 1), ("3", 3, 0), ("2+i", 2, 1))]
    i = GAUSS_FIELD.gen("i")

    def draw():
        a, b = rnd.randint(-30, 30), rnd.randint(-30, 30)
        d = rnd.choice([1, 2, 3, 4, 5, 6, 9, 10, 12, 25])
        x = GAUSS_FIELD.from_fraction(Fraction(a, d)) + \
            GAUSS_FIELD.from_fraction(Fraction(b, d)) * i
        return x, QQ_I(QQ(a, d), QQ(b, d))

    for _ in range(60):
        (x, rx), (y, ry) = draw(), draw()
        results = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry),
                   (x * y, rx * ry)]
        if y:
            results.append((x / y, rx / ry))
        for z, rz in results:
            a, b, d = z.rep
            assert d > 0 and math.gcd(a, b, d) == 1
            assert (Fraction(a, d), Fraction(b, d)) == \
                (_ref_fraction(rz.x), _ref_fraction(rz.y))
            assert str(z) == _ref_show(rz)
            assert GAUSS_FIELD.parse(str(z)) == z
            if not rz:
                continue
            for v, pi in primes:
                assert v(z) == _ref_value(rz, pi)
                if v(z) == 0:
                    assert v.residue(z) == \
                        _ref_residue(rz, pi, v.residue_field())
        assert (x == y) is (rx == ry)
        for z, w in ((x * y / y if y else x, x), (x + y - y, x)):
            assert z == w and hash(z) == hash(w)
