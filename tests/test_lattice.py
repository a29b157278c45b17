import random
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import pytest

from gliderbs import linalg
from gliderbs.errors import (BaseMismatchError, ContainmentError, RankError,
                             SpecValidationError, UnsupportedError)
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.lattice import (ZERO_MODULE, BaseRing, FracIdeal, _killing_prime,
                              _QuotientSpace, add, canonicalize, colon_left,
                              colon_right, intersect, intermediate_module,
                              is_simple_quotient, matrix_algebra, mult,
                              quaternion_algebra, quotient_length, span)
from gliderbs.orders import builtin_hurwitz2, builtin_mnr


def fe(n):
    return QQ_FIELD.from_fraction(Fraction(n))


def identity_rows(d):
    return [[fe(1 if i == j else 0) for j in range(d)] for i in range(d)]


def hurwitz_lattice():
    base = BaseRing(QQ_FIELD, (padic(2),))
    h = QQ_FIELD.parse("1/2")
    rows = identity_rows(4)[:3] + [[h, h, h, h]]
    return canonicalize(base, 4, rows), base


def test_canonicalize_identity(r5, b_m2):
    assert b_m2.rows == tuple(tuple(r) for r in identity_rows(4))


def test_canonicalize_absorbs_redundant(r5, b_m2):
    gens = identity_rows(4) + [[fe(5) * e for e in row]
                               for row in identity_rows(4)[:2]]
    assert canonicalize(r5, 4, gens) == b_m2


def test_canonicalize_rejects_rank_deficient(r5):
    with pytest.raises(RankError):
        canonicalize(r5, 4, identity_rows(4)[:3])


def test_hurwitz_golden_values():
    lam, base = hurwitz_lattice()
    # the rows are in Hermite normal form: the determinant is the product
    # of the diagonal
    d = fe(1)
    for i, row in enumerate(lam.rows):
        d = d * row[i]
    assert padic(2)(d) == -1
    alg = quaternion_algebra(-1, -1)
    assert mult(lam, lam, alg) == lam
    one_plus_i = [fe(1), fe(1), fe(0), fe(0)]
    p = span(base, 4, [alg.mul_coords(one_plus_i, r, QQ_FIELD)
                       for r in lam.rows])
    assert quotient_length(lam, p) == 2
    assert mult(p, p, alg) == lam.scale(fe(2))
    assert colon_left(p, p, alg) == lam


def test_add_intersect_examples(r5, b_m2, m2):
    l5 = b_m2.scale(fe(5))
    assert add(l5, b_m2) == b_m2
    assert intersect(l5, b_m2) == l5
    assert add(b_m2, b_m2) == b_m2
    assert intersect(b_m2, b_m2) == b_m2


def test_intersect_with_rank_zero_lattices(r5, b_m2):
    zero, other_zero = span(r5, 4, []), span(r5, 4, [[fe(0)] * 4])
    assert intersect(zero, other_zero).rank == 0
    assert intersect(zero, b_m2).rank == intersect(b_m2, zero).rank == 0


def test_mult_examples(r5, b_m2, m2):
    assert mult(b_m2, b_m2, m2) == b_m2
    l5 = b_m2.scale(fe(5))
    inv5 = b_m2.scale(QQ_FIELD.parse("1/5"))
    assert mult(l5, inv5, m2) == b_m2


def test_colon_examples(r5, b_m2, m2):
    assert colon_left(b_m2, b_m2, m2) == b_m2
    l5 = b_m2.scale(fe(5))
    assert colon_left(l5, b_m2, m2) == l5
    assert colon_right(b_m2, b_m2, m2) == b_m2


def test_quotient_length_examples(r5, b_m2):
    one = canonicalize(r5, 1, [[fe(1)]])
    assert quotient_length(one, one.scale(fe(5))) == 1
    assert quotient_length(b_m2, b_m2.scale(fe(5))) == 4
    with pytest.raises(ContainmentError):
        quotient_length(b_m2.scale(fe(5)), b_m2)


def _length_bases():
    from gliderbs.fields import (GAUSS_FIELD, QX_FIELD, fp_func_field,
                                 gauss_prime, poly_prime, xadic)

    f3 = fp_func_field(3)
    return {
        "Q at 5": BaseRing(QQ_FIELD, (padic(5),)),
        "Q at 2,3": BaseRing(QQ_FIELD, (padic(2), padic(3))),
        "Q(x) at x": BaseRing(QX_FIELD, (xadic(QX_FIELD),)),
        "Q(x) at x^2+1": BaseRing(QX_FIELD, (poly_prime("x^2+1"),)),
        "F_3(x) at x": BaseRing(f3, (xadic(f3),)),
        "Q(i) at 3": BaseRing(GAUSS_FIELD, (gauss_prime("3"),)),
        "Q(i) at 1+i": BaseRing(GAUSS_FIELD, (gauss_prime("1+i"),)),
    }


def _det(m, field):
    """Laplace expansion along the first row: the reference determinant."""
    if not m:
        return field.one()
    out = field.zero()
    for j, a in enumerate(m[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = a * _det(minor, field)
            out = out - term if j % 2 else out + term
    return out


def _length_pairs(base, rnd, count):
    """(X, Y) with Y a random sublattice of X of the same K-span: X is
    spanned by `rank` random vectors in K^dim, Y by integral combinations
    of X's rows, each combination times a random uniformizer power."""
    field = base.field
    gens = [field.one()] + list(base.uniformizers) + \
        [field.gen(n) for n in field.generator_names()]

    def elem():
        out = field.zero()
        for g in gens:
            out = out + field.from_int(rnd.randint(-2, 2)) * g
        return out

    out = []
    while len(out) < count:
        dim = rnd.randint(2, 4)
        rank = rnd.choice([dim, dim, dim - 1])
        pi = rnd.choice(base.uniformizers)
        x = span(base, dim, [[elem() / pi if rnd.random() < 0.3 else elem()
                              for _ in range(dim)] for _ in range(rank)])
        t = []
        for _ in range(x.rank):
            scale = rnd.choice(base.uniformizers) ** rnd.randint(0, 2)
            t.append([elem() * scale for _ in range(x.rank)])
        y = span(base, dim, [[sum((c * r[k] for c, r in zip(trow, x.rows)),
                                  field.zero()) for k in range(dim)]
                             for trow in t])
        if x.rank == rank and y.rank == rank:
            out.append((x, y))
    return out


@pytest.mark.parametrize("name", list(_length_bases()))
def test_quotient_length_is_the_valuation_of_the_determinant(name):
    base = _length_bases()[name]
    rnd = random.Random(name)
    for x, y in _length_pairs(base, rnd, 6):
        q = [x.coords(r) for r in y.rows]
        d = _det(q, base.field)
        assert quotient_length(x, y) == sum(v(d) for v in base.valuations)
        for j, pi in enumerate(base.uniformizers):
            e = rnd.randint(1, 3)
            assert quotient_length(x, x.scale(pi ** e)) == e * x.rank
            assert quotient_length(y, y.scale(pi ** e)) == e * y.rank
        assert quotient_length(x, x) == 0


@pytest.mark.parametrize("name", list(_length_bases()))
def test_quotient_length_errors(name):
    base = _length_bases()[name]
    x, y = next(p for p in _length_pairs(base, random.Random(name), 5)
                if p[0].rank > 1)
    pi = base.uniformizers[0]
    assert quotient_length(ZERO_MODULE, ZERO_MODULE) == 0
    with pytest.raises(ContainmentError, match=r"^X/Y has infinite length: "
                                               r"Y spans less than X$"):
        quotient_length(x, ZERO_MODULE)
    with pytest.raises(ContainmentError, match=r"^Y is not contained in X$"):
        quotient_length(ZERO_MODULE, y)
    with pytest.raises(ContainmentError, match=r"^Y is not contained in X$"):
        quotient_length(x, x.scale(base.field.one() / pi))
    line = span(base, x.dim, [x.rows[0]])
    for a, b in ((line, x), (x, line)):
        with pytest.raises(ContainmentError,
                           match=r"^Y is not contained in X with equal "
                                 r"span$"):
            quotient_length(a, b)


def test_base_mismatch(r5, b_m2):
    other = BaseRing(QQ_FIELD, (padic(2),))
    lat2 = canonicalize(other, 4, identity_rows(4))
    with pytest.raises(BaseMismatchError):
        add(b_m2, lat2)


def test_simple_quotient_examples(r5, b_m2, m2):
    one = canonicalize(r5, 1, [[fe(1)]])
    assert is_simple_quotient(one, one.scale(fe(5)), one, matrix_algebra(1))
    col = span(r5, 4, [identity_rows(4)[0], identity_rows(4)[2]])
    assert is_simple_quotient(col, col.scale(fe(5)), b_m2, m2)
    assert not is_simple_quotient(b_m2, b_m2.scale(fe(5)), b_m2, m2)
    assert not is_simple_quotient(col, col.scale(fe(25)), b_m2, m2)
    w = intermediate_module(col, col.scale(fe(25)), b_m2, m2)
    assert w == col.scale(fe(5))


def _quotient_orders():
    def local(p):
        return BaseRing(QQ_FIELD, (padic(p),))

    return [("M_2(Z_(5))", builtin_mnr(2, local(5)), 5),
            ("M_2(Z_(2))", builtin_mnr(2, local(2)), 2),
            ("M_3(Z_(2))", builtin_mnr(3, local(2)), 2),
            ("Hurwitz", builtin_hurwitz2(), 2)]


def _stable_pairs(order, p, rnd, count):
    """B-stable pairs pX <= Y <= X: X = B*(generators), half of the time
    one rank-1 matrix over a matrix algebra, and Y = pX + B*(elements of
    X with digits below p)."""
    b, alg = order.lattice, order.alg
    base, d = b.base, alg.dim
    for _ in range(count):
        n = alg.n if alg.kind == "matrix" else 0
        if n and rnd.random() < 0.5:
            col = [rnd.randint(-3, 3) for _ in range(n)]
            row = [rnd.randint(-3, 3) for _ in range(n)]
            gens = [[fe(c * r) for c in col for r in row]]
        else:
            gens = [[fe(rnd.randint(-3, 3)) for _ in range(d)]
                    for _ in range(rnd.randint(1, 2))]
        if not any(any(g) for g in gens):
            gens = [[fe(1)] + [fe(0)] * (d - 1)]
        x = mult(b, span(base, d, gens), alg)
        elems = []
        for _ in range(rnd.randint(0, 2)):
            cs = [fe(rnd.randint(0, p - 1)) for _ in x.rows]
            elems.append([sum((c * r[k] for c, r in zip(cs, x.rows)), fe(0))
                          for k in range(d)])
        y = x.scale(fe(p))
        if any(any(e) for e in elems):
            y = add(y, mult(b, span(base, d, [e for e in elems if any(e)]),
                            alg))
        yield x, y


# verdicts of the seeded sample, one letter per pair: S simple, n not
# simple, = X equals Y (not simple either)
QUOTIENT_VERDICTS = {
    "M_2(Z_(5))": "==S=SnnS=n=SSS==",
    "M_2(Z_(2))": "SS==SS==nSSSS===",
    "M_3(Z_(2))": "=S=nnn==S=S===SS",
    "Hurwitz": "=nSnn==nnn==nn==",
}


def test_simple_quotient_verdicts_and_witnesses():
    rnd = random.Random(11)
    for name, order, p in _quotient_orders():
        b, alg = order.lattice, order.alg
        got = []
        for x, y in _stable_pairs(order, p, rnd, 16):
            simple = is_simple_quotient(x, y, b, alg)
            got.append("=" if x == y else "S" if simple else "n")
            if got[-1] == "n":
                w = intermediate_module(x, y, b, alg)
                assert w.contains(mult(b, w, alg))
                assert x.contains(w) and w.contains(y)
                assert w != x and w != y
        assert "".join(got) == QUOTIENT_VERDICTS[name], name


def _j_order(p):
    """Z_(p)[J] for J = [[0, -1], [1, 0]] inside M_2: at p = 3 (mod 4) it
    acts on a column mod p through the field F_p[i], simply but not
    absolutely simply."""
    base = BaseRing(QQ_FIELD, (padic(p),))
    lat = span(base, 4, [[fe(1), fe(0), fe(0), fe(1)],
                         [fe(0), fe(-1), fe(1), fe(0)]])
    return SimpleNamespace(lattice=lat, alg=matrix_algebra(2))


def _enumerated_direction(x, y, b, alg):
    """The decision by enumeration alone, for Y < X with pX inside Y: the
    first basis vector or direction of X/Y whose cyclic span is not all of
    X/Y, or None."""
    V = _QuotientSpace(x, y, b, alg, _killing_prime(x, y))
    if V.dim <= 1:
        return None
    fld = V.reps
    basis = [[fld.one() if i == c else fld.zero() for i in range(V.dim)]
             for c in range(V.dim)]
    for qvec in chain(basis, V.enumerate_directions()):
        w = V.lift_free(qvec)
        imgs = [V.project(V.act(s, w)) for s in range(len(V.actions))]
        if len(linalg.rref(imgs, fld)[0]) < V.dim:
            return qvec
    return None


@pytest.mark.parametrize("name", ["M_2(Z_(2))", "M_2(Z_(3))", "M_2(Z_(5))",
                                  "M_3(Z_(2))", "Hurwitz", "Z_(3)[J]",
                                  "Z_(7)[J]"])
def test_rank_test_agrees_with_enumeration(name):
    """`intermediate_module`, which decides simple quotients by the rank
    of the action where it can, against the enumeration alone."""
    orders = {n: (o, p) for n, o, p in _quotient_orders()}
    orders["M_2(Z_(3))"] = (builtin_mnr(2, BaseRing(QQ_FIELD, (padic(3),))),
                            3)
    for p in (3, 7):
        orders[f"Z_({p})[J]"] = (_j_order(p), p)
    order, p = orders[name]
    b, alg = order.lattice, order.alg
    rnd = random.Random(f"rank-{name}")
    seen = set()
    pairs = [q for x, y in _stable_pairs(order, p, rnd, 16)
             for q in ((x, y), (x, x.scale(fe(p)))) if q[0] != q[1]]
    for x, y in pairs:
        w = intermediate_module(x, y, b, alg)
        assert (w is None) == (_enumerated_direction(x, y, b, alg) is None)
        if w is not None:
            assert w.contains(mult(b, w, alg))
            assert x.contains(w) and w.contains(y)
            assert w != x and w != y
        seen.add(w is None)
    assert seen == {True, False}


def test_quotient_no_prime_kills():
    # over Z_(2,3), X/Y = B/9B lives only at 3: 2B + 9B = B, and 3B lies
    # strictly between
    base = BaseRing(QQ_FIELD, (padic(2), padic(3)))
    b, m2 = canonicalize(base, 4, identity_rows(4)), matrix_algebra(2)
    assert intermediate_module(b, b.scale(fe(9)), b, m2) == b.scale(fe(3))
    assert intermediate_module(b, b.scale(fe(6)), b, m2) == b.scale(fe(2))
    assert not is_simple_quotient(b, b.scale(fe(9)), b, m2)


def test_quotient_of_a_non_module_raises(r5, b_m2, m2):
    line = span(r5, 4, [identity_rows(4)[0]])
    for y in (ZERO_MODULE, line):
        with pytest.raises(ContainmentError, match="not a left module"):
            is_simple_quotient(line, y, b_m2, m2)
        with pytest.raises(ContainmentError, match="not a left module"):
            intermediate_module(line, y, b_m2, m2)


def test_direction_cap_is_reached():
    # the column module of M_2(Z_(p)) mod p has p + 1 directions; M_2 acts
    # on it through all of End, so the rank test decides it past the cap
    for p in (8191, 8209):
        base = BaseRing(QQ_FIELD, (padic(p),))
        order = canonicalize(base, 4, identity_rows(4))
        col = span(base, 4, [identity_rows(4)[0], identity_rows(4)[2]])
        assert is_simple_quotient(col, col.scale(fe(p)), order,
                                  matrix_algebra(2))
    # span{1, J}, J = [[0, -1], [1, 0]], acts through F_p[i], a field of
    # dimension 2 < 4 at p = 3 (mod 4): the rank test cannot decide, and
    # the enumeration refuses the 8220 directions
    p = 8219
    base = BaseRing(QQ_FIELD, (padic(p),))
    b = span(base, 4, [[fe(1), fe(0), fe(0), fe(1)],
                       [fe(0), fe(-1), fe(1), fe(0)]])
    col = span(base, 4, [identity_rows(4)[0], identity_rows(4)[2]])
    with pytest.raises(UnsupportedError, match="8220 directions"):
        is_simple_quotient(col, col.scale(fe(p)), b, matrix_algebra(2))


def test_unit_iff_zero_val_vector(r5):
    rnd = random.Random(3)
    for _ in range(60):
        x = QQ_FIELD.from_fraction(
            Fraction(rnd.randint(1, 400), rnd.randint(1, 400)))
        assert r5.is_unit(x) == (r5.val_vector(x) == (0,))


def test_two_prime_gcd_mixing():
    rs = BaseRing(QQ_FIELD, (padic(2), padic(3)))
    one = canonicalize(rs, 1, [[fe(1)]])
    assert span(rs, 1, [[fe(4)], [fe(9)]]) == one
    assert span(rs, 1, [[fe(18)], [fe(12)]]) == span(rs, 1, [[fe(6)]])


def test_fracideal_matches_rank_one_lattices():
    rs = BaseRing(QQ_FIELD, (padic(2), padic(3)))
    rnd = random.Random(5)
    for _ in range(40):
        e = (rnd.randint(-3, 3), rnd.randint(-3, 3))
        f = (rnd.randint(-3, 3), rnd.randint(-3, 3))
        a, b = FracIdeal(rs, e), FracIdeal(rs, f)
        la, lb = a.to_lattice(), b.to_lattice()
        assert a.mul(b).to_lattice() == span(
            rs, 1, [[la.rows[0][0] * lb.rows[0][0]]])
        assert a.add(b).to_lattice() == add(la, lb)
        assert a.intersect(b).to_lattice() == intersect(la, lb)
        assert a.contains(b) == la.contains(lb)


def test_colon_of_rank_deficient_column(r5, b_m2, m2):
    col = span(r5, 4, [identity_rows(4)[0], identity_rows(4)[2]])
    assert colon_left(col, col, m2) == b_m2


@pytest.mark.parametrize("a, b", [(0.1, -1), (-1, 0.5), (True, -1),
                                  ("-1", -1)])
def test_quaternion_parameters_are_ints_or_fractions(a, b):
    """A float, a bool or a string is rejected, not rounded or parsed."""
    with pytest.raises(SpecValidationError, match="int or a Fraction"):
        quaternion_algebra(a, b)
    assert quaternion_algebra(Fraction(-2, 2), -1).a == -1


def test_algebra_validation():
    with pytest.raises(SpecValidationError):
        quaternion_algebra(0, -1)
    alg = quaternion_algebra(-1, -1)
    # Hamilton table spot checks: ij = k, ji = -k, k^2 = -1
    i = alg.basis_vector(1, QQ_FIELD)
    j = alg.basis_vector(2, QQ_FIELD)
    k = alg.mul_coords(i, j, QQ_FIELD)
    assert k == [fe(0), fe(0), fe(0), fe(1)]
    assert alg.mul_coords(j, i, QQ_FIELD) == [fe(0), fe(0), fe(0), fe(-1)]
    assert alg.mul_coords(k, k, QQ_FIELD) == [fe(-1), fe(0), fe(0), fe(0)]


def test_base_ring_rejects_one_prime_under_two_names():
    from gliderbs.fields import (GAUSS_FIELD, QX_FIELD, gauss_prime,
                                 poly_prime, xadic)

    with pytest.raises(SpecValidationError):
        BaseRing(GAUSS_FIELD, (gauss_prime("1+i"), gauss_prime("1-i")))
    with pytest.raises(SpecValidationError):
        BaseRing(QX_FIELD, (xadic(QX_FIELD), poly_prime("x", QX_FIELD)))
    # distinct primes of equal norm are two primes
    assert BaseRing(GAUSS_FIELD, (gauss_prime("2+i"),
                                  gauss_prime("2-i"))).nprimes == 2


def _mix_bases():
    from gliderbs.fields import (GAUSS_FIELD, QX_FIELD, gauss_prime,
                                 poly_prime, xadic)

    return {
        "Q at 2,3,5": BaseRing(QQ_FIELD, (padic(2), padic(3), padic(5))),
        "Q(i) at 2+i,2-i,3": BaseRing(GAUSS_FIELD, (
            gauss_prime("2+i"), gauss_prime("2-i"), gauss_prime("3"))),
        "Q(x) at x,x^2+1": BaseRing(QX_FIELD, (
            xadic(QX_FIELD), poly_prime("x^2+1", QX_FIELD))),
    }


@pytest.mark.parametrize("name", ["Q at 2,3,5", "Q(i) at 2+i,2-i,3",
                                  "Q(x) at x,x^2+1"])
def test_mix_coefficient_reaches_the_minimum(name):
    from hypothesis import given, settings, strategies as st

    base = _mix_bases()[name]
    pis = base.uniformizers
    exps = st.lists(st.integers(-2, 2), min_size=len(pis),
                    max_size=len(pis))

    def elem(es, unit):
        return base.from_exponents(es) * base.field.from_int(unit)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(exps, exps, st.sampled_from([1, -1, 7, 11]),
           st.sampled_from([1, 13, -17]))
    def mixes(ea, eb, ua, ub):
        a, b = elem(ea, ua), elem(eb, ub)
        # the coefficient is an element of the base's ring
        ring = base.ring
        c = base.mix_coefficient(base.val_vector(a), base.val_vector(b))
        c = base.scalars.wrap(ring.rat_row([c], ring.one)[0])
        assert base.is_integral(c)
        assert base.val_vector(a + c * b) == tuple(
            min(s, t) for s, t in zip(base.val_vector(a),
                                      base.val_vector(b)))

    mixes()
