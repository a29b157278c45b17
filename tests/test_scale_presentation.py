"""Differential tests of the scale presentation and the memo scope.

On seeded random full lattices X, Y and exponent vectors a, b, the
operations on pi^a X and pi^b Y (and on pi^a X and pi^b X, one root) give
the same canonical rows outside a memo scope, inside one (after the memo
holds the pair at other exponents), and on lattices re-spanned from the
scaled rows, which carry no presentation."""

import random
from fractions import Fraction

import pytest

from gliderbs.fields import (QQ_FIELD, QX_FIELD, fp_func_field, padic,
                             poly_prime, xadic)
from gliderbs.lattice import (ZERO_MODULE, BaseRing, add, colon_left,
                              colon_right, intersect, matrix_algebra,
                              memo_scope, mult, span)

ALG = matrix_algebra(2)
SEEDS = range(3)


def _ring(name):
    if name == "q5":
        return BaseRing(QQ_FIELD, (padic(5),))
    if name == "q23":
        return BaseRing(QQ_FIELD, (padic(2), padic(3)))
    if name == "qx":
        return BaseRing(QX_FIELD, (poly_prime("x^2+1"),))
    f3 = fp_func_field(3)
    return BaseRing(f3, (xadic(f3),))


def _entry(ring, rnd):
    f = ring.field
    if f is QQ_FIELD:
        return f.from_fraction(Fraction(rnd.randint(-9, 9),
                                        rnd.choice((1, 1, 2, 3, 4, 5, 25))))
    x = f.gen("x")

    def poly():
        return f.from_int(rnd.randint(-2, 2)) + f.from_int(
            rnd.randint(-2, 2)) * x

    num, den = poly(), poly()
    return num / den if den else num


def _full_lattice(ring, rnd):
    while True:
        lat = span(ring, 4, [[_entry(ring, rnd) for _ in range(4)]
                             for _ in range(4)])
        if lat.full:
            return lat


def _exps(ring, rnd):
    return tuple(rnd.randint(-2, 2) for _ in range(ring.nprimes))


def _operations(x, y, with_eq):
    out = {"mult": mult(x, y, ALG), "colon_left": colon_left(x, y, ALG),
           "colon_right": colon_right(x, y, ALG), "add": add(x, y),
           "intersect": intersect(x, y), "contains": x.contains(y),
           "contained": y.contains(x)}
    if with_eq:
        out["eq"] = x == y
    return out


def _respan(lat):
    if lat is ZERO_MODULE or isinstance(lat, bool):
        return lat
    return span(lat.base, lat.dim, lat.rows)


def _same(a, b, by_rows):
    if isinstance(a, bool) or a is ZERO_MODULE:
        return a is b
    if by_rows:
        return a.rows == b.rows
    a, b = _respan(a), _respan(b)
    return a.contains(b) and b.contains(a)


@pytest.mark.parametrize("ring_name", ["q5", "q23", "qx", "f3x"])
@pytest.mark.parametrize("shared_root", [False, True])
def test_presented_operations_match_plain(ring_name, shared_root):
    ring = _ring(ring_name)
    # lattice == over F_3(x) is not canonical: compare by containment there
    by_rows = ring_name != "f3x"
    for seed in SEEDS:
        rnd = random.Random(f"{ring_name}:{seed}")
        big_x = _full_lattice(ring, rnd)
        big_y = big_x if shared_root else _full_lattice(ring, rnd)
        a, b, a2, b2 = (_exps(ring, rnd) for _ in range(4))
        x, y = big_x.scale_exponents(a), big_y.scale_exponents(b)
        plain = _operations(_respan(x), _respan(y), by_rows)
        outside = _operations(x, y, by_rows)
        with memo_scope():
            _operations(big_x.scale_exponents(a2),
                        big_y.scale_exponents(b2), by_rows)
            inside = _operations(x, y, by_rows)
        for name, want in plain.items():
            assert _same(outside[name], want, by_rows), (seed, name)
            assert _same(inside[name], want, by_rows), (seed, name)


def test_presentation_records_root_and_exponents(r5, b_m2):
    five = QQ_FIELD.from_int(5)
    x = b_m2.scale(five).scale(five)
    assert x.root is b_m2 and x.exps == (2,)
    assert x.scale(QQ_FIELD.from_int(3)) is x
    assert span(r5, 4, x.rows).root is not b_m2
    assert b_m2.contains(x) and not x.contains(b_m2)
    assert add(x, b_m2) is b_m2 and intersect(x, b_m2) is x


def test_primitive_part_is_shared_by_scalar_multiples(r5, b_m2):
    twenty_five = b_m2.scale(QQ_FIELD.from_int(25))
    respanned = span(r5, 4, twenty_five.rows)
    q, f = respanned.primitive()
    assert q == b_m2 and f == (2,)
    assert twenty_five.primitive() == (b_m2, (2,))


def test_memo_scope_nests_and_is_dropped(b_m2, m2):
    from gliderbs import lattice

    assert lattice._MEMO.memo is None
    with memo_scope():
        mult(b_m2, b_m2, m2)
        outer = lattice._MEMO.memo
        with memo_scope():
            assert lattice._MEMO.memo is outer
        assert len(outer) == 1
    assert lattice._MEMO.memo is None


def test_memo_scopes_are_per_thread(f5, b_m2, m2):
    """Threads sharing lattices each keep their own scope for its whole
    life, and get the results of a single thread."""
    import sys
    import threading

    from gliderbs import lattice
    from gliderbs.brandt import NormalGliderIdeal, inverse
    from gliderbs.glider import FiltrationTail, Glider

    def scaled():
        return [b_m2.scale(QQ_FIELD.from_int(5 ** k)) for k in range(3)]

    lats = scaled()
    want = [[mult(x, y, m2).rows for y in lats] for x in lats]
    want_inv = inverse(NormalGliderIdeal(
        Glider(f5, "algebra", [lats[1]], FiltrationTail(), alg=m2)))
    # the threads fill the lazy rows and hashes of these together
    shared = scaled()
    glider = Glider(f5, "algebra", [shared[1]], FiltrationTail(), alg=m2)
    errors = []

    def work():
        try:
            for _ in range(3):
                with memo_scope():
                    mine = lattice._MEMO.memo
                    got = [[mult(x, y, m2).rows for y in shared]
                           for x in shared]
                    assert inverse(NormalGliderIdeal(glider)) == want_inv
                    assert lattice._MEMO.memo is mine and got == want
                assert lattice._MEMO.memo is None
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
