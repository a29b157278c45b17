"""Duals, colons, intersections, membership and coordinates compute on
the elements of the base's ring (`BaseRing.ring`), from the rows and the
inverse pivot block that each lattice root caches.  The plain kernel of
`plain_kernel` computes them on reps with `linalg`; it is the reference
here.  Over the PIDs both sides take their normal forms from `lattice._hnf`,
so that they compare on bases whose field kernel lacks residues (F_5(x)
at x^2+2) and what differs between them is only the code under test.
Over the bases whose ring is given by its valuations (Q(i), Q(x,y)), and
over Q(x) at 2x^2+2 (the PID at x^2+1, whose residue field Q[x]/(x^2+1)
the field kernel has), the reference takes the field kernel's normal
form, so that the ring's values, divisibility and digits are under test
too."""

import random
import statistics
import sys
from fractions import Fraction

import pytest

from gliderbs import fields, linalg
from gliderbs import lattice as L
from gliderbs.errors import GbsError
from gliderbs.fields import (GAUSS_FIELD, QQ_FIELD, QX_FIELD, QXY_FIELD,
                             fp_func_field, gauss_prime, padic, poly_prime,
                             xadic)
from gliderbs.lattice import BaseRing, matrix_algebra
from plain_kernel import Library, Plain, PlainKernel, reduce_mod, ring_hnf

F3X, F5X = fp_func_field(3), fp_func_field(5)
M2 = matrix_algebra(2)
# per base: the ring, the entries' generator (None over Q), their
# denominators, and the number of cases; Q(x,y) gets few, small cases
BASES = {
    "Q at 5": (BaseRing(QQ_FIELD, [padic(5)]), None,
               ["1", "1", "5", "25", "3", "10", "7"], 40),
    "Q at 2,3": (BaseRing(QQ_FIELD, [padic(2), padic(3)]), None,
                 ["1", "1", "2", "3", "4", "6", "9", "5"], 40),
    "F_3(x) at x": (BaseRing(F3X, [xadic(F3X)]), "x",
                    ["1", "x", "x^2", "x+1", "2*x+1"], 5),
    "F_5(x) at x^2+2": (BaseRing(F5X, [poly_prime("x^2+2", F5X)]), "x",
                        ["1", "x^2+2", "(x^2+2)^2", "x", "x+1"], 5),
    "Q(x) at x^2+1": (BaseRing(QX_FIELD, [poly_prime("x^2+1")]), "x",
                      ["1", "x^2+1", "(x^2+1)^2", "x", "2"], 5),
    "Q(i) at 2+i": (BaseRing(GAUSS_FIELD, [gauss_prime("2+i")]), "i",
                    ["1", "2+i", "(2+i)^2", "2-i", "3", "5"], 4),
    "Q(i) at 1+i": (BaseRing(GAUSS_FIELD, [gauss_prime("1+i")]), "i",
                    ["1", "1+i", "2", "4", "3", "2+i"], 4),
    "Q(i) at 3": (BaseRing(GAUSS_FIELD, [gauss_prime("3")]), "i",
                  ["1", "3", "9", "2", "1+i", "6"], 4),
    "Q(x,y) at x": (BaseRing(QXY_FIELD, [xadic(QXY_FIELD)]), "y",
                    ["1", "x", "x^2", "y", "x*y"], 1),
    "Q(x) at 2x^2+2": (BaseRing(QX_FIELD, [poly_prime("2*x^2+2")]), "x",
                       ["1", "x^2+1", "(x^2+1)^2", "x", "2"], 1),
}
# the bases whose reference takes the field kernel's normal form
VALUED = ["Q(i) at 2+i", "Q(i) at 1+i", "Q(i) at 3", "Q(x,y) at x",
          "Q(x) at 2x^2+2"]


def _entries(base, gen, dens, rnd):
    field = base.field
    g = field.gen(gen) if gen else field.from_int(rnd.choice([2, 3]))
    dens = [field.parse(d) for d in dens]

    def entry():
        if rnd.random() < 0.3:
            return field.zero()
        num = field.from_int(rnd.randint(-9, 9)) + \
            field.from_int(rnd.randint(-3, 3)) * g
        return num / rnd.choice(dens)

    return entry


def _draw(name):
    """The seeded inputs of each case of one base."""
    base, gen, dens, cases = BASES[name]
    rnd = random.Random(f"ring-kernel {name}")
    entry = _entries(base, gen, dens, rnd)
    for _ in range(cases):
        rows = [[entry() for _ in range(4)] for _ in range(9)]
        yield rows, [rnd.choice([-2, -1, 1, 2]) for _ in range(3)]


def _outcomes(ops, base, rows, ks):
    """Every operation under test on one input, as plain data, computed by
    `ops` (`Library` or `PlainKernel`)."""
    pi = base.uniformizers[-1]
    x, y = ops.span(4, rows[:4]), ops.span(4, rows[4:8])
    # pi^k-scaled lattices, rank-deficient ones sharing a direction
    xs, ys = ops.scale(x, pi ** ks[0]), ops.scale(y, pi ** ks[1])
    shared = [a + b for a, b in zip(rows[0], rows[4])]
    xd = ops.span(4, [rows[1], shared])
    yd = ops.scale(ops.span(4, [shared, rows[5], rows[6]]), pi ** ks[2])
    vec, inside = rows[8], [a * pi ** ks[0] for a in shared]
    table = {
        "span": lambda: (ops.rows(xs), ops.rows(y), ops.rows(xd),
                         ops.rows(yd)),
        "dual": lambda: ops.solve_dual(4, rows[:4]),
        "dual with zero conditions": lambda: ops.solve_dual(
            4, rows[:3] + [vec], [rows[6]]),
        "dual on a line": lambda: ops.solve_dual(4, rows[:2], rows[4:6]),
        "colon_left": lambda: ops.colon(xs, y, M2, "left"),
        "colon_right": lambda: ops.colon(x, ys, M2, "right"),
        "colon_left deficient": lambda: ops.colon(xs, yd, M2, "left"),
        "colon_right deficient": lambda: ops.colon(xd, yd, M2, "right"),
        "intersect": lambda: ops.intersect(xs, ys),
        "intersect deficient": lambda: ops.intersect(xd, yd),
        "intersect mixed": lambda: ops.intersect(xs, yd),
        "contains": lambda: (ops.contains(xs, ys), ops.contains(xs, x),
                             ops.contains(x, xs),
                             ops.contains(xs, ops.intersect(xs, y)),
                             ops.contains(ys, yd), ops.contains(xd, yd),
                             ops.contains(xs, xd)),
        "contains_vector": lambda: (ops.contains_vector(xs, vec),
                                    ops.contains_vector(ys, inside),
                                    ops.contains_vector(xd, vec),
                                    ops.contains_vector(xd, shared),
                                    ops.contains_vector(yd, inside)),
        "coords": lambda: (ops.coords(xs, vec), ops.coords(ys, inside),
                           ops.coords(xd, vec), ops.coords(xd, inside),
                           ops.coords(yd, shared)),
        "quotient_length": lambda: (
            ops.quotient_length(xs, ops.intersect(xs, ys)),
            ops.quotient_length(xd, ops.intersect(xd, yd))),
    }
    out = {}
    for name, op in table.items():
        try:
            got = op()
        except GbsError as exc:
            got = ("error", type(exc).__name__, str(exc))
        out[name] = ops.rows(got) if isinstance(got, (L.Lattice, Plain)) \
            else got
    return out


def _plain(name):
    """The reference of one base: over a PID with the library's normal
    form, else with the field kernel's."""
    base = BASES[name][0]
    if name in VALUED:
        return PlainKernel(base)
    return PlainKernel(base, hnf=lambda dim, vecs: ring_hnf(base, dim, vecs))


@pytest.mark.parametrize("name", BASES)
def test_ring_path_matches_the_plain_path(name):
    base = BASES[name][0]
    library, plain = Library(base), _plain(name)
    for case in _draw(name):
        assert _outcomes(library, base, *case) == \
            _outcomes(plain, base, *case)


@pytest.mark.parametrize("name", BASES)
def test_ring_path_takes_no_field_elimination(name, monkeypatch):
    """With `linalg.rref` and `linalg.reduce` refused, the operations
    still succeed: none of them reduces on reps."""
    base = BASES[name][0]
    rows, ks = next(_draw(name))

    def refuse(*args):
        raise AssertionError("computed on reps")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "reduce", refuse)
    out = _outcomes(Library(base), base, rows, ks)
    assert all(out[op][0] != "error" for op in
               ("dual", "colon_left", "colon_right", "intersect",
                "intersect deficient"))


def test_a_root_caches_one_form_for_its_scaled_lattices():
    """The inverse pivot block lives on the root; pi^e P reads it with the
    factor pi^-e."""
    base = BASES["Q at 5"][0]
    rows, _ = next(_draw("Q at 5"))
    x = L.span(base, 4, rows[:4])
    assert x._inv is None
    five = QQ_FIELD.from_int(5)
    scaled = x.scale(five ** 3)
    assert scaled.contains_vector([e * five ** 3 for e in rows[0]])
    inv = x._inv
    assert inv is not None and inv[0] is not None
    assert scaled._inv is None
    assert scaled.coords([e * five ** 3 for e in rows[0]]) == \
        x.coords(rows[0])
    assert x._inv is inv


def test_residues_mod_a_polynomial_prime_stay_on_int_polynomials(
        monkeypatch):
    """Q(x) at x^2+1: `reduce_mod` builds no `Fraction`, and it gives the
    coset representative that the digit loop finds."""
    base = BASES["Q(x) at x^2+1"][0]
    ring, k, field = base.ring, base.scalars, base.field
    g = field.parse("x^2+1")
    cases = [(field.parse(u), g ** e) for u in
             ("1/(x+2)", "(3*x^3-x+5)/(2*x-7)", "x/(3*x^2+3)", "7")
             for e in (1, 2, 3)]

    def pair(x):
        (n,), d = ring.int_row(k.unwrap_row([x]))
        return n, d

    pairs = [(pair(u), pair(gk)) for u, gk in cases]
    digits = [reduce_mod(base, u, gk) for u, gk in cases]

    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(fields, "Fraction", no_fraction)
    reduced = [base.reduce_mod(u, gk) for u, gk in pairs]
    monkeypatch.undo()
    assert [k.wrap(ring.rat_row([n], d)[0]) for n, d in reduced] == digits
    assert any(digits)


def test_basis_images_are_rows_of_the_action_matrices():
    base = BaseRing(QQ_FIELD, [padic(5)])
    one, zero = QQ_FIELD.one(), QQ_FIELD.zero()
    unit = [[one if i == j else zero for j in range(4)] for i in range(4)]
    order = L.span(base, 4, unit)
    col = L.span(base, 4, [unit[0], unit[2]])
    V = L._QuotientSpace(col, col.scale(QQ_FIELD.from_int(5)), order, M2, 0)
    fld = V.reps
    for c in range(V.dim):
        e_c = [fld.one() if i == c else fld.zero() for i in range(V.dim)]
        assert V.basis_images(c) == V.images(e_c)


def test_fractions_in_structure_constants_enter_the_ring_table():
    """A quaternion algebra with a non-integral constant: the ring products
    carry its denominator, and the colons agree with the plain path."""
    base = BASES["Q at 2,3"][0]
    alg = L.quaternion_algebra(Fraction(-1, 3), -1)
    rows, _ = next(_draw("Q at 2,3"))

    def colons(ops):
        x, y = ops.span(4, rows[:4]), ops.span(4, rows[4:8])
        return (ops.rows(ops.colon(x, y, alg, "left")),
                ops.rows(ops.colon(y, x, alg, "right")))

    assert colons(Library(base)) == colons(_plain("Q at 2,3"))


def _deficient(field, rows):
    """Two rank-deficient generating sets of one module per kind: zero
    columns, duplicate rows, combinations of rows, multiples of one row."""
    zero, two, g = field.zero(), field.from_int(2), rows[3][1] or field.one()
    cols = [[zero if c in (1, 3) else e for c, e in enumerate(r)]
            for r in rows[:3]]
    r0, r1, r2 = rows[:3]
    combo = [a + g * b for a, b in zip(r0, r1)]
    return {
        "zero columns": (cols, [cols[2], cols[0], cols[1], cols[0]]),
        "duplicate rows": ([r0, r1, r0, r1], [r1, r0]),
        "combinations": ([r0, r1, combo, [two * e for e in combo]],
                         [combo, [g * e for e in r1], r1, [zero] * 4]),
        "a line": ([r2, [g * e for e in r2]],
                   [[two * e for e in r2], [g * two * e for e in r2]]),
    }


@pytest.mark.parametrize("name", ["Q(i) at 2+i", "Q(x,y) at x"])
def test_deficient_spans_match_the_plain_path(name):
    """Over the rings that compute on field elements, a rank-deficient
    span has the field kernel's rows, and two generating sets of the same
    module give identical stores and hashes."""
    base = BASES[name][0]
    plain = _plain(name)
    for rows, _ in _draw(name):
        for kind, (gens, other) in _deficient(base.field, rows).items():
            lat, again = L.span(base, 4, gens), L.span(base, 4, other)
            assert lat.rank < 4, kind
            assert lat.rows == plain.rows(plain.span(4, gens)), kind
            assert again.store == lat.store, kind
            assert hash(again) == hash(lat), kind


def test_back_substitution_keeps_denominators_low(monkeypatch):
    """Q(x) at x^2+1: back-substitution reduces each row against rows
    already canonical, so the denominators it hands the content gcd carry
    no unit of a later pivot.  Over 30 seeded 4x4 spans their median
    degree is at most 10 (reducing by the unreduced pivot rows top-down,
    over D u, reaches 15)."""
    base = BASES["Q(x) at x^2+1"][0]
    ring, field = base.ring, base.field
    x = field.gen("x")
    nums = [field.from_int(a) + field.from_int(b) * x
            for a in range(-2, 3) for b in range(-2, 3)]
    dens = [field.parse(d) for d in ("1", "1", "x", "x+1", "x^2+1")]
    rnd = random.Random("back-substitution degrees")
    degrees, gcd = [], ring.gcd

    def traced(*xs):
        # the gcd(d, *nums) of a reduced row; _hnf's other call has 2 args
        if len(xs) > 2 and sys._getframe(1).f_code is L._hnf.__code__:
            degrees.append(len(xs[0]) - 1)
        return gcd(*xs)

    monkeypatch.setattr(ring, "gcd", traced)
    for _ in range(30):
        L.span(base, 4, [[rnd.choice(nums) / rnd.choice(dens)
                          for _ in range(4)] for _ in range(4)])
    assert len(degrees) > 100
    assert statistics.median(degrees) <= 10
