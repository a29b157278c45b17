"""Duals, colons, intersections, membership and coordinates over a PID
(`BaseRing.ring` set) compute on the ring's own elements, from the rows and
the inverse pivot block that each lattice root caches.  The plain path,
`ring = None`, computes them on reps with `linalg`; it is the reference
here.  Both sides take their normal forms from `_integer_hnf`, so that the
two compare on bases whose field kernel lacks residues (F_5(x) at x^2+2):
what differs between them is only the code under test."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gliderbs import fields, linalg
from gliderbs import lattice as L
from gliderbs.errors import GbsError
from gliderbs.fields import (QQ_FIELD, QX_FIELD, fp_func_field, padic,
                             poly_prime, xadic)
from gliderbs.lattice import BaseRing, matrix_algebra

F3X, F5X = fp_func_field(3), fp_func_field(5)
M2 = matrix_algebra(2)
# per base: the ring, the entries' generator (None over Q), their
# denominators, and the number of cases
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
}


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


def _outcomes(base, rows, ks):
    """Every operation under test on one input, as plain data."""
    pi = base.uniformizers[-1]
    x, y = L.span(base, 4, rows[:4]), L.span(base, 4, rows[4:8])
    # pi^k-scaled lattices, rank-deficient ones sharing a direction
    xs, ys = x.scale(pi ** ks[0]), y.scale(pi ** ks[1])
    shared = [a + b for a, b in zip(rows[0], rows[4])]
    xd = L.span(base, 4, [rows[1], shared])
    yd = L.span(base, 4, [shared, rows[5], rows[6]]).scale(pi ** ks[2])
    vec, inside = rows[8], [a * pi ** ks[0] for a in shared]
    ops = {
        "dual": lambda: L.solve_dual(base, 4, rows[:4]),
        "dual with zero conditions": lambda: L.solve_dual(
            base, 4, rows[:3] + [vec], [rows[6]]),
        "dual on a line": lambda: L.solve_dual(base, 4, rows[:2],
                                               rows[4:6]),
        "colon_left": lambda: L.colon_left(xs, y, M2),
        "colon_right": lambda: L.colon_right(x, ys, M2),
        "colon_left deficient": lambda: L.colon_left(xs, yd, M2),
        "colon_right deficient": lambda: L.colon_right(xd, yd, M2),
        "intersect": lambda: L.intersect(xs, ys),
        "intersect deficient": lambda: L.intersect(xd, yd),
        "intersect mixed": lambda: L.intersect(xs, yd),
        "contains": lambda: (xs.contains(ys), xs.contains(x), x.contains(xs),
                             xs.contains(L.intersect(xs, y)),
                             ys.contains(yd), xd.contains(yd),
                             xs.contains(xd)),
        "contains_vector": lambda: (xs.contains_vector(vec),
                                    ys.contains_vector(inside),
                                    xd.contains_vector(vec),
                                    xd.contains_vector(shared),
                                    yd.contains_vector(inside)),
        "coords": lambda: (xs.coords(vec), ys.coords(inside), xd.coords(vec),
                           xd.coords(inside), yd.coords(shared)),
    }
    out = {}
    for name, op in ops.items():
        try:
            got = op()
        except GbsError as exc:
            got = ("error", type(exc).__name__, str(exc))
        out[name] = got.rows if isinstance(got, L.Lattice) else got
    return out


def _plain(base, monkeypatch):
    """Switch base to the plain path, with normal forms from the PID."""
    ring = base.ring
    proxy = SimpleNamespace(ring=ring, reduce_mod=ring.reduce_mod)
    monkeypatch.setattr(base, "ring", None)
    monkeypatch.setattr(L, "_hnf", lambda base, dim, vectors:
                        L._integer_hnf(proxy, dim, vectors))


@pytest.mark.parametrize("name", BASES)
def test_ring_path_matches_the_plain_path(name, monkeypatch):
    base = BASES[name][0]
    inputs = list(_draw(name))
    fast = [_outcomes(base, *case) for case in inputs]
    _plain(base, monkeypatch)
    for case, got in zip(inputs, fast):
        assert got == _outcomes(base, *case)


@pytest.mark.parametrize("name", BASES)
def test_ring_path_takes_no_field_elimination(name, monkeypatch):
    """With `linalg.mat_inv` and `linalg.reduce` refused, the operations
    still succeed: none of them reduces on reps."""
    base = BASES[name][0]
    rows, ks = next(_draw(name))

    def refuse(*args):
        raise AssertionError("computed on reps")

    monkeypatch.setattr(linalg, "mat_inv", refuse)
    monkeypatch.setattr(linalg, "reduce", refuse)
    out = _outcomes(base, rows, ks)
    assert all(out[op][0] != "error" for op in
               ("dual", "colon_left", "colon_right", "intersect",
                "intersect deficient"))


def test_a_root_caches_one_form_for_its_scaled_lattices():
    """The form lives on the root; pi^e P reads it with the factor pi^-e."""
    base = BASES["Q at 5"][0]
    rows, _ = next(_draw("Q at 5"))
    x = L.span(base, 4, rows[:4])
    assert x._ring is None
    five = QQ_FIELD.from_int(5)
    scaled = x.scale(five ** 3)
    assert scaled.contains_vector([e * five ** 3 for e in rows[0]])
    form = x._ring
    assert form is not None and form.inv is not None
    assert scaled._ring is None
    assert scaled.coords([e * five ** 3 for e in rows[0]]) == \
        x.coords(rows[0])
    assert x._ring is form


def test_residues_mod_a_polynomial_prime_stay_on_int_polynomials(
        monkeypatch):
    """Q(x) at x^2+1: `reduce_mod` builds no `Fraction`, and it gives g
    times the principal part of u/g that the digit loop finds."""
    base = BASES["Q(x) at x^2+1"][0]
    ring, k, field = base.ring, base.scalars, base.field
    v, g = base.valuations[0], field.parse("x^2+1")
    cases = [(field.parse(u), g ** e) for u in
             ("1/(x+2)", "(3*x^3-x+5)/(2*x-7)", "x/(3*x^2+3)", "7")
             for e in (1, 2, 3)]

    def pair(x):
        (n,), d = ring.int_row(k.unwrap_row([x]))
        return n, d

    pairs = [(pair(u), pair(gk)) for u, gk in cases]
    digits = [gk * v.strip_principal_part(field.zero(), u / gk)[0]
              for u, gk in cases]

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
    fld = V.res_field
    for c in range(V.dim):
        e_c = [fld.one() if i == c else fld.zero() for i in range(V.dim)]
        assert V.basis_images(c) == V.images(e_c)


def test_fractions_in_structure_constants_enter_the_ring_table():
    """A quaternion algebra with a non-integral constant: the ring products
    carry its denominator, and the colons agree with the plain path."""
    base = BASES["Q at 2,3"][0]
    alg = L.quaternion_algebra(Fraction(-1, 3), -1)
    rows, _ = next(_draw("Q at 2,3"))

    def colons():
        x, y = L.span(base, 4, rows[:4]), L.span(base, 4, rows[4:8])
        return L.colon_left(x, y, alg).rows, L.colon_right(y, x, alg).rows

    fast = colons()
    with pytest.MonkeyPatch.context() as mp:
        _plain(base, mp)
        assert colons() == fast
