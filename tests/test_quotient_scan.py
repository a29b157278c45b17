"""The csa classifier's quotient scan computes on the ring and in the
residue field's reps: a level quotient's matrices come off the ring's
coordinates (`residue_rows`), and `linalg` ranks them on ints mod p, so
no F_p element is built."""

import io
import random
from contextlib import redirect_stdout

import pytest

from gliderbs import jsonio, lattice
from gliderbs.cli import main
from gliderbs.errors import UnsupportedError
from gliderbs.fields import (QQ_FIELD, QX_FIELD, FieldElem, fp_func_field,
                             padic, poly_prime, prime_field, xadic)
from gliderbs.filtration import AlgebraFiltration, valuation_filtration
from gliderbs.gbs import BsPoint, classify_csa_glider, realize_csa_element
from gliderbs.lattice import BaseRing, matrix_algebra
from gliderbs.orders import builtin_mnr

F3X = fp_func_field(3)
# per base: elements with value >= 0 at every prime, whose residues the
# ring reads off its rows: in Z_(S) after the p-part of the denominator is
# stripped, over F_3[x] at x and at x+2 through the valuation
INTEGRAL = {
    "Q at 5": (BaseRing(QQ_FIELD, [padic(5)]),
               ["1", "5", "2/3", "7/2", "25/4", "-3"]),
    "Q at 2,3": (BaseRing(QQ_FIELD, [padic(2), padic(3)]),
                 ["1", "2", "3", "5/7", "-6", "1/5"]),
    "F_3(x) at x": (BaseRing(F3X, [xadic(F3X)]),
                    ["1", "x", "1/(x+1)", "x^2/(x+2)", "2"]),
    "F_3(x) at x+2": (BaseRing(F3X, [poly_prime("x+2", F3X)]),
                      ["1", "x+2", "x/(x+1)", "1/x", "(x+2)^2/x"]),
}


@pytest.mark.parametrize("name", INTEGRAL)
def test_ring_residues_are_the_valuations_residues(name):
    base, texts = INTEGRAL[name]
    atoms = [base.field.parse(t) for t in texts]
    rnd = random.Random(f"residues-{name}")
    for _ in range(20):
        rows = [[rnd.choice(atoms) * rnd.randint(-2, 2) for _ in range(3)]
                for _ in range(2)]
        ring = base.ring
        flat, d = ring.int_row([e for r in rows
                                for e in base.scalars.unwrap_row(r)])
        nums = [flat[i:i + 3] for i in range(0, len(flat), 3)]
        # the same fractions over a denominator with prime parts, as the
        # coordinates of one lattice in another come
        s = ring.one
        for p in ring.primes:
            for _ in range(rnd.randint(0, 2)):
                s = s * p
        nums, d = [[n * s for n in row] for row in nums], d * s
        for j, v in enumerate(base.valuations):
            k = v.residue_field().reps
            want = [[k.unwrap(v.residue(e)) for e in row] for row in rows]
            assert ring.residue_rows(nums, d, j) == want


def test_poly_prime_in_characteristic_p_is_monic():
    """Over F_p every prime has a monic associate: 2x+1 over F_3 names the
    valuation at x+2, so the base is F_3[x]_(x+2) and its spans are the
    spans at x+2."""
    g, h = F3X.parse("2*x+1"), F3X.parse("x+2")
    x = F3X.parse("x")
    bases = [BaseRing(F3X, [poly_prime(f, F3X)]) for f in ("2*x+1", "x+2")]
    lats = [lattice.span(base, 2, [[x / p, x / p], [F3X.zero(), p]])
            for base, p in zip(bases, (g, h))]
    assert bases[0] is bases[1]
    assert lats[0] == lats[1]
    assert poly_prime("2*x+1", F3X).uniformizer() == h


def test_csa_scan_over_a_degree_one_prime_in_characteristic_p():
    """The residue field at x+2 over F_3 is F_3, read by the value at 1."""
    f = valuation_filtration(poly_prime("2*x+1", F3X))
    fa = AlgebraFiltration(matrix_algebra(2), f,
                           builtin_mnr(2, f.base_ring).lattice,
                           mode="induced")
    point = BsPoint([F3X.one(), F3X.parse("x")])
    v = classify_csa_glider(realize_csa_element(fa, point, 1))
    assert (v.status, v.element.point, v.element.shift) == \
        ("irreducible", point, 1)


def test_no_direction_of_an_infinite_residue_field_is_enumerated():
    """Z_(x)[J] over Q(x) acts on a column mod x through Q(i): simple, not
    absolutely simple, so the rank leaves the quotient open, and its
    directions over Q cannot be listed."""
    base = BaseRing(QX_FIELD, [xadic(QX_FIELD)])
    o, z = QX_FIELD.one(), QX_FIELD.zero()
    order = lattice.span(base, 4, [[o, z, z, o], [z, -o, o, z]])
    col = lattice.span(base, 4, [[o, z, z, z], [z, z, o, z]])
    with pytest.raises(UnsupportedError, match="infinite field Q"):
        lattice.is_simple_quotient(col, col.scale(QX_FIELD.parse("x")),
                                   order, matrix_algebra(2))


# recorded before the scan moved onto the ring
CSA_VERDICT = """{
  "citations": [
    "csa.relative-product"
  ],
  "command": "classify",
  "results": {
    "citation": "csa.relative-product",
    "element": {
      "kind": "csa",
      "point": [
        "1",
        "2"
      ],
      "shift": 1
    },
    "verdict": "irreducible"
  },
  "schema": "gbs/1"
}
"""


def test_csa_classification_builds_no_residue_field_element(
        monkeypatch, tmp_path):
    """One classification over M_2(Z_(5)), through the CLI: the scan builds
    its quotient spaces, no F_5 element takes part in an operation, and
    the report's bytes are the recorded ones."""
    f5 = valuation_filtration(padic(5))
    fa = AlgebraFiltration(matrix_algebra(2), f5,
                           builtin_mnr(2, f5.base_ring).lattice,
                           mode="induced")
    one, two = QQ_FIELD.from_int(1), QQ_FIELD.from_int(2)
    doc = tmp_path / "m.json"
    doc.write_text(jsonio.dumps(jsonio.encode_glider(
        realize_csa_element(fa, BsPoint([one, two]), 1))))
    binop, init = FieldElem._binop, lattice._QuotientSpace.__init__
    residue_ops, spaces = [], []

    def counted_binop(elem, other, op):
        if elem.field is prime_field(5):
            residue_ops.append(op)
        return binop(elem, other, op)

    def counted_init(self, *args):
        spaces.append(args)
        init(self, *args)

    monkeypatch.setattr(FieldElem, "_binop", counted_binop)
    monkeypatch.setattr(lattice._QuotientSpace, "__init__", counted_init)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--output", "json", "classify", "--glider", str(doc)])
    assert code == 0
    assert spaces and residue_ops == []
    assert out.getvalue() == CSA_VERDICT
