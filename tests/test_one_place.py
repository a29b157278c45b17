"""One valuation per place of K(x): a polynomial prime is named by its
canonical associate (monic over F_p; over Q coprime int coefficients and
a positive lead), the x-adic valuation is the polynomial prime x, and
the field alone chooses the lattice kernel's ring."""

import json
import os
import random

import pytest

import test_integer_kernel
import test_kernel_laws
import test_memo_contains
import test_pid_kernel
import test_ring_kernel
from gliderbs import fields, jsonio
from gliderbs.cli import main
from gliderbs.fields import (QQ_FIELD, QX_FIELD, QY_FIELD, fp_func_field,
                             poly_prime, prime_field, xadic, yadic)
from gliderbs.lattice import BaseRing, span

F3X, F5X = fp_func_field(3), fp_func_field(5)


def test_associates_name_one_place():
    assert poly_prime("2*x^2+2") is poly_prime("x^2+1") \
        is poly_prime("-x^2-1")
    assert poly_prime("x^2+1").uniformizer() == QX_FIELD.parse("x^2+1")
    assert poly_prime("2*x+1", F3X) is poly_prime("x+2", F3X)
    assert poly_prime("2*x+1", F3X).uniformizer() == F3X.parse("x+2")
    # a polynomial with rational coefficients names its int associate
    assert poly_prime("x/2+1") is poly_prime("x+2")


def test_a_degree_one_prime_has_the_constants_as_residue_field():
    v = poly_prime("3*x+1")
    assert v.residue_field() is QQ_FIELD
    r = v.residue(QX_FIELD.parse("x"))
    assert r == QQ_FIELD.parse("-1/3")
    assert v.lift(r) == QX_FIELD.parse("-1/3")
    assert poly_prime("x+2", F3X).residue_field() is prime_field(3)


def _element(field, rnd):
    """A random element of a one-variable function field, with powers of
    its generator t in the numerator and the denominator."""
    t = field.gen(field.var)

    def poly():
        return sum((field.from_int(rnd.randint(-3, 3)) * t ** k
                    for k in range(rnd.randint(0, 3))), field.zero())
    den = poly() or field.one()
    return poly() * t ** rnd.randint(0, 2) / (den * t ** rnd.randint(0, 2))


@pytest.mark.parametrize("field", [F3X, F5X, QX_FIELD, QY_FIELD],
                         ids=lambda f: f.name)
def test_the_t_adic_valuation_is_the_polynomial_prime_t(field):
    """xadic (yadic over Q(y)) and poly_prime(t) agree on values,
    residues, lifts and the stores of the lattices they span."""
    line = (yadic if field.var == "y" else xadic)(field)
    prime = poly_prime(field.var, field)
    assert line.kind == ("yadic" if field.var == "y" else "xadic")
    assert line.name == f"v_{field.var}" and prime.kind == "polyprime"
    assert line.uniformizer() == prime.uniformizer()
    assert line.residue_field() is prime.residue_field()
    rnd = random.Random(7)
    for _ in range(60):
        x = _element(field, rnd)
        assert line(x) == prime(x)
        if x and line(x) >= 0:
            r = line.residue(x)
            assert r == prime.residue(x)
            assert line.lift(r) == prime.lift(r)
    a, b = BaseRing(field, [line]), BaseRing(field, [prime])
    for _ in range(10):
        rows = [[_element(field, rnd) for _ in range(3)] for _ in range(3)]
        assert span(a, 3, rows).store == span(b, 3, rows).store


def _recorded_glider(name, g):
    """The golden glider document `name` over Q(x) at g."""
    path = os.path.join(os.path.dirname(__file__), "golden_output.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.loads(json.load(fh)[f"file {name}.json"])
    doc["filtration"]["field"] = "Q(x)"
    doc["filtration"]["valuations"] = [{"kind": "polyprime", "g": g}]
    return doc


@pytest.mark.parametrize("name", ["tail_filtration", "gap"])
def test_a_constant_factor_classifies_as_its_associate(name, tmp_path,
                                                        capsys):
    """An irreducible chain and a reducible one, whose witness prints the
    valuation: the same report bytes at 2x^2+2 as at x^2+1."""
    reports = []
    for g in ("2*x^2+2", "x^2+1"):
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps(_recorded_glider(name, g)))
        capsys.readouterr()
        code = main(["--output", "json", "classify", "--glider", str(probe)])
        reports.append((code, capsys.readouterr().out))
    assert reports[0] == reports[1] and reports[0][0] == 0
    # the document prints g's canonical associate, a fixed point
    doc = _recorded_glider(name, "2*x^2+2")
    enc = jsonio.encode_glider(jsonio.loads_glider(doc))
    assert enc["filtration"]["valuations"] == [
        {"kind": "polyprime", "g": "x^2 + 1"}]
    assert jsonio.roundtrip(jsonio.dumps(doc))


def _table_bases():
    """Every base ring of the kernel tests' tables."""
    for module in (test_integer_kernel, test_kernel_laws, test_memo_contains,
                   test_pid_kernel, test_ring_kernel):
        for table in ("BASES", "OTHER_BASES"):
            for entry in getattr(module, table, {}).values():
                yield entry if isinstance(entry, BaseRing) else entry[0]


def test_the_field_alone_chooses_the_ring():
    kinds = set()
    for base in _table_bases():
        kind = base.field.kind
        kinds.add(kind)
        ring = {"Q": fields._IntegersAt, "FUNC": fields._PolynomialsAt}.get(
            kind, fields._ValuedRing)
        assert type(base.ring) is ring, (base.field.name, base.valuations)
    assert {"Q", "FUNC", "QI", "FUNC2"} <= kinds
