"""Every size that the input controls has a bound, checked before anything
is built (docs/FORMATS.md): each one is tested by its value, at the bound
and one past it, never by building the size it refuses."""

import json
import re

import pytest

from gliderbs import jsonio
from gliderbs.cli import main
from gliderbs.errors import ParseError, SchemaError, SpecValidationError
from gliderbs.fields import MAX_EXPONENT, QQ_FIELD, QX_FIELD
from gliderbs.lattice import MAX_MATRIX_N

W, P = jsonio.MAX_WINDOW, jsonio.MAX_PREFIX


def phi_doc(lo, hi, period=1):
    """phi(n) = n on the window [lo, hi], with tails of the given period."""
    tail = {"period": period, "inc": [period]}
    return {"window": [lo, hi],
            "table": {str(n): [n] for n in range(lo, hi + 1)},
            "tailPlus": tail, "tailMinus": dict(tail)}


def filtration_doc(phi):
    return {"schema": "gbs/1", "field": "Q",
            "valuations": [{"kind": "padic", "p": 5}], "phi": phi}


def glider_doc(levels):
    return {"schema": "gbs/1", "filtration": filtration_doc(phi_doc(0, 0)),
            "ambient": "field",
            "prefix": [{"exps": [k]} for k in range(levels)],
            "tail": {"kind": "filtration"}}


# -- element strings --------------------------------------------------------

@pytest.mark.parametrize("field, text", [
    (QQ_FIELD, "5^1000"), (QX_FIELD, "(x^2+1)^1000"),
    (QQ_FIELD, "(5^500)^2"), (QQ_FIELD, "(-(5^10))^-100"),
    (QX_FIELD, "((x^10)^10)^10"),
])
def test_powers_within_the_bound_parse(field, text):
    field.parse(text)


@pytest.mark.parametrize("field, text, where", [
    # each power is built only after its nesting is checked, so the
    # largest one built here is 5^1000 or x^1000
    (QQ_FIELD, "((5^1000)^1000)^1000", 10),
    (QX_FIELD, "(x^1000)^1000", 9),
    (QQ_FIELD, "(5^500)^3", 8),
    (QX_FIELD, "(-(x^2)^10)^51", 12),
])
def test_nested_powers_past_the_bound_are_parse_errors(field, text, where):
    with pytest.raises(ParseError, match=f"past the bound {MAX_EXPONENT} "
                                         rf"\(at position {where}\)"):
        field.parse(text)


# -- documents --------------------------------------------------------------

def test_a_window_at_the_bound_decodes():
    phi = jsonio.decode_phi(phi_doc(-W, W))
    assert (phi.lo, phi.hi) == (-W, W)


@pytest.mark.parametrize("lo, hi, where", [(-W - 1, 0, "window[0]"),
                                           (0, W + 1, "window[1]")])
def test_a_window_past_the_bound_is_a_schema_error(lo, hi, where):
    # the table of a window past the bound is never read
    doc = dict(phi_doc(0, 0), window=[lo, hi])
    with pytest.raises(SchemaError, match=re.escape(
            f"degree {hi or lo} is past the bound {W} (at phi.{where})")):
        jsonio.decode_phi(doc)


def test_a_period_at_the_bound_decodes():
    # a window of W + 1 degrees holds one period of W
    phi = jsonio.decode_phi(phi_doc(-(W // 2), W - W // 2, period=W))
    assert phi.plus_period == phi.minus_period == W


def test_a_period_past_the_bound_is_a_schema_error():
    # the window holds the period, so only the bound refuses it
    doc = phi_doc(-(W // 2), W + 1 - W // 2, period=W + 1)
    with pytest.raises(SchemaError, match=rf"period {W + 1} is past the "
                                          rf"bound {W} \(at phi\.tailPlus"):
        jsonio.decode_phi(doc)


def test_an_explicit_algebra_window_past_the_bound_is_a_schema_error():
    doc = filtration_doc(phi_doc(0, 0))
    doc["algebra"] = {"desc": {"kind": "matrix", "n": 1}, "mode": "explicit",
                      "order": {"dim": 1, "rows": [["1"]]},
                      "window": [0, W + 1], "levels": [],
                      "tailPlus": {"period": 1, "inc": [1]},
                      "tailMinus": {"period": 1, "inc": [1]}}
    with pytest.raises(SchemaError, match=r"\(at filtration\.algebra\."
                                          r"window\[1\]\)"):
        jsonio.loads_filtration(doc)


def test_a_prefix_at_the_bound_decodes():
    assert len(jsonio.loads_glider(glider_doc(P)).prefix) == P


def test_a_prefix_past_the_bound_is_a_schema_error():
    with pytest.raises(SchemaError, match=rf"prefix of {P + 1} levels is "
                                          rf"past the bound {P}"):
        jsonio.loads_glider(glider_doc(P + 1))


def test_a_matrix_algebra_past_the_bound_is_refused():
    assert jsonio.decode_algebra(
        {"kind": "matrix", "n": MAX_MATRIX_N}).n == MAX_MATRIX_N
    with pytest.raises(SpecValidationError, match="matrix algebra needs"):
        jsonio.decode_algebra({"kind": "matrix", "n": MAX_MATRIX_N + 1})


# -- command-line options ---------------------------------------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bounds")
    docs = {
        "f.json": filtration_doc(phi_doc(0, 0)),
        "points.json": {"schema": "gbs/1", "field": "Q",
                        "points": [["1", "0"]]},
        "ext.json": {"schema": "gbs/1", "minpoly": "t^2+1",
                     "valuation": {"over": "5", "kind": "split",
                                   "factor": "2+i"}},
    }
    fa = filtration_doc(phi_doc(0, 0))
    fa["algebra"] = {"desc": {"kind": "matrix", "n": 2}, "mode": "induced",
                     "order": {"dim": 4, "rows": [
                         ["1" if i == j else "0" for j in range(4)]
                         for i in range(4)]}}
    docs["fa.json"] = fa
    out = {}
    for name, doc in docs.items():
        (tmp / name).write_text(json.dumps(doc))
        out[name] = str(tmp / name)
    return out


def _commands(files, value):
    """The commands whose option takes the value: a window of one degree,
    or a shift."""
    window = f"{value}:{value}"
    return [
        ["field-enum", "--filtration", files["f.json"], "--window", window],
        ["csa-enum", "--filtration", files["fa.json"], "--points",
         files["points.json"], "--window", window],
        ["ceil-table", "--e", "2", "--window", window],
        ["tensor-map", "--ext", files["ext.json"], "--filtration",
         files["fa.json"], "--points", files["points.json"],
         "--shift", str(value)],
    ]


@pytest.mark.parametrize("value", [W, -W])
def test_options_at_the_bound_run(files, capsys, value):
    for argv in _commands(files, value):
        assert main(["--output", "json", *argv]) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("value", [W + 1, -W - 1])
def test_options_past_the_bound_are_usage_errors(files, capsys, value):
    for argv in _commands(files, value):
        assert main(argv) == 2, argv
        assert f"past the bound {W}" in capsys.readouterr().err
