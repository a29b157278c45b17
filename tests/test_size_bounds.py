"""Every size that the input controls has a bound, checked before anything
is built (docs/FORMATS.md): each one is tested by its value, at the bound
and one past it, never by building the size it refuses."""

import json
import re

import pytest

from gliderbs import jsonio
from gliderbs.cli import main
from gliderbs.errors import ParseError, SchemaError, SpecValidationError
from gliderbs.fields import (MAX_DEGREE, MAX_DEPTH, MAX_EXPONENT, MAX_TERMS,
                             MAX_WEIGHT, QQ_FIELD, QX_FIELD, field_from_name)
from gliderbs.lattice import MAX_MATRIX_N
from gliderbs.rank2 import realize_z2

W, P = jsonio.MAX_WINDOW, jsonio.MAX_PREFIX
G = jsonio.MAX_GRID_WINDOW


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


def test_a_power_at_the_weight_bound_parses():
    # a literal of MAX_WEIGHT bits to the first power, and 10^1000,
    # whose literal has 4 bits
    n = 2 ** (MAX_WEIGHT - 1)
    assert QQ_FIELD.parse(f"({n})^1") == n
    QQ_FIELD.parse("10^1000")


@pytest.mark.parametrize("field, text, where, weight", [
    # one bit past the bound, to the first power
    (QQ_FIELD, f"({2 ** MAX_WEIGHT})^1", 3 + len(
        str(2 ** MAX_WEIGHT)), MAX_WEIGHT + 1),
    (QQ_FIELD, "16^1000", 3, 5000),
    # a power of a sum is not nested, but its weight is bounded: the
    # largest power built here is (x^2+1)^1000
    (QQ_FIELD, "(5^1000+1)^1000", 11, 3001000),
    (QX_FIELD, "((x^2+1)^1000+1)^1000", 17, 3001000),
    (QX_FIELD, "(x^4+x^3+x^2+x+1)^1000", 18, 8000),
])
def test_heavy_powers_are_parse_errors(field, text, where, weight):
    with pytest.raises(ParseError, match=re.escape(
            f"a power of weight {weight} is past the bound "
            f"{MAX_WEIGHT} (at position {where})")):
        field.parse(text)


@pytest.mark.parametrize("field, text, message", [
    # a product, a quotient and a sum are weighed as a power is: the
    # second factor of a long product of 5^1000 is refused at its "*"
    (QQ_FIELD, "*".join(["5^1000"] * 400),
     "a product of weight 6000 is past the bound 4000 (at position 6)"),
    (QQ_FIELD, "5^1000/3^1000",
     "a quotient of weight 5000 is past the bound 4000 (at position 6)"),
    # a/b + c/d is (ad + bc)/(bd): the sum of two small fractions is as
    # heavy as its denominator
    (QQ_FIELD, "1/3^1000+1/5^1000",
     "a sum of weight 8002 is past the bound 4000 (at position 8)"),
    (field_from_name("F3(x)"), "1/x^1000+1/(x+1)^1000",
     "a sum of weight 5002 is past the bound 4000 (at position 8)"),
    # over Q(x,y) each node has a total degree: the first factor of the
    # 43-character product of four (x+y+1)^60 is refused before it is
    # built
    (field_from_name("Q(x,y)"), "*".join(["(x+y+1)^60"] * 4),
     f"a power of degree 60 is past the bound {MAX_DEGREE} (at position "
     "8)"),
    (field_from_name("Q(x,y)"), "x^20*y^11",
     f"a product of degree 31 is past the bound {MAX_DEGREE} (at position "
     "4)"),
    (field_from_name("Q(x,y)"), "1/x^16+1/y^15",
     f"a sum of degree 47 is past the bound {MAX_DEGREE} (at position 6)"),
    # and the nodes of one string allow at most MAX_TERMS terms in all: each
    # x^30 allows 496, and so does their sum
    (field_from_name("Q(x,y)"), "x^30+x^30",
     f"the string allows 1488 terms, past the bound {MAX_TERMS} (at "
     "position 4)"),
    (QQ_FIELD, "0^-1", "division by zero in literal (at position 3)"),
])
def test_heavy_nodes_are_parse_errors(field, text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        field.parse(text)


def test_parentheses_nest_to_the_bound():
    # one level more was a RecursionError at about 250 levels; signs do not
    # nest at all
    assert QQ_FIELD.parse("(" * MAX_DEPTH + "5" + ")" * MAX_DEPTH) == 5
    assert QQ_FIELD.parse("1*" + "-" * 5001 + "1") == -1
    with pytest.raises(ParseError, match=re.escape(
            f"parentheses nest past the bound {MAX_DEPTH} (at position "
            f"{MAX_DEPTH})")):
        QQ_FIELD.parse("(" * 3000 + "5" + ")" * 3000)


def test_nodes_at_the_bounds_parse():
    qxy = field_from_name("Q(x,y)")
    QQ_FIELD.parse("5^1000+5^1000")
    # degree 30, with 31 terms, and two nodes of 496 allowed terms each
    qxy.parse("(x+y)^30")
    qxy.parse("x^30+y")
    qxy.parse("(x+y+1)^13*(x-y+1)^13")


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


def test_a_grid_window_at_the_bound_decodes():
    g = jsonio.loads_z2(jsonio.encode_z2(realize_z2((1, -1), (G, G))))
    assert (g.J, g.I) == (G, G)


@pytest.mark.parametrize("end", [0, 1])
def test_a_grid_window_past_the_bound_is_a_schema_error(end):
    # the cells of a window past the bound are never read
    doc = jsonio.encode_z2(realize_z2((1, -1)))
    doc["window"][end] = G + 1
    doc["grid"] = "unread"
    with pytest.raises(SchemaError, match=re.escape(
            f"grid end {G + 1} is past the bound {G} "
            f"(at z2-glider.window[{end}])")):
        jsonio.loads_z2(doc)


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
