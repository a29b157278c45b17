import json

import pytest

from gliderbs import jsonio
from gliderbs.errors import SchemaError
from gliderbs.gbs import realize_field_element
from gliderbs.glider import negative_part
from gliderbs.rank2 import realize_z2


def test_filtration_roundtrip(f5, fa_m2, f23):
    for filt in (f5, f23, fa_m2):
        enc = jsonio.encode_filtration(filt)
        text = jsonio.dumps(enc)
        kind, again = jsonio.detect_and_load(text)
        assert kind == "filtration"
        assert jsonio.encode_filtration(again) == enc
        assert jsonio.roundtrip(text)


def test_glider_roundtrip(f5, fa_m2):
    from gliderbs.gbs import BsPoint, realize_csa_element
    from gliderbs.fields import QQ_FIELD

    fe = QQ_FIELD.from_int
    gliders = [negative_part(f5), realize_field_element(f5, -2),
               realize_csa_element(fa_m2, BsPoint([fe(1), fe(2)]), 1)]
    for g in gliders:
        enc = jsonio.encode_glider(g)
        text = jsonio.dumps(enc)
        kind, again = jsonio.detect_and_load(text)
        assert kind == "glider"
        assert again == g
        assert jsonio.roundtrip(text)


def test_z2_roundtrip():
    g = realize_z2((1, -1))
    text = jsonio.dumps(jsonio.encode_z2(g))
    kind, again = jsonio.detect_and_load(text)
    assert kind == "z2-glider" and again == g
    assert jsonio.roundtrip(text)


def test_lattice_roundtrip(b_m2):
    text = jsonio.dumps(jsonio.encode_lattice(b_m2))
    kind, again = jsonio.detect_and_load(text)
    assert kind == "lattice" and again == b_m2


def test_noncanonical_rows_become_canonical(b_m2):
    enc = jsonio.encode_lattice(b_m2)
    enc["rows"] = [["5", "0", "0", "0"]] + enc["rows"]
    kind, lat = jsonio.detect_and_load(json.dumps(enc))
    assert lat == b_m2
    # second parse of the printed form is a fixed point
    assert jsonio.roundtrip(jsonio.dumps(jsonio.encode_lattice(lat)))


def test_unknown_keys_rejected(f5):
    enc = jsonio.encode_filtration(f5)
    enc["surprise"] = 1
    with pytest.raises(SchemaError):
        jsonio.loads_filtration(enc)


def test_wrong_schema_rejected(f5):
    enc = jsonio.encode_filtration(f5)
    enc["schema"] = "gbs/0"
    with pytest.raises(SchemaError):
        jsonio.loads_filtration(enc)


def test_tail_schema_errors(f5):
    enc = jsonio.encode_glider(negative_part(f5))
    for tail in ({"kind": "geometric"}, {"kind": "multiply"}):
        enc["tail"] = tail
        with pytest.raises(SchemaError):
            jsonio.loads_glider(enc)
    grid = jsonio.encode_z2(realize_z2((0, 0)))
    grid["tailI"] = {"kind": "multiply"}
    with pytest.raises(SchemaError):
        jsonio.loads_z2(grid)


def test_truncated_json_has_position():
    with pytest.raises(SchemaError) as err:
        jsonio.detect_and_load('{"schema": "gbs/1", "phi": ')
    assert "line" in str(err.value)


def test_dumps_deterministic(fa_m2):
    a = jsonio.dumps(jsonio.encode_filtration(fa_m2))
    b = jsonio.dumps(jsonio.encode_filtration(fa_m2))
    assert a == b


def test_extension_declared_ef_checked():
    obj = {"schema": "gbs/1", "minpoly": "t^2+1",
           "valuation": {"over": "5", "kind": "split", "factor": "2+i",
                         "e": 2}}
    with pytest.raises(SchemaError):
        jsonio.loads_extension(obj)
    obj["valuation"]["e"] = 1
    assert jsonio.loads_extension(obj).e == 1
    obj = {"schema": "gbs/1", "minpoly": "t^2-x",
           "valuation": {"over": "0", "e": 1}}
    with pytest.raises(SchemaError, match="declared e=1"):
        jsonio.loads_extension(obj)
    obj["valuation"]["e"] = 2
    assert jsonio.loads_extension(obj).e == 2


@pytest.mark.parametrize("valuation", [
    {"over": "7"}, {"over": "0", "kind": "split"},
    {"over": "0", "factor": "2+i"},
    {"over": "7", "kind": "split", "factor": "2+i"}])
def test_sqrt_x_extension_takes_only_over_zero(valuation):
    obj = {"schema": "gbs/1", "minpoly": "t^2-x", "valuation": valuation}
    with pytest.raises(SchemaError, match=r'takes "over": "0"') as err:
        jsonio.loads_extension(obj)
    assert "(at extension.valuation)" in str(err.value)
    obj["valuation"] = {"over": "0"}
    assert jsonio.loads_extension(obj).minpoly == "t^2-x"


def _documents_of_each_kind(f5, fa_m2, b_m2):
    """One document of each kind that `detect_and_load` tells apart."""
    ident = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    m2 = {"kind": "matrix", "n": 2}
    return {
        "z2-glider": jsonio.encode_z2(realize_z2((1, -1))),
        "glider": jsonio.encode_glider(negative_part(f5)),
        "filtration": jsonio.encode_filtration(fa_m2),
        "extension": {"schema": "gbs/1", "minpoly": "t^2+1",
                      "valuation": {"over": "5", "kind": "split",
                                    "factor": "2+i"}},
        "points": {"schema": "gbs/1", "field": "Q",
                   "points": [["1", "0"], ["2", "2"]]},
        "sample": {"schema": "gbs/1", "algebra": m2,
                   "filtration": jsonio.encode_filtration(f5),
                   "elements": [{"prefix": [{"rows": ident}],
                                 "tail": {"kind": "filtration"}}]},
        "lattice": jsonio.encode_lattice(b_m2),
        "order": {"schema": "gbs/1", "algebra": m2, "maximal": True,
                  "lattice": jsonio.encode_lattice(b_m2)},
    }


def test_every_document_kind_goes_through_an_encoder(f5, fa_m2, b_m2):
    """`roundtrip` re-encodes every kind `detect_and_load` returns: the
    printed form reads back as the same kind and prints the same again."""
    docs = _documents_of_each_kind(f5, fa_m2, b_m2)
    assert set(docs) == set(jsonio._ENCODERS)
    for kind, doc in docs.items():
        got, value = jsonio.detect_and_load(json.dumps(doc))
        enc = jsonio._ENCODERS[kind](value)
        again, value2 = jsonio.detect_and_load(jsonio.dumps(enc))
        assert got == again == kind
        assert jsonio._ENCODERS[kind](value2) == enc
        assert jsonio.roundtrip(json.dumps(doc))
    _, value = jsonio.detect_and_load(json.dumps(docs["points"]))
    assert jsonio._ENCODERS["points"](value) == {
        "schema": "gbs/1", "field": "Q", "points": [["1", "0"], ["1", "1"]]}
    _, value = jsonio.detect_and_load(json.dumps(docs["extension"]))
    assert jsonio._ENCODERS["extension"](value)["valuation"] == {
        "over": "5", "kind": "split", "factor": "2+i", "e": 1, "f": 1}


def test_roundtrip_can_fail(f5, fa_m2, b_m2, monkeypatch):
    """A printed form that is no fixed point gives false, and a kind
    without an encoder a `SchemaError`, not true."""
    text = json.dumps(_documents_of_each_kind(f5, fa_m2, b_m2)["points"])
    encode = jsonio._ENCODERS["points"]
    monkeypatch.setitem(jsonio._ENCODERS, "points", lambda value: {
        **encode(value), "points": 2 * encode(value)["points"]})
    assert jsonio.roundtrip(text) is False
    monkeypatch.delitem(jsonio._ENCODERS, "points")
    with pytest.raises(SchemaError, match="no encoder"):
        jsonio.roundtrip(text)


def _glider_doc(r5):
    from gliderbs.filtration import valuation_filtration

    f5 = valuation_filtration(r5.valuations[0])
    return jsonio.encode_glider(realize_field_element(f5, 0))


def _multiply_glider_doc(r5):
    enc = _glider_doc(r5)
    enc["tail"] = {"kind": "multiply", "ideal": [1]}
    return enc


def _algebra_filtration_doc(r5):
    from gliderbs.filtration import AlgebraFiltration, valuation_filtration
    from gliderbs.orders import builtin_mnr

    order = builtin_mnr(2, r5)
    return jsonio.encode_filtration(AlgebraFiltration(
        order.alg, valuation_filtration(r5.valuations[0]), order.lattice))


def _explicit_filtration_doc(r5):
    from gliderbs.orders import builtin_mnr, maxorder_filtration

    return jsonio.encode_filtration(
        maxorder_filtration(builtin_mnr(2, r5), (1,)))


def _z2_doc(_):
    return jsonio.encode_z2(realize_z2((0, 0)))


def _z2_multiply_doc(r5):
    enc = _z2_doc(r5)
    enc["tailI"] = {"kind": "multiply", "inc": [0, -1]}
    return enc


def _z2_horizontal_doc(r5):
    enc = _z2_doc(r5)
    enc["grid"] = [[{"horizontal": 3 - j} for _ in range(3)]
                   for j in range(3)]
    enc["tailI"] = {"kind": "constant"}
    return enc


def _extension_doc(_):
    return {"schema": "gbs/1", "minpoly": "t^2+1",
            "valuation": {"over": "5", "kind": "split", "factor": "2+i",
                          "e": 1, "f": 1}}


def _table_key(doc):
    table = doc["filtration"]["phi"]["table"]
    table["zero"] = table.pop("0")


# (valid document, key path to one of its integers or a function that
# spoils the document, bad value, reported location)
INTEGER_PROBES = [
    (_glider_doc, ("prefix", 0, "exps", 0), 1.7, "glider.prefix[0].exps[0]"),
    (_glider_doc, ("prefix", 0, "exps", 0), True, "glider.prefix[0].exps[0]"),
    (_glider_doc, ("prefix", 0, "exps", 0), "1", "glider.prefix[0].exps[0]"),
    (_glider_doc, ("filtration", "valuations", 0, "p"), 5.9,
     "glider.filtration.valuations[0].p"),
    (_glider_doc, ("filtration", "phi", "window", 0), 0.0,
     "glider.filtration.phi.window[0]"),
    (_glider_doc, ("filtration", "phi", "table", "0", 0), 0.5,
     "glider.filtration.phi.table.0[0]"),
    (_glider_doc, _table_key, "zero", "glider.filtration.phi.table"),
    (_glider_doc, ("filtration", "phi", "tailPlus", "period"), 1.5,
     "glider.filtration.phi.tailPlus.period"),
    (_glider_doc, ("filtration", "phi", "tailMinus", "inc", 0), 1.5,
     "glider.filtration.phi.tailMinus.inc[0]"),
    (_multiply_glider_doc, ("tail", "ideal", 0), 1.0,
     "glider.tail.ideal[0]"),
    (_algebra_filtration_doc, ("algebra", "desc", "n"), 2.0,
     "filtration.algebra.desc.n"),
    (_algebra_filtration_doc, ("algebra", "order", "dim"), True,
     "filtration.algebra.order.dim"),
    (_explicit_filtration_doc, ("algebra", "window", 1), "1",
     "filtration.algebra.window[1]"),
    (_explicit_filtration_doc, ("algebra", "tailPlus", "period"), 1.0,
     "filtration.algebra.tailPlus.period"),
    (_explicit_filtration_doc, ("algebra", "tailMinus", "inc", 0), 1.5,
     "filtration.algebra.tailMinus.inc[0]"),
    (_z2_doc, ("window", 0), 2.0, "z2-glider.window[0]"),
    (_z2_doc, ("grid", 1, 2, "point", 1), 0.5,
     "z2-glider.grid[1][2].point[1]"),
    (_z2_horizontal_doc, ("grid", 0, 0, "horizontal"), 3.0,
     "z2-glider.grid[0][0].horizontal"),
    (_z2_multiply_doc, ("tailI", "inc", 1), -1.0, "z2-glider.tailI.inc[1]"),
    (_extension_doc, ("valuation", "e"), 1.0, "extension.valuation.e"),
    (_extension_doc, ("valuation", "over"), 5.9, "extension.valuation.over"),
    (_extension_doc, ("valuation", "over"), "5.0",
     "extension.valuation.over"),
]


@pytest.mark.parametrize("make, path, bad, where", INTEGER_PROBES,
                         ids=[w + " " + repr(b) for _, _, b, w in
                              INTEGER_PROBES])
def test_integers_are_checked_at_the_boundary(r5, tmp_path, capsys, make,
                                               path, bad, where):
    from gliderbs.cli import main

    good = tmp_path / "good.json"
    good.write_text(json.dumps(make(r5)))
    assert main(["--output", "json", "roundtrip", str(good)]) == 0
    doc = make(r5)
    if callable(path):
        path(doc)
    else:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--output", "json", "roundtrip", str(probe)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "SchemaError"
    assert f"(at {where})" in report["error"]


def _field_glider_doc(valuation):
    from gliderbs.filtration import valuation_filtration

    return lambda _: jsonio.encode_glider(
        realize_field_element(valuation_filtration(valuation), 0))


def _gauss_glider_doc(r5):
    from gliderbs.fields import gauss_prime

    return _field_glider_doc(gauss_prime("2+i"))(r5)


def _polyprime_glider_doc(r5):
    from gliderbs.fields import poly_prime

    return _field_glider_doc(poly_prime("x^2+1"))(r5)


def _lattice_doc(r5):
    from gliderbs.orders import builtin_mnr

    return jsonio.encode_lattice(builtin_mnr(2, r5).lattice)


DELETE = object()

# (valid document, key path, bad value or DELETE, reported location)
SHAPE_PROBES = [
    (_glider_doc, ("filtration", "field"), 7, "glider.filtration.field"),
    (_glider_doc, ("filtration", "valuations"), 0,
     "glider.filtration.valuations"),
    (_glider_doc, ("prefix",), 3, "glider.prefix"),
    (_glider_doc, ("filtration", "valuations", 0, "p"), DELETE,
     "glider.filtration.valuations[0]"),
    (_glider_doc, ("filtration", "valuations", 0, "kind"), ["padic"],
     "glider.filtration.valuations[0].kind"),
    (_gauss_glider_doc, ("filtration", "valuations", 0, "pi"), DELETE,
     "glider.filtration.valuations[0]"),
    (_gauss_glider_doc, ("filtration", "valuations", 0, "pi"), 5,
     "glider.filtration.valuations[0].pi"),
    (_polyprime_glider_doc, ("filtration", "valuations", 0, "g"), DELETE,
     "glider.filtration.valuations[0]"),
    (_polyprime_glider_doc, ("filtration", "valuations", 0, "g"), 5,
     "glider.filtration.valuations[0].g"),
    (_lattice_doc, ("base", "field"), 7, "lattice.base.field"),
    (_lattice_doc, ("base", "valuations"), {"kind": "padic"},
     "lattice.base.valuations"),
]


@pytest.mark.parametrize("make, path, bad, where", SHAPE_PROBES,
                         ids=[w + (f" without {p[-1]}" if b is DELETE
                                   else f" {b!r}")
                              for _, p, b, w in SHAPE_PROBES])
def test_malformed_nodes_are_schema_errors(r5, tmp_path, capsys, make,
                                           path, bad, where):
    """A node of the wrong type, or a valuation without its parameter, is
    a SchemaError naming its location, never a Python traceback."""
    from gliderbs.cli import main

    doc = make(r5)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if bad is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = bad
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps(doc))
    command = ["roundtrip"] if "rows" in doc else ["classify", "--glider"]
    assert main(["--output", "json", *command, str(probe)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "SchemaError"
    assert f"(at {where})" in report["error"]



def _recorded_document(name):
    """An input document recorded in `golden_output.json`."""
    import os

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_output.json")
    with open(path, encoding="utf-8") as fh:
        return json.loads(json.load(fh)[f"file {name}.json"])


def _classify(doc, tmp_path, capsys):
    from gliderbs.cli import main

    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["--output", "json", "classify", "--glider", str(probe)])
    return code, json.loads(capsys.readouterr().out)


def test_level_exponents_past_the_bound_are_schema_errors(tmp_path, capsys):
    """5^10000 has more digits than Python prints, so a level exponent of
    10000 is refused by the decoder, as is one just past the bound, before
    anything is built."""
    assert jsonio.MAX_EXPONENT == 1000
    for exp in (10000, 1001, -1001):
        doc = _recorded_document("tail_constant")
        doc["prefix"][1]["exps"] = [exp]
        with pytest.raises(SchemaError, match=f"exponent {exp} is past"):
            jsonio.loads_glider(doc)
        code, report = _classify(doc, tmp_path, capsys)
        assert code == 1 and report["kind"] == "SchemaError"
        assert "(at glider.prefix[1].exps[0])" in report["error"]
    doc = _recorded_document("tail_multiply")
    doc["tail"]["ideal"] = [10000]
    code, report = _classify(doc, tmp_path, capsys)
    assert code == 1 and "(at glider.tail.ideal[0])" in report["error"]
    # the degree map's values and increments are exponents too
    doc = _recorded_document("tail_constant")
    doc["filtration"]["phi"]["tailPlus"]["inc"] = [1001]
    code, report = _classify(doc, tmp_path, capsys)
    assert code == 1 and report["kind"] == "SchemaError"
    assert "(at glider.filtration.phi.tailPlus.inc[0])" in report["error"]


def test_a_chain_at_the_exponent_bound_gets_a_verdict(tmp_path, capsys):
    # the realized chain of shift -999: M_0 = 5^999, M_1 = 5^1000
    doc = _recorded_document("tail_filtration")
    doc["prefix"] = [{"exps": [999]}, {"exps": [1000]}]
    code, report = _classify(doc, tmp_path, capsys)
    assert code == 0
    assert report["results"]["verdict"] == "irreducible"
    assert report["results"]["element"] == {"kind": "field", "shift": -999}


def _cli_report(argv, capsys):
    from gliderbs.cli import main

    capsys.readouterr()
    code = main(["--output", "json", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_primes_past_the_bound_are_schema_errors(tmp_path, capsys):
    """A prime past `MAX_PRIME` is refused before trial division tests
    it: 10^20 + 39 kept `classify` running past 10 s."""
    assert jsonio.MAX_PRIME == 10 ** 12
    for p in (10 ** 20 + 39, jsonio.MAX_PRIME + 1, -jsonio.MAX_PRIME - 1):
        doc = _recorded_document("tail_constant")
        doc["filtration"]["valuations"][0]["p"] = p
        with pytest.raises(SchemaError, match=f"{p} is past the bound {jsonio.MAX_PRIME} on primes"):
            jsonio.loads_glider(doc)
        code, report = _classify(doc, tmp_path, capsys)
        assert code == 1 and report["kind"] == "SchemaError"
        assert "(at glider.filtration.valuations[0].p)" in report["error"]
    # the norm of a Gaussian prime: 1000001^2 + 1000000^2 is past 10^12
    filt = {"schema": "gbs/1", "field": "Q(i)",
            "valuations": [{"kind": "gauss", "pi": "1000001+1000000i"}],
            "phi": {"window": [0, 0], "table": {"0": [0]},
                    "tailPlus": {"period": 1, "inc": [1]},
                    "tailMinus": {"period": 1, "inc": [1]}}}
    with pytest.raises(SchemaError, match=r"\(at filtration.valuations"
                                          r"\[0\].pi\)"):
        jsonio.loads_filtration(filt)
    ext = {"schema": "gbs/1", "minpoly": "t^2+1",
           "valuation": {"over": str(10 ** 20 + 39)}}
    with pytest.raises(SchemaError, match=r"\(at extension.valuation.over"):
        jsonio.loads_extension(ext)
    ext["valuation"] = {"over": "5", "kind": "split",
                        "factor": "1000001+1000000i"}
    with pytest.raises(SchemaError, match=r"\(at extension.valuation.factor"):
        jsonio.loads_extension(ext)
    # within the bound the document loads
    ext["valuation"] = {"over": "1000000009", "kind": "split"}
    assert jsonio.roundtrip(jsonio.dumps(ext))


def test_numbers_too_long_to_print_are_typed_errors(tmp_path, capsys):
    """Exponents within `MAX_EXPONENT` still make numbers of more than
    4,300 digits at a prime above 10^4: printing one is an
    `UnsupportedError`, and the command exits 1 with a JSON report."""
    doc = _recorded_document("tail_constant")
    doc["filtration"]["valuations"][0]["p"] = 100003
    doc["prefix"][1]["exps"] = [1000]
    code, report = _classify(doc, tmp_path, capsys)
    assert code == 1 and report["kind"] == "UnsupportedError"
    # two primes, each exponent within the bound: 9973^1000 * 9967^1000
    doc = _recorded_document("tail_constant")
    filt = doc["filtration"]
    filt["valuations"] = [{"kind": "padic", "p": 9973},
                          {"kind": "padic", "p": 9967}]
    filt["phi"]["table"] = {"0": [0, 0]}
    for tail in ("tailPlus", "tailMinus"):
        filt["phi"][tail]["inc"] = [1, 1]
    doc["prefix"] = [{"exps": [0, 0]}, {"exps": [1000, 1000]}]
    code, report = _classify(doc, tmp_path, capsys)
    assert code == 1 and report["kind"] == "UnsupportedError"


def test_element_strings_bound_their_exponents(tmp_path, capsys):
    """A `^` past `MAX_EXPONENT` is refused by its value, before the power
    is built; so is a number of more digits than Python reads."""
    from gliderbs.errors import ParseError
    from gliderbs.fields import MAX_EXPONENT, QQ_FIELD

    assert QQ_FIELD.parse(f"5^-{MAX_EXPONENT}") * \
        QQ_FIELD.parse(f"5^{MAX_EXPONENT}") == 1
    for text in ("5^1001", "5^-10000", "5^" + "9" * 5000, "9" * 5000,
                 "1/0"):
        with pytest.raises(ParseError):
            QQ_FIELD.parse(text)
    lattice = {"base": {"field": "Q",
                        "valuations": [{"kind": "padic", "p": 5}]},
               "dim": 1, "rows": [["5^10000"]]}
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(lattice))
    code, report = _cli_report(["roundtrip", str(path)], capsys)
    assert code == 1 and report["kind"] == "ParseError"
    assert "exponent 10000 is past the bound 1000" in report["error"]
    # a JSON integer of more digits than Python reads
    path.write_text('{"schema": "gbs/1", "field": "Q", "points": [["1", '
                    + "9" * 5000 + ']]}')
    code, report = _cli_report(["roundtrip", str(path)], capsys)
    assert code == 1 and report["kind"] == "SchemaError"


def test_an_element_too_long_to_print_raises_a_typed_error():
    from fractions import Fraction

    from gliderbs.errors import UnsupportedError
    from gliderbs.fields import QQ_FIELD

    big = QQ_FIELD.from_fraction(Fraction(10 ** 5000))
    for show in (str, repr):
        with pytest.raises(UnsupportedError, match="more digits"):
            show(big)
