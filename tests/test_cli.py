import json
import os
import subprocess
import sys

import pytest

from gliderbs import jsonio
from gliderbs.cli import main
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import AlgebraFiltration, valuation_filtration
from gliderbs.gbs import realize_field_element
from gliderbs.lattice import BaseRing, matrix_algebra
from gliderbs.orders import builtin_mnr
from gliderbs.rank2 import realize_z2


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    f5 = valuation_filtration(padic(5))
    order = builtin_mnr(2, f5.base_ring)
    fa = AlgebraFiltration(matrix_algebra(2), f5, order.lattice,
                           mode="induced")
    paths = {}

    def put(name, obj):
        p = tmp / name
        p.write_text(jsonio.dumps(obj) if isinstance(obj, dict)
                     else json.dumps(obj))
        paths[name] = str(p)

    put("fv5.json", jsonio.encode_filtration(f5))
    put("fa.json", jsonio.encode_filtration(fa))
    put("g0.json", jsonio.encode_glider(realize_field_element(f5, 0)))
    put("gm1.json", jsonio.encode_glider(realize_field_element(f5, -1)))
    put("points.json", {"schema": "gbs/1", "field": "Q",
                        "points": [["1", "0"], ["0", "1"]]})
    put("ext.json", {"schema": "gbs/1", "minpoly": "t^2+1",
                     "valuation": {"over": "5", "kind": "split",
                                   "factor": "2+i"}})
    put("z2.json", jsonio.encode_z2(realize_z2((1, -1))))
    ident = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
             ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    put("sample.json", {
        "schema": "gbs/1",
        "filtration": jsonio.encode_filtration(f5),
        "algebra": {"kind": "matrix", "n": 2},
        "elements": [
            {"prefix": [{"rows": ident}], "tail": {"kind": "filtration"}},
            {"prefix": [{"rows": [[str(5 * int(c)) for c in row]
                                  for row in ident]}],
             "tail": {"kind": "filtration"}},
        ]})
    put("bad.json", {"schema": "gbs/1", "phi": {}, "oops": True})
    m2 = {"kind": "matrix", "n": 2}
    r11 = BaseRing(QQ_FIELD, (padic(11),))
    put("m2_11.json", {"schema": "gbs/1", "algebra": m2, "maximal": True,
                       "lattice": jsonio.encode_lattice(
                           builtin_mnr(2, r11).lattice)})
    m2_5 = {"schema": "gbs/1", "algebra": m2,
            "lattice": jsonio.encode_lattice(order.lattice)}
    put("order_schema.json", dict(m2_5, schema="nonsense", maximal=True))
    put("order_maximal_no.json", dict(m2_5, maximal="no"))
    for name, alg in BAD_ALGEBRAS.items():
        put(f"order_{name}.json", dict(m2_5, algebra=alg))
    (tmp / "order_invalid.json").write_text(
        jsonio.dumps(dict(m2_5, maximal=True))[:-3])
    paths["order_invalid.json"] = str(tmp / "order_invalid.json")
    return paths


# algebra objects of order documents that are no algebra
BAD_ALGEBRAS = {
    "a_text": {"kind": "quaternion", "a": "abc", "b": "-1"},
    "a_zero_den": {"kind": "quaternion", "a": "1/0", "b": "-1"},
    "a_list": {"kind": "quaternion", "a": [1], "b": "-1"},
    "no_n": {"kind": "matrix"},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_field_enum(files, capsys):
    code, out = run(capsys, "field-enum", "--filtration",
                    files["fv5.json"], "--window", "-1:1")
    assert code == 0
    assert "3 element(s)" in out


def test_field_enum_json_deterministic(files, capsys):
    args = ("--output", "json", "field-enum", "--filtration",
            files["fv5.json"], "--window", "-3:3")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    report = json.loads(out1)
    assert report["schema"] == "gbs/1"
    assert len(report["results"]) == 7
    assert report["citations"] == ["field.dvr-enumeration"]
    assert "timing" not in report


def test_classify(files, capsys):
    code, out = run(capsys, "--output", "json", "classify", "--glider",
                    files["g0.json"])
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "irreducible"


def test_subglider(files, capsys):
    code, out = run(capsys, "--output", "json", "subglider", "--sub",
                    files["gm1.json"], "--glider", files["g0.json"])
    assert code == 0
    assert json.loads(out)["results"]["kind"] == "T3"


def test_csa_enum(files, capsys):
    code, out = run(capsys, "csa-enum", "--filtration", files["fa.json"],
                    "--points", files["points.json"], "--window", "0:1")
    assert code == 0 and "4 element(s)" in out


def test_strong_and_estep(files, capsys):
    code, out = run(capsys, "--output", "json", "strong-check",
                    "--filtration", files["fv5.json"])
    assert code == 0 and json.loads(out)["results"]["strong"] is True
    code, out = run(capsys, "--output", "json", "estep", "--filtration",
                    files["fv5.json"])
    assert code == 0 and json.loads(out)["results"]["estep"] == 1


def test_maxorder_check(files, capsys):
    code, out = run(capsys, "maxorder-check", "--order", "hurwitz2",
                    "--k", "1")
    assert code == 0 and "not strong" in out
    code, out = run(capsys, "maxorder-check", "--order", "hurwitz2",
                    "--k", "2")
    assert code == 0 and out.strip() == "strong"


def test_maxorder_check_of_a_custom_order_at_11(files, capsys):
    # B/11B has 14641 elements: the radical comes from trace conditions
    code, out = run(capsys, "maxorder-check", "--order", files["m2_11.json"],
                    "--k", "1")
    assert code == 0 and out.strip() == "strong"


@pytest.mark.parametrize("name, message", [
    ("order_invalid.json", "invalid JSON"),
    ("order_schema.json", "schema must be 'gbs/1'"),
    ("order_maximal_no.json", "expected a boolean, got 'no'"),
])
def test_order_document_errors_are_schema_errors(files, capsys, name,
                                                 message):
    code, out = run(capsys, "--output", "json", "maxorder-check", "--order",
                    files[name], "--k", "1")
    report = json.loads(out)
    assert code == 1 and report["kind"] == "SchemaError"
    assert message in report["error"]


@pytest.mark.parametrize("name, message", [
    ("a_text", "expected a rational, got 'abc' (at order.algebra.a)"),
    ("a_zero_den", "expected a rational, got '1/0' (at order.algebra.a)"),
    ("a_list", "expected a rational, got [1] (at order.algebra.a)"),
    ("no_n", "missing keys ['n'] (at order.algebra)"),
])
def test_order_algebra_errors_are_schema_errors(files, capsys, name,
                                                message):
    code, out = run(capsys, "--output", "json", "maxorder-check", "--order",
                    files[f"order_{name}.json"], "--k", "1")
    report = json.loads(out)
    assert code == 1 and report["kind"] == "SchemaError"
    assert message in report["error"]


def test_roundtrip_of_an_order_document(files, capsys):
    code, out = run(capsys, "--output", "json", "roundtrip",
                    files["m2_11.json"])
    assert code == 0 and json.loads(out)["results"] == {"roundtrip": True}


def test_ceil_table(files, capsys):
    code, out = run(capsys, "--output", "json", "ceil-table", "--e", "2",
                    "--window", "-2:2")
    assert code == 0
    table = json.loads(out)["results"]["table"]
    assert table[3][3] == "strict"  # k = l = 1


def test_brandt_verify(files, capsys):
    code, out = run(capsys, "brandt", "verify", "--sample",
                    files["sample.json"])
    assert code == 0
    assert out.count("pass") == 5


def test_rank2_classify(files, capsys):
    code, out = run(capsys, "--output", "json", "rank2", "classify",
                    "--glider", files["z2.json"])
    assert code == 0
    assert json.loads(out)["results"]["shift"] == [1, -1]


def test_tensor_map(files, capsys):
    code, out = run(capsys, "--output", "json", "tensor-map", "--ext",
                    files["ext.json"], "--filtration", files["fa.json"],
                    "--points", files["points.json"], "--shift", "0")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 2
    assert all(r["image"]["shift"] == 0 for r in results)


def test_roundtrip_command(files, capsys):
    code, out = run(capsys, "roundtrip", files["fa.json"])
    assert code == 0


def test_schema_error_exit_code(files, capsys):
    code, _ = run(capsys, "classify", "--glider", files["bad.json"])
    assert code == 1


def test_usage_error_exit_code(files, capsys):
    assert main(["field-enum", "--filtration", files["fv5.json"]]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_file_is_domain_error(capsys):
    code, _ = run(capsys, "strong-check", "--filtration", "/nope.json")
    assert code == 1


def test_commands_back_to_back_match_separate_runs(files, capsys):
    """The parser is built once per process: one command's options and
    defaults do not leak into the next command run in the same process."""
    commands = [
        ("--output", "json", "tensor-map", "--ext", files["ext.json"],
         "--filtration", files["fa.json"], "--points", files["points.json"],
         "--shift", "1"),
        ("rank2", "classify", "--glider", files["z2.json"]),
        ("tensor-map", "--ext", files["ext.json"], "--filtration",
         files["fa.json"], "--points", files["points.json"]),
    ]
    in_process = [run(capsys, *argv) for argv in commands]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    separate = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "gliderbs.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=300)
        separate.append((proc.returncode, proc.stdout))
    assert in_process == separate
    assert json.loads(in_process[0][1])["results"][0]["image"]["shift"] == 1


def _lex_filtration(table, plus, minus):
    lo, hi = min(table), max(table)
    return {"schema": "gbs/1", "field": "Q(x,y)",
            "valuations": [{"kind": "composite2"}],
            "phi": {"window": [lo, hi],
                    "table": {str(n): v for n, v in table.items()},
                    "tailPlus": {"period": 1, "inc": plus},
                    "tailMinus": {"period": 1, "inc": minus}}}


@pytest.mark.parametrize("doc, strong, step", [
    # phi(n) = n * (1, -1): strong, a lex value that falls in y
    (_lex_filtration({0: [0, 0]}, [1, -1], [1, -1]), True, 1),
    # phi(-n) = -2n * (1, 0) below phi(n) = n * (1, 0)
    (_lex_filtration({-1: [-2, 0], 0: [0, 0], 1: [1, 0]}, [1, 0], [2, 0]),
     False, None),
])
def test_a_lex_composite_filtration_document(tmp_path, capsys, doc, strong,
                                             step):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--output", "json", "strong-check",
                    "--filtration", str(path))
    assert code == 0 and json.loads(out)["results"]["strong"] is strong
    code, out = run(capsys, "--output", "json", "estep", "--filtration",
                    str(path))
    assert code == 0 and json.loads(out)["results"]["estep"] == step
    code, out = run(capsys, "--output", "json", "roundtrip", str(path))
    assert code == 0 and json.loads(out)["results"]["roundtrip"] is True


def test_a_window_shorter_than_a_tail_period_is_refused(tmp_path, capsys):
    doc = {"schema": "gbs/1", "field": "Q",
           "valuations": [{"kind": "padic", "p": 5}],
           "phi": {"window": [0, 0], "table": {"0": [0]},
                   "tailPlus": {"period": 2, "inc": [2]},
                   "tailMinus": {"period": 2, "inc": [2]}}}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--output", "json", "strong-check",
                    "--filtration", str(path))
    assert code == 1 and json.loads(out) == {
        "error": "window [0,0] is shorter than the tail period 2",
        "kind": "SpecValidationError", "schema": "gbs/1"}


def _set(*keys_and_value):
    """An edit that sets doc[k1]...[kn] to the value."""
    *keys, value = keys_and_value

    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


def _document(files, key):
    """The fixture document `key`; 'glider' is an algebra glider over the
    induced filtration of fa.json."""
    with open(files["fa.json" if key == "glider" else f"{key}.json"]) as fh:
        doc = json.load(fh)
    if key != "glider":
        return doc
    return {"schema": "gbs/1", "filtration": doc, "ambient": "algebra",
            "prefix": [{"rows": doc["algebra"]["order"]["rows"]}],
            "tail": {"kind": "filtration"}}


@pytest.mark.parametrize("doc_key, edit, command, where", [
    ("glider", _set("filtration", 5), "classify", "glider.filtration"),
    ("glider", _set("prefix", 0, "rows", 5), "classify",
     "glider.prefix[0].rows"),
    ("glider", _set("prefix", 0, "rows", [5]), "classify",
     "glider.prefix[0].rows[0]"),
    ("fa", _set("algebra", "order", "rows", 5), "strong-check",
     "filtration.algebra.order.rows"),
    ("fa", _set("algebra", "order", "rows", [5]), "strong-check",
     "filtration.algebra.order.rows[0]"),
    ("z2", _set("grid", 3), "rank2", "z2-glider.grid"),
    ("z2", _set("grid", [3]), "rank2", "z2-glider.grid[0]"),
    ("points", _set("points", 5), "tensor-map", "points.points"),
    ("points", _set("points", [5]), "tensor-map", "points.points[0]"),
    ("sample", _set("elements", 5), "brandt", "sample.elements"),
    ("sample", _set("elements", [5]), "brandt", "sample.elements[0]"),
    ("fa", _set("algebra", "mode", "explicit"), "strong-check",
     "filtration.algebra"),
    ("fa", _set("algebra", "mode", "weird"), "strong-check",
     "filtration.algebra.mode"),
])
def test_malformed_documents_are_schema_errors(files, capsys, tmp_path,
                                               doc_key, edit, command,
                                               where):
    doc = _document(files, doc_key)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = {
        "classify": ("classify", "--glider", str(path)),
        "strong-check": ("strong-check", "--filtration", str(path)),
        "rank2": ("rank2", "classify", "--glider", str(path)),
        "tensor-map": ("tensor-map", "--ext", files["ext.json"],
                       "--filtration", files["fa.json"], "--points",
                       str(path)),
        "brandt": ("brandt", "verify", "--sample", str(path)),
    }[command]
    code, out = run(capsys, "--output", "json", *argv)
    report = json.loads(out)
    assert code == 1 and report["kind"] == "SchemaError"
    assert report["error"].endswith(f"(at {where})")


def test_assoc_strong_completes_a_filtration_through_the_cli(tmp_path,
                                                             capsys):
    from gliderbs.fields import QQ_FIELD, padic
    from gliderbs.filtration import (FieldFiltration, StepFunction,
                                     associated_strong)
    from gliderbs.glider import Glider, MultiplyBy
    from gliderbs.lattice import FracIdeal

    # R > P^2 > P^3 > ... completes to the valuation filtration
    f = FieldFiltration(QQ_FIELD, (padic(5),), StepFunction(
        (-1, 1), {-1: (-2,), 0: (0,), 1: (1,)}, (1, (1,)), (1, (1,))))
    g = Glider(f, "field", [FracIdeal(f.base_ring, (i,)) for i in range(4)],
               MultiplyBy(FracIdeal(f.base_ring, (1,))))
    (tmp_path / "f.json").write_text(jsonio.dumps(
        jsonio.encode_filtration(f)))
    (tmp_path / "g.json").write_text(jsonio.dumps(jsonio.encode_glider(g)))
    code, out = run(capsys, "--output", "json", "assoc-strong",
                    "--filtration", str(tmp_path / "f.json"),
                    "--glider", str(tmp_path / "g.json"))
    report = json.loads(out)
    assert code == 0 and report["citations"] == ["field.associated-strong"]
    assert report["results"] == jsonio.encode_filtration(
        associated_strong(f, g))
    assert jsonio.loads_filtration(report["results"]).is_dvr_valuation()


def test_maxorder_check_of_the_builtin_m2r(capsys):
    # M_2(Z_(5)) at the 5-adic valuation
    code, out = run(capsys, "--output", "json", "maxorder-check", "--order",
                    "m2r", "--k", "1")
    assert code == 0
    assert json.loads(out)["results"] == {"strong": True, "k": [1]}


def test_timing_adds_only_the_timing_key(files, capsys):
    args = ("classify", "--glider", files["g0.json"])
    code, plain = run(capsys, "--output", "json", *args)
    code_t, timed = run(capsys, "--output", "json", "--timing", *args)
    plain, timed = json.loads(plain), json.loads(timed)
    assert code == code_t == 0
    seconds = timed.pop("timing")["seconds"]
    assert timed == plain and seconds >= 0


def test_a_document_that_is_not_an_object_is_a_schema_error(tmp_path,
                                                            capsys):
    path = tmp_path / "five.json"
    path.write_text("5")
    code, out = run(capsys, "--output", "json", "roundtrip", str(path))
    report = json.loads(out)
    assert code == 1 and report["kind"] == "SchemaError"
    assert report["error"] == "expected an object, got int (at input)"
