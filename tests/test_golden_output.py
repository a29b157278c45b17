"""Byte-exact JSON output of the commands that print tail rules.

`golden_output.json` next to this file holds, for a fixed set of inputs,
the bytes of every input document the library encodes and the stdout of
`gbs --output json` on them.  The reports are deterministic (schema
gbs/1), so any difference is a change of the JSON contract.  Re-record
with `PYTHONPATH=src python3 tests/test_golden_output.py` only for a
deliberate byte change, and say why in CHANGES.md.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from gliderbs import jsonio
from gliderbs.cli import main
from gliderbs.fields import QQ_FIELD, padic
from gliderbs.filtration import (AlgebraFiltration, FieldFiltration,
                                 StepFunction, valuation_filtration)
from gliderbs.gbs import realize_field_element
from gliderbs.glider import (Constant, FiltrationTail, Glider, MultiplyBy,
                             ZeroAfter, realize_field_chain)
from gliderbs.lattice import FracIdeal, matrix_algebra
from gliderbs.orders import builtin_mnr
from gliderbs.rank2 import Z2Filtration, Z2Glider, Z2Ideal, Z2MultiplyBy, \
    realize_z2

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_output.json")


def _documents():
    """Input documents by file name, each encoded by the library."""
    f5 = valuation_filtration(padic(5))
    f_mod = FieldFiltration(
        QQ_FIELD, (padic(5),),
        StepFunction((-1, 1), {-1: (-2,), 0: (0,), 1: (1,)},
                     (1, (1,)), (1, (1,))))
    order = builtin_mnr(2, f5.base_ring)
    fa = AlgebraFiltration(matrix_algebra(2), f5, order.lattice,
                           mode="induced")

    def ideal(*exps):
        return FracIdeal(f5.base_ring, exps)

    def field(prefix, tail):
        return Glider(f5, "field", [ideal(e) for e in prefix], tail)

    z2 = Z2Filtration()
    gliders = {
        "g0": realize_field_element(f5, 0),
        "gm1": realize_field_element(f5, -1),
        "gap": field((0, 2, 3), FiltrationTail()),
        "fmod0": realize_field_chain(f_mod, 0),
        "neg_m2": Glider(fa, "algebra", [fa.level(0)], FiltrationTail(),
                         alg=fa.alg),
        "tail_filtration": field((0, 1), FiltrationTail()),
        "tail_multiply": field((0, 1), MultiplyBy(ideal(2))),
        "tail_constant": field((0, 1), Constant()),
        "tail_zeroafter": field((0, 1), ZeroAfter()),
    }
    grids = {
        "z2": realize_z2((1, -1)),
        "z2_multiply": Z2Glider(
            z2, (1, 2), [[Z2Ideal.point(1 - 2 * j, -2 * i)
                          for i in range(3)] for j in range(2)],
            Z2MultiplyBy(-2, 0), Z2MultiplyBy(0, -2)),
        "z2_constant": Z2Glider(
            Z2Filtration("horizontal-only"), (1, 1),
            [[Z2Ideal.horizontal(-j) for _ in range(2)] for j in range(2)],
            FiltrationTail(), Constant()),
        "z2_zeroafter": Z2Glider(
            z2, (1, 1), [[Z2Ideal.point(2 - j, -i) for i in range(2)]
                         for j in range(2)],
            ZeroAfter(), FiltrationTail()),
    }
    ident = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
             ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    docs = {f"{k}.json": jsonio.dumps(jsonio.encode_glider(g))
            for k, g in gliders.items()}
    docs.update({f"{k}.json": jsonio.dumps(jsonio.encode_z2(g))
                 for k, g in grids.items()})
    docs["fa.json"] = jsonio.dumps(jsonio.encode_filtration(fa))
    docs["points.json"] = json.dumps(
        {"schema": "gbs/1", "field": "Q", "points": [["1", "0"], ["0", "1"]]})
    docs["ext.json"] = json.dumps(
        {"schema": "gbs/1", "minpoly": "t^2+1",
         "valuation": {"over": "5", "kind": "split", "factor": "2+i"}})
    docs["sample.json"] = json.dumps({
        "schema": "gbs/1",
        "filtration": jsonio.encode_filtration(f5),
        "algebra": {"kind": "matrix", "n": 2},
        "elements": [
            {"prefix": [{"rows": ident}], "tail": {"kind": "filtration"}},
            {"prefix": [{"rows": [[str(5 * int(c)) for c in row]
                                  for row in ident]}],
             "tail": {"kind": "filtration"}},
        ]})
    return docs


COMMANDS = [
    ("classify gap", ["classify", "--glider", "gap.json"]),
    ("classify fmod0", ["classify", "--glider", "fmod0.json"]),
    ("classify neg_m2", ["classify", "--glider", "neg_m2.json"]),
    ("subglider gm1 g0", ["subglider", "--sub", "gm1.json",
                          "--glider", "g0.json"]),
    ("subglider g0 gap", ["subglider", "--sub", "g0.json",
                          "--glider", "gap.json"]),
    ("brandt mul", ["brandt", "mul", "--sample", "sample.json"]),
    ("brandt inv", ["brandt", "inv", "--sample", "sample.json"]),
    ("brandt unit", ["brandt", "unit", "--sample", "sample.json"]),
    ("rank2 body", ["rank2", "body", "--glider", "z2.json"]),
    ("rank2 residue", ["rank2", "residue", "--glider", "z2.json",
                       "--shift", "0"]),
    ("tensor-map", ["tensor-map", "--ext", "ext.json", "--filtration",
                    "fa.json", "--points", "points.json", "--shift", "0"]),
] + [(f"roundtrip {k}", ["roundtrip", f"{k}.json"])
     for k in ("tail_filtration", "tail_multiply", "tail_constant",
               "tail_zeroafter", "z2", "z2_multiply", "z2_constant",
               "z2_zeroafter")]


def golden_output(tmp):
    """Every recorded entry: 'file <name>' for an input document and the
    command name for a command's exit code and stdout."""
    out = {}
    for name, text in _documents().items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        if name not in ("points.json", "ext.json", "sample.json"):
            out[f"file {name}"] = text
    for name, argv in COMMANDS:
        args = [a if not a.endswith(".json") else os.path.join(tmp, a)
                for a in argv]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["--output", "json"] + args)
        out[name] = {"exit": code, "stdout": buf.getvalue()}
    return out


def _recorded():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


RECORDED = _recorded() if os.path.exists(GOLDEN) else {}

# Deliberate changes against the recording: entry -> (old text, new text).
# `represent_over` tries the chain's own multiply tail before the target
# filtration's tail.  fmod0 is realized with the tail "multiply by (5)";
# over the DVR completion of its filtration that tail and the filtration
# tail give the same levels, so the witness keeps the input's tail.  The
# verdict, witness levels, witness shift and triviality level are as
# recorded.
CHANGED = {
    "classify fmod0": (
        '"tail": {\n        "kind": "filtration"\n      }',
        '"tail": {\n        "ideal": [\n          1\n        ],\n'
        '        "kind": "multiply"\n      }'),
}


def _expected(name):
    want = RECORDED[name]
    if name not in CHANGED:
        return want
    old, new = CHANGED[name]
    assert want["stdout"].count(old) == 1
    return dict(want, stdout=want["stdout"].replace(old, new))


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return golden_output(str(tmp_path_factory.mktemp("golden")))


def test_same_entries(current):
    assert sorted(current) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_bytes_unchanged(current, name):
    assert current[name] == _expected(name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = golden_output(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")
    sys.exit(0)
