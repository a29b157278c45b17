"""Glider levels answer one protocol: `FracIdeal`, `Lattice` and
`ZERO_MODULE` all have `contains`, `==`, `add`, `scale_ideal` and `scale`,
and a chain's zero has one spelling.  Outside `gliderbs.lattice` (and the
wire format in `gliderbs.jsonio`) no module asks what kind a level is,
except where `Glider.__init__` checks the ambient and where a witness or a
growth ideal is read off a fractional ideal; no module keeps a `level_*`
dispatch helper."""

import ast
import json
import os

import pytest

from gliderbs import jsonio
from gliderbs.cli import main
from gliderbs.errors import BaseMismatchError
from gliderbs.fields import QQ_FIELD
from gliderbs.gbs import classify_csa_glider
from gliderbs.glider import (Constant, FiltrationTail, Glider, ZeroAfter,
                             essential_length)
from gliderbs.lattice import ZERO_MODULE, FracIdeal, span

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "gliderbs")
LEVEL_CLASSES = {"FracIdeal", "Lattice"}
KIND_MODULES = {"lattice.py", "jsonio.py"}
ALLOWED_SCOPES = {"glider.py": {"Glider.__init__", "_containment_witness",
                                "_growth_between"}}


def _names_level_class(node):
    if isinstance(node, ast.Name):
        return node.id in LEVEL_CLASSES
    if isinstance(node, ast.Attribute):
        return node.attr in LEVEL_CLASSES
    if isinstance(node, ast.Tuple):
        return any(_names_level_class(e) for e in node.elts)
    return False


def level_dispatch(source, allowed=(), kind_tests=True):
    """(line, what) for each level dispatch helper definition and, when
    `kind_tests`, each isinstance test against a level class outside the
    `allowed` qualified scopes."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef) and \
                        child.name.lstrip("_").startswith("level_"):
                    out.append((child.lineno, f"def {child.name}"))
                visit(child, f"{scope}.{child.name}" if scope
                      else child.name)
                continue
            if kind_tests and isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Name) and \
                    child.func.id == "isinstance" and \
                    len(child.args) == 2 and \
                    _names_level_class(child.args[1]) and \
                    scope not in allowed:
                out.append((child.lineno, "level kind test"))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(out)


def test_checker_flags_each_pattern():
    source = ("def level_eq(a, b):\n"
              "    return a == b\n"
              "class Glider:\n"
              "    def __init__(self, lvl):\n"
              "        assert isinstance(lvl, Lattice)\n"
              "    def act(self, lvl):\n"
              "        return isinstance(lvl, (lattice.FracIdeal, int))\n"
              "def _level_is_zero(x):\n"
              "    return isinstance(x, Tail)\n")
    assert level_dispatch(source, {"Glider.__init__"}) == [
        (1, "def level_eq"), (7, "level kind test"),
        (8, "def _level_is_zero")]
    assert level_dispatch(source, ()) == [
        (1, "def level_eq"), (5, "level kind test"), (7, "level kind test"),
        (8, "def _level_is_zero")]


def test_no_level_dispatch_outside_the_kernel():
    found = []
    for name in sorted(os.listdir(LIBRARY)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(LIBRARY, name), encoding="utf-8") as fh:
            source = fh.read()
        found += [f"{name}:{line} {what}" for line, what in level_dispatch(
            source, ALLOWED_SCOPES.get(name, ()),
            kind_tests=name not in KIND_MODULES)]
    assert found == []


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------

def _levels(r5, b_m2):
    return FracIdeal(r5, (1,)), b_m2


def test_zero_is_the_null_level(r5, b_m2):
    five = QQ_FIELD.from_int(5)
    for lvl in _levels(r5, b_m2):
        assert lvl.contains(ZERO_MODULE)
        assert not ZERO_MODULE.contains(lvl)
        assert lvl.add(ZERO_MODULE) is lvl
        assert ZERO_MODULE.add(lvl) is lvl
        assert lvl != ZERO_MODULE and ZERO_MODULE != lvl
    assert ZERO_MODULE.contains(ZERO_MODULE)
    assert ZERO_MODULE.add(ZERO_MODULE) is ZERO_MODULE
    assert ZERO_MODULE.scale(five) is ZERO_MODULE
    assert ZERO_MODULE.scale_ideal(FracIdeal(r5, (2,))) is ZERO_MODULE


def test_ideals_and_lattices_scale_alike(r5, b_m2):
    five = QQ_FIELD.from_int(5)
    ideal = FracIdeal(r5, (1,))
    for lvl in _levels(r5, b_m2):
        assert lvl.scale(five) == lvl.scale_ideal(ideal)
        assert lvl.contains(lvl.scale(five))
        assert not lvl.scale(five).contains(lvl)
        assert lvl.add(lvl.scale(five)) == lvl


def test_mixed_level_kinds_are_rejected(r5, b_m2):
    with pytest.raises(BaseMismatchError):
        FracIdeal(r5, (0,)).contains(b_m2)
    with pytest.raises(BaseMismatchError):
        FracIdeal(r5, (0,)).add(b_m2)


# ---------------------------------------------------------------------------
# one spelling of zero
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tail", [FiltrationTail(), ZeroAfter(), Constant()],
                         ids=lambda t: t.kind)
def test_rank0_level_is_the_zero_level(tail, fa_m2, r5, b_m2):
    rank0 = Glider(fa_m2, "algebra", [b_m2, span(r5, 4, [])], tail)
    zero = Glider(fa_m2, "algebra", [b_m2, ZERO_MODULE], tail)
    assert rank0.prefix[1] is ZERO_MODULE
    assert rank0 == zero
    assert essential_length(rank0) == essential_length(zero) == 0
    got, want = classify_csa_glider(rank0), classify_csa_glider(zero)
    assert (got.status, got.rule, got.witness_shift) == \
        (want.status, want.rule, want.witness_shift) == \
        ("reducible", "csa.principal", 0)
    assert got.witness == want.witness


@pytest.fixture()
def zero_spellings(tmp_path, fa_m2, b_m2):
    """One chain [O, 0] over M_2(Z_(5)), with its zero level written as
    "zero" and as a level whose rows span nothing."""
    top = {"rows": [[str(e) for e in row] for row in b_m2.rows]}
    paths = {}
    for name, zero in (("word", "zero"), ("rows", {"rows": []})):
        obj = {"schema": "gbs/1",
               "filtration": jsonio.encode_filtration(fa_m2),
               "ambient": "algebra", "prefix": [top, zero],
               "tail": {"kind": "filtration"}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def test_cli_reads_both_zero_spellings_alike(zero_spellings, capsys):
    outs = []
    for name in ("word", "rows"):
        code = main(["--output", "json", "classify", "--glider",
                     zero_spellings[name]])
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and '"reducible"' in outs[0][1]


def test_rank0_level_reencodes_as_zero(zero_spellings):
    with open(zero_spellings["rows"], encoding="utf-8") as fh:
        text = fh.read()
    assert jsonio.roundtrip(text)
    g = jsonio.loads_glider(text)
    assert jsonio.encode_glider(g)["prefix"][1] == "zero"
