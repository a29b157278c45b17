"""Two rules that a reading of the source checks.  `fields.pid_ring`
chooses the kernel's ring from the field alone: it tests no valuation
(no `isinstance`, no `.kind` but the field's), so a future valuation
kind cannot route one place to two kernels.  The input bounds in
`docs/FORMATS.md` are the numbers the code uses."""

import ast
import os
import re

from gliderbs import fields, jsonio, lattice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _function(source, name):
    return next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def valuation_tests(func):
    """(line, what) for each test in `func` that reads more than its
    `field` argument: an `isinstance` call, or a `.kind` of anything
    else."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance":
            out.append((node.lineno, "isinstance"))
        elif isinstance(node, ast.Attribute) and node.attr == "kind" and not (
                isinstance(node.value, ast.Name) and node.value.id == "field"):
            out.append((node.lineno, ".kind"))
    return sorted(out)


def test_pid_ring_reads_only_the_field():
    with open(os.path.join(ROOT, "src", "gliderbs", "fields.py"),
              encoding="utf-8") as fh:
        func = _function(fh.read(), "pid_ring")
    assert valuation_tests(func) == []


def test_the_check_sees_a_valuation_test():
    source = '''
def pid_ring(field, valuations):
    if field is QQ_FIELD and all(isinstance(v, _PAdic) for v in valuations):
        return _IntegersAt(tuple(v.p for v in valuations))
    if field.kind == "FUNC" and all(v.kind != "gauss" for v in valuations):
        return _PolynomialsAt(field, valuations)
    return _ValuedRing(field, valuations)
'''
    assert valuation_tests(_function(source, "pid_ring")) == [
        (3, "isinstance"), (5, ".kind")]


def _stated_bound(text, name):
    """The number that the docs state next to the constant `name`, as in
    "at most 1000 in absolute value (`jsonio.MAX_EXPONENT`)" or "at most
    10^12 (`jsonio.MAX_PRIME`)"."""
    m = re.search(r"at most (\d+)(?:\^(\d+))?[^(]*\(`" + re.escape(name) +
                  "`", text)
    assert m, f"docs/FORMATS.md states no bound for {name}"
    base, exp = m.groups()
    return int(base) ** int(exp or 1)


def test_the_documented_bounds_are_the_codes():
    with open(os.path.join(ROOT, "docs", "FORMATS.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    assert jsonio.MAX_EXPONENT is fields.MAX_EXPONENT
    assert _stated_bound(text, "jsonio.MAX_EXPONENT") == jsonio.MAX_EXPONENT
    assert _stated_bound(text, "fields.MAX_EXPONENT") == fields.MAX_EXPONENT
    assert _stated_bound(text, "jsonio.MAX_PRIME") == jsonio.MAX_PRIME
    assert _stated_bound(text, "jsonio.MAX_WINDOW") == jsonio.MAX_WINDOW
    assert _stated_bound(text, "jsonio.MAX_PREFIX") == jsonio.MAX_PREFIX
    assert _stated_bound(text, "fields.MAX_WEIGHT") == fields.MAX_WEIGHT
    assert _stated_bound(text, "fields.MAX_DEGREE") == fields.MAX_DEGREE
    assert _stated_bound(text, "fields.MAX_TERMS") == fields.MAX_TERMS
    assert _stated_bound(text, "fields.MAX_DEPTH") == fields.MAX_DEPTH
    assert _stated_bound(text, "jsonio.MAX_GRID_WINDOW") == \
        jsonio.MAX_GRID_WINDOW
    assert _stated_bound(text, "lattice.MAX_MATRIX_N") == \
        lattice.MAX_MATRIX_N
