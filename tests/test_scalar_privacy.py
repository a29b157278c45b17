"""Field element representations stay private to `gliderbs.fields`: no
other library module builds a `FieldElem(...)`, reads `.rep`, or compares
a field's `.kind` with a field kind name.  The row format of a lattice's
store stays in `lattice.py`: no other library module but `fields.py`
calls a ring's `int_row` or `rat_row`."""

import ast
import os

from gliderbs import fields

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "gliderbs")


def _field_kinds():
    """The kind strings that `Field._init` compares its kind with, read
    from its source, so that a kind added or dropped there is seen here."""
    with open(os.path.join(LIBRARY, "fields.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    field = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Field")
    init = next(node for node in field.body
                if isinstance(node, ast.FunctionDef) and node.name == "_init")
    # the local that `_init` binds to `self.kind`
    kind = next(node.targets[0].id for node in ast.walk(init)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "kind")
    return {c.value for node in ast.walk(init)
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name) and node.left.id == kind
            for c in node.comparators if isinstance(c, ast.Constant)}


FIELD_KINDS = _field_kinds()
ROW_CONVERSIONS = {"int_row", "rat_row"}
# the modules that know the store's row format
ROW_FORMAT_MODULES = {"fields.py", "lattice.py"}


def _names_field_kind(node):
    if isinstance(node, ast.Constant):
        return node.value in FIELD_KINDS
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_field_kind(e) for e in node.elts)
    return False


def rep_leaks(source):
    """(line, what) for each use of a field element's representation."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "FieldElem"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "FieldElem"):
            out.append((node.lineno, "FieldElem(...)"))
        elif isinstance(node, ast.Attribute) and node.attr == "rep":
            out.append((node.lineno, ".rep"))
        elif isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if any(isinstance(o, ast.Attribute) and o.attr == "kind"
                   for o in operands) and \
                    any(_names_field_kind(o) for o in operands):
                out.append((node.lineno, "field .kind test"))
    return sorted(out)


def row_conversions(source):
    """(line, name) for each call of `int_row` or `rat_row`."""
    return sorted((node.lineno, node.func.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ROW_CONVERSIONS)


def _library_sources():
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            with open(os.path.join(LIBRARY, name), encoding="utf-8") as fh:
                yield name, fh.read()


def test_field_kinds_are_read_from_the_field_constructor():
    built = [fields.QQ_FIELD, fields.GAUSS_FIELD, fields.QX_FIELD,
             fields.prime_field(5), fields.inert_residue_field(3),
             fields.quot_field([1, 0, 1])]
    assert {f.kind for f in built} <= FIELD_KINDS


def test_checker_flags_each_pattern():
    source = ("e = FieldElem(fld, (1, 0))\n"
              "r = x.rep.numer\n"
              "if fld.kind in ('FP', 'QUOT'):\n"
              "    pass\n"
              "ok = v.kind == 'padic' and tail.kind != 'multiply'\n")
    assert rep_leaks(source) == [(1, "FieldElem(...)"), (2, ".rep"),
                                 (3, "field .kind test")]


def test_no_module_but_fields_touches_reps():
    leaks = []
    for name, source in _library_sources():
        if name != "fields.py":
            leaks += [f"{name}:{line} {what}"
                      for line, what in rep_leaks(source)]
    assert leaks == []


def test_row_checker_flags_calls_only():
    source = ("nums, d = ring.int_row(row)\n"
              "f = ring.rat_row\n"
              "reps = base.ring.rat_row(nums, d)\n")
    assert row_conversions(source) == [(1, "int_row"), (3, "rat_row")]


def test_no_module_but_lattice_and_fields_converts_rows():
    calls = []
    for name, source in _library_sources():
        if name not in ROW_FORMAT_MODULES:
            calls += [f"{name}:{line} {what}"
                      for line, what in row_conversions(source)]
    assert calls == []
