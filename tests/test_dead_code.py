"""Every function and class defined in the library is referenced somewhere:
read as a name, an attribute or an imported name in the library, the tests
or the demos (found by `ast`, so a docstring, a comment or an `__all__`
entry does not count), or named as a word in the benchmark, whose tracer
pins library names in strings.  Dunder names are exempt."""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "gliderbs")
REFERENCING = ("src", "tests", "demos")
NAMING = ("perfbench",)


def _python_files(top):
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _definitions():
    """(name, place) for each non-dunder def and class in the library."""
    out = []
    for path in _python_files(os.path.join("src", "gliderbs")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")):
                out.append((node.name, f"{os.path.relpath(path, ROOT)}:"
                                       f"{node.lineno}"))
    return out


def references(source):
    """The names a module reads: `Name` and `Attribute` nodes and the names
    it imports.  A definition's own name is none of these."""
    out = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _reference_counts():
    counts = Counter()
    for top in REFERENCING:
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                counts.update(references(fh.read()))
    for top in NAMING:
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                counts.update(re.findall(r"\w+", fh.read()))
    return counts


def test_checker_counts_references_not_mentions():
    source = ('__all__ = ["listed"]\n'
              "from .m import imported\n"
              "def documented():\n"
              '    """Calls nothing: not even documented()."""\n'
              "    return obj.attribute, called()  # mentioned\n")
    found = references(source)
    assert {"imported", "obj", "attribute", "called"} <= set(found)
    assert not {"listed", "documented", "mentioned"} & set(found)


def test_no_dead_definitions():
    defs = _definitions()
    assert defs and os.path.isdir(LIBRARY)
    refs = _reference_counts()
    dead = sorted(place + " " + name for name, place in defs
                  if not refs[name])
    assert dead == []


def unread_imports(source):
    """(line, name) for each name a module imports and never reads; names
    listed in `__all__` count as read, `__future__` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return [(line, name) for line, name in imported if name not in read]


def test_checker_flags_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os, json\n"
              "from .rules import RULES\n"
              "from .lattice import span as sp\n"
              "__all__ = ['json']\n"
              "print(os.sep, sp)\n")
    assert unread_imports(source) == [(3, "RULES")]


def test_no_unread_imports():
    unread = []
    for path in _python_files(os.path.join("src", "gliderbs")):
        with open(path, encoding="utf-8") as fh:
            unread += [f"{os.path.relpath(path, ROOT)}:{line} {name}"
                       for line, name in unread_imports(fh.read())]
    assert unread == []


# a criterion id is a string constant like "csa.relative-product"
CRITERION_ID = re.compile(r"^[a-z][a-z0-9]*\.[a-z][a-z0-9-]*$")


def test_every_cited_criterion_is_documented():
    with open(os.path.join(ROOT, "docs", "RULES.md"), encoding="utf-8") as fh:
        rows = set(re.findall(r"^\| `([^`]+)` \|", fh.read(), re.M))
    cited = {}
    for path in _python_files(os.path.join("src", "gliderbs")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    CRITERION_ID.match(node.value):
                cited.setdefault(node.value, os.path.relpath(path, ROOT))
    assert len(cited) >= 10
    assert sorted(f"{place} {cid}" for cid, place in cited.items()
                  if cid not in rows) == []


def _text(node):
    """(text, is_prefix) for a string constant or the constant prefix of
    an f-string, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr) and node.values and \
            isinstance(node.values[0], ast.Constant):
        return node.values[0].value, True
    return None


def out_of_class_reasons(source):
    """The reasons a classifier module can put in an out-of-class verdict:
    each `reason=` argument, each string constant a function returns, and
    the second member of each returned (criterion id, reason) pair."""
    found = []
    for node in ast.walk(ast.parse(source)):
        text = None
        if isinstance(node, ast.keyword) and node.arg == "reason":
            text = _text(node.value)
        elif isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            if isinstance(value, ast.Constant):
                text = _text(value)
            elif isinstance(value, ast.Tuple) and len(value.elts) == 2 \
                    and isinstance(value.elts[0], ast.Constant) \
                    and CRITERION_ID.match(str(value.elts[0].value)):
                text = _text(value.elts[1])
        if text is not None:
            found.append(text)
    return found


def test_reason_checker_reads_each_form():
    source = ("def f(e):\n"
              "    if e:\n"
              "        return 'csa.principal', f'step {e} is wrong'\n"
              "    return 'no completion'\n"
              "def g(r):\n"
              "    return V('out-of-class', reason='zero chain', rule=r)\n"
              "def h(x):\n"
              "    return f'H({x})'\n")
    assert sorted(out_of_class_reasons(source)) == [
        ("no completion", False), ("step ", True), ("zero chain", False)]


def test_every_out_of_class_reason_is_documented():
    with open(os.path.join(ROOT, "docs", "RULES.md"), encoding="utf-8") as fh:
        rows = set(re.findall(r"^\| `[^`]+` \| `([^`]+)` \|", fh.read(),
                              re.M))
    undocumented, count = [], 0
    for name in ("gbs.py", "rank2.py"):
        with open(os.path.join(LIBRARY, name), encoding="utf-8") as fh:
            reasons = out_of_class_reasons(fh.read())
        count += len(reasons)
        undocumented += [
            f"{name} {text!r}" for text, prefix in reasons
            if not any(row == text or prefix and row.startswith(text)
                       for row in rows)]
    assert count >= 10
    assert undocumented == []
