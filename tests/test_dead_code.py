"""Every function and class defined in the library is named somewhere
besides its own definition: in the library, the tests, the demos or the
benchmark.  Dunder names are exempt."""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "gliderbs")
SEARCHED = ("src", "tests", "demos", "perfbench")


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


def _word_counts():
    counts = Counter()
    for top in SEARCHED:
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                counts.update(re.findall(r"\w+", fh.read()))
    return counts


def test_no_dead_definitions():
    defs = _definitions()
    assert defs and os.path.isdir(LIBRARY)
    per_name = Counter(name for name, _ in defs)
    words = _word_counts()
    dead = sorted(place + " " + name for name, place in defs
                  if words[name] <= per_name[name])
    assert dead == []
