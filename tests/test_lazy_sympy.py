"""sympy stays off the import path: no library module imports it at module
level, and in a fresh process neither `import gliderbs.cli` nor a
selftest criterion that builds no Q(x,y) field and no polynomial prime
loads it.  Q(x,y) (criterion 9) and `poly_prime` do."""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "gliderbs")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.join(ROOT, "src")]
    + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def module_level_imports(source):
    """(line, module) for each import outside a function body: at the
    top, or in a class body or an `if`/`try` block run at import."""
    out = []

    def walk(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                out.extend((node.lineno, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                out.append((node.lineno, node.module or ""))
            walk(ast.iter_child_nodes(node))

    walk(ast.parse(source).body)
    return sorted(out)


def test_checker_finds_module_level_imports_only():
    source = ("import sympy.polys\n"
              "try:\n"
              "    from sympy import QQ\n"
              "except ImportError:\n"
              "    pass\n"
              "class C:\n"
              "    import sympy\n"
              "    def f(self):\n"
              "        from sympy import Poly\n"
              "def g():\n"
              "    import sympy\n")
    assert module_level_imports(source) == [
        (1, "sympy.polys"), (3, "sympy"), (7, "sympy")]


def test_no_library_module_imports_sympy_at_module_level():
    found = []
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            with open(os.path.join(LIBRARY, name), encoding="utf-8") as fh:
                found += [f"{name}:{line} {module}" for line, module in
                          module_level_imports(fh.read())
                          if module.split(".")[0] == "sympy"]
    assert found == []


def _run(code):
    """Run `code` in a fresh Python process that imports the library."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_import_and_criteria_leave_sympy_unloaded():
    """One process: sympy stays out of `sys.modules` after the import and
    after each criterion but 9 in turn.  A module, once loaded, stays
    loaded, so none of these criteria loads sympy on its own either, and
    the first that did would be named."""
    _run("import sys\n"
         "from gliderbs.cli import main\n"
         "assert 'sympy' not in sys.modules, 'import'\n"
         "for n in (1, 2, 3, 4, 5, 6, 7, 8, 10):\n"
         "    assert main(['selftest', '--criteria', str(n)]) == 0, n\n"
         "    assert 'sympy' not in sys.modules, n\n")


@pytest.mark.parametrize("statement", [
    "main(['selftest', '--criteria', '9'])",
    "field_from_name('Q(x,y)')",
    "poly_prime('x^2+1', QX_FIELD)"],
    ids=["criterion-9", "Q(x,y)", "poly_prime"])
def test_sympy_loads_on_first_use(statement):
    _run("import sys\n"
         "from gliderbs.cli import main\n"
         "from gliderbs.fields import QX_FIELD, field_from_name, "
         "poly_prime\n"
         "assert 'sympy' not in sys.modules\n"
         f"{statement}\n"
         "assert 'sympy' in sys.modules\n")
