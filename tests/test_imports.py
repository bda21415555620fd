"""Every imported name is used by the module that imports it, and every
module-level definition of the package is referenced somewhere.

Walks the syntax tree of each module of the package and of the test suite,
collects the names its import statements bind, and fails on any name the
module never reads.  `from __future__ import annotations` is exempt, since
it binds nothing the module reads.  Likewise it fails on a module-level
`def` or `class` of the package that no module of the package, the tests
or the benchmark reads, by name, attribute, import or string (the
benchmark's tracer patches functions named in strings).
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "bqkz").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_checker_flags_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import pi as PI, tau\n"
        "print(sys.argv, tau)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "PI")]


def test_no_unused_imports():
    assert MODULES
    found = []
    for path in MODULES:
        for line, name in unused_imports(path.read_text()):
            found.append("%s:%d %s" % (path.relative_to(ROOT), line, name))
    assert not found, found


def referenced_names(source: str) -> set:
    """Every name a module reads, imports or writes in a string other than
    a docstring."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in docstrings:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def unreferenced_definitions(definers: dict, readers: list) -> list:
    """(module, line, name) of each module-level def or class of the
    {module: source} definers that none of the reader sources reads."""
    read = set().union(*(referenced_names(source) for source in readers))
    found = []
    for module, source in definers.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in read:
                    found.append((module, node.lineno, node.name))
    return found


def test_checker_flags_an_unreferenced_definition():
    package = (
        "def used():\n    return Kept\n"
        "def unused():\n    \"\"\"Not unused().\"\"\"\n"
        "class Kept:\n    pass\n"
        "class Gone:\n    def used(self):\n        pass\n"
    )
    others = ["from m import used\n", "TRACED = ('m.traced',)\n",
              "def traced():\n    pass\n"]
    definers = {"m": package, "t": others[2]}
    assert unreferenced_definitions(definers, [package] + others) == [
        ("m", 3, "unused"), ("m", 7, "Gone")]


def test_every_package_definition_is_referenced():
    readers = [path.read_text() for path in MODULES + sorted((ROOT / "bench").glob("*.py"))]
    definers = {str(path.relative_to(ROOT)): path.read_text() for path in PACKAGE}
    assert not unreferenced_definitions(definers, readers)


def test_the_cli_imports_no_process_pool():
    """`bqkz` runs in one process, so its start-up loads no pool machinery."""
    code = (
        "import sys, bqkz.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_verify_loads_no_numpy_and_no_solver():
    """The exact suites read no floating-point arrays, so a `verify` run
    leaves numpy and the contour-integral solver unloaded."""
    code = (
        "import sys, bqkz.cli; "
        "code = bqkz.cli.main(['verify', '--suite', 'ybe', '--samples', '1']); "
        "print(code, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'numpy' or m == 'bqkz.integral_solver'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []", out
