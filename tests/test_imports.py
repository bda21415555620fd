"""Every imported name is used by the module that imports it, and every
module-level definition of the package is referenced somewhere.

Walks the syntax tree of each module of the package and of the test suite,
collects the names its import statements bind, and fails on any name the
module never reads.  `from __future__ import annotations` is exempt, since
it binds nothing the module reads.  Likewise it fails on a module-level
`def` or `class` of the package that no module of the package, the tests
or the benchmark reads outside the definition's own body, by name,
attribute, import or string (the benchmark's tracer patches functions
named in strings).  Counting reads
from the package alone, a definition that only the tests or the benchmark
keep must be one that the benchmark's tracer patches by name.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from test_bench_tracer import load_tracer

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


def statement_reads(source: str) -> list:
    """(line, names) of each top-level statement of a module: every name
    it reads, imports or writes in a string other than a docstring.  An
    `__all__` assignment lists what a module exports, not what it reads,
    so it reads nothing."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    out = []
    for statement in tree.body:
        names = set()
        targets = getattr(statement, "targets", [getattr(statement, "target", None)])
        if any(getattr(target, "id", None) == "__all__" for target in targets):
            out.append((statement.lineno, names))
            continue
        for node in ast.walk(statement):
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
        out.append((statement.lineno, names))
    return out


def unreferenced_definitions(definers: dict, readers: list) -> list:
    """(module, line, name) of each module-level def or class of the
    {module: source} definers that none of the reader sources reads
    outside the definition's own body: a function that only calls itself
    is read by nothing."""
    reads = [(source, line, names) for source in readers
             for line, names in statement_reads(source)]
    found = []
    for module, source in definers.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not any(node.name in names for reader, line, names in reads
                           if (reader, line) != (source, node.lineno)):
                    found.append((module, node.lineno, node.name))
    return found


def test_checker_flags_an_unreferenced_definition():
    package = (
        "def used():\n    return Kept\n"
        "def unused():\n    \"\"\"Not unused().\"\"\"\n"
        "class Kept:\n    pass\n"
        "class Gone:\n    def used(self):\n        pass\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
        "__all__ = ['exported']\ndef exported():\n    pass\n"
    )
    others = ["from m import used\n", "TRACED = ('m.traced',)\n",
              "def traced():\n    pass\n"]
    definers = {"m": package, "t": others[2]}
    assert unreferenced_definitions(definers, [package] + others) == [
        ("m", 3, "unused"), ("m", 7, "Gone"), ("m", 10, "recursive"), ("m", 13, "exported")]


def test_every_package_definition_is_referenced():
    readers = [path.read_text() for path in MODULES + sorted((ROOT / "bench").glob("*.py"))]
    definers = {str(path.relative_to(ROOT)): path.read_text() for path in PACKAGE}
    assert not unreferenced_definitions(definers, readers)


def test_only_the_allowed_definitions_are_read_outside_the_package():
    """A module-level definition that no package module reads is kept only
    while the benchmark tracer patches it by name; once TRACED drops it, or
    a new definition only tests read, this fails."""
    readers = [path.read_text() for path in PACKAGE]
    definers = {path.stem: path.read_text() for path in PACKAGE}
    found = {"%s.%s" % (module, name)
             for module, _, name in unreferenced_definitions(definers, readers)}
    traced = {"%s.%s" % (module.split(".", 1)[1], attr)
              for module, attr, _, _ in load_tracer().TRACED}
    assert found <= traced, ("no package module reads these; delete them or "
                             "move them into tests/: %s" % sorted(found - traced))


def test_only_the_suite_drawer_names_the_scalar_drawers():
    """`suites` decides what a point is: outside `sampling`, which defines
    them, only `suites` names `rand_scalar` and `rand_tuple`, in its
    import and in the one drawer that its runner calls."""
    drawers = {"rand_scalar", "rand_tuple"}
    found = {"%s:%d" % (path.stem, line) for path in PACKAGE if path.stem != "sampling"
             for line, names in statement_reads(path.read_text()) if names & drawers}
    tree = ast.parse((ROOT / "src" / "bqkz" / "suites.py").read_text())
    allowed = {"suites:%d" % node.lineno for node in tree.body
               if getattr(node, "module", None) == "sampling"
               or getattr(node, "name", None) == "_draw"}
    assert found == allowed, found


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


def constructor_calls(source: str, name: str) -> list:
    """Lines of each call of `name(...)` or `<module>.name(...)`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)]


def test_checker_flags_a_constructor_call():
    source = "a = LinOp(sp, {})\nb = LinOp.of(sp, {})\nc = tensor_ops.LinOp(sp)\n"
    assert constructor_calls(source, "LinOp") == [1, 3]


def test_only_tensor_ops_calls_the_state_keyed_constructor():
    """Operators in the package are written with index keys: outside
    `tensor_ops`, no module calls the `LinOp(...)` constructor, which
    converts state-tuple keys."""
    found = ["%s:%d" % (path.name, line) for path in PACKAGE if path.name != "tensor_ops.py"
             for line in constructor_calls(path.read_text(), "LinOp")]
    assert not found, found


def composing_definitions(source: str) -> list:
    """Names of the module-level definitions, or "line <n>" of other
    module-level statements, that call `.compose(` or use `@` anywhere in
    their body."""
    found = []
    for node in ast.parse(source).body:
        if any(isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "compose"
               or isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult)
               for sub in ast.walk(node)):
            found.append(getattr(node, "name", "line %d" % node.lineno))
    return found


def test_checker_flags_a_composing_definition():
    source = (
        "def a(x, y):\n    return x @ y\n"
        "def b(x, y):\n    return x.compose(y)\n"
        "def c(x):\n    def inner(y):\n        y @= x\n    return inner\n"
        "def d(x, y):\n    return x.apply(y) * y\n"
        "e = f @ g\n"
    )
    assert composing_definitions(source) == ["a", "b", "c", "line 11"]


def test_nothing_composes_outside_tensor_ops():
    """`tensor_ops` owns the one product of two operators, `LinOp.compose`:
    no other package module calls `.compose(` or uses `@`.  Every product
    is a chain applied to a block, and the restriction images keep their
    orbit columns by selection (`LinOp.restricted`)."""
    found = ["%s.%s" % (path.stem, name) for path in PACKAGE if path.stem != "tensor_ops"
             for name in composing_definitions(path.read_text())]
    assert found == [], found


def test_every_suite_row_holds_module_level_check_functions():
    """A suite row holds its checks, not a builder of them: every row's
    `checks` and `fixed` is a function defined at the top level of
    `suites`, so no suite builds a closure per run."""
    from bqkz import suites

    for name, suite in suites._SUITES.items():
        for fn in filter(None, (suite.checks, suite.fixed)):
            assert getattr(suites, getattr(fn, "__qualname__", ""), None) is fn, (name, fn)
