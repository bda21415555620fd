"""Every imported name is used by the module that imports it.

Walks the syntax tree of each module of the package and of the test suite,
collects the names its import statements bind, and fails on any name the
module never reads.  `from __future__ import annotations` is exempt, since
it binds nothing the module reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "bqkz").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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
