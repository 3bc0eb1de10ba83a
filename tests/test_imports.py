"""Every module of the package uses each name it imports.

A plain ``ast`` scan: a name bound by ``import`` or ``from ... import`` must
appear somewhere in the module as a name (an attribute access ``math.comb``
counts as a use of ``math``).  ``__init__`` is skipped, since re-exporting
is its job, and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import rookmonoid

PACKAGE = Path(rookmonoid.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom x import a, b as c\nprint(os.sep, c)\n"
    assert unused_imports(source) == ["a", "math"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
