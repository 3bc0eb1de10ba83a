"""Every module of the package uses each name it imports, and every name it
defines is used by the package itself.

Plain ``ast`` scans.  A name bound by ``import`` or ``from ... import`` must
appear somewhere in the module as a name (an attribute access ``math.comb``
counts as a use of ``math``).  A function, class or method must be named
somewhere in the package outside its own definition, so ``src/`` holds no
API that only the tests use.  ``__init__`` is skipped, since re-exporting
is its job, and so are ``from __future__`` imports and dunder methods.
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


# Defined for the benchmark: ``perfbench/tracing.py`` wraps both as spans,
# though no package code calls them any more.
BENCHMARK_ONLY = {"tensor.element_matrix", "tensor.annihilator_basis"}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Dotted name of each module-level function or class, and each method,
    in ``sources`` (module name -> source) whose name appears nowhere else
    in them as a name, an attribute or an imported name."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{f.name}", f.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(
        dotted
        for dotted, name in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    )


def test_scan_flags_an_unused_definition():
    sources = {
        "a": "def used():\n    pass\n\nclass C:\n    def __eq__(self, o):\n        return 0\n"
        "    def method(self):\n        pass\n\ndef planted():\n    pass\n",
        "b": "from a import used\nused()\nC().method()\n",
    }
    assert unreferenced_definitions(sources) == ["a.planted"]
    sources["b"] = "from a import used\nused()\n"
    assert unreferenced_definitions(sources) == ["a.C", "a.C.method", "a.planted"]


def test_package_defines_no_test_only_api():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    sources = {p.stem: p.read_text() for p in modules}
    assert unreferenced_definitions(sources) == sorted(BENCHMARK_ONLY)
