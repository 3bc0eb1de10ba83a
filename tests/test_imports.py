"""Every module of the package uses each name it imports, and every name it
defines is used by the package itself.

Plain ``ast`` scans.  A name bound by ``import`` or ``from ... import`` must
appear somewhere in the module as a name (an attribute access ``math.comb``
counts as a use of ``math``).  A function, class or method must be
referred to somewhere in the package, with each name resolved to the
definition its module binds, so ``src/`` holds no API that only the tests
use.  ``__init__`` is skipped, since re-exporting is its job, and so are
``from __future__`` imports and dunder methods.

Every command line run imports the package afresh, so a cold import must
not load what no run needs: ``dataclasses`` alone pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``.
"""

import ast
import os
import subprocess
import sys
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


# Defined for the benchmark: ``perfbench/tracing.py`` wraps each as a span,
# though no package code calls them any more.
BENCHMARK_ONLY = {
    "linalg.SpanBasis.contains",
    "tensor.annihilator_basis",
    "tensor.element_matrix",
}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Dotted name of each module-level function or class, and each method,
    in ``sources`` (module name -> source) that nothing in them refers to.

    A name refers to the definition it is bound to in its module: its own
    top-level definition, or the one ``from .x import name`` brings in.
    ``x.name`` refers to module x's definition when x is a module bound by
    ``from . import x``.  Any other ``obj.name`` refers to the methods
    ``name`` of the classes the module itself names, or to every method
    ``name`` when it names none of their classes.  So a test-only definition
    that shares its name with a used one in another module is still found.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined: dict[tuple[str, str | None, str], str] = {}  # (module, class, name) -> dotted
    owners: dict[str, set[tuple[str, str | None, str]]] = {}  # method name -> its keys
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[(module, None, node.name)] = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        key = (module, node.name, f.name)
                        defined[key] = f"{module}.{node.name}.{f.name}"
                        owners.setdefault(f.name, set()).add(key)
    used = set()
    for module, tree in trees.items():
        bound = {name: (m, None, name) for m, c, name in defined if m == module and c is None}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    if node.module is None:
                        modules[a.asname or a.name] = a.name
                    else:
                        bound[a.asname or a.name] = (node.module.split(".")[-1], None, a.name)
        here, attrs = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in bound:
                here.add(bound[node.id])
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    here.add((modules[node.value.id], None, node.attr))
                else:
                    attrs.add(node.attr)
        named = {(m, name) for m, _, name in here}
        for attr in attrs:
            candidates = owners.get(attr, set())
            used |= {k for k in candidates if k[:2] in named} or candidates
        used |= here
    return sorted(
        dotted
        for key, dotted in defined.items()
        if not (key[2].startswith("__") and key[2].endswith("__")) and key not in used
    )


def test_scan_flags_an_unused_definition():
    sources = {
        "a": "def used():\n    pass\n\nclass C:\n    def __eq__(self, o):\n        return 0\n"
        "    def method(self):\n        pass\n\ndef planted():\n    pass\n",
        "b": "from a import C, used\nused()\nC().method()\n",
    }
    assert unreferenced_definitions(sources) == ["a.planted"]
    sources["b"] = "from a import used\nused()\n"
    assert unreferenced_definitions(sources) == ["a.C", "a.C.method", "a.planted"]


def test_scan_flags_a_definition_named_like_a_used_one():
    # a.rank, E.star and M.is_zero share their names with used definitions
    # elsewhere, and nothing refers to them
    sources = {
        "a": "def rank(m):\n    pass\n",
        "b": "def rank(d):\n    pass\n\ndef star(d):\n    pass\n\nclass E:\n"
        "    def star(self):\n        pass\n    def is_zero(self):\n        pass\n",
        "c": "class M:\n    def is_zero(self):\n        pass\n",
        "d": "from . import b\nfrom .b import E, star\nb.rank(star(1))\nE().is_zero()\n",
        "e": "from .c import M\nM()\nrank = 0\nprint(rank)\n",
    }
    assert unreferenced_definitions(sources) == ["a.rank", "b.E.star", "c.M.is_zero"]


def test_package_defines_no_test_only_api():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    sources = {p.stem: p.read_text() for p in modules}
    assert unreferenced_definitions(sources) == sorted(BENCHMARK_ONLY)


def guards_outside_the_cli(sources: dict[str, str]) -> list[str]:
    """Each module in ``sources`` (module name -> source) other than ``cli``
    and ``__init__`` that imports ``caps``, and each function outside ``cli``
    and ``caps`` with a ``max_cells`` parameter: size guards run in one
    layer, the command line, and library functions compute what they are
    asked."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and module not in ("cli", "__init__"):
                if node.module:
                    names = {node.module.split(".")[-1]}
                else:
                    names = {a.name for a in node.names}
                if "caps" in names:
                    found.add(f"{module} imports caps")
            if isinstance(node, ast.FunctionDef) and module not in ("cli", "caps"):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if "max_cells" in (a.arg for a in params):
                    found.add(f"{module}.{node.name} takes max_cells")
    return sorted(found)


def test_scan_flags_a_guard_outside_the_cli():
    sources = {
        "cli": "from . import caps\n\ndef run(n, max_cells):\n    caps.check(n, max_cells)\n",
        "caps": "def check(n, max_cells=10):\n    pass\n",
        "__init__": "from .caps import check\n",
        "a": "from .caps import check\n\ndef f(n, *, max_cells=10):\n    check(n, max_cells)\n",
        "b": "from . import caps, x\nfrom rookmonoid.caps import check\n",
        "c": "def g(n):\n    def inner(max_cells):\n        pass\n",
    }
    assert guards_outside_the_cli(sources) == [
        "a imports caps",
        "a.f takes max_cells",
        "b imports caps",
        "c.inner takes max_cells",
    ]


def test_only_the_cli_guards():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert {"cli", "caps", "__init__"} <= sources.keys()
    assert guards_outside_the_cli(sources) == []


# ``dataclasses`` and what it pulls in, and ``csv``, which one output
# format alone uses; a cold start needs none of them.
COLD_START_FREE = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}


def test_cold_import_loads_no_module_it_does_not_need():
    code = (
        "import sys; before = set(sys.modules); import rookmonoid, rookmonoid.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "rookmonoid.cli" in loaded
    assert sorted(loaded & COLD_START_FREE) == []
