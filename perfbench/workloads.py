"""The benchmark's workloads: the checks each one runs and the exact values
each check must return.

A workload is a list of checks.  Each check is one call into the package and
a verifier that compares the call's result with pinned values.  The verifier
returns a list of mismatches; an empty list means the check passed.

Why these three (the map from layers to workloads is in ``tracing.LAYERS``):

- ``annihilator``: the paper's headline at n = 5.  Nearly all the time goes
  to building phi (``tensor``), eliminating it (``linalg``) and one large
  saturation (``ideals``).
- ``blocks``: block decomposition, Specht orthogonality and absorption at
  n = 4.  The time goes to ``algebra`` products and ``specht`` tabloid
  actions; it makes no ``tensor`` call and little elimination, so it is the
  control for changes to phi and to the elimination kernel.
- ``grid``: ``verify-all --n 4 --m 3`` through the command line, the user's
  path: argparse, JSON output and 44 small tasks sharing caches.  It is the
  only workload where ``diagrams``, ``verify`` and ``cli`` do real work, and
  it shows per-call costs that one large elimination hides.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

# Pinned results.  phi's rank is the monoid order minus the annihilator
# dimension: 1546 - 1294 = 252 at (1, 5) and 1546 - 428 = 1118 at (2, 5).
ORDER_5 = 1546
PHI_RANK = {1: 252, 2: 1118}
BLOCK_DIMS = {
    "empty": 1, "1": 16, "2": 36, "1,1": 36, "3": 16, "2,1": 64,
    "1,1,1": 16, "4": 1, "3,1": 9, "2,2": 4, "2,1,1": 9, "1,1,1,1": 1,
}
BLOCK_ORDER_4 = 209
BLOCK_PAIRS = 300
SHAPES_4 = 12
TALL_SHAPES_4 = {1: 7, 2: 3, 3: 1}  # shapes of size <= 4 with more than m rows
GRID_ARGV = ["verify-all", "--n", "4", "--m", "3"]
GRID_TASKS = 44


def package_caches(pkg) -> dict:
    """Every ``lru_cache`` defined in the package's modules, by dotted name."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == pkg.__name__ or mod_name.startswith(pkg.__name__ + ".")):
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)) and getattr(value, "__module__", None) == mod_name:
                out[f"{mod_name}.{attr}"] = value
    return out


def require_cold(caches: dict) -> None:
    """Refuse to time anything if some cache already holds work: a repetition
    must pay for everything a command-line user pays for."""
    warm = {name: f.cache_info().currsize for name, f in caches.items() if f.cache_info().currsize}
    if warm:
        raise RuntimeError(f"package caches are not empty before the first timed call: {warm}")


def _witnesses(rep: dict) -> list[dict]:
    """Every witness of a report that is a dict."""
    return [a["witness"] for a in rep.get("assertions", []) if isinstance(a.get("witness"), dict)]


def _values(rep: dict, key: str) -> list:
    """The value under ``key`` in each witness that has it."""
    return [w[key] for w in _witnesses(rep) if key in w]


def _verify_annihilator(m: int):
    expected = ORDER_5 - PHI_RANK[m]

    def verify(rep) -> list[str]:
        bad = [] if rep["pass"] else ["report does not pass"]
        specht = _values(rep, "specht_count")
        dims = _values(rep, "annihilator") + _values(rep, "ideal")
        if specht != [expected]:
            bad.append(f"specht_count {specht}, expected [{expected}]")
        if not dims or any(d != expected for d in dims):
            bad.append(f"annihilator and ideal dimensions {dims}, expected {expected}")
        return bad

    return verify


def _verify_blocks(rep) -> list[str]:
    bad = [] if rep["pass"] else ["report does not pass"]
    dims = {}
    for w in _witnesses(rep):
        if set(w) == set(BLOCK_DIMS):
            dims = {shape: pair[0] for shape, pair in w.items()}
    if dims != BLOCK_DIMS:
        bad.append(f"block dimensions {dims}, expected {BLOCK_DIMS}")
    if _values(rep, "sum") != [BLOCK_ORDER_4]:
        bad.append(f"block dimension sum {_values(rep, 'sum')}, expected {BLOCK_ORDER_4}")
    if _values(rep, "pairs_checked") != [BLOCK_PAIRS]:
        bad.append(f"pairs checked {_values(rep, 'pairs_checked')}, expected {BLOCK_PAIRS}")
    return bad


def _verify_orthogonality(rep) -> list[str]:
    bad = [] if rep["pass"] else ["report does not pass"]
    checked = _values(rep, "tableaux_checked")
    if len(checked) != SHAPES_4 or not all(1 <= c <= 2 for c in checked):
        bad.append(f"tableaux checked per shape {checked}, expected 1 or 2 for each of {SHAPES_4}")
    return bad


def _verify_absorption(m: int):
    def verify(rep) -> list[str]:
        bad = [] if rep["pass"] else ["report does not pass"]
        got = (_values(rep, "shapes_checked"), _values(rep, "scale"))
        want = ([TALL_SHAPES_4[m]], [math.factorial(m + 1)])
        if got != want:
            bad.append(f"shapes checked and scale {got}, expected {want}")
        return bad

    return verify


def _run_grid(cli):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(GRID_ARGV))
    return {"exit_code": code, "report": json.loads(out.getvalue())}


def _verify_grid(result) -> list[str]:
    rep = result["report"]
    bad = [] if result["exit_code"] == 0 else [f"exit code {result['exit_code']}"]
    tasks = rep.get("assertions", [])
    passing = sum(1 for a in tasks if a["pass"])
    if not rep.get("pass") or len(tasks) != GRID_TASKS or passing != GRID_TASKS:
        bad.append(f"{passing} of {len(tasks)} tasks pass, expected {GRID_TASKS} of {GRID_TASKS}")
    return bad


def checks(name: str, seed: int, pkg) -> list[tuple[str, object, object]]:
    """The (label, call, verify) triples of one workload.

    ``pkg`` is the imported ``rookmonoid`` package.  Each call looks its
    function up on the module when it runs, so a traced run's wrappers are
    the ones called, and the labels can be listed without the package.
    """
    if name == "annihilator":
        return [
            (f"annihilator(m={m},n=5)",
             lambda m=m: pkg.ideals.check_annihilator_ideal(m, 5),
             _verify_annihilator(m))
            for m in (1, 2)
        ]
    if name == "blocks":
        return [
            ("blocks(n=4)",
             lambda: pkg.ideals.check_block_decomposition(4, seed=seed),
             _verify_blocks),
            ("specht-orthogonality(n=4)",
             lambda: pkg.ideals.check_specht_orthogonality(4, seed=seed, sample_tableaux=2),
             _verify_orthogonality),
        ] + [
            (f"absorption(m={m},n=4)",
             lambda m=m: pkg.ideals.check_absorption(m, 4),
             _verify_absorption(m))
            for m in (1, 2, 3)
        ]
    if name == "grid":
        return [("verify-all(n=4,m=3)", lambda: _run_grid(pkg.cli), _verify_grid)]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("annihilator", "blocks", "grid")
