"""Time the level-by-level annihilator check from the command line.

Runs ``rookmonoid verify-schur-weyl`` in a fresh interpreter for each case
(n = 6 and n = 7 for every m >= 1, then (1, 5) and (2, 5), all at the
default cap), one at a time, and records its wall time, peak resident
memory, exit code, pass flag and the per-level dimensions of ann_k and I_k
from the report.  Given a second checkout of the repository (say, the
parent commit), each case also runs there right after, on the same machine,
with ``--max-cells`` raised past the default cap so that an older guard does
not refuse it, and its wall time, memory, exit code and pass flag are
recorded beside, with that checkout's commit.  A second interpreter times
the Specht count (``annihilator_dimension_formula``) alone, the part of the
check that does not run level by level.  Also times the refusals at (1, 8)
and (2, 8), ``rookmonoid specht-dims`` at n = 6, 7 and 8 and its refusal at
n = 9, and the quasi-idempotent products and block ideals:
``verify-blocks`` at n = 4, 5 and 6 and its refusal at n = 7,
``e-element --n 6 --lambda 6`` and ``--n 7 --lambda 7`` and the refusal
of ``--n 8 --lambda 8``, ``verify-lemma-3-10`` at n = 4, 5, 6 and 7 and
its refusal at n = 8, and ``verify-lemma-4-4`` at (m, n) = (2, 6), (3, 6),
(4, 6), (5, 6) and (6, 7) and its refusal at (1, 7), each in the second
checkout too.
Then the groupoid basis-change certificate alone
(``basis_change_failures``) at n = 5, 6, 7 and 8, with its own time and the
interpreter's peak resident memory, in the second checkout too.  Then the
tensor homomorphism certificate alone (``check_tensor_homomorphism``) at
(n, m) = (5, 2) and (6, 1), the same way.  Last, the
Specht characters alone (``groupoid.characters(k)``, the per-level
certificate of the check) for each k <= 8, each in a fresh interpreter,
with their time, whether they certify the level and the peak memory.
Each timed row runs ``REPEATS`` times, alternating with the second
checkout when one is given, since the host's speed moves a single run by
up to half: the row records its runs' wall times (``wall_runs_s``), and
each time in it (a key ending in ``_s``) is the median over the runs; its
other fields come from the run of median wall time.
Writes the result as JSON:

    python3 scripts/bench_levels.py BENCH_levels.json [PARENT_CHECKOUT]
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAISED_CAP = 100_000_000
REPEATS = 3  # runs of each timed row; odd, so the median is a run's own time
CASES = [(m, n) for n in (6, 7) for m in range(1, n)] + [(1, 5), (2, 5)]
REFUSED = [(1, 8), (2, 8)]
SPECHT_DIMS = {6: 0, 7: 0, 8: 0, 9: 3}  # n -> expected exit code
PRODUCTS = [  # (argv, expected exit code; a second checkout's is recorded, not required)
    (["verify-blocks", "--n", "4"], 0),
    (["verify-blocks", "--n", "5"], 0),
    (["verify-blocks", "--n", "6"], 0),
    (["verify-blocks", "--n", "7"], 3),
    (["e-element", "--n", "6", "--lambda", "6"], 0),
    (["e-element", "--n", "7", "--lambda", "7"], 0),
    (["e-element", "--n", "8", "--lambda", "8"], 3),
    (["verify-lemma-3-10", "--n", "4"], 0),
    (["verify-lemma-3-10", "--n", "5"], 0),
    (["verify-lemma-3-10", "--n", "6"], 0),
    (["verify-lemma-3-10", "--n", "7"], 0),
    (["verify-lemma-3-10", "--n", "8"], 3),
    (["verify-lemma-4-4", "--n", "6", "--m", "2"], 0),
    (["verify-lemma-4-4", "--n", "6", "--m", "3"], 0),
    (["verify-lemma-4-4", "--n", "6", "--m", "4"], 0),
    (["verify-lemma-4-4", "--n", "6", "--m", "5"], 0),
    (["verify-lemma-4-4", "--n", "7", "--m", "6"], 0),
    (["verify-lemma-4-4", "--n", "7", "--m", "1"], 3),
]
VERIFIERS = ("verify-blocks", "verify-lemma-3-10", "verify-lemma-4-4")  # print a report with a pass flag
CERTIFICATE_N = [5, 6, 7, 8]
TENSOR_CASES = [(5, 2), (6, 1)]  # (n, m)
CHARACTERS_K = range(9)


FORMULA = "from rookmonoid.ideals import annihilator_dimension_formula as f; f({m}, {n})"
CERTIFICATE = """\
import json, resource, time
from rookmonoid.diagrams import monoid_order
from rookmonoid.groupoid import basis_change_failures
started = time.perf_counter()
failing, unit, products, reached = basis_change_failures({n})
print(json.dumps({{
    "certificate_s": round(time.perf_counter() - started, 2),
    "certified": not failing and unit and reached == monoid_order({n}),
    "products": products,
    "reached": reached,
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}}))
"""


TENSOR = """\
import json, resource, time
from rookmonoid.verify import check_tensor_homomorphism
started = time.perf_counter()
rep = check_tensor_homomorphism({n}, {m})
print(json.dumps({{
    "tensor_s": round(time.perf_counter() - started, 3),
    "certified": rep["pass"],
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}}))
"""


CHARACTERS = """\
import json, resource, time
from rookmonoid.groupoid import characters
started = time.perf_counter()
chars = characters({k})
print(json.dumps({{
    "characters_s": round(time.perf_counter() - started, 2),
    "certified": chars.certified,
    "shapes": len(chars.table),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}}))
"""


def run(
    m: int, n: int, max_cells: int | None = None, *, formula_only: bool = False, root: Path = ROOT
) -> tuple[float, subprocess.CompletedProcess]:
    """One fresh interpreter: the whole check, or only its Specht count."""
    if formula_only:
        return run_argv(["-c", FORMULA.format(m=m, n=n)], root)
    cap = ["--max-cells", str(max_cells)] if max_cells else []
    argv = ["-m", "rookmonoid", "verify-schur-weyl", "--m", str(m), "--n", str(n), *cap]
    return run_argv(argv, root)


LAUNCHER = """\
import os, signal, sys
pid = os.fork()
if pid == 0:
    signal.alarm(600)
    os.execv(sys.executable, [sys.executable, *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def run_argv(args: list[str], root: Path = ROOT) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter on ``args`` with ``root``'s sources, killed by
    SIGALRM after 600 s; the result's ``peak_rss_mb`` is the child's own
    peak memory.

    A process's peak includes the memory of the process it was forked from,
    kept across ``exec``, so the child is forked from ``LAUNCHER``, a bare
    interpreter smaller than any run, and not from this script; the
    launcher reports the child's exit code and peak on a pipe."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    argv = [sys.executable, *args]
    read, write = os.pipe()
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-S", "-c", LAUNCHER, str(write), *args],
            stdout=out, stderr=err, env=env, pass_fds=(write,), check=True,
        )
        wall = time.perf_counter() - started
        os.close(write)
        with os.fdopen(read) as report:
            code, maxrss = map(int, report.read().split())
        out.seek(0)
        err.seek(0)
        proc = subprocess.CompletedProcess(argv, code, out.read().decode(), err.read().decode())
    proc.peak_rss_mb = round(maxrss / 1024, 1)
    return wall, proc


def outcome(wall: float, proc: subprocess.CompletedProcess) -> dict:
    """Wall time, peak memory, exit code and pass flag of one check run."""
    rep = json.loads(proc.stdout) if proc.returncode in (0, 1) else {}
    return {"wall_s": round(wall, 2), "peak_rss_mb": proc.peak_rss_mb,
            "exit_code": proc.returncode, "pass": rep.get("pass")}


def repeated(once, parent: Path | None = None) -> dict:
    """``once(root)`` run ``REPEATS`` times in this checkout, each followed
    by a run in ``parent`` when one is given, summed up by ``median_entry``;
    the parent's summary goes under ``"parent"``."""
    roots = [ROOT, parent] if parent else [ROOT]
    runs = [[] for _ in roots]
    for _ in range(REPEATS):
        for root, done in zip(roots, runs):
            done.append(once(root))
    entry, *beside = map(median_entry, runs)
    return entry | {"parent": beside[0]} if beside else entry


def median_entry(runs: list[dict]) -> dict:
    """The run of median wall time, each time in it replaced by the median
    over ``runs``, and the runs' wall times in ``wall_runs_s``."""
    def median(values):
        return sorted(values)[len(values) // 2]

    middle = sorted(runs, key=lambda r: r["wall_s"])[len(runs) // 2]
    times = {
        key: median([r[key] for r in runs])
        for key, value in middle.items()
        if key.endswith("_s") and isinstance(value, (int, float))
    }
    return {**middle, **times, "wall_runs_s": [r["wall_s"] for r in runs]}


def certificate_run(params: dict, root: Path, script: str = CERTIFICATE) -> dict:
    """One certificate alone at ``params`` (n, or k, or n and m), in a
    fresh interpreter."""
    wall, proc = run_argv(["-c", script.format(**params)], root)
    entry = {**params, "wall_s": round(wall, 2), "exit_code": proc.returncode}
    if proc.returncode == 0:
        entry.update(json.loads(proc.stdout))
    else:
        entry["stderr"] = proc.stderr.strip()
    return entry


def product_run(argv: list[str], root: Path) -> dict:
    """One product or verifier command in a fresh interpreter: its wall
    time, peak memory, exit code, and its pass flag or term count."""
    wall, proc = run_argv(["-m", "rookmonoid", *argv], root)
    entry = {"wall_s": round(wall, 2), "peak_rss_mb": proc.peak_rss_mb,
             "exit_code": proc.returncode}
    if argv[0] in VERIFIERS and proc.returncode in (0, 1):
        entry["pass"] = json.loads(proc.stdout)["pass"]
    elif proc.returncode == 0:
        entry["terms"] = len(json.loads(proc.stdout)["terms"])
    else:
        entry["stderr"] = proc.stderr.strip()
    return entry


def case_run(m: int, n: int, root: Path) -> dict:
    """The whole check at (m, n); in this checkout also its Specht count
    alone and the per-level dimensions, and in another the cap raised."""
    if root != ROOT:
        return outcome(*run(m, n, RAISED_CAP, root=root))
    wall, proc = run(m, n)
    fills = next(
        a for a in json.loads(proc.stdout)["assertions"]
        if a["name"] == "ideal fills the annihilator"
    )
    return {
        "m": m,
        "n": n,
        **outcome(wall, proc),
        "specht_count_wall_s": round(run(m, n, formula_only=True)[0], 2),
        "annihilator": fills["witness"]["annihilator"],
        "dim_ann_k": fills["witness"]["annihilator_by_level"],
        "dim_I_k": fills["witness"]["ideal_by_level"],
    }


def refused_run(m: int, n: int, root: Path) -> dict:
    wall, proc = run(m, n, root=root)
    return {"m": m, "n": n, "wall_s": round(wall, 2), "exit_code": proc.returncode,
            "stderr": proc.stderr.strip()}


def specht_dims_run(n: int, root: Path) -> dict:
    wall, proc = run_argv(["-m", "rookmonoid", "specht-dims", "--n", str(n)], root)
    entry = {"n": n, "wall_s": round(wall, 2), "exit_code": proc.returncode}
    if proc.returncode == 0:
        entry["sum_of_squares"] = json.loads(proc.stdout)["sum_of_squares"]
    else:
        entry["stderr"] = proc.stderr.strip()
    return entry


def main(out: str, parent: Path | None = None) -> int:
    def rows(once, params, beside=parent):
        entries = []
        for p in params:
            entries.append(repeated(lambda root: once(*p, root), beside))
            print(json.dumps(entries[-1]), file=sys.stderr)
        return entries

    cases = rows(case_run, CASES)
    refused = rows(refused_run, REFUSED, None)
    specht_dims = rows(specht_dims_run, [(n,) for n in SPECHT_DIMS], None)
    products = [
        {"argv": argv, **entry, "expected_exit_code": expected}
        for (argv, expected), entry in zip(PRODUCTS, rows(product_run, [(a,) for a, _ in PRODUCTS]))
    ]
    certificate = rows(certificate_run, [({"n": n},) for n in CERTIFICATE_N])
    tensor = rows(lambda params, root: certificate_run(params, root, TENSOR),
                  [({"n": n, "m": m},) for n, m in TENSOR_CASES])
    characters = rows(lambda params, root: certificate_run(params, root, CHARACTERS),
                      [({"k": k},) for k in CHARACTERS_K], None)
    record = {
        "command": "python3 scripts/bench_levels.py BENCH_levels.json",
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "parent_commit": parent and subprocess.run(
            ["git", "-C", str(parent), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip(),
        "cases": cases,
        "refused": refused,
        "specht_dims": specht_dims,
        "products": products,
        "certificate": certificate,
        "tensor_homomorphism": tensor,
        "characters": characters,
    }
    Path(out).write_text(json.dumps(record, indent=2) + "\n")
    ok = (
        all(c["exit_code"] == 0 and c.get("parent", c)["exit_code"] == 0 for c in cases)
        and all(r["exit_code"] == 3 for r in refused)
        and all(d["exit_code"] == SPECHT_DIMS[d["n"]] for d in specht_dims)
        and all(p["exit_code"] == p["expected_exit_code"] for p in products)
        and all(
            c.get("certified") and c.get("parent", c).get("certified")
            for c in certificate + tensor
        )
        and all(c.get("certified") for c in characters)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(
        sys.argv[1] if len(sys.argv) > 1 else "BENCH_levels.json",
        Path(sys.argv[2]).resolve() if len(sys.argv) > 2 else None,
    ))
