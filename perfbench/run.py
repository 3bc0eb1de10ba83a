"""Run one workload of the rookmonoid benchmark and print its metrics.

    python3 perfbench/run.py --workload annihilator --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every repetition runs in a fresh interpreter, because the
package keeps ``lru_cache``s that would let a second repetition in the same
process skip most of the work, and a command-line user pays for that work on
every run.  One caller runs one check at a time (a closed loop), pinned to
one CPU; ``solve_s`` is the checks' CPU time scaled to a reference speed by
a speed sampler inside the child (see ``child.py`` and ``probe.py``).

With ``--trace 0`` the run repeats the workload until ``--seconds`` have
passed and at least ``MIN_REPS`` repetitions are done, times
``SETUP_PER_REP`` interpreter starts with the package import before each
repetition (``setup_s``, scaled by a bare interpreter start after each),
and reports medians of ``solve_s``, ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.LAYERS`` plus the tracing overhead.  Every
repetition's results are checked against pinned values; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PER_REP = 10  # set-up samples taken before each repetition
# A set-up sample is a start with the package import over a bare interpreter
# start made right after it, times BARE_START_S: the set-up time on a machine
# where a bare start takes that long.  Both starts slow down alike when the
# shared machine does, so the ratio stays put while each time moves.
BARE_START_S = 0.05
BARE_CMD = [sys.executable, "-c", "print('ready', flush=True)"]
# A run cycles through this many input seeds, ``seed * SUB_SEEDS + k``, so its
# median covers several inputs and one cheap or costly input cannot decide it.
SUB_SEEDS = 3
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a whole run must end within 180 s
# Hash randomization only touches string-keyed containers here; pinning it
# removes one source of run-to-run difference at no cost.
HASH_SEED = "0"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def bench_cpu() -> int:
    """The CPU the runner pins itself and its children to."""
    return max(os.sched_getaffinity(0))


def child_cmd(extra: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--src", str(SRC), *extra]


def spawn(cmd: list[str], timeout: float) -> dict:
    """Start ``cmd``; return its ready time, exit code and output.

    The child leads its own process group, so a timeout kills anything it
    started along with it."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(max(timeout, 1.0), kill_group)
    killer.start()
    try:
        # Read the first line a byte at a time: communicate() reads the pipe
        # itself and would miss anything a buffered readline() kept.
        first = b""
        while not first.endswith(b"\n"):
            byte = os.read(proc.stdout.fileno(), 1)
            if not byte:
                break
            first += byte
        ready_s = time.perf_counter() - started
        out, err = proc.communicate()
    finally:
        killer.cancel()
    lines = out.strip().splitlines()
    return {
        "ready_s": ready_s if first.strip() == b"ready" else None,
        "code": proc.returncode,
        "last": lines[-1] if lines else "",
        "stderr": err,
    }


def setup_times(samples: int, timeout: float) -> list[tuple[float, float]]:
    """Ready times of ``samples`` pairs: a start that imports the package,
    then a bare interpreter start."""
    pairs = []
    for _ in range(samples):
        pair = []
        for cmd in (child_cmd(["--setup-only"]), BARE_CMD):
            res = spawn(cmd, timeout)
            if res["code"] != 0 or res["ready_s"] is None:
                raise RuntimeError(f"setup child failed ({res['code']}):\n{res['stderr']}")
            pair.append(res["ready_s"])
        pairs.append((pair[0], pair[1]))
    return pairs


def spans_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"spans-{workload}-seed{seed}.json"


def run_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    extra = ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        extra += ["--spans-out", str(spans_path(workload, seed))]
    res = spawn(child_cmd(extra), timeout)
    rec = None
    if res["code"] == 0:
        try:
            rec = json.loads(res["last"])
        except json.JSONDecodeError:
            rec = None
    if rec is None:
        labels = [label for label, _, _ in workloads.checks(workload, seed, None)]
        sys.stderr.write(f"repetition failed (exit {res['code']}):\n{res['stderr']}\n")
        rec = {"checks": [{"check": lb, "ok": False, "problems": ["child failed"],
                           "output": None} for lb in labels]}
    for check in rec["checks"]:
        if not check["ok"]:
            sys.stderr.write(f"check {check['check']} failed: {check['problems']}\n")
    rec["traced"] = traced
    rec["seed"] = seed
    rec["ok"] = all(c["ok"] for c in rec["checks"])
    return rec


def high_percentile(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it, or
    None when there are fewer than eleven samples."""
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return None
    return {"percentile": 100 * k // len(xs), "value": xs[k - 1]}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rookmonoid" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC / 'rookmonoid'}; run from a source checkout\n")
        return 2
    began = time.perf_counter()
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "commit": commit(),
        "pythonhashseed": HASH_SEED,
        "bench_cpu": bench_cpu(),
        "probe_reference_rate": probe.REFERENCE_RATE,
    }

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - began)

    # Every child inherits this CPU: the two starts of a set-up sample must
    # run on one CPU, since the CPUs of a shared machine run at different
    # speeds, and a repetition stays on the CPU its speed samples describe.
    os.sched_setaffinity(0, {bench_cpu()})
    setup_pairs: list[tuple[float, float]] = []
    reps: list[dict] = []
    enough = 2 if args.trace else MIN_REPS
    try:
        setup_times(1, left())  # untimed: the first start compiles the bytecode caches
        t_start = time.perf_counter()
        while left() > 0:
            # Set-up samples are spread over the run, so one slow moment of a
            # shared machine does not decide their median.
            if not args.trace:
                setup_pairs += setup_times(SETUP_PER_REP, left())
            i = len(reps)
            traced = bool(args.trace) and i % 2 == 1
            # A traced repetition uses the input of the untraced one before it.
            k = (i // 2 if args.trace else i) % SUB_SEEDS
            reps.append(run_rep(args.workload, args.seed * SUB_SEEDS + k, traced, left()))
            if time.perf_counter() - t_start >= args.seconds and len(reps) >= enough:
                break
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    env["loadavg_end"] = os.getloadavg()

    attempted = sum(len(r["checks"]) for r in reps)
    failed = sum(1 for r in reps for c in r["checks"] if not c["ok"])
    finished = [r for r in reps if "solve_s" in r]
    # Times of failed checks are used only when nothing passed, and then the
    # result says it is not correct.
    pool = [r for r in finished if r["ok"]] or finished
    plain = [r for r in pool if not r["traced"]]
    traced = [r for r in pool if r["traced"]]
    outputs: dict[int, set] = {}
    for r in pool:
        outputs.setdefault(r["seed"], set()).add(
            json.dumps([c["output"] for c in r["checks"]], sort_keys=True))
    correct = failed == 0 and all(len(o) == 1 for o in outputs.values())
    if not correct and failed == 0:
        sys.stderr.write("repetitions of one input returned different reports\n")
    if not plain or (args.trace and not traced):
        sys.stderr.write("no repetition finished\n")
        return 1
    if traced and min(r["min_self_s"] for r in traced) < -1e-9:
        sys.stderr.write("a span has negative self time\n")
        correct = False

    solve = [r["solve_s"] for r in plain]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "repetitions": len(reps),
        "input_seeds": [r["seed"] for r in reps],
        "fail_rate": {"value": failed / attempted, "unit": "ratio"},
        "solve_s": {"median": statistics.median(solve), "count": len(solve),
                    "high_percentile": high_percentile(solve), "samples": solve},
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "probe_rate": [r["probe_rate"] for r in plain],
        "check_s": {c["check"]: statistics.median(
            r["checks"][i]["seconds"] for r in plain) for i, c in enumerate(plain[0]["checks"])},
    }
    if args.trace:
        traced_solve = [r["solve_s"] for r in traced]
        metrics = {
            m["name"]: {"value": statistics.median(r["layers"][m["name"]] for r in traced),
                        "unit": m["unit"]}
            for m in tracing.per_layer_metrics() if m["name"] != tracing.OVERHEAD
        }
        metrics[tracing.OVERHEAD] = {
            "value": statistics.median(traced_solve) - statistics.median(solve), "unit": "s"}
        detail["traced_solve_s"] = traced_solve
        detail["spans_file"] = str(spans_path(args.workload, traced[-1]["seed"]).relative_to(ROOT))
    else:
        setup = [full / bare * BARE_START_S for full, bare in setup_pairs]
        metrics = {
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
        detail["setup_s"] = {"median": statistics.median(setup), "count": len(setup),
                             "quartiles": statistics.quantiles(setup, n=4),
                             "import_start_median": statistics.median(f for f, _ in setup_pairs),
                             "bare_start_median": statistics.median(b for _, b in setup_pairs)}
        for name in ("solve_s", "setup_s", "peak_rss_mb"):
            print(f"{args.workload} {name} {metrics[name]['value']:.4f} {metrics[name]['unit']}")
    print(f"{args.workload} fail_rate {failed / attempted:.4f} ratio ({failed} of {attempted} checks)")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
