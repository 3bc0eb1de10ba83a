"""One repetition of a workload in a fresh interpreter.

Run by ``run.py``, never imported by it.  The package is imported first, and
the line ``ready`` is printed the moment the import finishes, so the parent
can time interpreter start plus import.  With ``--setup-only`` the child
exits there.  Otherwise it checks that no cached work exists yet, runs the
workload's checks under the speed sampler (``probe.Sampler``), verifies each
result against the pinned values and prints one JSON line with the timings,
the verdicts and the reports.

``solve_s`` is the child's CPU time for the checks, less the sampler's own,
scaled by the sampled rate over ``probe.REFERENCE_RATE``: the time the checks
take on a CPU of the reference speed.  The machine's speed drifts with the
load of other tenants; the sampler measures it at the moments the checks
run, so the scaled time stays put while the wall time moves.  The wall time
is reported too, as ``wall_s``.
"""

import sys

import rookmonoid
import rookmonoid.cli

print("ready", flush=True)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="directory the package must be imported from")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="file to write the traced run's spans to")
    args = parser.parse_args(argv)

    pkg_dir = os.path.realpath(os.path.dirname(rookmonoid.__file__))
    want = os.path.realpath(os.path.join(args.src, "rookmonoid"))
    if pkg_dir != want:
        sys.stderr.write(f"rookmonoid imported from {pkg_dir}, expected {want}\n")
        return 3
    if args.setup_only:
        return 0

    caches = workloads.package_caches(rookmonoid)
    workloads.require_cold(caches)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(rookmonoid)

    with probe.Sampler() as sampler:
        results, t0, wall_s, cpu_s = run_checks(args.workload, args.seed)
    cpu_s -= sampler.cpu_s
    rate = sampler.rate
    speed = rate / probe.REFERENCE_RATE
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "solve_s": cpu_s * speed,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe_rate": rate,
        "peak_rss_mb": peak_rss_mb,
        "caches_checked": len(caches),
        "checks": results,
    }
    if tracer is not None:
        # Span times are scaled like solve_s, so runs at different machine
        # speeds compare; they include the sampler's few percent.
        record["layers"] = {
            name: value * speed if name.endswith((".total_s", ".self_s")) else value
            for name, value in tracer.summary().items()
        }
        record["min_self_s"] = min(tracer.self_times(), default=0.0)
        record["row_space_under_phi_rank"] = tracer.nested_calls("linalg.row_space", "tensor.phi_rank")
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.dump(t0), fh)
    print(json.dumps(record))
    return 0


def run_checks(workload: str, seed: int):
    """Run and verify the workload's checks; return the per-check records,
    the start time, and the wall and CPU seconds of the whole run."""
    results = []
    c0 = time.thread_time()
    t0 = time.perf_counter()
    for label, call, verify in workloads.checks(workload, seed, rookmonoid):
        started = time.perf_counter()
        try:
            out = call()
            problems = verify(out)
        except Exception as exc:  # a failing check is recorded, not fatal
            out = None
            problems = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc()
        results.append({
            "check": label,
            "seconds": time.perf_counter() - started,
            "ok": not problems,
            "problems": problems,
            "output": rookmonoid.reporting.jsonable(out),
        })
    wall_s = time.perf_counter() - t0
    cpu_s = time.thread_time() - c0
    return results, t0, wall_s, cpu_s


if __name__ == "__main__":
    sys.exit(main())
