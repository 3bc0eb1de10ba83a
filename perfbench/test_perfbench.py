"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The module-scoped fixture runs the ``grid`` workload twice in fresh
interpreters, once untraced and once traced (about 15 s in all).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probe
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def grid_pair():
    return [run.run_rep("grid", 0, traced, timeout=150) for traced in (False, True)]


def test_every_repetition_starts_cold(grid_pair):
    # The child refuses to time anything while a package cache holds work,
    # so a repetition that ran at all started cold.
    for rep in grid_pair:
        assert rep["ok"], rep["checks"]
        assert rep["caches_checked"] >= 5


def test_solve_s_is_cpu_time_at_the_probe_reference_speed(grid_pair):
    for rep in grid_pair:
        assert rep["probe_rate"] > 0
        assert 0 < rep["cpu_s"] <= rep["wall_s"] * 1.05
        assert rep["solve_s"] == pytest.approx(rep["cpu_s"] * rep["probe_rate"] / probe.REFERENCE_RATE)


def test_sampler_measures_while_its_body_runs():
    before = signal.getsignal(signal.SIGPROF)
    with probe.Sampler() as sampler:
        c0 = time.thread_time()
        while time.thread_time() - c0 < 0.3:
            pass
    assert sampler.units >= probe.UNITS_PER_SAMPLE
    assert 0 < sampler.cpu_s < 0.3
    assert sampler.rate > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before


def test_timeout_kills_the_child_and_what_it_started():
    script = ("import subprocess, sys, time\n"
              "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
              "print('ready', p.pid, sep='\\n', flush=True)\n"
              "time.sleep(60)\n")
    res = run.spawn([sys.executable, "-c", script], timeout=2)
    assert res["code"] == -signal.SIGKILL
    grandchild = int(res["last"])
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.kill(grandchild, 0)
        except ProcessLookupError:
            break
        time.sleep(0.1)
    else:
        pytest.fail("the grandchild outlived the timeout")


def test_setup_samples_pair_an_import_with_a_bare_start():
    pairs = run.setup_times(2, timeout=60)
    assert len(pairs) == 2
    for full, bare in pairs:
        assert 0 < bare and 0 < full


def test_cold_guard_refuses_warm_caches(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import rookmonoid

    caches = workloads.package_caches(rookmonoid)
    for name in ("ideals.block_ideal", "diagrams.all_diagrams", "ideals._generator_maps",
                 "specht.specht_dimension", "specht.all_tabloids"):
        assert f"rookmonoid.{name}" in caches
    for fn in caches.values():
        fn.cache_clear()
    workloads.require_cold(caches)
    rookmonoid.diagrams.all_diagrams(2)
    with pytest.raises(RuntimeError, match="all_diagrams"):
        workloads.require_cold(caches)


def test_traced_run_reports_what_the_untraced_run_reports(grid_pair):
    plain, traced = grid_pair
    assert json.dumps([c["output"] for c in plain["checks"]], sort_keys=True) == json.dumps(
        [c["output"] for c in traced["checks"]], sort_keys=True
    )


def test_traced_spans_are_consistent(grid_pair):
    traced = grid_pair[1]
    # Self times are differences of clock readings; allow for float rounding.
    assert traced["min_self_s"] >= -1e-9
    # row_space reaches tensor only through ``from .linalg import row_space``.
    assert traced["row_space_under_phi_rank"] > 0
    layers = traced["layers"]
    assert set(layers) == {m["name"] for m in tracing.per_layer_metrics()} - {tracing.OVERHEAD}
    assert layers["cli.main.calls"] == 1
    assert layers["diagrams.multiply_calls"] > 0
    assert 0 < layers["linalg.insert_useful"] <= 1


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"solve_s", "setup_s", "peak_rss_mb"}
    assert spec["per_layer"] == tracing.per_layer_metrics()


def test_verifiers_reject_wrong_values():
    good = {"pass": True, "assertions": [
        {"name": "a", "pass": True, "witness": {"annihilator": 1294, "specht_count": 1294}},
        {"name": "b", "pass": True, "witness": {"ideal": 1294, "annihilator": 1294}},
    ]}
    verify = workloads.checks("annihilator", 0, None)[0][2]
    assert verify(good) == []
    bad = json.loads(json.dumps(good))
    bad["assertions"][1]["witness"]["ideal"] = 1293
    assert verify(bad)
    grid_verify = workloads.checks("grid", 0, None)[0][2]
    tasks = [{"name": str(i), "pass": True, "witness": None} for i in range(43)]
    assert grid_verify({"exit_code": 0, "report": {"pass": True, "assertions": tasks}})


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile([1.0] * 10) is None
    xs = [float(i) for i in range(1, 21)]
    assert run.high_percentile(xs) == {"percentile": 50, "value": 10.0}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
