"""Smoke tests: each script under scripts/ runs to completion on a tiny input."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_logistic_monitor.py", ["--seeds", "1", "--iters", "50", "--m", "40", "--n", "5"]),
])
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_logistic_monitor_script_checks_every_inequality():
    """The live monitor, given the reference optimum, runs all nine checks,
    sum_bound included, and skips none."""
    proc = run_script("run_logistic_monitor.py",
                      ["--seeds", "1", "--iters", "50", "--m", "40", "--n", "5"])
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert any(line.startswith("sum_bound: pass") for line in lines)
    assert not any("skipped" in line for line in lines)


def test_bench_runs_one_aa_pair(tmp_path):
    """One A/A pair of the benchmark, this checkout against itself: both
    sides run correct jobs on the same trace, and every end-to-end metric is
    summarised with its verdict."""
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--base", str(ROOT),
         "--workload", "quad-monitored", "--pairs", "1", "--seconds", "0.3",
         "--seed0", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["src_lines"]["base"] == report["src_lines"]["change"] > 0
    wl = report["workloads"]["quad-monitored"]
    (pair,) = wl["runs"]
    for side in ("base", "change"):
        assert pair[side]["correct"] and pair[side]["failed"] == 0
        assert len(pair[side]["trace_sha256"]) == 64
    assert pair["base"]["trace_sha256"] == pair["change"]["trace_sha256"]
    assert set(wl["metrics"]) == {"setup_s", "solve_s", "check_s", "job_s", "peak_mem_mb"}
    for m in wl["metrics"].values():
        assert m["change_wins"] + m["base_wins"] <= 1 and isinstance(m["claim"], bool)
        assert m["base"]["q1"] <= m["base"]["median"] <= m["base"]["q3"]


def test_bench_verdict_needs_nine_wins_and_a_gap_past_the_spread():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    base = [1.0 + 0.1 * i for i in range(10)]  # quartiles 1.225 and 1.675
    assert bench.compare(base, [0.5] * 10, "lower")["claim"]
    close = bench.compare(base, [b - 0.01 for b in base], "lower")
    assert close["change_wins"] == 10 and not close["claim"]
    eight = bench.compare(base, [0.5] * 8 + [5.0] * 2, "lower")
    assert (eight["change_wins"], eight["base_wins"]) == (8, 2) and not eight["claim"]
    assert bench.compare(base, [5.0] * 10, "higher")["claim"]
