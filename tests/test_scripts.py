"""Smoke tests: each script under scripts/ runs to completion on a tiny input."""

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
    """The live monitor, given the reference optimum, runs all eight checks,
    sum_bound included, and skips none."""
    proc = run_script("run_logistic_monitor.py",
                      ["--seeds", "1", "--iters", "50", "--m", "40", "--n", "5"])
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert any(line.startswith("sum_bound: pass") for line in lines)
    assert not any("skipped" in line for line in lines)
