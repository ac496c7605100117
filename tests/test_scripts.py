"""Smoke tests: each script under scripts/ runs to completion on a tiny input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_logistic_monitor.py", ["--seeds", "1", "--iters", "50", "--m", "40", "--n", "5"]),
    ("run_nmf_grid.py", ["--seeds", "1", "--n", "10", "--r", "2", "--m", "12"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
