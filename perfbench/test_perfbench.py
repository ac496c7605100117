"""Tests of the benchmark's own checks: each accepts the program's real output
and rejects a deliberately wrong answer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from adaprox import harness  # noqa: E402


class SmallNMF(workloads.NMF):
    p, q = 20, 15


class SmallQuadratic(workloads.Quadratic):
    dim = 12


SMALL = {
    "logistic-dense": lambda: workloads.Logistic("t-dense", 200, 20, 1.0, 1, (1, 1, 1)),
    "logistic-sparse": lambda: workloads.Logistic("t-sparse", 400, 60, 0.1, 1, (1, 1, 1)),
    "nmf-monitored": SmallNMF,
    "quad-monitored": SmallQuadratic,
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def job(request, tmp_path_factory):
    wl = SMALL[request.param]()
    tmp = tmp_path_factory.mktemp(request.param)
    inst = wl.generate(np.random.SeedSequence(7), tmp / "input")
    return wl, inst, wl.run_job(inst, tmp / "trace.json")


def test_real_output_passes(job):
    wl, inst, out = job
    assert out.result.termination == "tol"
    assert wl.verify(inst, out) == []


def test_perturbed_x_final_is_rejected(job):
    wl, inst, out = job
    x = out.result.x_final
    bad = replace(out, result=replace(out.result, x_final=x - 1e-3 * (1.0 + np.abs(x))))
    assert wl.verify_output(inst, bad)


def test_altered_record_is_rejected(job):
    wl, inst, out = job
    back = out.back
    rec = back.records[len(back.records) // 2]
    altered = replace(back, records=list(back.records))
    altered.records[len(back.records) // 2] = replace(rec, lam=rec.lam * (1.0 + 1e-15))
    assert checks.trace_roundtrip(out.result.trace, back) == []
    assert checks.trace_roundtrip(out.result.trace, altered)


def test_failed_monitor_check_is_rejected(job):
    wl, inst, out = job
    failing = replace(out.replay, checks=[replace(c) for c in out.replay.checks])
    failing.checks[0].passed = False
    assert checks.monitor_agreement(out.result.report, failing)


def test_other_termination_is_rejected(job):
    wl, inst, out = job
    trace = replace(out.result.trace, termination="max_iters")
    assert checks.terminated_on_tol(replace(out.result, trace=trace))


def test_certify_L_rejects_a_scaled_down_constant(tmp_path):
    wl = SMALL["logistic-dense"]()
    inst = wl.generate(np.random.SeedSequence(7), tmp_path / "input")
    _, _, gamma = wl.setup(inst)
    L_true = inst.lam_max / (4.0 * wl.m) + gamma
    assert checks.certified_L(L_true, inst.lam_max, wl.m, gamma) == []
    assert checks.certified_L(L_true * (1.0 + 1e-12), inst.lam_max, wl.m, gamma) == []
    assert checks.certified_L(L_true * (1.0 - 1e-6), inst.lam_max, wl.m, gamma)


def test_libsvm_text_reads_back_as_the_reference_design(tmp_path):
    wl = SMALL["logistic-sparse"]()
    inst = wl.generate(np.random.SeedSequence(3), tmp_path / "input")
    with open(inst.path) as fh:
        design = harness.parse_libsvm(fh)
    assert np.array_equal(design.matrix().toarray(), inst.A.toarray())
    assert np.array_equal(design.labels, inst.y)


def test_traced_self_times_add_up_to_the_job(tmp_path):
    wl = SMALL["logistic-dense"]()
    inst = wl.generate(np.random.SeedSequence(5), tmp_path / "input")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job()
        out = wl.run_job(inst, tmp_path / "trace.json")
        tracer.end_job()
    finally:
        tracer.uninstall()
    m = {k: v["value"] for k, v in tracer.metrics().items()}
    self_times = sum(v for k, v in m.items() if k.endswith("_s") and k != "bench.job_s")
    assert self_times == pytest.approx(m["bench.job_s"], rel=1e-9)
    assert m["solver.iters"] == len(out.result.trace.records)
    assert m["core.oracle_calls"] == out.result.trace.records[-1].n_gradient
    assert m["problems.matrix_calls"] == 2 and m["problems.lambda_max_ata_calls"] == 2
    assert harness.parse_libsvm.__name__ == "parse_libsvm" and not hasattr(harness.parse_libsvm, "__wrapped__")


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad-monitored",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
