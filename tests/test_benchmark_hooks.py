"""The benchmark's tracer (``perfbench/tracing.py``) wraps adaprox's public
functions by name. Renaming one of them must fail here, in the unit tests,
and not only when the benchmark runs."""

import importlib.util
from pathlib import Path

from adaprox import harness, monitor, problems, solver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    owners = (harness, monitor, problems, problems.SparseDesign, solver)

    def changed(before):
        return {name for o, b in zip(owners, before) for name, v in vars(o).items()
                if b.get(name) is not v}

    before = [dict(vars(o)) for o in owners]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert {"matrix", "parse_libsvm", "logistic_problem", "run",
                "monitor_check"} <= changed(before)
    finally:
        tracer.uninstall()
    assert changed(before) == set()
