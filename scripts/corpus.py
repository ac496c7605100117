"""The equivalence corpus: a fixed grid of short runs, each reduced to the
SHA-256 of what it produced, so that "bit-identical" is one comparison.

    python scripts/corpus.py            # recompute; name every entry that moved
    python scripts/corpus.py --write    # recompute and rewrite tests/data/corpus.json

The grid runs every ENGINES row on quadratics (n = 5 and 100, PSD and
indefinite), lasso, NMF, matrix completion and small dense and sparse
logistic problems, and each rho kind with two lambda0 on the rho engines;
at most 300 iterations each, with the monitor on where it covers the engine.
An entry holds the termination, the iteration count, the SHA-256 of each
trace column's bytes but elapsed_s, of residual_sq's bytes and of each
CheckResult's repr, and the names of the skipped checks; a run that stops
with one of the library's errors holds that error instead. The hashes are
tied to this host's NumPy and BLAS: a library upgrade that moves bits shows
as a list of named entries.
A change that moves an entry on purpose rewrites the file with --write and
says which entries moved and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adaprox import (  # noqa: E402
    LineSearchFailed,
    NonconvexDetected,
    NumericalDomainError,
    RhoSequence,
    SolverConfig,
    UsageError,
    run,
)
from adaprox.harness import TRACE_SCHEMA, build_problem  # noqa: E402
from adaprox.problems import SparseDesign, logistic_gamma, logistic_problem, rng  # noqa: E402
from adaprox.solver import ENGINES  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "corpus.json"

MAX_ITERS = 300

#: name -> flat problem spec of harness.build_problem; "logistic-sparse" is
#: built below, as no spec draws a sparse design.
PROBLEMS = {
    "quad5-psd": {"kind": "quadratic", "dim": "5", "eig_min": "0.1", "eig_max": "2"},
    "quad5-indef": {"kind": "quadratic", "dim": "5", "eig_min": "-0.5", "eig_max": "2"},
    "quad100-psd": {"kind": "quadratic", "dim": "100", "eig_min": "0.01", "eig_max": "1"},
    "quad100-indef": {"kind": "quadratic", "dim": "100", "eig_min": "-0.1", "eig_max": "1"},
    "lasso": {"kind": "lasso", "m": "30", "n": "20"},
    "nmf": {"kind": "nmf", "n": "8", "r": "2", "m": "6"},
    "mc": {"kind": "mc", "p": "6", "q": "5", "r": "2", "nobs": "20"},
    "logistic-dense": {"kind": "logistic", "m": "40", "n": "8"},
    "logistic-sparse": None,
}

RHOS = {"rho1": RhoSequence.rho1(), "rho2": RhoSequence.rho2(), "zero": RhoSequence.zero(),
        "custom": RhoSequence.custom([1.0, 0.5, 0.25])}


def sparse_logistic(seed: int):
    """A 60 x 30 design with about one entry in ten nonzero, labels from a
    planted model, and the default ridge weight."""
    gen = rng(seed)
    A = gen.standard_normal((60, 30)) * (gen.random((60, 30)) < 0.1)
    labels = (gen.random(60) < 1.0 / (1.0 + np.exp(-(A @ gen.standard_normal(30))))) * 1.0
    design = SparseDesign.from_dense(A, labels)
    return logistic_problem(design, logistic_gamma(design)), np.zeros(30)


def grid():
    """(name, problem key, SolverConfig) for every run of the corpus: each
    engine on each problem with rho2 and lambda0 = 1, then each rho kind and
    lambda0 in (1, 0.01) for each rho engine on quad5-psd and lasso."""
    for prob in PROBLEMS:
        for engine, row in ENGINES.items():
            yield f"{prob}/{engine}", prob, SolverConfig(
                engine=engine, max_iters=MAX_ITERS, monitor=row.monitored)
    for prob in ("quad5-psd", "lasso"):
        for engine, row in ENGINES.items():
            if not row.rho:
                continue
            for rho_name, rho in RHOS.items():
                for lam0 in (1.0, 0.01):
                    yield f"{prob}/{engine}/{rho_name}/{lam0!r}", prob, SolverConfig(
                        engine=engine, rho=rho, lambda0=lam0, max_iters=MAX_ITERS,
                        monitor=row.monitored)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry(prob: str, config: SolverConfig) -> dict:
    """One run's hashes; a run that raises one of the library's errors gives
    that error instead."""
    spec = PROBLEMS[prob]
    problem, x0 = sparse_logistic(1) if spec is None else build_problem(spec, 1)
    try:
        res = run(problem, x0, config, seed=1)
    except (UsageError, NumericalDomainError, NonconvexDetected, LineSearchFailed) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    trace, report = res.trace, res.report
    sq = trace.residual_sq
    return {
        "termination": trace.termination,
        "iterations": trace.iterations,
        "columns": {c: _sha(trace.column(f).tobytes())
                    for c, f, _ in TRACE_SCHEMA if c != "elapsed_s"},
        "residual_sq": None if sq is None else _sha(sq.tobytes()),
        "checks": None if report is None else {c.name: _sha(repr(c).encode())
                                               for c in report.checks},
        "skipped": None if report is None else report.skipped,
    }


def corpus() -> dict:
    """name -> entry over the grid. A run may overflow on an indefinite
    problem; NumPy's warnings are silenced, as the entry records the outcome."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        return {name: entry(prob, config) for name, prob, config in grid()}


def dumps(entries: dict) -> str:
    """The corpus file: one JSON object, one line per run."""
    lines = [f"{json.dumps(name)}: {json.dumps(e, sort_keys=True)}"
             for name, e in entries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def moved(expected: dict, actual: dict) -> list:
    """The names of the entries that differ, are missing, or are new."""
    return sorted(name for name in expected.keys() | actual.keys()
                  if expected.get(name) != actual.get(name))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {CORPUS.relative_to(ROOT)}")
    args = ap.parse_args(argv)
    actual = corpus()
    if args.write:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text(dumps(actual))
        print(f"wrote {len(actual)} entries to {CORPUS}")
        return 0
    names = moved(json.loads(CORPUS.read_text()), actual)
    for name in names:
        print(f"moved: {name}")
    print(f"{len(actual)} entries, {len(names)} moved")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
