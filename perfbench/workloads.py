"""The four workloads: seeded input generation, the three timed phases of a
job (set-up, solve, check), and the correctness checks of each job.

Phases call adaprox through module attributes (``solver.run``,
``harness.parse_libsvm``, ...) at call time, so the traced run can wrap them
from outside ``src/``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

import checks
from adaprox import adaptive, harness, monitor, problems, solver
from adaprox.solver import SolverConfig

#: Entropy of what does not depend on --seed: the logistic designs (the
#: certify-L input among them) and the NMF data and start.
FIXED_ENTROPY = 20251006


@dataclass
class JobOutput:
    setup_s: float
    solve_s: float
    check_s: float
    problem: object
    extra: object
    result: object
    back: object
    replay: object

    @property
    def job_s(self) -> float:
        return self.setup_s + self.solve_s + self.check_s


class Workload:
    """One workload: ``instances`` seeded inputs, solved once each per round.

    ``reps`` repeats each phase (set-up, solve, check) back to back when one
    pass is too short to time alone; each pass is timed on its own and the
    phase time is the median pass, so a stall in one pass does not move it.
    """

    name = ""
    monitored = False
    lambda0 = 1.0
    max_iters = 200_000
    instances = 1
    reps = (1, 1, 1)

    def config(self) -> SolverConfig:
        return SolverConfig(engine="adapgnc", lambda0=self.lambda0, max_iters=self.max_iters,
                            gradmap_tol=self.tol, monitor=self.monitored)

    def run_job(self, inst, trace_path: Path, reps=(1, 1, 1)) -> JobOutput:
        config = self.config()
        n_setup, n_solve, n_check = reps
        setup_t, solve_t, check_t = [], [], []
        for _ in range(n_setup):
            t0 = time.perf_counter()
            problem, x0, extra = self.setup(inst)
            setup_t.append(time.perf_counter() - t0)
        for _ in range(n_solve):
            t0 = time.perf_counter()
            result = solver.run(problem, x0, config, seed=inst.seed)
            solve_t.append(time.perf_counter() - t0)
        for _ in range(n_check):
            # Every pass writes a new file, as `adaprox solve --out` does:
            # truncating the file just written would wait on its writeback.
            trace_path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            harness.write_trace(result.trace, "json", str(trace_path))
            back = harness.read_trace(str(trace_path))
            replay = monitor.monitor_check(back, problem, adaptive.rho_total(config.rho))
            check_t.append(time.perf_counter() - t0)
        return JobOutput(statistics.median(setup_t), statistics.median(solve_t),
                         statistics.median(check_t), problem, extra, result, back, replay)

    def verify(self, inst, out: JobOutput) -> list:
        return (checks.terminated_on_tol(out.result)
                + checks.trace_roundtrip(out.result.trace, out.back)
                + checks.monitor_agreement(out.result.report, out.replay)
                + self.verify_output(inst, out))

    def fixed_instance(self, workdir: Path):
        """The seed-independent input of ``certify``; None where there is none."""
        return None


# ---------------------------------------------------------------------------
# Logistic regression from LIBSVM text


def _value_table():
    # LIBSVM values are k / 10^4 for integers |k| <= 20000; "%.4f" of the
    # double nearest k / 10^4 reads back as that same double.
    return [format(k / 1e4, ".4f") for k in range(-20000, 20001)]


@dataclass
class LogisticInstance:
    seed: int
    path: Path
    A: object           # reference design: ndarray (dense) or CSR (sparse)
    y: np.ndarray
    lam_max: float      # lambda_max(A^T A) by numpy.linalg.eigvalsh
    fstar: dict = field(default_factory=dict)   # gamma -> SciPy reference F*

    def fstar_ref(self, gamma: float) -> float:
        if gamma not in self.fstar:
            x0 = np.zeros(self.A.shape[1])
            fun = lambda x: checks.logistic_value_grad(self.A, self.y, gamma, x)[:2]  # noqa: E731
            res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                           options={"maxiter": 20000, "gtol": 1e-12, "ftol": 1e-16})
            self.fstar[gamma] = float(res.fun)
        return self.fstar[gamma]


class Logistic(Workload):
    """A fixed design of zero-mean features k / 10^4 with |k| <= 10^4, one of
    them twice as wide, which separates the top of AᵀA's spectrum; labels
    follow a planted logistic model with margins of standard deviation 2.
    The seed draws a row permutation, a column permutation and column signs:
    the same problem up to relabelling, written as different LIBSVM text.
    Independent random designs of these sizes need 34 to 50 (dense) and 29 to
    56 (sparse) iterations, over 18 designs each."""

    tol = 1e-9

    def __init__(self, name: str, m: int, n: int, density: float, instances: int, reps):
        self.name, self.m, self.n, self.density = name, m, n, density
        self.instances, self.reps = instances, reps
        self._table = None
        g = np.random.default_rng(np.random.SeedSequence(FIXED_ENTROPY))
        if density >= 1.0:
            flat = np.arange(m * n)
        else:
            flat = np.sort(g.choice(m * n, size=round(density * m * n), replace=False))
        self._rows, self._cols = np.divmod(flat, n)
        self._ints = g.integers(1, 10001, size=flat.size) * g.choice((-1, 1), size=flat.size)
        self._ints[self._cols == 0] *= 2
        A = self._design(self._rows, self._cols, self._ints)
        z = A @ g.standard_normal(n)
        self._y = (g.random(m) < 1.0 / (1.0 + np.exp(-2.0 * z / np.std(z)))).astype(np.float64)
        AtA = A.T @ A
        self._lam_max = float(np.linalg.eigvalsh(AtA.toarray() if sp.issparse(AtA) else AtA)[-1])

    def _design(self, rows, cols, ints):
        A = sp.csr_matrix((ints / 1e4, (rows, cols)), shape=(self.m, self.n))
        return A.toarray() if self.density >= 1.0 else A

    def generate(self, seq: np.random.SeedSequence, path: Path) -> LogisticInstance:
        g = np.random.default_rng(seq)
        row_to = g.permutation(self.m)
        col_to = g.permutation(self.n)
        signs = g.choice((-1, 1), size=self.n)
        rows, cols = row_to[self._rows], col_to[self._cols]
        ints = self._ints * signs[self._cols]
        order = np.lexsort((cols, rows))
        rows, cols, ints = rows[order], cols[order], ints[order]
        y = np.empty(self.m)
        y[row_to] = self._y
        self._write_libsvm(path, rows, cols, ints, y)
        return LogisticInstance(int(seq.generate_state(1)[0]), path,
                                self._design(rows, cols, ints), y, self._lam_max)

    def _write_libsvm(self, path, rows, cols, ints, y):
        if self._table is None:
            self._table = _value_table()
        tab, off = self._table, 20000
        pre = [f"{j + 1}:" for j in range(self.n)]
        bounds = np.searchsorted(rows, np.arange(self.m + 1))
        cols, ints = cols.tolist(), ints.tolist()
        with open(path, "w") as fh:
            for i in range(self.m):
                s, e = bounds[i], bounds[i + 1]
                fh.write(("1 " if y[i] else "0 ")
                         + " ".join([pre[c] + tab[v + off] for c, v in zip(cols[s:e], ints[s:e])])
                         + "\n")

    def setup(self, inst):
        with open(inst.path) as fh:
            design = harness.parse_libsvm(fh)
        gamma = problems.logistic_gamma(design)
        problem = problems.logistic_problem(design, gamma)
        return problem, np.zeros(design.n), gamma

    def verify_output(self, inst, out):
        gamma = out.extra
        L_true = inst.lam_max / (4.0 * self.m) + gamma
        return checks.logistic_output(inst.A, inst.y, gamma, L_true, inst.fstar_ref(gamma),
                                      self.tol, out.problem, out.result)

    def fixed_instance(self, workdir: Path) -> LogisticInstance:
        """The certify-L input: the fixed design itself, whatever the seed."""
        path = workdir / f"{self.name}-certify.libsvm"
        self._write_libsvm(path, self._rows, self._cols, self._ints, self._y)
        return LogisticInstance(0, path, self._design(self._rows, self._cols, self._ints),
                                self._y, self._lam_max)

    def certify(self, fixed) -> list:
        """certify-L: build the problem and check that its known_L is an upper bound."""
        problem, _, gamma = self.setup(fixed)
        return checks.certified_L(problem.smooth.known_L, fixed.lam_max, self.m, gamma)


# ---------------------------------------------------------------------------
# NMF, monitored


@dataclass
class ArrayInstance:
    seed: int
    data_path: Path
    x0_path: Path
    data: np.ndarray
    x0: np.ndarray
    rot_seed: int = 0


class NMF(Workload):
    """A fixed nonnegative data matrix of rank 10 fitted with rank-5 factors,
    so the residual stays nonzero. The seed draws a row, column and factor
    permutation of the data and the start: the same problem up to relabelling.
    Independent random instances of this size need from 2800 to 50000
    iterations (12 seeds), a spread no run length averages out."""

    name = "nmf-monitored"
    monitored = True
    lambda0 = 1e-3
    tol = 3e-4
    p, q, r, data_rank = 100, 80, 5, 10
    instances = 5
    reps = (400, 1, 1)

    def __init__(self):
        b = np.random.default_rng(np.random.SeedSequence(FIXED_ENTROPY))
        W = np.abs(b.standard_normal((self.p, self.data_rank)))
        H = np.abs(b.standard_normal((self.q, self.data_rank)))
        self._A = W @ H.T / self.data_rank
        s = math.sqrt(float(np.mean(self._A)) / self.r)
        self._U0 = np.abs(b.standard_normal((self.p, self.r))) * s
        self._V0 = np.abs(b.standard_normal((self.q, self.r))) * s

    def generate(self, seq, path: Path) -> ArrayInstance:
        g = np.random.default_rng(seq)
        pr, pc, pf = g.permutation(self.p), g.permutation(self.q), g.permutation(self.r)
        A = np.ascontiguousarray(self._A[pr][:, pc])
        x0 = np.concatenate([self._U0[pr][:, pf].ravel(), self._V0[pc][:, pf].ravel()])
        return _save_arrays(seq, path, A, x0)

    def setup(self, inst):
        A = np.load(inst.data_path)
        x0 = np.load(inst.x0_path)
        return problems.nmf_problem(A, problems.FactorShape(p=self.p, q=self.q, r=self.r)), x0, None

    def verify_output(self, inst, out):
        return checks.nmf_output(inst.data, self.r, inst.x0, self.tol, out.result)


# ---------------------------------------------------------------------------
# Ill-conditioned quadratic, monitored


class Quadratic(Workload):
    """f = x^T Q x / 2 with a fixed spectrum geomspace(1e-4, 1, 100), so f* = 0
    and L = 1 are known and all monitor checks run. The seed draws the
    rotation; the start has the same coordinates in every eigenbasis."""

    name = "quad-monitored"
    monitored = True
    tol = 1e-6
    dim = 100
    instances = 9
    reps = (40, 1, 1)

    def generate(self, seq, path: Path) -> ArrayInstance:
        rot_seed = int(seq.generate_state(1)[0])
        eigs = np.geomspace(1e-4, 1.0, self.dim)
        x0 = rotation(rot_seed, self.dim) @ np.ones(self.dim)
        inst = _save_arrays(seq, path, eigs, x0)
        inst.rot_seed = rot_seed
        return inst

    def setup(self, inst):
        eigs = np.load(inst.data_path)
        x0 = np.load(inst.x0_path)
        return problems.quadratic_problem(eigs, seed=inst.rot_seed), x0, None

    def verify_output(self, inst, out):
        Q = checks.rotated_quadratic(inst.data, rotation(inst.rot_seed, self.dim))
        return (checks.quadratic_output(Q, inst.data, self.tol, out.problem, out.result)
                + checks.all_checks_ran(out.result.report))


def rotation(seed: int, n: int) -> np.ndarray:
    """The rotation adaprox.problems.quadratic_problem draws from ``seed``."""
    gen = np.random.Generator(np.random.Philox(seed))
    return np.linalg.qr(gen.standard_normal((n, n)))[0]


def _save_arrays(seq, path: Path, data, x0) -> ArrayInstance:
    data_path, x0_path = path.with_suffix(".data.npy"), path.with_suffix(".x0.npy")
    np.save(data_path, data)
    np.save(x0_path, x0)
    return ArrayInstance(int(seq.generate_state(1)[0]), data_path, x0_path, data, x0)


WORKLOADS = {
    "logistic-dense": lambda: Logistic("logistic-dense", 2000, 200, 1.0, instances=3, reps=(1, 10, 220)),
    "logistic-sparse": lambda: Logistic("logistic-sparse", 10000, 1000, 0.01, instances=3, reps=(2, 5, 40)),
    "nmf-monitored": NMF,
    "quad-monitored": Quadratic,
}
