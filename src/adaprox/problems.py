"""Built-in composite test problems and their synthetic data generators.

All randomness flows through a counter-based Philox generator seeded per
experiment; normal variates come from ``Generator.standard_normal``. Factor
pairs (U, V) are flattened row-major as [vec(U); vec(V)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .core import CompositeProblem, SmoothOracle, UsageError, Vector, as_point
from .prox import L1, NonnegIndicator, Zero


def check_seed(seed: int) -> int:
    """The seed; a negative seed is a UsageError."""
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    return seed


def rng(seed: int) -> np.random.Generator:
    """The generator for seed; a negative seed is a UsageError."""
    return np.random.Generator(np.random.Philox(check_seed(seed)))


# ---------------------------------------------------------------------------
# Data containers


@dataclass
class SparseDesign:
    """m x n design with binary labels as CSR arrays: row i holds the strictly
    increasing columns indices[indptr[i]:indptr[i+1]] and the same slice of data."""

    m: int
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    labels: np.ndarray
    _A: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        try:
            A = sp.csr_matrix((data, self.indices, self.indptr), shape=(self.m, self.n))
            A.check_format(full_check=True)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid CSR design: {exc}") from None
        # SciPy silently truncates fractional indices and entries past indptr[-1]
        if not np.array_equal(A.indices, self.indices):
            raise UsageError("indices must be integers and indptr end at their count")
        if not A.has_canonical_format:
            raise UsageError("column indices must be strictly increasing within each row")
        if not np.all(np.isfinite(A.data)):
            raise UsageError("non-finite value")
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape != (self.m,):
            raise UsageError("row count mismatch")
        if not np.all(np.isin(self.labels, (0.0, 1.0))):
            raise UsageError("labels must be 0/1")
        self.indptr, self.indices, self.data, self._A = A.indptr, A.indices, A.data, A

    def matrix(self) -> sp.csr_matrix:
        return self._A

    @staticmethod
    def from_dense(A: np.ndarray, labels) -> "SparseDesign":
        A = sp.csr_matrix(np.asarray(A, dtype=np.float64))
        return SparseDesign(m=A.shape[0], n=A.shape[1], indptr=A.indptr,
                            indices=A.indices, data=A.data, labels=labels)


@dataclass(frozen=True)
class FactorShape:
    """Dimensions of a factor pair (U: p x r, V: q x r) and its flattening."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 1:
            raise UsageError("factor dimensions must be positive")

    @property
    def dim(self) -> int:
        return (self.p + self.q) * self.r

    def split(self, z: Vector) -> Tuple[np.ndarray, np.ndarray]:
        if z.shape != (self.dim,):
            raise UsageError(f"expected flattened dimension {self.dim}, got {z.shape}")
        cut = self.p * self.r
        return z[:cut].reshape(self.p, self.r), z[cut:].reshape(self.q, self.r)

    def join(self, U: np.ndarray, V: np.ndarray) -> Vector:
        return np.concatenate([U.reshape(-1), V.reshape(-1)])


@dataclass
class ObservationSet:
    """Observed entries (i, j, s) of a p x q matrix, duplicates forbidden."""

    i: np.ndarray
    j: np.ndarray
    s: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        self.i = np.asarray(self.i, dtype=np.intp)
        self.j = np.asarray(self.j, dtype=np.intp)
        self.s = np.asarray(self.s, dtype=np.float64)
        if not (len(self.i) == len(self.j) == len(self.s)):
            raise UsageError("observation arrays must share a length")
        if len(self.i) < 1:
            raise UsageError("need at least one observation")
        if np.any(self.i < 0) or np.any(self.i >= self.p) or \
                np.any(self.j < 0) or np.any(self.j >= self.q):
            raise UsageError("observation index out of range")
        if len(set(zip(self.i.tolist(), self.j.tolist()))) != len(self.i):
            raise UsageError("duplicate (i, j) observation")

    def __len__(self) -> int:
        return len(self.s)


# ---------------------------------------------------------------------------
# Spectral norm helper

POWER_MAX_ITERS = 1000
POWER_REL_TOL = 1e-10


def lambda_max_ata(A) -> float:
    """Largest eigenvalue of A^T A by power iteration from the all-ones vector
    (a deterministic start keeps the estimate reproducible). The iterates
    approach lambda_max from below, so the estimate can fall slightly short."""
    n = A.shape[1]
    v = np.ones(n) / math.sqrt(n)
    ev = 0.0
    for _ in range(POWER_MAX_ITERS):
        w = A.T @ (A @ v)
        ev_new = float(np.linalg.norm(w))
        if ev_new == 0.0:
            return 0.0
        v = w / ev_new
        if abs(ev_new - ev) <= POWER_REL_TOL * ev_new:
            return ev_new
        ev = ev_new
    return ev


# ---------------------------------------------------------------------------
# Logistic regression


#: A design with at least this share of its m·n entries stored is held as a
#: dense ndarray. There the oracle's and power iteration's products run as
#: BLAS gemv, faster than CSR (``Aᵀ(Ax)`` at 2000×200, one BLAS thread: 3.6×
#: when full, 1.4× at 50 %; CSR is 1.5× faster at 20 %), and the 8mn bytes of
#: the ndarray are at most 4/3 of CSR's 12·nnz.
DENSE_FILL = 0.5


def logistic_operator(design: SparseDesign):
    """The design as the logistic oracle uses it: ``design.matrix().toarray()``
    when nnz >= DENSE_FILL·m·n, else the CSR matrix itself."""
    A = design.matrix()
    if A.nnz >= DENSE_FILL * design.m * design.n:
        return A.toarray()
    return A


def logistic_problem(design: SparseDesign, gamma: float) -> CompositeProblem:
    """Mean binary cross-entropy with an L2-squared ridge of weight gamma.

    f(x) = (1/m) sum_i [log(1 + e^{z_i}) - y_i z_i] + (gamma/2) ||x||^2 with
    z = A x; known_L = lambda_max(A^T A)/(4m) + gamma with lambda_max estimated
    from below by ``lambda_max_ata``, so it is not a certified upper bound.
    A is ``logistic_operator(design)``, a dense ndarray for a design at least
    half full and CSR otherwise; the oracle keeps only A and the labels.
    """
    if not 0.0 <= gamma < math.inf:
        raise UsageError(f"gamma must be nonnegative and finite, got {gamma}")
    if design.m < 1:
        raise UsageError("design must be nonempty")
    A = logistic_operator(design)
    y = design.labels
    m = design.m

    def value_at(z: Vector, x: Vector) -> float:
        return float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * gamma * float(np.dot(x, x))

    def value(x: Vector) -> float:
        return value_at(A @ x, x)

    def value_and_gradient(x: Vector):
        z = A @ x
        with np.errstate(over="ignore"):  # exp(-z) = inf for z < -709.78 gives sig = 0, exactly
            sig = 1.0 / (1.0 + np.exp(-z))
        return value_at(z, x), A.T @ (sig - y) / m + gamma * x

    known_L = lambda_max_ata(A) / (4.0 * m) + gamma
    smooth = SmoothOracle(value=value, value_and_gradient=value_and_gradient,
                          known_L=known_L)
    return CompositeProblem(smooth=smooth, nonsmooth=Zero(), name="logistic", dim=design.n)


def logistic_gamma(design: SparseDesign) -> float:
    """Default ridge weight L_data/m, with L_data the unregularized
    smoothness constant."""
    return lambda_max_ata(logistic_operator(design)) / (4.0 * design.m) / design.m


def logistic_synthetic(m: int, n: int, seed: int) -> SparseDesign:
    """Dense standard-normal design with labels drawn from a planted model."""
    if min(m, n) < 1:
        raise UsageError("dimensions must be positive")
    gen = rng(seed)
    A = gen.standard_normal((m, n))
    x_true = gen.standard_normal(n)
    probs = 1.0 / (1.0 + np.exp(-(A @ x_true)))
    labels = (gen.random(m) < probs).astype(np.float64)
    return SparseDesign.from_dense(A, labels)


# ---------------------------------------------------------------------------
# Lasso


def lasso_problem(A: np.ndarray, b: Vector, l1_weight: float) -> CompositeProblem:
    """f = 0.5 ||Ax - b||^2 and h = l1_weight ||x||_1; exercises the soft-threshold path."""
    A = np.asarray(A, dtype=np.float64)
    b = as_point(b)
    if A.ndim != 2 or A.shape[0] != b.size:
        raise UsageError(f"shape mismatch: A {A.shape} vs b {b.shape}")

    def value(x: Vector) -> float:
        r = A @ x - b
        return 0.5 * float(np.dot(r, r))

    def value_and_gradient(x: Vector):
        r = A @ x - b
        return 0.5 * float(np.dot(r, r)), A.T @ r

    smooth = SmoothOracle(value=value, value_and_gradient=value_and_gradient,
                          known_L=lambda_max_ata(A))
    return CompositeProblem(smooth=smooth, nonsmooth=L1(l1_weight),
                            name="lasso", dim=A.shape[1])


def lasso_synthetic(m: int, n: int, seed: int) -> Tuple[np.ndarray, Vector, float]:
    """Random instance (A, b, l1_weight): b = A x_true plus N(0, 0.01^2) noise,
    for a planted signal whose entries are each nonzero with probability 0.1."""
    if min(m, n) < 1:
        raise UsageError(f"dimensions must be positive, got m = {m}, n = {n}")
    gen = rng(seed)
    A = gen.standard_normal((m, n))
    x_true = np.where(gen.random(n) < 0.1, gen.standard_normal(n), 0.0)
    b = A @ x_true + 0.01 * gen.standard_normal(m)
    weight = 0.1 * float(np.max(np.abs(A.T @ b)))
    return A, b, weight


# ---------------------------------------------------------------------------
# Quadratics


def quadratic_problem(eigenvalues: Sequence[float], seed: int = 0) -> CompositeProblem:
    """f = 0.5 x^T Q x with Q = R diag(e) R^T for a seeded random rotation R."""
    e = np.asarray(eigenvalues, dtype=np.float64)
    if e.ndim != 1 or e.size < 1:
        raise UsageError("eigenvalues must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(e)):
        raise UsageError("eigenvalues must be finite")
    gen = rng(seed)
    R, _ = np.linalg.qr(gen.standard_normal((e.size, e.size)))
    Q = R @ np.diag(e) @ R.T
    Q = 0.5 * (Q + Q.T)

    def value(x: Vector) -> float:
        return 0.5 * float(x @ Q @ x)

    def value_and_gradient(x: Vector):
        g = Q @ x
        return 0.5 * float(x.dot(g)), g

    fstar = 0.0 if np.min(e) >= 0.0 else None
    smooth = SmoothOracle(value=value, value_and_gradient=value_and_gradient,
                          known_L=float(np.max(np.abs(e))))
    return CompositeProblem(smooth=smooth, nonsmooth=Zero(),
                            known_fstar=fstar, name="quadratic", dim=e.size)


# ---------------------------------------------------------------------------
# Nonnegative matrix factorization


def nmf_problem(A: np.ndarray, shape: FactorShape) -> CompositeProblem:
    """f(Z) = 0.5 ||U V^T - A||_F^2 over the nonnegative orthant.

    Not globally L-smooth, so no certified constant is attached.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (shape.p, shape.q):
        raise UsageError(f"A shape {A.shape} does not match factors {(shape.p, shape.q)}")

    # R is formed and squared in place: each p x q temporary saved is a large
    # allocation per oracle call, and the values are the same.
    def residual(z: Vector):
        U, V = shape.split(z)
        R = U @ V.T
        R -= A
        return U, V, R

    def value(z: Vector) -> float:
        R = residual(z)[2]
        R *= R
        return 0.5 * float(R.sum())

    def value_and_gradient(z: Vector):
        U, V, R = residual(z)
        grad = shape.join(R @ V, R.T @ U)
        R *= R
        return 0.5 * float(R.sum()), grad

    smooth = SmoothOracle(value=value, value_and_gradient=value_and_gradient)
    return CompositeProblem(smooth=smooth, nonsmooth=NonnegIndicator(),
                            name="nmf", dim=shape.dim)


def nmf_synthetic(n: int, r: int, m: int, seed: int) -> np.ndarray:
    """n x m nonnegative matrix of rank <= r: product of rectified normal factors."""
    if min(n, r, m) < 1:
        raise UsageError("dimensions must be positive")
    gen = rng(seed)
    B = np.maximum(gen.standard_normal((m, r)), 0.0)
    C = np.maximum(gen.standard_normal((n, r)), 0.0)
    return C @ B.T


# ---------------------------------------------------------------------------
# Matrix completion


def mc_problem(obs: ObservationSet, shape: FactorShape) -> CompositeProblem:
    """Factorized completion with the balance regularizer ||U^T U - V^T V||_F^2.

    f(Z) = (1/2N) sum_obs ((U V^T)_ij - s)^2 + (1/2N) ||U^T U - V^T V||_F^2.
    """
    if obs.p != shape.p or obs.q != shape.q:
        raise UsageError("observation grid does not match factor shape")
    N = len(obs)
    oi, oj, s = obs.i, obs.j, obs.s

    def _terms(z: Vector):
        """Factors, observed residuals, balance matrix and the value f(z)."""
        U, V = shape.split(z)
        res = np.einsum("kr,kr->k", U[oi], V[oj]) - s
        M = U.T @ U - V.T @ V
        return U, V, res, M, (float(np.dot(res, res)) + float(np.sum(M * M))) / (2.0 * N)

    def value(z: Vector) -> float:
        return _terms(z)[-1]

    def value_and_gradient(z: Vector):
        U, V, res, M, v = _terms(z)
        gU = np.zeros_like(U)
        gV = np.zeros_like(V)
        np.add.at(gU, oi, res[:, None] * V[oj])
        np.add.at(gV, oj, res[:, None] * U[oi])
        gU = gU / N + (2.0 / N) * (U @ M)
        gV = gV / N - (2.0 / N) * (V @ M)
        return v, shape.join(gU, gV)

    smooth = SmoothOracle(value=value, value_and_gradient=value_and_gradient)
    return CompositeProblem(smooth=smooth, nonsmooth=Zero(),
                            name="matrix_completion", dim=shape.dim)


def mc_synthetic(p: int, q: int, r: int, N: int, noise: float, seed: int) -> ObservationSet:
    """Observations of a planted rank-r product, sampled without replacement."""
    if not 0.0 <= noise < math.inf:
        raise UsageError(f"noise must be nonnegative and finite, got {noise}")
    if N > p * q:
        raise UsageError(f"cannot sample {N} distinct entries from a {p}x{q} grid")
    if N < 1:
        raise UsageError("need at least one observation")
    gen = rng(seed)
    Ustar = gen.standard_normal((p, r))
    Vstar = gen.standard_normal((q, r))
    flat = gen.choice(p * q, size=N, replace=False)
    i, j = np.divmod(flat, q)
    s = np.einsum("kr,kr->k", Ustar[i], Vstar[j])
    if noise > 0.0:
        s = s + noise * gen.standard_normal(N)
    return ObservationSet(i=i, j=j, s=s, p=p, q=q)
