import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaprox import UsageError, composite_value, finite_difference_gradient
from adaprox.problems import (
    FactorShape,
    ObservationSet,
    SparseDesign,
    lambda_max_ata,
    lasso_problem,
    lasso_synthetic,
    logistic_gamma,
    logistic_problem,
    logistic_synthetic,
    mc_problem,
    mc_synthetic,
    nmf_problem,
    nmf_synthetic,
    quadratic_problem,
    rng,
)


class TestContainers:
    def test_sparse_design_round_trip(self):
        A = np.array([[0.0, 1.5], [2.0, 0.0]])
        d = SparseDesign.from_dense(A, [1.0, 0.0])
        assert np.array_equal(d.matrix().toarray(), A)

    def test_sparse_design_rejects_bad_labels(self):
        with pytest.raises(UsageError):
            SparseDesign(m=1, n=2, indptr=[0, 1], indices=[0], data=[1.0],
                         labels=np.array([0.5]))

    def test_sparse_design_rejects_unsorted_indices(self):
        with pytest.raises(UsageError):
            SparseDesign(m=1, n=3, indptr=[0, 2], indices=[2, 0], data=[1.0, 1.0],
                         labels=np.array([1.0]))

    @pytest.mark.parametrize("m, indptr, indices, data", [
        (1, [0, 1], [0.5], [1.0]),            # fractional column index
        (1, [0, 1], [0, 1], [1.0, 2.0]),      # entries past indptr[-1]
        (2, [0, 2, 1], [0, 1], [1.0, 2.0]),   # decreasing indptr
        (1, [0, 1], [0, 1], [1.0]),           # indices and data lengths differ
        (1, [0, 1, 1], [0], [1.0]),           # indptr of the wrong length
    ])
    def test_sparse_design_rejects_malformed_arrays(self, m, indptr, indices, data):
        with pytest.raises(UsageError):
            SparseDesign(m=m, n=3, indptr=indptr, indices=indices, data=data,
                         labels=[1.0] * m)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sparse_design_validation_matches_row_loop(self, data):
        """CSR validation accepts exactly the row lists the per-row loop of the
        former tuple-per-row design accepted, and stores the same matrix."""
        m = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, 5))
        entry = st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from([1.0, -2.5, 1e300]))
        rows = [sorted(dict(data.draw(st.lists(entry, max_size=n))).items()) for _ in range(m)]
        labels = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m))
        # at most one fault on an otherwise valid design; rows left as they are
        # when the fault does not fit them
        fault = data.draw(st.sampled_from(["none", "unsorted", "duplicate", "index",
                                           "value", "label", "rows", "labels"]))
        i = data.draw(st.integers(0, max(m - 1, 0)))
        if fault == "unsorted" and m and len(rows[i]) > 1:
            rows[i] = rows[i][::-1]
        elif fault == "duplicate" and m and rows[i]:
            rows[i] = rows[i] + rows[i][-1:]
        elif fault == "index" and m:
            rows[i] = rows[i] + [(data.draw(st.sampled_from([-1, n, n + 1])), 1.0)]
        elif fault == "value" and m and rows[i]:
            rows[i] = rows[i][:-1] + [(rows[i][-1][0], data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf])))]
        elif fault == "label" and m:
            labels[i] = data.draw(st.sampled_from([0.5, -1.0, math.nan]))
        elif fault == "rows":
            rows = rows[:-1] if data.draw(st.booleans()) else rows + [[]]
        elif fault == "labels":
            labels = labels[:-1] if data.draw(st.booleans()) else labels + [1.0]

        def row_loop(m, n, rows, labels):
            if m != len(rows) or m != len(labels):
                raise UsageError("row count mismatch")
            for row in rows:
                prev = -1
                for idx, val in row:
                    if not 0 <= idx < n or idx <= prev or not math.isfinite(val):
                        raise UsageError("bad entry")
                    prev = idx
            if not np.all(np.isin(np.asarray(labels, dtype=np.float64), (0.0, 1.0))):
                raise UsageError("labels must be 0/1")

        try:
            row_loop(m, n, rows, labels)
            want_ok = True
        except UsageError:
            want_ok = False
        indptr = np.cumsum([0] + [len(row) for row in rows])
        flat = [e for row in rows for e in row]
        try:
            d = SparseDesign(m=m, n=n, indptr=indptr, indices=[j for j, _ in flat],
                             data=[v for _, v in flat], labels=np.array(labels))
        except UsageError:
            assert not want_ok, (m, n, rows, labels)
            return
        assert want_ok, (m, n, rows, labels)
        dense = np.zeros((m, n))
        for i, row in enumerate(rows):
            for j, v in row:
                dense[i, j] = v
        assert np.array_equal(d.matrix().toarray(), dense)

    def test_factor_shape_split_join_round_trip(self):
        shape = FactorShape(p=3, q=2, r=2)
        gen = rng(0)
        U, V = gen.standard_normal((3, 2)), gen.standard_normal((2, 2))
        U2, V2 = shape.split(shape.join(U, V))
        assert np.array_equal(U, U2) and np.array_equal(V, V2)

    def test_factor_shape_row_major_layout(self):
        shape = FactorShape(p=2, q=1, r=2)
        z = shape.join(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0]]))
        assert z.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_observation_set_rejects_duplicates(self):
        with pytest.raises(UsageError):
            ObservationSet(i=[0, 0], j=[1, 1], s=[1.0, 2.0], p=2, q=2)

    def test_observation_set_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            ObservationSet(i=[2], j=[0], s=[1.0], p=2, q=2)


def test_lambda_max_ata_matches_dense_eig():
    gen = rng(13)
    for _ in range(5):
        A = gen.standard_normal((8, 5))
        want = float(np.max(np.linalg.eigvalsh(A.T @ A)))
        assert lambda_max_ata(A) == pytest.approx(want, rel=1e-8)


class TestLogistic:
    def test_zero_iterate_gives_log_two(self):
        d = logistic_synthetic(6, 3, seed=0)
        p = logistic_problem(d, gamma=0.0)
        assert p.f_value(np.zeros(3)) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_empty_row_design(self):
        d = SparseDesign(m=2, n=2, indptr=[0, 0, 1], indices=[0], data=[1.0],
                         labels=np.array([1.0, 0.0]))
        p = logistic_problem(d, gamma=0.0)
        # z = (0, x_0); mean of log(1+e^0) - 1*0 and log(1+e^{x_0})
        x = np.array([1.0, 0.0])
        want = 0.5 * (math.log(2.0) + math.log(1.0 + math.e))
        assert p.f_value(x) == pytest.approx(want, rel=1e-15)

    def test_ridge_only_gradient(self):
        d = SparseDesign(m=1, n=2, indptr=[0, 0], indices=[], data=[],
                         labels=np.array([0.0]))
        p = logistic_problem(d, gamma=0.25)
        x = np.array([4.0, -8.0])
        assert np.allclose(p.smooth.gradient(x), 0.25 * x, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        d = logistic_synthetic(12, 4, seed=3)
        p = logistic_problem(d, gamma=0.1)
        gen = rng(17)
        for _ in range(20):
            x = gen.standard_normal(4)
            fd = finite_difference_gradient(p.smooth, x, 1e-6)
            g = p.smooth.gradient(x)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))

    def test_known_L_certifies_gradient_lipschitz(self):
        d = logistic_synthetic(15, 4, seed=5)
        p = logistic_problem(d, gamma=0.05)
        L = p.smooth.known_L
        gen = rng(23)
        for _ in range(1000):
            x = 3.0 * gen.standard_normal(4)
            y = 3.0 * gen.standard_normal(4)
            lhs = np.linalg.norm(p.smooth.gradient(x) - p.smooth.gradient(y))
            assert lhs <= L * np.linalg.norm(x - y) * (1.0 + 1e-10)

    def test_midpoint_convexity(self):
        d = logistic_synthetic(10, 3, seed=9)
        p = logistic_problem(d, gamma=0.0)
        gen = rng(31)
        for _ in range(50):
            x, y = gen.standard_normal(3), gen.standard_normal(3)
            mid = p.smooth.value(0.5 * (x + y))
            assert mid <= 0.5 * (p.smooth.value(x) + p.smooth.value(y)) + 1e-12

    def test_default_gamma_scalings(self):
        d = logistic_synthetic(8, 3, seed=1)
        l_data = lambda_max_ata(d.matrix()) / (4.0 * d.m)
        assert logistic_gamma(d) == pytest.approx(l_data / d.m)


class TestLasso:
    def test_identity_design_minimizer(self):
        A = np.eye(2)
        b = np.array([2.0, 0.0])
        p = lasso_problem(A, b, l1_weight=1.0)
        # separable: x* is the soft threshold of b at the weight
        x_star = np.array([1.0, 0.0])
        F_star = composite_value(p, x_star)
        gen = rng(2)
        for _ in range(200):
            z = x_star + 0.5 * gen.standard_normal(2)
            assert composite_value(p, z) >= F_star - 1e-12

    def test_gradient_matches_finite_differences(self):
        A, b, w = lasso_synthetic(9, 4, seed=6)
        p = lasso_problem(A, b, w)
        gen = rng(8)
        for _ in range(20):
            x = gen.standard_normal(4)
            fd = finite_difference_gradient(p.smooth, x, 1e-6)
            g = p.smooth.gradient(x)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))

    def test_known_L_is_spectral_norm(self):
        A, b, w = lasso_synthetic(7, 3, seed=11)
        p = lasso_problem(A, b, w)
        assert p.smooth.known_L == pytest.approx(
            float(np.max(np.linalg.eigvalsh(A.T @ A))), rel=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            lasso_problem(np.eye(3), np.zeros(2), 1.0)


class TestQuadratic:
    def test_value_matches_spectrum(self):
        p = quadratic_problem([1.0, 4.0], seed=0)
        # rotation-invariant checks: trace and definiteness
        e1 = p.smooth.value(np.array([1.0, 0.0])) * 2.0
        e2 = p.smooth.value(np.array([0.0, 1.0])) * 2.0
        assert e1 + e2 == pytest.approx(5.0, rel=1e-12)
        assert p.known_fstar == 0.0

    def test_indefinite_has_no_fstar(self):
        p = quadratic_problem([-1.0, 2.0], seed=0)
        assert p.known_fstar is None
        assert p.smooth.known_L == 2.0

    def test_gradient_consistency(self):
        p = quadratic_problem([0.5, 1.0, 3.0], seed=4)
        gen = rng(12)
        x = gen.standard_normal(3)
        fd = finite_difference_gradient(p.smooth, x, 1e-6)
        assert np.allclose(p.smooth.gradient(x), fd, atol=1e-6)


class TestNMF:
    def test_scalar_chain_rule(self):
        shape = FactorShape(1, 1, 1)
        p = nmf_problem(np.array([[5.0]]), shape)
        z = np.array([2.0, 3.0])  # u = 2, v = 3, residual uv - a = 1
        assert p.f_value(z) == 0.5
        assert p.smooth.gradient(z).tolist() == [3.0, 2.0]

    def test_exact_factorization_is_global_min(self):
        gen = rng(3)
        U = np.abs(gen.standard_normal((4, 2)))
        V = np.abs(gen.standard_normal((3, 2)))
        shape = FactorShape(4, 3, 2)
        p = nmf_problem(U @ V.T, shape)
        assert p.f_value(shape.join(U, V)) == 0.0

    def test_gradient_matches_finite_differences(self):
        shape = FactorShape(3, 2, 2)
        A = nmf_synthetic(3, 2, 2, seed=5)
        p = nmf_problem(A, shape)
        gen = rng(20)
        for _ in range(20):
            z = gen.standard_normal(shape.dim)
            fd = finite_difference_gradient(p.smooth, z, 1e-6)
            g = p.smooth.gradient(z)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))

    def test_column_permutation_symmetry(self):
        shape = FactorShape(3, 2, 3)
        A = nmf_synthetic(3, 3, 2, seed=7)
        p = nmf_problem(A, shape)
        gen = rng(21)
        z = gen.standard_normal(shape.dim)
        U, V = shape.split(z)
        perm = [2, 0, 1]
        z_perm = shape.join(U[:, perm], V[:, perm])
        assert p.f_value(z_perm) == pytest.approx(p.f_value(z), rel=1e-14)

    def test_no_certified_smoothness(self):
        p = nmf_problem(np.ones((2, 2)), FactorShape(2, 2, 1))
        assert p.smooth.known_L is None

    def test_synthetic_nonnegative_and_low_rank(self):
        A = nmf_synthetic(10, 3, 8, seed=9)
        assert A.shape == (10, 8)
        assert np.all(A >= 0.0)
        sv = np.linalg.svd(A, compute_uv=False)
        assert np.all(sv[3:] < 1e-10)


class TestMatrixCompletion:
    def test_scalar_value(self):
        obs = ObservationSet(i=[0], j=[0], s=[5.0], p=1, q=1)
        p = mc_problem(obs, FactorShape(1, 1, 1))
        z = np.array([3.0, 2.0])  # uv = 6, res = 1; u^2 - v^2 = 5
        assert p.f_value(z) == 0.5 + 12.5

    def test_balanced_exact_fit_is_zero(self):
        obs = ObservationSet(i=[0], j=[0], s=[4.0], p=1, q=1)
        p = mc_problem(obs, FactorShape(1, 1, 1))
        assert p.f_value(np.array([2.0, 2.0])) == 0.0

    def test_gradient_matches_finite_differences(self):
        obs = mc_synthetic(4, 3, 2, 8, noise=0.1, seed=2)
        shape = FactorShape(4, 3, 2)
        p = mc_problem(obs, shape)
        gen = rng(30)
        for _ in range(20):
            z = gen.standard_normal(shape.dim)
            fd = finite_difference_gradient(p.smooth, z, 1e-6)
            g = p.smooth.gradient(z)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))

    def test_column_permutation_symmetry(self):
        obs = mc_synthetic(4, 3, 2, 6, noise=0.0, seed=4)
        shape = FactorShape(4, 3, 2)
        p = mc_problem(obs, shape)
        gen = rng(31)
        z = gen.standard_normal(shape.dim)
        U, V = shape.split(z)
        z_perm = shape.join(U[:, ::-1], V[:, ::-1])
        assert p.f_value(z_perm) == pytest.approx(p.f_value(z), rel=1e-14)

    def test_synthetic_full_coverage(self):
        obs = mc_synthetic(3, 4, 2, 12, noise=0.0, seed=6)
        assert len(obs) == 12
        assert len(set(zip(obs.i.tolist(), obs.j.tolist()))) == 12

    def test_synthetic_noise_free_matches_planted_product(self):
        obs = mc_synthetic(5, 4, 2, 10, noise=0.0, seed=8)
        Ustar, Vstar = obs.ground_truth
        want = np.einsum("kr,kr->k", Ustar[obs.i], Vstar[obs.j])
        assert np.array_equal(obs.s, want)

    def test_oversampling_rejected(self):
        with pytest.raises(UsageError):
            mc_synthetic(2, 2, 1, 5, noise=0.0, seed=0)


def test_generators_are_seed_deterministic():
    a1 = nmf_synthetic(5, 2, 4, seed=42)
    a2 = nmf_synthetic(5, 2, 4, seed=42)
    assert np.array_equal(a1, a2)
    d1 = logistic_synthetic(6, 3, seed=42)
    d2 = logistic_synthetic(6, 3, seed=42)
    assert np.array_equal(d1.labels, d2.labels)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name))
