import dataclasses
import tracemalloc

import numpy as np
import pytest

from orthores import (
    STANDARD,
    SimulationConfig,
    benchmark_apply,
    check_battery,
    cheng_matrix,
    householder_qr,
    idempotent_check,
    monte_carlo,
    oracle_compare,
    s_from_qr,
    verify_theorem6_roots,
    verify_theorem7_condition,
)
from orthores.regression import student_coefficient, univariate_coefficients
from orthores.validation import MC_BATCH, _simulation_design


class TestTheorem6:
    def test_n4(self):
        c_plus, c_minus = verify_theorem6_roots(4)
        assert abs(c_plus - 1.0) < 1e-12
        assert abs(c_minus + 1.0 / 3.0) < 1e-12

    def test_n2(self):
        c_plus, c_minus = verify_theorem6_roots(2)
        assert abs(c_plus - (np.sqrt(2.0) + 1.0)) < 1e-12
        assert abs(c_minus + (np.sqrt(2.0) - 1.0)) < 1e-12

    def test_degenerate(self):
        with pytest.raises(ValueError):
            verify_theorem6_roots(1)


class TestTheorem7:
    def orthonormal(self, n, p, seed):
        return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, p)))[0]

    def test_constructed_solutions_pass(self):
        rng = np.random.default_rng(0)
        Xo = self.orthonormal(20, 3, 1)
        for _ in range(10):
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            S = np.linalg.inv(Q - Xo[:3])
            assert verify_theorem7_condition(S, Xo)

    def test_perturbed_solution_fails(self):
        rng = np.random.default_rng(2)
        Xo = self.orthonormal(20, 3, 3)
        S = np.linalg.inv(np.eye(3) - Xo[:3])
        assert verify_theorem7_condition(S, Xo)
        assert not verify_theorem7_condition(S + 0.1 * rng.standard_normal((3, 3)), Xo)

    def test_scalar_case(self):
        Xo = np.full((4, 1), 0.5)
        assert verify_theorem7_condition([[2.0]], Xo)

    @pytest.mark.parametrize("S", [np.eye(2), np.ones((3, 2)), np.eye(4)])
    def test_s_of_another_size(self, S):
        with pytest.raises(ValueError, match="S must be 3x3"):
            verify_theorem7_condition(S, self.orthonormal(20, 3, 1))


class TestChengMatrix:
    def test_n2(self):
        M = cheng_matrix(2)
        np.testing.assert_allclose(M, [[1.0 / np.sqrt(2.0)], [-1.0 / np.sqrt(2.0)]])

    def test_n3_diagonal(self):
        M = cheng_matrix(3)
        # L has unit diagonal, so M[k,k]^2 recovers the pivots
        np.testing.assert_allclose(M[0, 0] ** 2, 2.0 / 3.0, atol=1e-14)
        np.testing.assert_allclose(M[1, 1] ** 2, 1.0 / 2.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 17, 50])
    def test_invariants(self, n):
        M = cheng_matrix(n)
        assert M.shape == (n, n - 1)
        np.testing.assert_allclose(M.T @ M, np.eye(n - 1), atol=1e-10)
        np.testing.assert_allclose(M.T @ np.ones(n), 0.0, atol=1e-10)
        B2 = np.eye(n) - np.full((n, n), 1.0 / n)
        np.testing.assert_allclose(M @ M.T, B2, atol=1e-10)

    def test_too_small(self):
        with pytest.raises(ValueError):
            cheng_matrix(1)


class TestIdempotentCheck:
    def test_projection(self):
        Xo = np.linalg.qr(np.random.default_rng(4).standard_normal((8, 2)))[0]
        assert idempotent_check(np.eye(8) - Xo @ Xo.T)

    def test_scaled_identity_fails(self):
        assert not idempotent_check(2.0 * np.eye(5))

    def test_mean_projector(self):
        n = 7
        assert idempotent_check(np.full((n, n), 1.0 / n))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            idempotent_check(np.triu(np.ones((3, 3))))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            idempotent_check(np.ones((2, 3)))


class TestOracleCompare:
    def test_ones(self):
        assert oracle_compare(np.ones((10, 1)), 100, 0) < 1e-10

    def test_random(self):
        X = np.random.default_rng(5).standard_normal((50, 5))
        assert oracle_compare(X, 100, 1) < 1e-10

    def test_zero_trials(self):
        assert oracle_compare(np.ones((10, 1)), 0, 0) == 0.0


class TestMonteCarlo:
    def config(self, **kw):
        base = dict(n=8, p=2, sigma=2.0,
                    replicates=200, seed=123, construction="generic")
        base.update(kw)
        return SimulationConfig(**base)

    def test_smoke(self):
        report = monte_carlo(self.config())
        assert report.mean_W.shape == (6,)
        assert report.cov_W.shape == (6, 6)
        assert report.max_ss_identity_error < 1e-10
        assert np.all(np.isfinite(report.cov_R))

    def test_deterministic(self):
        a = monte_carlo(self.config())
        b = monte_carlo(self.config())
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(np.asarray(va), np.asarray(vb))

    def test_student_constructions(self):
        for construction in ("student-minus", "student-plus"):
            report = monte_carlo(self.config(p=1, construction=construction))
            assert report.max_ss_identity_error < 1e-10

    def test_univariate_constructions(self):
        for construction in ("univariate-a", "univariate-b"):
            report = monte_carlo(self.config(construction=construction))
            assert report.max_ss_identity_error < 1e-10

    @pytest.mark.parametrize("sigma", [1e-150, 1e-100, 1e100, 1e150, 1e154])
    def test_moments_at_extreme_sigma(self, sigma):
        """The run at sigma is the run at unit sigma, scaled once: the moments
        of rss / sigma^2 and the identity error are the same numbers."""
        at = lambda s: monte_carlo(self.config(n=10, sigma=s, replicates=500))
        one, report = at(1.0), at(sigma)
        assert np.array_equal(report.cov_R, sigma ** 2 * one.cov_R)
        assert np.array_equal(report.cov_W, sigma ** 2 * one.cov_W)
        assert np.array_equal(report.mean_W, sigma * one.mean_W)
        assert report.mean_rss_over_sigma2 == one.mean_rss_over_sigma2
        assert report.var_rss_over_sigma2 == one.var_rss_over_sigma2
        assert report.max_ss_identity_error == one.max_ss_identity_error
        assert report.max_ss_identity_error < 1e-10

    def test_covariance_overflow_is_an_arithmetic_error(self):
        # sigma^2 = 1.69e308 times a sample variance above about 1.06 is not a float;
        # the run fails as such, with no overflow warning (an error under the test config)
        with pytest.raises(ArithmeticError, match="overflow at sigma"):
            monte_carlo(self.config(n=10, sigma=1.3e154, replicates=5, seed=1))
        report = monte_carlo(self.config(n=10, sigma=1e154, replicates=50, seed=1))
        assert np.all(np.isfinite(report.cov_W)) and np.all(np.isfinite(report.cov_R))

    def test_moments_at_scale(self):
        report = monte_carlo(self.config(n=10, sigma=1.0, replicates=20000))
        assert abs(report.mean_rss_over_sigma2 - 8.0) < 0.15
        assert abs(report.var_rss_over_sigma2 - 16.0) < 1.5

    def assert_matches_per_replicate_w(self, cfg):
        """R' = (I - H) Z at unit sigma, drawn and mapped batch by batch as
        monte_carlo does, and scaled by sigma at the end; W one replicate at
        a time."""
        report = monte_carlo(cfg)
        n, m, p = cfg.n, cfg.replicates, cfg.p
        X = _simulation_design(cfg)
        if cfg.construction == "generic":
            S = s_from_qr(householder_qr(X, STANDARD), X).S
        elif cfg.construction.startswith("student"):
            S = student_coefficient(n, cfg.construction.split("-")[1])
        else:
            S = univariate_coefficients(X[:, 1], n, cfg.construction[-1])
        rng = np.random.default_rng(cfg.seed)
        annihilator = np.eye(n) - X @ np.linalg.solve(X.T @ X, X.T)
        batches = [annihilator @ rng.standard_normal((n, min(MC_BATCH, m - j)))
                   for j in range(0, m, MC_BATCH)]
        R = np.hstack(batches)
        W = np.column_stack([R[p:, j] + X[p:] @ (S @ R[:p, j]) for j in range(m)])

        mean_R = sum(Rb.sum(axis=1) for Rb in batches) / m
        sum_RR = sum(Rb @ Rb.T for Rb in batches)
        s2 = cfg.sigma ** 2
        assert np.array_equal(report.cov_R, s2 * (sum_RR / m - np.outer(mean_R, mean_R)))
        # the moments of rss / sigma^2, which is rss' at unit sigma
        q = [np.einsum("ij,ij->j", Rb, Rb) for Rb in batches]
        mean_q = sum(float(r.sum()) for r in q) / m
        assert report.mean_rss_over_sigma2 == mean_q
        assert report.var_rss_over_sigma2 == sum(float((r * r).sum()) for r in q) / m - mean_q ** 2
        np.testing.assert_allclose(report.mean_W, cfg.sigma * W.mean(axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.cov_W, s2 * np.cov(W, bias=True), rtol=0, atol=1e-12)
        assert np.array_equal(report.cov_W, report.cov_W.T)

    @pytest.mark.parametrize("construction,p", [
        ("generic", 3), ("student-minus", 1), ("student-plus", 1),
        ("univariate-a", 2), ("univariate-b", 2)])
    def test_moments_against_per_replicate_w(self, construction, p):
        self.assert_matches_per_replicate_w(self.config(
            p=p, sigma=0.7, construction=construction))

    def test_moments_over_batches(self):
        # two full batches and a partial one, in buffers reused across batches
        self.assert_matches_per_replicate_w(self.config(
            n=6, p=3, sigma=0.7, replicates=2 * MC_BATCH + 7))

    @pytest.mark.parametrize("reps", [MC_BATCH, 45007])
    def test_peak_memory_is_two_batch_buffers(self, reps):
        cfg = self.config(n=100, p=4, replicates=reps)
        tracemalloc.start()
        try:
            monte_carlo(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the draws (later W) and R; a third n x batch array would pass the bound
        assert peak <= 2.2 * 8 * cfg.n * min(reps, MC_BATCH)

    @pytest.mark.parametrize("changes,message", [
        (dict(replicates=0), "need at least one replicate"),
        (dict(construction="bogus"), "unknown construction"),
        (dict(p=3, construction="univariate-b"), "require p = 2"),
        (dict(p=1, construction="univariate-a"), "require p = 2"),
        # sigma^2 must be a normal float: it scales the reported covariances
        (dict(sigma=-1.0), "sigma must be"), (dict(sigma=np.nan), "sigma must be"),
        (dict(sigma=np.inf), "sigma must be"), (dict(sigma=1e-160), "sigma must be"),
        (dict(sigma=1e-200), "sigma must be"), (dict(sigma=1e155), "sigma must be"),
        (dict(sigma=1e200), "sigma must be"), (dict(sigma=np.float64(1e200)), "sigma must be"),
    ])
    def test_rejected_config(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self.config(**changes)

    @pytest.mark.parametrize("sigma", [2.0 ** -511, 1e-150, 1e150, 1.3e154])
    def test_sigma_with_a_normal_square_accepted(self, sigma):
        assert self.config(sigma=sigma).sigma == sigma

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            self.config(p=8)
        with pytest.raises(ValueError):
            self.config(sigma=0.0)
        with pytest.raises(ValueError):
            self.config(replicates=0)
        with pytest.raises(ValueError):
            self.config(construction="student-minus")  # p must be 1


class TestCheckBattery:
    def test_report(self):
        report = check_battery([5, 20], 10, 1, 1e-10)
        assert list(report) == ["oracle_max_error", "oracle_errors", "theorem6_roots",
                                "theorem7_pass", "cheng_orthonormality_error",
                                "idempotency_pass", "failures"]
        assert list(report["oracle_errors"]) == ["5", "20"]
        assert report["oracle_max_error"] == max(report["oracle_errors"].values()) < 1e-10
        assert list(report["theorem6_roots"]) == ["2", "4", "10", "100"]
        assert report["theorem7_pass"] and report["idempotency_pass"]
        assert report["cheng_orthonormality_error"] < 1e-10
        assert report["failures"] == []


class TestBenchmark:
    def test_smoke(self):
        rows = benchmark_apply([30, 60], 2, 1)
        methods = {r["method"] for r in rows}
        assert methods == {"explicit", "reflect", "closed"}
        assert len(rows) == 6
        assert all(r["seconds"] >= 0.0 for r in rows)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            benchmark_apply([60, 30], 2, 1)
        with pytest.raises(ValueError):
            benchmark_apply([30, 60], 40, 1)
        with pytest.raises(ValueError):
            benchmark_apply([30, 60], 2, 0)
