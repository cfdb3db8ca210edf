import numpy as np
import pytest

from orthores import (
    RankDeficiencyError,
    RowSelection,
    explicit_orthocomplement_basis,
    fit_least_squares,
    householder_qr,
    independent_residuals,
    orthocomplement_apply,
    qr_for_selection,
    s_from_qr,
    standardize_predictor,
    student_w,
    univariate_w,
    verify_theorem6_roots,
)
from orthores.regression import univariate_coefficients


def random_selection(rng, n, p):
    return RowSelection(tuple(sorted(rng.choice(n, size=p, replace=False).tolist())))


class TestFit:
    def test_mean_fit(self):
        Y = np.array([1.0, 4.0, 7.0, 0.0])
        fit = fit_least_squares(np.ones((4, 1)), Y)
        np.testing.assert_allclose(fit.beta_hat, [3.0])
        np.testing.assert_allclose(fit.residuals, Y - 3.0)

    def test_perfect_fit(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = fit_least_squares(X, X @ [2.0, -1.0])
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        assert fit.rss < 1e-24

    def test_hand_example(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = fit_least_squares(X, [0.0, 0.0, 3.0])
        np.testing.assert_allclose(fit.beta_hat, [-0.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, [0.5, -1.0, 0.5], atol=1e-12)
        assert abs(fit.rss - 1.5) < 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 5))
        Y = rng.standard_normal(40)
        fit = fit_least_squares(X, Y)
        beta_ne = np.linalg.solve(X.T @ X, X.T @ Y)
        np.testing.assert_allclose(fit.beta_hat, beta_ne, atol=1e-8)
        assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8 * np.linalg.norm(Y)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            fit_least_squares(np.ones((5, 2)), np.zeros(5))


class TestIndependentResiduals:
    def test_zero_residuals(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        fit = fit_least_squares(X, X @ [1.0, 2.0])
        sp = s_from_qr(householder_qr(X), X)
        out = independent_residuals(fit, sp)
        np.testing.assert_allclose(out.W, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.beta_star, fit.beta_hat, atol=1e-12)

    def test_forced_magnitude(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = fit_least_squares(X, [0.0, 0.0, 3.0])
        sp = s_from_qr(householder_qr(X), X)
        out = independent_residuals(fit, sp)
        assert out.W.shape == (1,)
        assert abs(abs(out.W[0]) - np.sqrt(1.5)) < 1e-12

    def test_matches_student_minus(self):
        Y = np.array([2.0, -1.0, 4.0, 0.5, 3.0])
        X = np.ones((5, 1))
        fit = fit_least_squares(X, Y)
        sp = s_from_qr(householder_qr(X), X)
        out = independent_residuals(fit, sp)
        np.testing.assert_allclose(out.W, student_w(Y, "minus").W, atol=1e-12)

    def test_sum_of_squares_and_reinterpretation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            p = int(rng.integers(1, min(n - 1, 6)))
            X = rng.standard_normal((n, p))
            Y = rng.standard_normal(n)
            sel = random_selection(rng, n, p)
            fit = fit_least_squares(X, Y)
            sp = s_from_qr(qr_for_selection(X, sel), X, sel)
            out = independent_residuals(fit, sp, sel)
            assert abs(out.W @ out.W - fit.rss) <= 1e-10 * fit.rss
            perm = sel.permutation(n)
            np.testing.assert_allclose(
                out.W, Y[perm][p:] - X[perm][p:] @ out.beta_star, atol=1e-10)

    @pytest.mark.parametrize("n,rows", [(12, (0, 1, 2)), (12, (1, 5, 9)), (12, (3, 7, 11)),
                                        (4, (0, 1, 2)), (4, (0, 2, 3)), (2, (1,))])
    def test_matches_permuted_formula_and_basis(self, n, rows):
        rng = np.random.default_rng(300 + n + sum(rows))
        p = len(rows)
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal(n)
        sel = RowSelection(rows)
        fit = fit_least_squares(X, Y)
        qr = qr_for_selection(X, sel)
        sp = s_from_qr(qr, X, sel)
        out = independent_residuals(fit, sp, sel)
        # the same construction with every row permuted, selected rows first
        chosen = set(rows)
        perm = np.array(list(rows) + [i for i in range(n) if i not in chosen])
        Rp, Xp = fit.residuals[perm], X[perm]
        v = sp.S @ Rp[:p]
        np.testing.assert_allclose(out.v, v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.W, Rp[p:] + Xp[p:] @ v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.beta_star, fit.beta_hat - v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.W, explicit_orthocomplement_basis(qr).T @ Rp,
                                   rtol=0, atol=1e-10)
        assert out.selection == sel

    def test_out_of_range_selection(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 3))
        fit = fit_least_squares(X, rng.standard_normal(12))
        sp = s_from_qr(householder_qr(X), X)
        with pytest.raises(ValueError):
            independent_residuals(fit, sp, RowSelection((1, 5, 12)))

    def test_matches_orthocomplement_apply(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((25, 3))
        Y = rng.standard_normal(25)
        fit = fit_least_squares(X, Y)
        sp = s_from_qr(householder_qr(X), X)
        out = independent_residuals(fit, sp)
        np.testing.assert_allclose(
            out.W, orthocomplement_apply(sp, X, fit.residuals), atol=1e-12)


class TestStudentW:
    def test_two_point(self):
        out = student_w([1.0, 3.0], "minus")
        np.testing.assert_allclose(out.W, [np.sqrt(2.0)], atol=1e-12)
        assert abs(out.W @ out.W - 2.0) < 1e-12

    def test_golden_minus(self):
        out = student_w([1.0, 2.0, 3.0, 4.0], "minus")
        np.testing.assert_allclose(out.W, [0.0, 1.0, 2.0], atol=1e-14)
        assert abs(out.W @ out.W - 5.0) < 1e-14

    def test_golden_plus(self):
        out = student_w([1.0, 2.0, 3.0, 4.0], "plus")
        np.testing.assert_allclose(out.W, [-2.0, -1.0, 0.0], atol=1e-14)
        assert abs(out.W @ out.W - 5.0) < 1e-14

    def test_constant_input(self):
        out = student_w(np.full(6, 3.5), "plus")
        np.testing.assert_allclose(out.W, 0.0, atol=1e-14)

    def test_too_short(self):
        with pytest.raises(ValueError):
            student_w([1.0], "minus")

    def test_mean_modification_reproduces_w(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal(12)
        for variant in ("minus", "plus"):
            out = student_w(Y, variant)
            np.testing.assert_allclose(out.W, Y[1:] - out.beta_star[0], atol=1e-12)

    def test_coefficients_are_quadratic_roots(self):
        for n in (2, 5, 17, 100):
            c_plus, c_minus = verify_theorem6_roots(n)
            Y = np.arange(float(n))
            R = Y - Y.mean()
            np.testing.assert_allclose(student_w(Y, "plus").W, R[1:] + c_plus * R[0],
                                       atol=1e-12)
            np.testing.assert_allclose(student_w(Y, "minus").W, R[1:] + c_minus * R[0],
                                       atol=1e-12)

    def test_alternate_residual_form(self):
        # R_{j+1} + R_1/(sqrt(n)-1) = R*_{j+1} + R*_1/sqrt(n) with R* the
        # residuals about the mean of the last n-1 observations
        rng = np.random.default_rng(8)
        Y = rng.standard_normal(15)
        n = Y.size
        R = Y - Y.mean()
        Rstar = Y - Y[1:].mean()
        lhs = R[1:] + R[0] / (np.sqrt(n) - 1.0)
        rhs = Rstar[1:] + Rstar[0] / np.sqrt(n)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestUnivariateW:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.t = standardize_predictor(rng.standard_normal(10))
        self.Y = rng.standard_normal(10)

    def rss(self, t, Y):
        a = Y.mean()
        b = t.t @ Y
        R = Y - a - b * t.t
        return float(R @ R), R

    def test_zero_residuals(self):
        Y = 2.0 + 3.0 * self.t.t
        for variant in ("a", "b"):
            out = univariate_w(self.t, Y, variant)
            np.testing.assert_allclose(out.W, 0.0, atol=1e-12)

    def test_both_variants_preserve_rss(self):
        rss, _ = self.rss(self.t, self.Y)
        wa = univariate_w(self.t, self.Y, "a")
        wb = univariate_w(self.t, self.Y, "b")
        assert abs(wa.W @ wa.W - rss) <= 1e-10 * rss
        assert abs(wb.W @ wb.W - rss) <= 1e-10 * rss
        # the two variants generally differ entrywise
        assert np.max(np.abs(wa.W - wb.W)) > 1e-8

    def test_reinterpretation(self):
        for variant in ("a", "b"):
            out = univariate_w(self.t, self.Y, variant)
            np.testing.assert_allclose(
                out.W,
                self.Y[2:] - out.beta_star[0] - out.beta_star[1] * self.t.t[2:],
                atol=1e-12)

    def test_too_short(self):
        t = standardize_predictor([0.0, 1.0])
        with pytest.raises(ValueError):
            univariate_w(t, [1.0, 2.0])


class TestUnivariateSingularBranch:
    def make_singular_t(self, n=4):
        rn = np.sqrt(n)
        t = np.empty(n)
        t[0] = 1.0 / rn
        t[1] = 1.0 - 1.0 / (rn * (rn - 1.0))
        t[2:] = -1.0 / (rn * (rn - 1.0))
        return t

    def test_coefficients(self):
        t = self.make_singular_t(4)
        AB = univariate_coefficients(t, 4, "a")
        np.testing.assert_allclose(AB, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_w_and_rss(self):
        n = 4
        t = self.make_singular_t(n)
        sp = standardize_predictor(t)  # already standardized
        np.testing.assert_allclose(sp.t, t, atol=1e-12)
        rng = np.random.default_rng(10)
        Y = rng.standard_normal(n)
        a, b = Y.mean(), t @ Y
        R = Y - a - b * t
        out = univariate_w(sp, Y, "a")
        np.testing.assert_allclose(out.W, R[2:] + R[0], atol=1e-12)
        assert abs(out.W @ out.W - R @ R) <= 1e-10 * (R @ R)


class TestStandardizePredictor:
    def test_example(self):
        sp = standardize_predictor([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(sp.t, np.array([-1.5, -0.5, 0.5, 1.5]) / np.sqrt(5.0))
        assert abs(sp.shift - 2.5) < 1e-14
        assert abs(sp.scale - np.sqrt(5.0)) < 1e-14

    def test_already_standardized(self):
        t = np.array([-1.5, -0.5, 0.5, 1.5]) / np.sqrt(5.0)
        sp = standardize_predictor(t)
        np.testing.assert_allclose(sp.t, t, atol=1e-15)
        assert sp.shift == 0.0
        assert abs(sp.scale - 1.0) < 1e-14

    def test_invariants(self):
        rng = np.random.default_rng(11)
        sp = standardize_predictor(1e6 + 50.0 * rng.standard_normal(40))
        assert abs(np.sum(sp.t)) < 1e-12
        assert abs(np.sum(sp.t ** 2) - 1.0) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            standardize_predictor(np.full(5, 2.0))
