import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrtrs

from orthores import cli, core, regression
from orthores import (
    STANDARD,
    TO_POSITIVE,
    RankDeficiencyError,
    RowSelection,
    SProjector,
    apply_Qt,
    explicit_orthocomplement_basis,
    fit_independent_residuals,
    fit_least_squares,
    householder_qr,
    independent_residuals,
    orthocomplement_apply,
    qr_for_selection,
    s_from_c,
    s_from_qr,
    standardize_predictor,
    student_w,
    univariate_w,
    verify_theorem6_roots,
)
from orthores.regression import student_coefficient, univariate_coefficients


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

    @pytest.mark.parametrize("length", [4, 6])
    def test_y_of_another_length(self, length):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(ValueError, match=f"Y has length {length}, X has 5 rows"):
            fit_least_squares(X, np.ones(length))

    @pytest.mark.parametrize("seed", range(10))
    def test_normal_equation_check_ignores_column_scale(self, seed):
        # |x^T R| grows with ||x||, so a bound that ignores ||x|| fails here
        z = np.random.default_rng(seed).standard_normal((50, 2))
        fit = fit_least_squares(np.column_stack([np.ones(50), 1e8 * z[:, 0]]), z[:, 1])
        assert np.isfinite(fit.beta_hat).all()

    @pytest.mark.parametrize("error", [1e-6, np.nan])
    def test_normal_equation_check_catches_a_wrong_beta(self, monkeypatch, error):
        # columns of norm about 1e-6: a relative beta error of 1e-6 moves
        # X^T R by only about 1e-12 ||Y||
        true_dtrtrs = regression.dtrtrs
        monkeypatch.setattr(regression, "dtrtrs", lambda *a, **kw: (
            true_dtrtrs(*a, **kw)[0] * (1.0 + error), 0))
        z = np.random.default_rng(0).standard_normal((40, 3))
        with pytest.raises(ArithmeticError, match="normal-equation"):
            fit_least_squares(1e-7 * z[:, :2], z[:, 2])

    @pytest.mark.parametrize("error", [1e-6, np.nan])
    def test_normal_equation_check_catches_a_wrong_residual(self, monkeypatch, error):
        # R = Q [0; c2] is orthogonal to col(X) whatever c2 holds, so only Y = X beta + R
        # can see a c2 off by 1e-6
        true_dormqr = regression._dormqr
        monkeypatch.setattr(regression, "_dormqr", lambda *a: true_dormqr(*a) * (1.0 + error))
        z = np.random.default_rng(0).standard_normal((40, 3))
        with pytest.raises(ArithmeticError, match="normal-equation"):
            fit_least_squares(z[:, :2], z[:, 2])

    @pytest.mark.parametrize("where", ["X", "Y"])
    def test_non_finite_input(self, where):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        Y = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        (X if where == "X" else Y)[2, ...] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_least_squares(X, Y)

    def test_finite_y_whose_fit_overflows(self):
        # ||Y|| = 2.4e308 is not a float, though every entry of Y is: the error says so
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Y is finite, but its fit exceeds the float"):
                fit_least_squares(np.ones((4, 1)), [1.7e308, 1.7e308, 0.0, 0.0])

    def test_finite_y_whose_fit_overflows_past_the_bound(self):
        # [X | Y] has 18,000 entries, so dgeqrt factors it; ||Y|| = 2.4e308 all the same
        Y = np.zeros(9000)
        Y[:2] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Y is finite, but its fit exceeds the float"):
                fit_least_squares(np.ones((9000, 1)), Y)

    def test_y_whose_squares_overflow(self):
        # Y is about 1e160, so Y . Y is not a float, but ||Y||, taken from the head of the
        # bordered column, and the fit are: no warning, and 2^532 times the fit of Y / 2^532
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(12), rng.standard_normal(12)])
        Y = X @ [3.0, -2.0] + 1e-20 * rng.standard_normal(12)  # R'R of the big fit is a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = fit_least_squares(X, 2.0 ** 532 * Y)
        fit = fit_least_squares(X, Y)
        np.testing.assert_allclose(big.beta_hat / 2.0 ** 532, fit.beta_hat, rtol=1e-14)
        assert np.abs(big.residuals / 2.0 ** 532 - fit.residuals).max() <= 1e-14 * np.linalg.norm(Y)


class TestBorderedFit:
    """The fit factors [X | Y] once; the top of its last column is z, which the
    route through householder_qr, apply_Qt and dtrtrs takes from a second pass
    over Y.  Above DGEQRF_MAX_SIZE the first p columns are dgeqrt's first panel,
    so the QR of X is bit for bit the one householder_qr gives; below it
    dgeqrf's dgemv sums X's columns together with Y, so the two agree to
    rounding."""

    @staticmethod
    def two_pass(X, Y):
        qr = householder_qr(X)
        z = apply_Qt(qr, Y)[:qr.p]
        beta = dtrtrs(qr.T.T, z, lower=1, trans=1)[0]
        return qr, beta, Y - X @ beta

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 6), extra=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           log_d=st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6),
           log_c=st.floats(-8.0, 8.0))
    # X alone above the bound: 2049 x 4 and 1366 x 6 (8196 entries)
    @example(p=4, extra=2045, seed=7, log_d=[0.0, 3.0, -5.0, 8.0, 0.0, 0.0], log_c=2.0)
    @example(p=6, extra=1360, seed=8, log_d=[-8.0, 8.0, 0.0, 1.0, -2.0, 4.0], log_c=-6.0)
    def test_matches_the_two_pass_route(self, p, extra, seed, log_d, log_c):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((p + extra, p)) * 10.0 ** np.array(log_d[:p])
        Y = 10.0 ** log_c * rng.standard_normal(p + extra)
        fit = fit_least_squares(X, Y)
        qr, beta, R = self.two_pass(X, Y)
        norms = np.linalg.norm(X, axis=0)
        if X.size > core.DGEQRF_MAX_SIZE:
            for field in ("T", "packed", "tau"):
                assert np.array_equal(getattr(fit.qr, field), getattr(qr, field)), field
        else:  # the same reflections, each entry within 1e-13 (about 450 ulps) of its scale
            assert np.array_equal(np.signbit(fit.qr.T.diagonal()), np.signbit(qr.T.diagonal()))
            assert np.array_equal(fit.qr.tau == 0.0, qr.tau == 0.0)
            assert (np.abs(fit.qr.T - qr.T) <= 1e-13 * norms).all()
            below = np.tri(*X.shape, -1, dtype=bool)  # the reflectors; on and above is not read
            assert (np.abs(fit.qr.packed - qr.packed)[below] <= 1e-13).all()  # |u_k| <= 1
            assert (np.abs(fit.qr.tau - qr.tau) <= 1e-13).all()  # tau_k in [1, 2]
        norm_y = np.linalg.norm(Y)
        assert (np.abs(fit.beta_hat - beta) * norms <= 1e-13 * norm_y).all()
        assert (np.abs(fit.residuals - R) <= 1e-13 * norm_y).all()

    def test_one_factorization_and_one_dormqr(self, monkeypatch):
        calls = []

        def counting(name):
            lapack = getattr(core, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return lapack(*args, **kwargs)
            return wrapper

        for name in ("dgeqrf", "dgeqrt", "dormqr"):
            monkeypatch.setattr(core, name, counting(name))
        X = np.column_stack([np.ones(9), np.arange(9.0)])
        fit_least_squares(X, np.sin(np.arange(9.0)))
        # one factorization, and one dormqr that takes R = Q [0; c2] from its Q^T Y
        assert calls == ["dgeqrf", "dormqr"]

    @pytest.mark.parametrize("exact", [True, False])
    def test_response_in_column_space(self, exact):
        # a zero last tail is not a rank error: the rank test reads X's columns only
        if exact:  # both of X's tails are zero too, so tau = 0 and the fix-up negates z
            X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
            Y = np.array([2.0, -3.0, 0.0, 0.0])
        else:
            X = np.random.default_rng(3).standard_normal((12, 4))
            Y = X @ np.array([1.0, -2.0, 0.5, 3.0])
        fit = fit_least_squares(X, Y)
        assert fit.rss <= (1e-14 * np.linalg.norm(Y)) ** 2
        if exact:
            assert fit.rss == 0.0
            np.testing.assert_array_equal(fit.beta_hat, [2.0, -3.0])

    @pytest.mark.parametrize("where", ["X", "Y"])
    @pytest.mark.parametrize("row", [0, 1, 7])  # above, on and below X's diagonal
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, where, row, value):
        rng = np.random.default_rng(4)
        X, Y = rng.standard_normal((10, 3)), rng.standard_normal(10)
        (X[row, 1:2] if where == "X" else Y[row:row + 1])[...] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_least_squares(X, Y)

    def test_non_finite_after_a_dependent_column(self):
        X = np.random.default_rng(4).standard_normal((10, 3))
        X[:, 1] = 2.0 * X[:, 0]
        X[0, 2] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_least_squares(X, np.ones(10))

    def test_rank_error_names_the_first_dependent_column(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 10))
        X = np.column_stack([a, b, a + b, 2.0 * b])  # columns 3 and 4 are dependent
        with pytest.raises(RankDeficiencyError, match="at column 3:"):
            fit_least_squares(X, rng.standard_normal(10))
        with pytest.raises(RankDeficiencyError, match="at column 3:"):
            householder_qr(X)

    @pytest.mark.parametrize("error", [0.0, 1e-6])
    def test_normal_equation_bound_does_not_overflow(self, monkeypatch, error):
        # ||Y|| of about 1.7e155 overflows Y @ Y; the bound must stay finite,
        # so that a wrong beta at this scale is still caught
        true_dtrtrs = regression.dtrtrs
        monkeypatch.setattr(regression, "dtrtrs", lambda *a, **kw: (
            true_dtrtrs(*a, **kw)[0] * (1.0 + error), 0))
        Y = np.array([1e155, 1e155, 1.000000000000001e155])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error:
                with pytest.raises(ArithmeticError, match="normal-equation"):
                    fit_least_squares(np.ones((3, 1)), Y)
            else:
                assert fit_least_squares(np.ones((3, 1)), Y).rss > 0.0


def conditioned(rng, n, p, c):
    """X = U diag(1 .. 10^-c) V^T with U and V random orthonormal: cond(X) = 10^c."""
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    V = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return (U * np.logspace(0, -c, p)) @ V.T


class TestQtYTail:
    """The fit reads c2 = M^T Y, the tail of Q^T Y, off the reflector that LAPACK builds
    from it in the bordered column, and takes R = Q [0; c2]."""

    @staticmethod
    def explicit(fit, Y):
        # M^T Y through the explicit basis of the fit's own reflectors, in its own loop
        return explicit_orthocomplement_basis(fit.qr).T @ Y

    @pytest.mark.parametrize("n,p", [(9, 2), (40, 5), (1170, 6), (1171, 6), (1500, 4)])
    def test_both_factorization_routes(self, monkeypatch, n, p):
        # [X | Y] of up to DGEQRF_MAX_SIZE entries takes tau from dgeqrf, above it from dgeqrt
        called = []
        for name in ("dgeqrf", "dgeqrt"):
            lapack = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, _f=lapack, _n=name, **kw:
                                called.append(_n) or _f(*a, **kw))
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, p))
        Y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        fit = fit_least_squares(X, Y)
        assert called == ["dgeqrf" if n * (p + 1) <= core.DGEQRF_MAX_SIZE else "dgeqrt"]
        norm_y = np.linalg.norm(Y)
        assert np.linalg.norm(fit.c2 - self.explicit(fit, Y)) <= 1e-14 * norm_y
        R = Y - X @ np.linalg.lstsq(X, Y, rcond=None)[0]
        assert np.linalg.norm(fit.residuals - R) <= 1e-13 * norm_y
        assert abs(fit.c2 @ fit.c2 - fit.rss) <= 1e-14 * fit.rss

    def test_zero_tail(self):
        # Y in col(X) exactly: c2 = 0, so dlarfg gives tau = 0, and R = Q [0; 0] = 0
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        fit = fit_least_squares(X, np.array([2.0, -3.0, 0.0, 0.0]))
        assert fit.c2.tolist() == [0.0, 0.0] and fit.residuals.tolist() == [0.0] * 4
        # tolist's == cannot tell -0.0 from 0.0, and the JSON output can
        assert not np.signbit(fit.c2).any() and not np.signbit(fit.residuals).any()
        np.testing.assert_array_equal(fit.beta_hat, [2.0, -3.0])

    def test_zero_head_entry(self):
        # (Q^T Y)_p = 0 over a nonzero tail: dlarfg gives tau_p = 1 and beta_p < 0, so
        # c2[0] = beta_p (1 - tau_p) is a zero, which must print as 0.0, not -0.0
        fit, out = fit_independent_residuals(np.ones((4, 1)), np.array([0.0, 0.0, 1.0, -1.0]))
        assert out.W.tolist() == fit.c2.tolist() == [0.0, 1.0, -1.0]
        assert np.signbit(out.W).tolist() == [False, False, True]
        np.testing.assert_allclose(fit.residuals, [0.0, 0.0, 1.0, -1.0], rtol=0, atol=1e-15)
        assert not np.signbit(fit.residuals[:2]).any()

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_one_row_past_p(self, p):
        # n = p + 1: c2 has one entry, and dlarfg gives tau = 0 for it, so c2 = beta
        rng = np.random.default_rng(p)
        X, Y = rng.standard_normal((p + 1, p)), rng.standard_normal(p + 1)
        fit = fit_least_squares(X, Y)
        assert fit.c2.shape == (1,)
        assert abs(fit.c2[0] - self.explicit(fit, Y)[0]) <= 1e-14 * np.linalg.norm(Y)
        assert abs(fit.c2[0] ** 2 - fit.rss) <= 1e-14 * fit.rss
        _, out = fit_independent_residuals(X, Y)
        assert out.W.tobytes() == fit.c2.tobytes()

    @pytest.mark.parametrize("k", [532, -532])
    def test_rescaled(self, k):
        # ||Y||^2 leaves [2^-1000, 2^1000], so the fit runs on Y 2^-e and scales c2 back too;
        # R is small, so that R'R of the big fit is a float
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
        Y = X @ [1.0, 2.0, -1.0] + 1e-20 * rng.standard_normal(20)
        fit, out = fit_independent_residuals(X, Y, RowSelection((2, 7, 19)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, big_out = fit_independent_residuals(X, np.ldexp(Y, k), RowSelection((2, 7, 19)))
        for got, want in ((big.c2, fit.c2), (big.residuals, fit.residuals), (big_out.W, out.W),
                          (big_out.v, out.v)):
            assert got.tobytes() == np.ldexp(want, k).tobytes()
        assert big_out.W.tobytes() == big.c2.tobytes()

    @pytest.mark.parametrize("c", [0, 4, 8, 10, 12])
    def test_no_farther_from_the_explicit_basis(self, c):
        # W = c2 against the formula R_(p) + X_(p) S R^(p) on the same fit: at cond 10^c the
        # formula's X_(p) S cancels, and c2 stays at rounding level
        for draw in range(4):
            rng = np.random.default_rng(100 * c + draw)
            X = conditioned(rng, 300, 4, c)
            Y = X @ rng.standard_normal(4) + rng.standard_normal(300)
            sel = random_selection(rng, 300, 4)
            fit, out = fit_independent_residuals(X, Y, sel)
            want = self.explicit(fit, Y[sel.permutation(300)])
            formula = independent_residuals(fit, s_from_qr(fit.qr, fit.X)).W
            new, old = np.linalg.norm(out.W - want), np.linalg.norm(formula - want)
            scale = np.linalg.norm(want)
            assert new <= 1e-15 * scale and new <= max(old, 1e-15 * scale), (draw, new, old)


class TestIllConditioned:
    """Across cond 1 .. 1e12 the general construction keeps W'W = R'R, R orthogonal to
    col(X) and Y = X beta_hat + R at rounding level, and ``orthores indep --mode general``
    exits 0."""

    @pytest.mark.parametrize("c", range(13))
    def test_sweep(self, tmp_path, c):
        n, p = 2000, 6
        for draw in range(4):
            rng = np.random.default_rng(1000 * c + draw)
            X = conditioned(rng, n, p, c)
            Y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            path = tmp_path / "xy.csv"
            np.savetxt(path, np.column_stack([X, Y]), delimiter=",", fmt="%.17g")
            for sel in (None, random_selection(rng, n, p)):
                rows = [] if sel is None else ["--rows", ",".join(map(str, sel.indices))]
                out_path = tmp_path / "out.json"
                argv = ["indep", str(path), "--mode", "general", "--out", str(out_path)] + rows
                assert cli.main(argv) == 0, (c, draw, sel)
                doc = json.loads(out_path.read_text())
                assert abs(doc["wss"] - doc["rss"]) <= 1e-14 * doc["rss"]
                fit, out = fit_independent_residuals(X, Y, sel)
                assert doc["W"] == out.W.tolist()
                R = fit.residuals
                assert abs(out.W @ out.W - R @ R) < 1e-14 * (R @ R), (c, draw, sel)
                norms = np.linalg.norm(fit.X, axis=0)
                ratio = np.max(np.abs(fit.X.T @ R) / norms)
                assert ratio < 1e-15 * np.linalg.norm(Y), (c, draw, sel, ratio)
                # the fit's own backward-error test, in the fit's row order
                Yf = Y if sel is None else Y[sel.permutation(n)]
                backward = np.linalg.norm(Yf - fit.X @ fit.beta_hat - R) / (
                    np.linalg.norm(Y) + norms @ np.abs(fit.beta_hat))
                assert backward <= 1e-14, (c, draw, sel, backward)


class TestScaleCovariance:
    """T(XD) = T D gives S(XD) = D^-1 S(X), W(XD, cY) = c W(X, Y) and
    beta*(XD, cY) = c D^-1 beta*(X, Y) for any positive diagonal D."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           log_d=st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6),
           log_c=st.floats(-8.0, 8.0), skip=st.integers(0, 5))
    def test_column_and_response_scale(self, p, seed, log_d, log_c, skip):
        n = p + 1
        rng = np.random.default_rng(seed)
        X, Y = rng.standard_normal((n, p)), rng.standard_normal(n)
        d, c = 10.0 ** np.array(log_d[:p]), 10.0 ** log_c
        sel = RowSelection(tuple(i for i in range(n) if i != skip % p))  # ends at row n-1

        def construct(X, Y):
            sp = s_from_qr(qr_for_selection(X, sel), X, sel)
            return sp.S, independent_residuals(fit_least_squares(X, Y), sp, sel)

        S, out = construct(X, Y)
        S_scaled, scaled = construct(X * d, c * Y)
        row_err = np.linalg.norm(d[:, None] * S_scaled - S, axis=1)
        assert (row_err <= 1e-12 * np.linalg.norm(S, axis=1)).all()
        assert np.linalg.norm(scaled.W / c - out.W) <= 1e-12 * np.linalg.norm(Y)
        beta_err = np.linalg.norm(d * scaled.beta_star / c - out.beta_star)
        assert beta_err <= 1e-12 * np.linalg.norm(out.beta_star)


class TestScaleInvariantIdentity:
    """W'W = R'R holds to rounding whatever the scale of X's columns."""

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 6), extra=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           log_d=st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6))
    def test_sum_of_squares(self, p, extra, seed, log_d):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((p + extra, p)) * 10.0 ** np.array(log_d[:p])
        fit = fit_least_squares(X, rng.standard_normal(p + extra))
        W = independent_residuals(fit, s_from_qr(fit.qr, X)).W
        assert abs(W @ W - fit.rss) <= 1e-12 * fit.rss


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

    def test_projector_of_another_size(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        fit = fit_least_squares(X, [0.0, 1.0, 0.0, 2.0])
        sp = s_from_qr(householder_qr(X[:, :1]), X[:, :1])
        with pytest.raises(ValueError, match="projector size does not match the fit"):
            independent_residuals(fit, sp)

    @pytest.mark.parametrize("build", [lambda X: s_from_qr(householder_qr(X), X),
                                       lambda X: s_from_c(X, householder_qr(X).T)],
                             ids=["s_from_qr", "s_from_c"])
    def test_projector_of_another_n(self, build):
        # a projector of the first 12 rows has the fit's p: its W on a 30-row fit breaks
        # W'W = R'R, so the row counts are compared too
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        fit = fit_least_squares(X, rng.standard_normal(30))
        with pytest.raises(ValueError, match="projector size does not match the fit"):
            independent_residuals(fit, build(X[:12]))

    def test_size_check_builds_no_frame(self):
        # n is read off the factorization: a frame costs a dormqr, and nothing here applies it
        X = np.random.default_rng(6).standard_normal((30, 3))
        fit = fit_least_squares(X, np.random.default_rng(7).standard_normal(30))
        sp = s_from_qr(fit.qr, X)
        independent_residuals(fit, sp)
        assert "frame" not in vars(sp)

    def test_projector_without_a_factorization(self):
        # built directly with qr=None, and without the frame s_from_c stores: a typed error
        X = np.random.default_rng(0).standard_normal((10, 3))
        fit = fit_least_squares(X, np.random.default_rng(1).standard_normal(10))
        sp = SProjector(S=s_from_qr(fit.qr, X).S, rank=3, qr=None)
        with pytest.raises(ValueError, match="no factorization to build its frame from"):
            independent_residuals(fit, sp)

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

    def test_out_of_range_selection(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 3))
        fit = fit_least_squares(X, rng.standard_normal(12))
        sp = s_from_qr(householder_qr(X), X)
        with pytest.raises(ValueError):
            independent_residuals(fit, sp, RowSelection((1, 5, 12)))

    def test_projector_keeps_its_selection(self):
        # built for rows (1, 4, 7) and applied with no selection: the first p rows were used,
        # which gave ||W|| = 2.12 for ||x|| = 1.81 and W'W = 4.50 for rss = 3.27
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((10, 3)), rng.standard_normal(10)
        fit, sel = fit_least_squares(X, Y), RowSelection((1, 4, 7))
        sp = s_from_qr(qr_for_selection(X, sel), X, sel)
        first = s_from_qr(householder_qr(X), X)
        x = fit.residuals  # perpendicular to col(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sp.sel is sel and first.sel is None
            W = orthocomplement_apply(sp, X, x, sel)
            WS = independent_residuals(fit, sp, sel).W  # on X and S, not on sp.frame
            np.testing.assert_allclose(WS, W, rtol=0, atol=1e-14 * np.linalg.norm(x))
            for same in (None, RowSelection((1, 4, 7))):
                assert orthocomplement_apply(sp, X, x, same).tobytes() == W.tobytes()
                assert independent_residuals(fit, sp, same).W.tobytes() == WS.tobytes()
            assert abs(W @ W - fit.rss) <= 1e-12 * fit.rss
            # None and an explicit 0..p-1 both pick the first p rows
            W1 = orthocomplement_apply(first, X, x)
            explicit = orthocomplement_apply(first, X, x, RowSelection(range(3)))
            assert explicit.tobytes() == W1.tobytes()
            for sp_, other in ((sp, RowSelection(range(3))), (sp, RowSelection((1, 4, 8))),
                               (first, sel)):
                with pytest.raises(ValueError, match="built for another row selection"):
                    orthocomplement_apply(sp_, X, x, other)
                with pytest.raises(ValueError, match="built for another row selection"):
                    independent_residuals(fit, sp_, other)
            # a projector made directly has no selection of its own: the first p rows
            direct = SProjector(S=first.S, rank=3, qr=first.qr)
            assert direct.sel is None
            assert orthocomplement_apply(direct, X, x).tobytes() == W1.tobytes()

    def test_matches_orthocomplement_apply(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((25, 3))
        Y = rng.standard_normal(25)
        fit = fit_least_squares(X, Y)
        sp = s_from_qr(householder_qr(X), X)
        out = independent_residuals(fit, sp)
        np.testing.assert_allclose(
            out.W, orthocomplement_apply(sp, X, fit.residuals), atol=1e-12)


def groups_problem(rng, n, p):
    """A small general regression as the groups benchmark draws them: an intercept and
    p - 1 normal columns, Y = X b + noise."""
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    return X, X @ rng.standard_normal(p) + rng.standard_normal(n)


def selections(rng, n, p):
    """None, the explicit first p rows and a scattered selection."""
    return [None, RowSelection(range(p)), random_selection(rng, n, p)]


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestFitIndependentResiduals:
    """One call: X and Y with the selected rows first, one fit, and S from its factorization."""

    @staticmethod
    def permuted_route(X, Y, sel):
        # permute [X | Y] once, fit the permuted rows and take S from that fit's T
        n, p = X.shape
        data = np.column_stack([X, Y])
        if sel is not None and sel.indices != tuple(range(p)):
            data = data[sel.permutation(n)]
        fit = fit_least_squares(data[:, :-1], data[:, -1])
        return fit, independent_residuals(fit, s_from_qr(fit.qr, data[:, :-1]))

    @pytest.mark.parametrize("n,p", [(8, 3), (40, 5), (512, 6), (3000, 6)])
    def test_fit_bit_identical_to_the_permuted_route(self, n, p):
        # the fit is the same call on the same rows, bit for bit; W is its c2 and v one
        # solve, where the route takes W and v by the paper's formula: equal to rounding
        rng = np.random.default_rng(n + p)
        X, Y = groups_problem(rng, n, p)
        for sel in selections(rng, n, p):
            fit, out = fit_independent_residuals(X, Y, sel)
            ref_fit, ref = self.permuted_route(X, Y, sel)
            for field in dataclasses.fields(ref_fit):
                if field.name != "qr":
                    assert np.array_equal(getattr(fit, field.name),
                                          getattr(ref_fit, field.name)), (sel, field.name)
            for field in dataclasses.fields(ref):
                got, want = getattr(out, field.name), getattr(ref, field.name)
                err = np.linalg.norm(got - want)
                assert err <= 1e-14 * np.linalg.norm(want), (sel, field.name, err)
            # the fit is of the rows in the selection's order
            order = np.arange(n) if sel is None else sel.permutation(n)
            assert np.array_equal(fit.X, X[order])

    @pytest.mark.parametrize("p", [3, 6])
    def test_matches_the_four_call_route(self, p):
        rng = np.random.default_rng(p)
        for n in (8, 11, 23, 64, 150, 256, 512):
            X, Y = groups_problem(rng, n, p)
            for sel in selections(rng, n, p):
                fit, out = fit_independent_residuals(X, Y, sel)
                ref_fit = fit_least_squares(X, Y)
                ref = independent_residuals(
                    ref_fit, s_from_qr(qr_for_selection(X, sel), X, sel), sel)
                assert abs(fit.rss - ref_fit.rss) <= 1e-14 * ref_fit.rss, (n, sel)
                err = np.linalg.norm(out.W - ref.W)
                assert err <= 1e-14 * np.linalg.norm(ref.W), (n, sel, err)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_matches_the_four_call_route_on_groups_style_pools(self, seed):
        # 128 general problems of the groups benchmark's shape: p = 3 and 6 in turn, n
        # log-uniform in 8..512, an intercept and normal columns
        rng = np.random.default_rng(seed)
        for i in range(128):
            p, n = 3 + 3 * (i % 2), int(round(8 * 64 ** rng.random()))
            X, Y = groups_problem(rng, n, p)
            for sel in selections(rng, n, p):
                fit, out = fit_independent_residuals(X, Y, sel)
                ref_fit = fit_least_squares(X, Y)
                ref = independent_residuals(
                    ref_fit, s_from_qr(qr_for_selection(X, sel), X, sel), sel)
                assert abs(fit.rss - ref_fit.rss) <= 1e-14 * ref_fit.rss, (n, sel)
                err = np.linalg.norm(out.W - ref.W)
                assert err <= 1e-14 * np.linalg.norm(ref.W), (n, sel, err)

    @pytest.mark.parametrize("rows", [None, (0, 1, 2), (1, 4, 7)])
    def test_factors_once(self, monkeypatch, rows):
        # every factorization on the standard-sign path is one LAPACK dgeqrf or dgeqrt call
        counted = []
        for name in ("dgeqrf", "dgeqrt"):
            lapack = getattr(core, name)
            monkeypatch.setattr(core, name,
                                lambda *a, _f=lapack, **kw: counted.append(1) or _f(*a, **kw))
        X, Y = groups_problem(np.random.default_rng(2), 12, 3)
        fit_independent_residuals(X, Y, rows and RowSelection(rows))
        assert len(counted) == 1

    @pytest.mark.parametrize("rows", [None, (0, 1, 2), (1, 4, 7)])
    @pytest.mark.parametrize("length", [11, 13])
    def test_y_of_another_length(self, rows, length):
        X = groups_problem(np.random.default_rng(3), 12, 3)[0]
        Y = np.ones(length)
        assert raised(lambda: fit_independent_residuals(X, Y, rows and RowSelection(rows))) \
            == raised(lambda: fit_least_squares(X, Y))

    @pytest.mark.parametrize("rows", [(1, 4), (1, 4, 7, 9), (1, 4, 12), (0, 1, 12)])
    def test_bad_selection(self, rows):
        X, Y = groups_problem(np.random.default_rng(4), 12, 3)
        sel = RowSelection(rows)
        got = raised(lambda: fit_independent_residuals(X, Y, sel))
        assert got == raised(lambda: qr_for_selection(X, sel))
        assert got[0] is ValueError

    def test_selection_not_increasing(self):
        X, Y = groups_problem(np.random.default_rng(4), 12, 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_independent_residuals(X, Y, RowSelection((4, 1, 7)))

    @pytest.mark.parametrize("rows", [None, (0, 1, 2, 3)])
    def test_as_many_columns_as_rows(self, rows):
        X, Y = groups_problem(np.random.default_rng(5), 4, 4)
        got = raised(lambda: fit_independent_residuals(X, Y, rows and RowSelection(rows)))
        assert got == raised(lambda: fit_least_squares(X, Y)) == (ValueError, "need p < n, got 4x4")

    def test_more_columns_than_rows(self):
        # the selection check comes first, as for the orthores indep command
        X, Y = groups_problem(np.random.default_rng(6), 3, 4)
        got = raised(lambda: fit_independent_residuals(X, Y))
        assert got == raised(lambda: qr_for_selection(X)) == (ValueError, "need p <= n, got 3x4")


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

    @pytest.mark.parametrize("variant", ["a", "", "Minus"])
    def test_unknown_variant(self, variant):
        with pytest.raises(ValueError, match="unknown variant"):
            student_w([1.0, 2.0, 4.0], variant)

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


class TestMeanOfTheInput:
    """student_w, univariate_w and standardize_predictor take the mean of their input. An
    inf or NaN there is the same error as in fit_least_squares, a finite input whose sum
    overflows gets its true mean, and any other input the plain quotient, bit for bit."""

    T = standardize_predictor([0.0, 1.0, 3.0, 2.0])
    CALLS = {"student_w": student_w,
             "univariate_w": lambda y: univariate_w(TestMeanOfTheInput.T, y),
             "standardize_predictor": standardize_predictor}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    def test_non_finite_input(self, call, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infs or NaNs"):
                call(np.array([1.0, bad, 2.0, 0.0]))

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    def test_sum_that_overflows(self, call):
        # 1e308 + 1e308 is not a float, but the mean 2.5e307 is; every output is linear in Y
        # (standardize_predictor's t is scale-free), so it is 1e308 times that of [1, 1, -1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = call(np.array([1e308, 1e308, -1e308, 0.0]))
        small = call(np.array([1.0, 1.0, -1.0, 0.0]))
        for f in dataclasses.fields(big):  # every entry of small is O(1)
            got = np.divide(getattr(big, f.name), 1.0 if f.name == "t" else 1e308)
            np.testing.assert_allclose(got, getattr(small, f.name), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("call,y", [
        ("student_w", [1.7e308, 1.7e308, -1.7e308]),  # Y - mean: -1.7e308 - 5.7e307
        ("student_w", [1.7e308, -1.7e308]),  # the mean 0 is right, but W_1 is -2.4e308
        ("univariate_w", [1.7e308, 1.7e308, -1.7e308, -1.7e308]),  # the slope t . Y overflows
        ("univariate_w", [1.7e308, -1.7e308, -1.7e308, 1.7e308]),
    ])
    def test_result_that_overflows(self, call, y):
        # the input's mean is a float, but a step of the construction is not: the fit's
        # float-range error, not numpy's overflow warning and an inf or a NaN in the result
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Y is finite, but its fit exceeds the float"):
                self.CALLS[call](np.array(y))

    @pytest.mark.parametrize("call", [*CALLS, "fit_least_squares"])
    def test_near_the_largest_float_finite_or_float_range_error(self, call):
        # every pattern of +-1.7e308, +-1e308, +-1e160 and 0 in 4 entries: finite outputs or
        # the float-range error, and never a warning; a constant predictor is the one other error
        values = [1.7e308, -1.7e308, 1e308, -1e308, 1e160, -1e160, 0.0]
        calls = {**self.CALLS, "fit_least_squares": lambda y: fit_least_squares(np.ones((4, 1)), y)}
        for y in itertools.product(values, repeat=4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    res = calls[call](np.array(y))
                except ValueError as exc:
                    constant = call == "standardize_predictor" and len(set(y)) == 1
                    assert ("constant" if constant else "exceeds the float range") in str(exc), y
                    continue
            for f in dataclasses.fields(res):
                if f.name != "qr":
                    assert np.isfinite(getattr(res, f.name)).all(), (y, f.name)

    def test_shift_near_the_largest_float(self):
        # sqrt(n) shift = 2.25e308 overflows, though RANK_TOL sqrt(n) shift does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = standardize_predictor([1.5e308, 1.5e308, 1.5e308, 0.0])
        assert sp.shift == 1.125e308
        np.testing.assert_allclose(sp.t, standardize_predictor([1.0, 1.0, 1.0, 0.0]).t,
                                   rtol=0, atol=4 * np.finfo(float).eps)

    def test_finite_sum_keeps_the_quotient(self):
        y = 3.0 + np.random.default_rng(31).standard_normal(50)
        assert standardize_predictor(y).shift == float(y.sum() / y.size)


class TestPowerOfTwoScaling:
    """Every output is linear in the input (t does not depend on its scale), so at 2^k times
    the input each output is 2^k times the output at k = 0 (rss 2^2k), bit for bit, or the
    float-range error exactly where that product is not a float."""

    # the power of 2^k by which each output scales; the fit's X and qr do not move
    DEGREE = {"beta_hat": 1, "residuals": 1, "rss": 2, "c2": 1, "W": 1, "v": 1, "beta_star": 1,
              "shift": 1, "scale": 1, "t": 0, "X": 0}

    @staticmethod
    def calls():
        rng = np.random.default_rng(42)
        X = np.column_stack([np.ones(16), rng.standard_normal((16, 2))])
        tall = np.column_stack([np.ones(2000), rng.standard_normal((2000, 3))])  # dgeqrt's side
        t = standardize_predictor(rng.standard_normal(16))
        return {
            "fit_least_squares": (lambda y: fit_least_squares(X, y), X @ [1.0, 2.0, -1.0]
                                  + rng.standard_normal(16)),
            "fit_least_squares_tall": (lambda y: fit_least_squares(tall, y),
                                       rng.standard_normal(2000)),
            "student_w": (student_w, 3.0 + rng.standard_normal(16)),
            "univariate_w": (lambda y: univariate_w(t, y), 1.0 + 2.0 * t.t
                             + rng.standard_normal(16)),
            "standardize_predictor": (standardize_predictor, 5.0 + 2.0 * rng.standard_normal(16)),
        }

    @pytest.mark.parametrize("k", [-1000, -700, -540, 540, 900, 1000])
    @pytest.mark.parametrize("call", ["fit_least_squares", "fit_least_squares_tall", "student_w",
                                      "univariate_w", "standardize_predictor"])
    def test_outputs_scale_by_a_power_of_two(self, call, k):
        f, y = self.calls()[call]
        big = np.ldexp(y, k)
        assert np.array_equal(np.ldexp(big, -k), y)  # the input itself scales exactly
        base = f(y)
        expected = {}
        with np.errstate(over="ignore", under="ignore"):
            for name, value in vars(base).items():
                if name != "qr":
                    expected[name] = np.ldexp(value, self.DEGREE[name] * k)
        overflows = [name for name, value in expected.items() if not np.isfinite(value).all()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if overflows:  # the error names one of them
                named = rf"exceeds the float range \(({'|'.join(overflows)})\)"
                with pytest.raises(ValueError, match=named):
                    f(big)
                return
            got = f(big)
        for name, value in expected.items():
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(value).tobytes(), name
        if call.startswith("fit"):
            for field in ("packed", "tau", "T"):
                assert getattr(got.qr, field).tobytes() == getattr(base.qr, field).tobytes()

    def test_rss_past_the_float_range_is_named(self):
        # beta_hat and R are floats, but rss is not: 8.75e320 and 1e616
        for y in ([1e160, -1e160, 2e160, 3e160], [1e308, 1e308, 0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"exceeds the float range \(rss\)"):
                    fit_least_squares(np.ones((4, 1)), y)

    @staticmethod
    def design_near_the_limits():
        """11 x 3 draws X0, Y0 and an x0 perpendicular to col(X0) (seed 3)."""
        rng = np.random.default_rng(3)
        X0, Y0 = rng.standard_normal((11, 3)), rng.standard_normal(11)
        return X0, Y0, fit_least_squares(X0, rng.standard_normal(11)).residuals

    def test_beta_hat_past_the_float_range_is_named(self):
        # beta_hat is about 1e400: the fit raised the NaN normal-equation error here
        X0, Y0, _ = self.design_near_the_limits()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"exceeds the float range \(beta_hat\)"):
                fit_least_squares(1e-300 * X0, 1e100 * Y0)

    def test_orthogonality_guards_do_not_overflow(self):
        # ||x_k|| ||v|| is about 1e400, so X^T v overflowed in both guards: the fit raised
        # a NaN normal-equation error and the apply rejected a valid x
        X0, Y0, x0 = self.design_near_the_limits()
        X = 1e300 * X0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_least_squares(X, 1e100 * Y0)
            W = orthocomplement_apply(s_from_qr(householder_qr(X), X), X, 1e100 * x0)
        base = fit_least_squares(X0, Y0)
        np.testing.assert_allclose(fit.beta_hat, 1e-200 * base.beta_hat, rtol=1e-12)
        np.testing.assert_allclose(fit.rss, 1e200 * base.rss, rtol=1e-12)
        W0 = orthocomplement_apply(s_from_qr(householder_qr(X0), X0), X0, x0)
        np.testing.assert_allclose(W, 1e100 * W0, rtol=1e-12)
        assert abs(np.linalg.norm(W) / np.linalg.norm(1e100 * x0) - 1.0) <= 1e-12
        bad = 1e100 * (x0 + 1e-3 * np.linalg.norm(x0) * X0[:, 0] / np.linalg.norm(X0[:, 0]))
        with pytest.raises(ValueError, match="not orthogonal"):  # and still checked
            orthocomplement_apply(s_from_qr(householder_qr(X), X), X, bad)

    @pytest.mark.parametrize("x_scale, v_scale", [(1e300, 1e-100), (1e-300, 1e100)])
    def test_apply_keeps_the_norm_at_any_column_scale(self, x_scale, v_scale):
        # S scales as 1 / x_scale: at the first pair S x^(p) underflowed (||W|| / ||x|| was
        # 0.85, with no warning), at the second it overflowed to a W of NaNs
        X0, _, x0 = self.design_near_the_limits()
        X, x = x_scale * X0, v_scale * x0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = orthocomplement_apply(s_from_qr(qr_for_selection(X), X), X, x)
        assert abs(np.linalg.norm(W) / np.linalg.norm(x) - 1.0) <= 1e-15

    def test_residual_past_the_largest_float_in_the_middle(self):
        # R_1 = Y_1 - mean is -3.35e308, but W, v and beta_star are floats
        y = np.array([-1.7e308] + 99 * [1.68e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = student_w(y)
        quarter = student_w(y / 4)
        for name in ("W", "v", "beta_star"):
            assert getattr(got, name).tobytes() == np.ldexp(getattr(quarter, name), 2).tobytes()


class TestResultRecords:
    """The library builds its results without the dataclass __init__; they must still be
    frozen dataclasses, with the same fields as when a caller constructs them."""

    @staticmethod
    def results():
        rng = np.random.default_rng(32)
        X = np.column_stack([np.ones(12), rng.standard_normal((12, 2))])
        Y = rng.standard_normal(12)
        sel = RowSelection((2, 5, 9))
        fit = fit_least_squares(X, Y)
        qr = qr_for_selection(X, sel)
        sp = s_from_qr(qr, X, sel)
        return [fit.qr, qr, householder_qr(X, TO_POSITIVE), fit, sp,
                independent_residuals(fit, sp, sel), student_w(Y), univariate_w(
                    standardize_predictor(X[:, 1]), Y), standardize_predictor(X[:, 1]), sel]

    @pytest.mark.parametrize("i", range(10))
    def test_frozen_and_constructible(self, i):
        obj = self.results()[i]
        cls = type(obj)
        names = [f.name for f in dataclasses.fields(obj)]
        values = [getattr(obj, name) for name in names]
        for name in names + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
        rebuilt = [cls(*values), cls(**dict(zip(names, values))), dataclasses.replace(obj),
                   dataclasses.replace(obj, **{names[0]: values[0]})]
        for other in rebuilt:
            assert type(other) is cls and vars(other).keys() == vars(obj).keys()
            for name, value in zip(names, values):
                got = getattr(other, name)
                assert got is value or (not isinstance(value, np.ndarray) and got == value)
        assert repr(obj).startswith(cls.__name__ + "(")


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

    @pytest.mark.parametrize("variant", ["minus", "", "B"])
    def test_unknown_variant(self, variant):
        with pytest.raises(ValueError, match="unknown variant"):
            univariate_w(self.t, self.Y, variant)

    @pytest.mark.parametrize("length", [9, 11])
    def test_predictor_of_another_length(self, length):
        with pytest.raises(ValueError, match=f"predictor length 10 != {length}"):
            univariate_w(self.t, np.ones(length))


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


class TestUnivariateSingularTolerance:
    """Variant a's determinant factor (sqrt(n) - 1)(1 - t2) - t1 is judged
    against the size of its two terms, which moves with n and t."""

    @staticmethod
    def t_at(n, t2, rel):
        # t1 makes the factor rel times the sum of its terms' sizes
        lead = (np.sqrt(n) - 1.0) * (1.0 - t2)
        return np.array([lead * (1.0 - 2.0 * rel), t2])

    @pytest.mark.parametrize("n", [10**2, 10**4, 10**6])
    @pytest.mark.parametrize("t2", [0.0, 0.5])  # terms of about sqrt(n)
    def test_perturbed_factor_takes_rank_one_branch(self, n, t2):
        AB = univariate_coefficients(self.t_at(n, t2, 1e-12), n, "a")
        np.testing.assert_array_equal(AB, np.pad(student_coefficient(n, "plus"), (0, 1)))

    @pytest.mark.parametrize("n", [10**2, 10**4, 10**6])
    def test_small_terms_keep_the_regular_branch(self, n):
        # a standardized predictor near the singular set: its terms are about
        # 1 / sqrt(n), so 1e-8 of them is far from singular
        t2 = 1.0 - 1.0 / (np.sqrt(n) * (np.sqrt(n) - 1.0))
        t = self.t_at(n, t2, 1e-8)
        AB = univariate_coefficients(t, n, "a")
        den = (np.sqrt(n) - 1.0) * (1.0 - t[1]) - t[0]
        np.testing.assert_allclose(AB, np.array([[1.0 - t[1], t[0]], [1.0, np.sqrt(n) - 1.0]]) / den,
                                   rtol=1e-12)
        assert AB[1, 1] != 0.0


class TestCoefficientInputs:
    """The closed S builders refuse what they cannot serve, with a typed error and no warning:
    n is an int, at least 2 (mean-only) or 3 (slope-intercept), and t has 2 entries or more."""

    @pytest.fixture(autouse=True)
    def warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_student_n_not_an_int(self, variant):
        with pytest.raises(TypeError):
            student_coefficient(2.5, variant)

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_univariate_n_not_an_int(self, variant):
        with pytest.raises(TypeError):
            univariate_coefficients([0.1, 0.2], 4.0, variant)

    @pytest.mark.parametrize("variant", ["a", "b"])
    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_univariate_too_few_observations(self, n, variant):
        # univariate_w's own limit; at n = 1, variant a gave [[-8, -1], [-10, -0]]
        with pytest.raises(ValueError, match="need at least 3 observations"):
            univariate_coefficients([0.1, 0.2], n, variant)

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_univariate_one_entry_predictor(self, variant):
        with pytest.raises(ValueError, match="need at least 2"):
            univariate_coefficients([1.0], 5, variant)


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

    @pytest.mark.parametrize("value", [0.0, 0.1, 1e-30])
    def test_any_constant_rejected(self, value):
        with pytest.raises(ValueError, match="constant"):
            standardize_predictor(np.full(5, value))

    def test_spread_that_overflows(self):
        # the mean 0 is right, but ||raw - mean|| = 2.4e308 is not a float: not a constant;
        # with the mean 5.7e307, raw - mean itself leaves the float range, with no warning
        for raw in ([1.7e308, -1.7e308, 0.0, 0.0], [1.7e308, 1.7e308, -1.7e308]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="exceeds the float range"):
                    standardize_predictor(raw)

    @pytest.mark.parametrize("scale", [1e-14, 1e-100, 1e100])
    def test_tiny_and_huge_predictors_accepted(self, scale):
        # t is scale-free, so only the centered-to-raw ratio can call a predictor constant
        raw = np.random.default_rng(12).standard_normal(30)
        np.testing.assert_allclose(standardize_predictor(scale * raw).t,
                                   standardize_predictor(raw).t, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-170, 1e155, 1e160])
    def test_norms_neither_overflow_nor_underflow(self, scale):
        # the sums of squares underflow (1e-170) or overflow (1e155, 1e160),
        # which once read a non-constant predictor as constant, or warned
        z = np.random.default_rng(13).standard_normal(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = standardize_predictor(scale * z).t
        np.testing.assert_allclose(t, standardize_predictor(z).t,
                                   rtol=0, atol=4 * np.finfo(float).eps)


class TestClosedFormsMatchGenericBuilders:
    """Each closed-form S equals the S of the generic route for its design."""

    CASES = ("student-minus", "student-plus", "univariate-b", "univariate-a",
             "univariate-a-singular")

    @staticmethod
    def closed_and_generic(case, n):
        if case.startswith("student"):
            X = np.ones((n, 1))
            variant = case.split("-")[1]
            policy = STANDARD if variant == "minus" else TO_POSITIVE
            return student_coefficient(n, variant), s_from_qr(householder_qr(X, policy), X)
        if case == "univariate-a-singular":
            t = TestUnivariateSingularBranch().make_singular_t(n)
            X = np.column_stack([np.ones(n), t])
            sp = s_from_c(X, np.diag([np.sqrt(n), 1.0]))
            assert sp.rank == 1
            return univariate_coefficients(t, n, "a"), sp
        t = standardize_predictor(np.random.default_rng(n).standard_normal(n)).t
        X = np.column_stack([np.ones(n), t])
        policy = STANDARD if case == "univariate-b" else TO_POSITIVE
        return univariate_coefficients(t, n, case[-1]), s_from_qr(householder_qr(X, policy), X)

    @pytest.mark.parametrize("n", [3, 4, 9, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_matches(self, case, n):
        closed, generic = self.closed_and_generic(case, n)
        np.testing.assert_allclose(closed, generic.S, rtol=0, atol=1e-12)
