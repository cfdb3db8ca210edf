import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthores import (
    STANDARD,
    TO_POSITIVE,
    RankDeficiencyError,
    SignPolicy,
    apply_Qt,
    explicit_orthocomplement_basis,
    fit_least_squares,
    householder_qr,
    rank_count,
    reconstruct,
)
from orthores import cli, core, orthocomp, regression, validation
from orthores.core import _norm


class TestHouseholderQR:
    def test_single_column(self):
        qr = householder_qr([[3.0], [4.0]])
        np.testing.assert_allclose(qr.T, [[-5.0]])
        _assert_reflection(qr, 0, [8.0, 4.0])
        np.testing.assert_allclose(reconstruct(qr), [[3.0], [4.0]], rtol=1e-12)

    def test_ones_column(self):
        qr = householder_qr(np.ones((4, 1)))
        np.testing.assert_allclose(qr.T, [[-2.0]])
        _assert_reflection(qr, 0, [3.0, 1.0, 1.0, 1.0])

    def test_custom_identity_reflection(self):
        qr = householder_qr([[1.0], [0.0], [0.0]], SignPolicy.custom([-1]))
        assert qr.tau[0] == 0.0
        np.testing.assert_allclose(qr.T, [[1.0]])

    @pytest.mark.parametrize("X,policy,message", [
        (np.ones((5, 2)), STANDARD, "at column 2: pivot tail norm"),
        (np.ones((5, 2)), TO_POSITIVE, "at column 2: pivot tail norm"),
        (np.ones((5, 2)), SignPolicy.custom([1, -1]), "at column 2: pivot tail norm"),
        # d_1 = 1 hands dgeqrfp a -0.0 column, whose tail it returns as -0.0; T_11 is +0.0
        (np.array([[0.0, 1.0], [0.0, 2.0], [0.0, -1.0]]), SignPolicy.custom([1, -1]),
         "at column 1: pivot tail norm 0.000e+00"),
    ], ids=["standard", "to-positive", "custom", "custom-zero-column"])
    def test_rank_deficiency(self, X, policy, message):
        with pytest.raises(RankDeficiencyError, match=re.escape(message)):
            householder_qr(X, policy)

    def test_custom_signs_length_checked(self):
        with pytest.raises(ValueError):
            householder_qr(np.eye(3)[:, :2], SignPolicy.custom([1]))

    @pytest.mark.parametrize("kind,signs,message", [
        ("pivoted", None, "unknown sign policy"),
        ("custom", None, "custom policy requires signs"),
        ("standard", (1,), "custom policy requires signs"),
        ("custom", (1, 0), "must all be"),
    ])
    def test_bad_sign_policy(self, kind, signs, message):
        with pytest.raises(ValueError, match=message):
            SignPolicy(kind, signs)

    @pytest.mark.parametrize("make", [
        lambda: SignPolicy.custom([1.9, -1.2]),  # int() would truncate these to 1, -1
        lambda: SignPolicy.custom([1.0, -1.0]),
        lambda: SignPolicy.custom([True, -1]),
        lambda: SignPolicy("custom", (1.0, True)),
        lambda: SignPolicy("custom", (1, np.float64(-1.0))),
    ], ids=["fractions", "whole-floats", "bool", "float-and-bool", "numpy-float"])
    def test_signs_must_be_integers(self, make):
        with pytest.raises(TypeError):
            make()

    def test_signs_kept_as_python_ints(self):
        for policy in (SignPolicy.custom(np.array([1, -1])), SignPolicy("custom", [np.int8(1), -1])):
            assert policy.signs == (1, -1) and set(map(type, policy.signs)) == {int}

    @pytest.mark.parametrize("convert,value", [
        (core.as_matrix, np.ones(3)), (core.as_matrix, np.ones((2, 2, 2))),
        (core.as_matrix, np.ones((0, 2))), (core.as_matrix, np.ones((2, 0))),
        (core.as_vector, np.ones((2, 2))), (core.as_vector, np.ones(0)),
        (core.as_vector, 1.0), (core.as_vector, np.float64(2.0)), (core.as_vector, np.array(3.0)),
    ])
    def test_wrong_shape(self, convert, value):
        with pytest.raises(ValueError, match="expected a"):
            convert(value)

    @pytest.mark.parametrize("policy", [STANDARD, TO_POSITIVE, SignPolicy.custom([1, -1, 1])],
                             ids=["standard", "to-positive", "custom"])
    @pytest.mark.parametrize("row,col,value,dependent", [(0, 1, np.inf, False), (4, 2, np.nan, False),
                                                         (0, 2, np.inf, True), (4, 2, np.nan, True)])
    def test_non_finite_entry(self, policy, row, col, value, dependent):
        # an inf on row 0 makes both the pivot tail and ||x_k|| inf, which the
        # rank test alone read as dependent; a NaN passed it and gave a NaN T;
        # the gate runs over every column first, so a dependent column 2 before
        # a non-finite column 3 does not turn it into a rank error
        X = np.random.default_rng(6).standard_normal((10, 3))
        if dependent:
            X[:, 1] = 2.0 * X[:, 0]
        X[row, col] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            householder_qr(X, policy)

    @pytest.mark.parametrize("n,p,seed", [(5, 1, 0), (20, 3, 1), (80, 7, 2), (200, 10, 3)])
    def test_reconstruction_and_nonzero_reflectors(self, n, p, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        qr = householder_qr(X)
        err = np.max(np.abs(reconstruct(qr) - X)) / np.linalg.norm(X)
        assert err < 1e-10
        assert qr.nonzero_reflector_count == p
        # T strictly upper triangular
        assert np.all(np.tril(qr.T, -1) == 0.0)

    def test_reflector_leading_zeros(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 5))
        qr = householder_qr(X)
        for k in range(5):  # H_k leaves components 1..k alone
            H = _reflection(qr, k)
            np.testing.assert_array_equal(H[:k], np.eye(12)[:k])
            np.testing.assert_array_equal(H[:, :k], np.eye(12)[:, :k])


def _reflection(qr, k):
    """I - tau_k u_k u_k^T, reflection k of qr as an n x n matrix."""
    u = np.zeros(qr.n)
    u[k] = 1.0
    u[k + 1:] = qr.packed[k + 1:, k]
    return np.eye(qr.n) - qr.tau[k] * np.outer(u, u)


def _assert_reflection(qr, k, v):
    """Reflection k of qr is I - 2 v v^T / v.v (I for v = 0) within 1e-15."""
    v = np.asarray(v, dtype=float)
    vn2 = v @ v
    H = np.eye(v.size) - (2.0 / vn2) * np.outer(v, v) if vn2 > 0.0 else np.eye(v.size)
    np.testing.assert_allclose(_reflection(qr, k), H, rtol=0.0, atol=1e-15)


def _same_sign_loop(X):
    """The standard factorization and the reflector loop run with its signs."""
    qr = householder_qr(X)
    signs = [-1 if t > 0.0 else 1 for t in np.diag(qr.T)]
    return qr, householder_qr(X, SignPolicy.custom(signs))


def _assert_agree(qr, loop, X):
    """T within 1e-13 relative to ||X||, and each reflection matrix within 1e-13."""
    scale = np.linalg.norm(X)
    assert np.max(np.abs(qr.T - loop.T)) <= 1e-13 * scale
    for k in range(qr.p):
        assert np.max(np.abs(_reflection(qr, k) - _reflection(loop, k))) <= 1e-13


class TestStandardAgainstLoop:
    """The one-call LAPACK factorization against the reflector loop."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n,p", [(1, 1), (6, 1), (9, 3), (40, 6), (6, 6), (300, 8)])
    def test_random(self, n, p, scale):
        rng = np.random.default_rng(n * 31 + p)
        X = scale * rng.standard_normal((n, p))
        X[:, 0] = scale  # an intercept column
        _assert_agree(*_same_sign_loop(X), X)

    @pytest.mark.parametrize("X", [
        np.eye(4)[:, :2],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
        np.eye(3),
        -np.eye(3),
        [[-0.0, 1.0], [1.0, 2.0], [1.0, 3.0]],
    ])
    def test_edge_cases(self, X):
        X = np.array(X, dtype=float)
        qr, loop = _same_sign_loop(X)
        _assert_agree(qr, loop, X)
        assert qr.nonzero_reflector_count == X.shape[1]

    def test_negative_zero_pivot_takes_the_standard_sign(self):
        qr = householder_qr([[-0.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        assert qr.T[0, 0] == -np.sqrt(2.0)

    def test_zero_tail_negates_its_row(self):
        qr = householder_qr(np.eye(3))
        np.testing.assert_array_equal(qr.T, -np.eye(3))
        assert not np.signbit(qr.T[np.triu_indices(3, 1)]).any()
        assert qr.tau.tolist() == [2.0, 2.0, 2.0]

    @pytest.mark.parametrize("policy", [STANDARD, TO_POSITIVE])
    def test_first_dependent_column_is_named(self, policy):
        # the pivot tail of column 4 rounds below that of column 3 here
        t = np.linspace(0.0, 1.0, 10)
        X = np.column_stack([np.ones(10), t, np.ones(10), 2.0 * t])
        with pytest.raises(RankDeficiencyError, match="column 3"):
            householder_qr(X, policy)

    @pytest.mark.parametrize("policy", [STANDARD, TO_POSITIVE])
    def test_rank_test_is_per_column(self, policy):
        # a column 1e-13 the size of the others is still independent of them
        z = np.random.default_rng(0).standard_normal(10)
        qr = householder_qr(np.column_stack([np.ones(10), 1e-13 * z]), policy)
        assert np.abs(qr.T.diagonal()).min() > 1e-14
        with pytest.raises(RankDeficiencyError, match="column 3"):
            householder_qr(np.column_stack([np.ones(10), z, z]), policy)

    def test_standard_policy_skips_the_loop(self, monkeypatch):
        from orthores import core

        def fail(*args):
            raise AssertionError("per-column dgeqrfp loop ran under the standard policy")

        monkeypatch.setattr(core, "dgeqrfp", fail)
        qr = householder_qr(np.arange(12.0).reshape(4, 3) ** 1.5)
        assert qr.nonzero_reflector_count == 3


def _rows(columns: int, side: str) -> int:
    """Rows of an array with ``columns`` columns at the dgeqrf bound, or one row past it."""
    return core.DGEQRF_MAX_SIZE // columns + (side == "above")


class TestSizeBound:
    """_factor takes dgeqrf up to DGEQRF_MAX_SIZE entries and dgeqrt above."""

    def test_routine_on_each_side(self, monkeypatch):
        calls = []

        def counting(name):
            lapack = getattr(core, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return lapack(*args, **kwargs)
            return wrapper

        for name in ("dgeqrf", "dgeqrt"):
            monkeypatch.setattr(core, name, counting(name))
        X = np.random.default_rng(0).standard_normal((_rows(8, "above"), 8))
        assert X[:-1].size == core.DGEQRF_MAX_SIZE
        householder_qr(X[:-1])
        householder_qr(X)
        assert calls == ["dgeqrf", "dgeqrt"]

    @pytest.mark.parametrize("side", ["at", "above"])
    def test_negative_zero_pivot_takes_the_standard_sign(self, side):
        X = np.zeros((_rows(2, side), 2))
        X[:3] = [[-0.0, 1.0], [1.0, 2.0], [1.0, 3.0]]
        qr = householder_qr(X)
        assert qr.T[0, 0] == -np.sqrt(2.0)

    @pytest.mark.parametrize("side", ["at", "above"])
    def test_zero_tail_negates_its_row(self, side):
        qr = householder_qr(np.eye(_rows(3, side), 3))
        np.testing.assert_array_equal(qr.T, -np.eye(3))
        assert not np.signbit(qr.T[np.triu_indices(3, 1)]).any()
        assert qr.tau.tolist() == [2.0, 2.0, 2.0]

    @pytest.mark.parametrize("side", ["at", "above"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, None])
    def test_non_finite_after_a_dependent_column(self, side, value):
        # the finiteness gate and the rank test share one loop: an inf or NaN in column 3
        # is still an input error though column 2 is dependent, and without it column 2 is
        # still the rank error, whichever routine factors
        sel = orthocomp.RowSelection((1, 4, 9))
        for columns, factor in [(3, householder_qr),
                                (3, lambda X: orthocomp.qr_for_selection(X, sel)),
                                (4, lambda X: fit_least_squares(X, np.ones(len(X))))]:  # [X | Y]
            X = np.random.default_rng(6).standard_normal((_rows(columns, side), 3))
            X[:, 1] = 2.0 * X[:, 0]
            if value is None:
                with pytest.raises(RankDeficiencyError, match="at column 2"):
                    factor(X)
                continue
            X[5, 2] = value
            with pytest.raises(ValueError, match="infs or NaNs"):
                factor(X)

    def test_finite_t_whose_column_norm_overflows(self):
        # T's entries are floats (+-1.7e308), but ||T e_2|| = 2.4e308 is not: the norm must be
        # taken with no overflow warning, so that the gate names the column
        X = np.array([[1.0, 1.7e308], [0.0, 0.0], [0.0, 0.0], [0.0, 1.7e308]])
        sel = orthocomp.RowSelection((1, 3))
        for factor in [householder_qr, lambda X: orthocomp.qr_for_selection(X, sel),
                       lambda X: fit_least_squares(X, [1.0, 2.0, 3.0, 4.0])]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="column 2 is finite, but its norm exceeds"):
                    factor(X)

    @pytest.mark.parametrize("side", ["at", "above"])
    @pytest.mark.parametrize("policy", [STANDARD, TO_POSITIVE, SignPolicy.custom([1, -1])],
                             ids=["standard", "to-positive", "custom"])
    def test_finite_column_whose_norm_overflows(self, side, policy):
        # ||x_2|| is about 2.6e308, though every entry of X is a float: the error names the
        # column, and an inf in its place is still the infs-or-NaNs error
        sel = orthocomp.RowSelection((1, 4))
        factors = [lambda X: householder_qr(X, policy)]
        if policy is STANDARD:
            factors += [lambda X: orthocomp.qr_for_selection(X, sel),
                        lambda X: fit_least_squares(X, np.ones(len(X)))]
        for factor in factors:
            X = np.random.default_rng(7).standard_normal((_rows(3, side), 2))
            X[:4, 1] = [1.7e308, -1.7e308, 1e308, 0.0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="column 2 is finite, but its norm exceeds"):
                    factor(X)
            X[2, 1] = np.inf
            with pytest.raises(ValueError, match="infs or NaNs"):
                factor(X)

    @pytest.mark.parametrize("side", ["at", "above"])
    def test_zero_tail_in_the_bordered_fit(self, side):
        # both of X's tails are zero, so tau = 0 and the fix-up negates z as well
        n = _rows(3, side)  # [X | Y] has 3 columns
        X, Y = np.eye(n, 2), np.zeros(n)
        Y[:2] = [2.0, -3.0]
        fit = fit_least_squares(X, Y)
        np.testing.assert_array_equal(fit.beta_hat, [2.0, -3.0])
        assert fit.rss == 0.0 and fit.qr.tau.tolist() == [2.0, 2.0]

    def test_both_sides_agree(self):
        # the same X at the bound and with one zero row more: the same reflections
        rng = np.random.default_rng(1)
        X = rng.standard_normal((_rows(8, "at"), 8))
        X[:, 0] = 0.0
        X[0, 0] = 3.0  # a zero tail: tau[0] = 0
        X[:, 1] = 0.0
        X[:2, 1] = [1.0, -2.0]  # a zero tail once reflection 0 is I: tau[1] = 0
        X[2, 2] = -0.0  # a -0.0 pivot, since reflections 0 and 1 leave row 2 alone
        at, above = householder_qr(X), householder_qr(np.vstack([X, np.zeros((1, 8))]))
        assert at.tau[:2].tolist() == above.tau[:2].tolist() == [2.0, 2.0]
        assert at.T[2, 2] < 0.0 and above.T[2, 2] < 0.0
        assert np.array_equal(np.signbit(at.T.diagonal()), np.signbit(above.T.diagonal()))
        assert np.array_equal(at.tau == 0.0, above.tau == 0.0)
        assert (np.abs(at.T - above.T) <= 1e-13 * at.col_norms).all()
        assert (np.abs(above.packed[:-1] - at.packed)[np.tri(*X.shape, -1, dtype=bool)]
                <= 1e-13).all()
        assert not above.packed[-1].any()


class TestLoopPolicies:
    """Outputs of the per-column dgeqrfp loop, pinned bit for bit."""

    def test_to_positive(self):
        X = [[2.0, -1.0, 0.5], [1.0, 3.0, -2.0], [-1.0, 0.25, 4.0], [3.0, 1.0, 1.0]]
        qr = householder_qr(X, TO_POSITIVE)
        np.testing.assert_array_equal(qr.T, [
            [3.8729833462074166, 0.9682458365518545, -0.5163977794943224],
            [0.0, 3.1819805153394647, -1.2570787221094184],
            [0.0, 0.0, 4.4048934629288246]])
        for k, v in enumerate([
                [-1.872983346207417, 1.0, -1.0, 3.0],
                [0.0, -1.2328418807313843, 1.3008613653919205, -2.1525840961757616],
                [0.0, 0.0, -1.1588636034029967, 2.977646146005234]]):
            _assert_reflection(qr, k, v)

    def test_custom_with_identity_reflection(self):
        qr = householder_qr([[1.0, 2.0], [0.0, 1.0], [0.0, 1.0]], SignPolicy.custom([-1, 1]))
        np.testing.assert_array_equal(qr.T, [[1.0, 2.0], [0.0, -1.4142135623730951]])
        assert qr.tau[0] == 0.0
        _assert_reflection(qr, 0, [0.0, 0.0, 0.0])
        _assert_reflection(qr, 1, [0.0, 2.414213562373095, 1.0])


LOOP_POLICIES = [TO_POSITIVE, SignPolicy.custom([1, -1])]


class TestLoopRange:
    """The to-positive/custom factorization at the ends of the float range, and
    a zero reflector before a later column."""

    X_BIG = np.array([[1.0, 1e200], [1.0, -2e200], [1.0, 4e200], [1.0, 0.0]])

    @pytest.mark.parametrize("policy", LOOP_POLICIES)
    def test_entries_near_1e200(self, policy):
        qr = householder_qr(self.X_BIG, policy)
        assert qr.T[1, 1] > 0.0  # d_2 = -1 under both policies
        np.testing.assert_allclose(qr.T[1, 1], 4.330127018922193e200, rtol=1e-14)
        assert rank_count(qr, self.X_BIG) == 2
        # col_norms are ||T e_k||, as on the standard path
        assert np.all(np.abs(qr.col_norms - np.hypot.reduce(self.X_BIG, axis=0))
                      <= 1e-14 * np.hypot.reduce(self.X_BIG, axis=0))
        scale = np.hypot.reduce(self.X_BIG.ravel())  # ||X||, which np.linalg.norm overflows
        assert np.max(np.abs(reconstruct(qr) - self.X_BIG)) <= 1e-13 * scale

    @pytest.mark.parametrize("policy", [TO_POSITIVE, SignPolicy.custom([1, -1, 1])])
    def test_entries_near_1e_minus_200(self, policy):
        X = np.array([[2.0, -1.0, 0.5], [1.0, 3.0, -2.0], [-1.0, 0.25, 4.0], [3.0, 1.0, 1.0]])
        qr = householder_qr(1e-200 * X, policy)
        assert np.max(np.abs(qr.T / 1e-200 - householder_qr(X, policy).T)) <= 1e-14

    def test_zero_reflector_before_a_later_column(self):
        # X = Q B with Q = I - (2/4) 1 1^T: column 2 cancels to 1e-7 of its pivot,
        # so H_2 = I, and H_3 is built from the column H_2 left alone
        Q = np.eye(4) - 0.5 * np.ones((4, 4))
        B = np.array([[2.0, 1.0, 0.3], [0.0, 1.0, 0.7], [0.0, 1e-7, 0.5], [0.0, 0.0, 0.9]])
        X = Q @ B
        qr = householder_qr(X, TO_POSITIVE)
        assert qr.tau[1] == 0.0
        np.testing.assert_allclose(qr.tau[2], 0.514357, rtol=1e-6)
        assert np.max(np.abs(reconstruct(qr) - X)) <= 1e-7


def _loop_cases():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((40, 5))
    return [
        (np.eye(6)[:, :2], TO_POSITIVE),  # two identity reflections
        (np.array([[1.0, 2.0], [0.0, 1.0], [0.0, 1.0]]), SignPolicy.custom([-1, 1])),
        (X, TO_POSITIVE),
        (X, SignPolicy.custom([1, -1, -1, 1, 1])),
    ]


class TestLoopApplies:
    """dormqr applied to the layout the to-positive/custom loop writes."""

    @pytest.mark.parametrize("X,policy", _loop_cases())
    def test_reconstruct(self, X, policy):
        qr = householder_qr(X, policy)
        assert np.max(np.abs(reconstruct(qr) - X)) <= 1e-13 * np.linalg.norm(X)

    @pytest.mark.parametrize("X,policy", _loop_cases())
    def test_columns_map_to_triangular(self, X, policy):
        qr = householder_qr(X, policy)
        n, p = X.shape
        for j in range(p):
            expected = np.concatenate([qr.T[:, j], np.zeros(n - p)])
            assert np.max(np.abs(apply_Qt(qr, X[:, j]) - expected)) <= 1e-13 * np.linalg.norm(X)

    @pytest.mark.parametrize("X,policy", _loop_cases())
    def test_tail_matches_the_oracle(self, X, policy):
        qr = householder_qr(X, policy)
        x = np.random.default_rng(18).standard_normal(X.shape[0])
        np.testing.assert_allclose(apply_Qt(qr, x)[X.shape[1]:],
                                   explicit_orthocomplement_basis(qr).T @ x,
                                   rtol=0.0, atol=1e-13 * np.linalg.norm(x))


class TestApplyQt:
    def test_ones_examples(self):
        qr = householder_qr(np.ones((4, 1)))
        np.testing.assert_allclose(apply_Qt(qr, np.ones(4)), [-2, 0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(
            apply_Qt(qr, np.array([1.0, 0, 0, 0])), [-0.5, -0.5, -0.5, -0.5])
        np.testing.assert_allclose(apply_Qt(qr, np.zeros(4)), np.zeros(4))

    def test_columns_map_to_triangular(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 4))
        qr = householder_qr(X)
        for j in range(4):
            out = apply_Qt(qr, X[:, j])
            np.testing.assert_allclose(out[:4], qr.T[:, j], atol=1e-10 * np.linalg.norm(X))
            np.testing.assert_allclose(out[4:], 0.0, atol=1e-10 * np.linalg.norm(X))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((25, 4))
        qr = householder_qr(X)
        x = rng.standard_normal(25)
        assert abs(np.linalg.norm(apply_Qt(qr, x)) - np.linalg.norm(x)) \
            <= 1e-12 * np.linalg.norm(x)

    def test_dimension_mismatch(self):
        qr = householder_qr(np.ones((4, 1)))
        with pytest.raises(ValueError):
            apply_Qt(qr, np.ones(5))


class TestExplicitBasis:
    def test_ones_column(self):
        qr = householder_qr(np.ones((4, 1)))
        U2 = explicit_orthocomplement_basis(qr)
        assert U2.shape == (4, 3)
        np.testing.assert_allclose(U2.T @ U2, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(U2.T @ np.ones(4), 0.0, atol=1e-10)

    def test_corank_one(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 5))
        U2 = explicit_orthocomplement_basis(householder_qr(X))
        assert U2.shape == (6, 1)
        assert abs(np.linalg.norm(U2[:, 0]) - 1.0) < 1e-12
        np.testing.assert_allclose(U2.T @ X, 0.0, atol=1e-10)

    def test_random_orthogonality(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 5))
        U2 = explicit_orthocomplement_basis(householder_qr(X))
        assert np.max(np.abs(U2.T @ X)) < 1e-10 * np.linalg.norm(X)
        np.testing.assert_allclose(U2.T @ U2, np.eye(45), atol=1e-10)

    def test_square_matrix_rejected(self):
        qr = householder_qr(np.eye(3))
        with pytest.raises(ValueError):
            explicit_orthocomplement_basis(qr)

    def test_matches_tail_of_apply_Qt(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 6))
        qr = householder_qr(X)
        U2 = explicit_orthocomplement_basis(qr)
        x = rng.standard_normal(40)
        np.testing.assert_allclose(apply_Qt(qr, x)[6:], U2.T @ x, atol=1e-10)

    def test_peak_memory_is_one_basis(self):
        # the basis itself is 8 n (n - p) bytes; a full identity block or a
        # full-width reflector update would each add about as much again
        n, p = 2000, 5
        qr = householder_qr(np.random.default_rng(10).standard_normal((n, p)))
        tracemalloc.start()
        try:
            explicit_orthocomplement_basis(qr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * (n - p)

    def test_blocks_match_one_full_width_update(self):
        # with one BLAS thread each column's u^T M sums in the same order,
        # however wide the block, so the basis is bit for bit the unblocked one
        script = (
            "import numpy as np\n"
            "from orthores import explicit_orthocomplement_basis, householder_qr\n"
            "n, p = 700, 4\n"
            "X = np.random.default_rng(11).standard_normal((n, p))\n"
            "X[:, 0] = 1.0\n"
            "qr = householder_qr(X)\n"
            "M = np.zeros((n, n - p))\n"
            "M[p:] = np.eye(n - p)\n"
            "for k in reversed(range(p)):\n"
            "    u = np.concatenate(([1.0], qr.packed[k + 1:, k]))\n"
            "    M[k:] -= np.outer(qr.tau[k] * u, u @ M[k:])\n"
            "assert np.array_equal(explicit_orthocomplement_basis(qr), M)\n"
        )
        path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr


class TestNorm:
    def test_equals_the_self_dot_in_the_normal_range(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            v = rng.standard_normal(int(rng.integers(1, 80))) * 10.0 ** rng.uniform(-100, 100)
            assert _norm(v) == math.sqrt(v.dot(v))

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 0.0])
    def test_no_overflow_or_underflow(self, scale):
        v = scale * np.random.default_rng(13).standard_normal(9)
        expected = math.hypot(*v.tolist())
        assert abs(_norm(v) - expected) <= 4 * np.finfo(float).eps * expected
        assert (_norm(v) == 0.0) == (scale == 0.0)

    def test_nan_gives_nan(self):
        assert math.isnan(_norm(np.array([1.0, np.nan, 2.0])))

    # at 1e308 ||v|| itself overflows, to inf
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170, 1e-300, 0.0, np.nan, 1e308])
    def test_raises_no_warning(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _norm(np.full(9, scale))
        np.testing.assert_allclose(norm, 3.0 * scale, rtol=4 * np.finfo(float).eps)


def test_to_positive_makes_identity_triangular_for_orthonormal_columns():
    rng = np.random.default_rng(13)
    Xo = np.linalg.qr(rng.standard_normal((15, 4)))[0]
    qr = householder_qr(Xo, TO_POSITIVE)
    np.testing.assert_allclose(qr.T, np.eye(4), atol=1e-12)


class TestToleranceTable:
    TABLE = {"RANK_TOL": 1e-12, "CANCEL_TOL": 1e-12, "SINGULAR_TOL": 1e-10, "ORTHO_TOL": 1e-8,
             "IDENTITY_TOL": 1e-10, "CONDITION_TOL": 1e-9, "ROOTS_TOL": 1e-12}

    def test_values(self):
        assert {name: getattr(core, name) for name in dir(core)
                if name.endswith("_TOL")} == self.TABLE

    @pytest.mark.parametrize("module", [orthocomp, regression, validation, cli],
                             ids=lambda m: m.__name__)
    def test_other_modules_import_the_table(self, module):
        names = [name for name in dir(module) if name.endswith("_TOL")]
        assert names and all(getattr(module, name) is getattr(core, name) for name in names)
        # and bind none of their own
        assert not re.search(r"^[A-Z_]+_TOL *=", Path(module.__file__).read_text(), re.M)

    def test_cli_tol_default(self):
        args = cli.build_parser().parse_args(["check"])
        assert args.tol is core.IDENTITY_TOL


@st.composite
def rank_cases(draw):
    """A design X = H_1 ... H_p [T D; 0] with the diagonal of T in the signs a
    policy gives and k of the H_j the identity, so that the policy's
    factorization has exactly those k identity reflections; D scales the
    columns by 1e-150..1e150.  Under the standard policy k = 0."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, min(7, n)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=p, max_size=p))
    policy = draw(st.sampled_from([STANDARD, TO_POSITIVE, SignPolicy.custom(signs)]))
    identity = [False] * p if policy is STANDARD else \
        draw(st.lists(st.booleans(), min_size=p, max_size=p))
    exponents = draw(st.lists(st.floats(-150.0, 150.0), min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = np.array(policy.signs or (-1,) * p, dtype=float)  # T_kk takes the sign -d_k
    T = np.triu(rng.standard_normal((p, p)), 1) - np.diag(d * rng.uniform(0.5, 2.0, p))
    X = np.zeros((n, p))
    X[:p] = T * 10.0 ** np.array(exponents)
    for k in reversed(range(p)):
        if not identity[k]:
            u = np.concatenate(([1.0], rng.standard_normal(n - k - 1)))
            X[k:] -= np.outer((2.0 / (u @ u)) * u, u @ X[k:])
    return X, policy, sum(identity)


class TestRankFormula:
    @settings(max_examples=200, deadline=None)
    @given(case=rank_cases())
    def test_across_scale_and_policy(self, case):
        X, policy, k = case
        qr = householder_qr(X, policy)
        assert rank_count(qr, X) == X.shape[1] - k
        err = np.abs(reconstruct(qr) - X).max(axis=0)
        assert np.all(err <= 1e-12 * np.hypot.reduce(X, axis=0))


def run_fresh(script: str, *args: str) -> None:
    """Run ``script`` in a new interpreter: this suite imports scipy.linalg itself."""
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


SEVEN = "('dgeqrf', 'dgeqrfp', 'dgeqrt', 'dormqr', 'dgesv', 'dgetrs', 'dtrtrs')"


class TestLapackLoader:
    @pytest.mark.parametrize("module", ["orthores", "orthores.cli"])
    def test_import_leaves_scipy_linalg_out(self, module):
        run_fresh(f"import sys, {module}\n"
                  "heavy = ('scipy.linalg', 'numpy.testing', 'numpy.f2py')\n"
                  "loaded = [m for m in sys.modules if m.startswith(heavy)]\n"
                  "assert not loaded, loaded")

    @pytest.mark.parametrize("first, second", [("orthores", "scipy.linalg.lapack"),
                                               ("scipy.linalg.lapack", "orthores")])
    def test_routines_are_scipys(self, first, second):
        # the very objects scipy.linalg.lapack exports, whichever is imported first
        run_fresh(f"import {first}, {second}\n"
                  "from orthores import core, orthocomp, regression\n"
                  "from scipy.linalg import lapack\n"
                  f"for name in {SEVEN}:\n"
                  "    assert getattr(core, name) is getattr(lapack, name), name\n"
                  "assert orthocomp.dgesv is lapack.dgesv and orthocomp.dgetrs is lapack.dgetrs\n"
                  "assert orthocomp.dtrtrs is regression.dtrtrs is lapack.dtrtrs")

    def test_scipy_linalg_imports_afterwards(self):
        run_fresh("import numpy as np, orthores\n"
                  "import scipy.linalg\n"
                  "assert scipy.linalg._flapack.dgeqrt is orthores.core.dgeqrt\n"
                  "X = np.array([[3.0, 1.0], [4.0, 2.0], [0.0, 5.0]])\n"
                  "q, r = scipy.linalg.qr(X, mode='economic')\n"
                  "assert np.allclose(q @ r, X) and np.isclose(abs(r[0, 0]), 5.0)")

    def test_finder_miss_takes_the_public_route(self, tmp_path):
        # a directory without the extension: the loader imports scipy.linalg.lapack instead
        run_fresh("import sys\n"
                  "from orthores.core import _flapack\n"
                  "assert 'scipy.linalg' not in sys.modules\n"
                  "module = _flapack(sys.argv[1])\n"
                  "from scipy.linalg import lapack\n"
                  "assert module is lapack, module\n"
                  f"for name in {SEVEN}:\n"
                  "    assert getattr(module, name) is getattr(sys.modules['orthores.core'], name)",
                  str(tmp_path))
