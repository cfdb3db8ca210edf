import math
import os
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
    apply_reflection,
    explicit_orthocomplement_basis,
    householder_qr,
    make_reflector,
    rank_count,
    reconstruct,
)
from orthores.core import _norm


class TestMakeReflector:
    def test_pivot_example(self):
        v = make_reflector([3.0, 4.0], 1, 1)
        np.testing.assert_allclose(v, [8.0, 4.0])
        # reflecting x with v zeroes everything below the pivot
        np.testing.assert_allclose(apply_reflection(v, [3.0, 4.0]), [-5.0, 0.0], atol=1e-14)

    def test_exact_cancellation_gives_zero(self):
        v = make_reflector([1.0, 0.0, 0.0], 1, -1)
        assert np.all(v == 0.0)

    def test_ones_example(self):
        v = make_reflector([1.0, 1.0, 1.0, 1.0], 1, 1)
        np.testing.assert_allclose(v, [3.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(apply_reflection(v, np.ones(4)), [-2, 0, 0, 0], atol=1e-14)

    def test_preserves_leading_components(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(7)
        v = make_reflector(x, 4, 1)
        assert np.all(v[:3] == 0.0)
        hx = apply_reflection(v, x)
        np.testing.assert_allclose(hx[:3], x[:3], rtol=1e-12)
        np.testing.assert_allclose(hx[4:], 0.0, atol=1e-12)

    def test_all_zero_tail_raises(self):
        with pytest.raises(RankDeficiencyError):
            make_reflector([1.0, 2.0, 0.0, 0.0], 3, 1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            make_reflector([1.0, 2.0], 3, 1)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("x,k,sign", [
        ([1.0, 1.0], 1, 1),
        ([3.0, 4.0], 1, -1),
        ([0.5, -2.0, 1.0, 3.0, -1.5], 2, 1),
    ])
    def test_scale_safe(self, x, k, sign, scale):
        # the tail norm neither overflows nor underflows: v(c x) = c v(x)
        expected = scale * make_reflector(x, k, sign)
        np.testing.assert_allclose(make_reflector(scale * np.array(x), k, sign), expected,
                                   rtol=1e-15, atol=0.0)


class TestApplyReflection:
    def test_defining_example(self):
        np.testing.assert_allclose(
            apply_reflection([3.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
            [-2.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_zero_reflector_is_identity(self):
        np.testing.assert_allclose(apply_reflection([0.0, 0.0], [5.0, 7.0]), [5.0, 7.0])

    def test_basis_vector(self):
        np.testing.assert_allclose(
            apply_reflection([3.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]),
            [-0.5, -0.5, -0.5, -0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_reflection([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("v,x", [
        ([1.0, 1.0], [1.0, 0.0]),
        ([3.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]),
        ([0.0, 2.5, -1.0, 0.5], [1.0, -2.0, 0.25, 4.0]),
    ])
    def test_scale_safe(self, v, x, scale):
        # H(c v) = H(v), and H(v) (c x) = c H(v) x
        hx = apply_reflection(v, x)
        atol = 1e-15 * np.linalg.norm(x)
        np.testing.assert_allclose(apply_reflection(scale * np.array(v), x), hx,
                                   rtol=0.0, atol=atol)
        np.testing.assert_allclose(apply_reflection(v, scale * np.array(x)) / scale, hx,
                                   rtol=0.0, atol=atol)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    def test_isometry_and_involution(self, seed, n):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        x = rng.standard_normal(n)
        hx = apply_reflection(v, x)
        assert abs(np.linalg.norm(hx) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
        np.testing.assert_allclose(apply_reflection(v, hx), x, rtol=1e-12, atol=1e-12)


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

    def test_rank_deficiency(self):
        X = np.ones((5, 2))
        with pytest.raises(RankDeficiencyError):
            householder_qr(X)

    def test_custom_signs_length_checked(self):
        with pytest.raises(ValueError):
            householder_qr(np.eye(3)[:, :2], SignPolicy.custom([1]))

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
