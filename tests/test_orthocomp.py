import tracemalloc
import warnings

import numpy as np
import pytest

from orthores import (
    STANDARD,
    TO_POSITIVE,
    HouseholderQR,
    RowSelection,
    SignPolicy,
    SingularMatrixError,
    SProjector,
    apply_Qt,
    explicit_orthocomplement_basis,
    fit_least_squares,
    householder_qr,
    independent_residuals,
    orthocomplement_apply,
    qr_for_selection,
    rank_count,
    s_from_c,
    s_from_qr,
    s_recursion,
    sign_fix,
)
from orthores import orthocomp
from orthores.core import _dormqr
from orthores.orthocomp import _apply_s


def singular_config(n=4):
    """Orthonormal 2-column matrix whose step-2 recursion pivot vanishes."""
    rn = np.sqrt(n)
    t = np.empty(n)
    t[0] = 1.0 / rn
    t[1] = 1.0 - 1.0 / (rn * (rn - 1.0))
    t[2:] = -1.0 / (rn * (rn - 1.0))
    return np.column_stack([np.full(n, 1.0 / rn), t])


def random_orthocomplement_vector(X, rng):
    z = rng.standard_normal(X.shape[0])
    coef, *_ = np.linalg.lstsq(X, z, rcond=None)
    return z - X @ coef


def listed_permutation(n, rows):
    """Selected rows first, the rest in increasing order, built as a list."""
    chosen = set(rows)
    return np.array(list(rows) + [i for i in range(n) if i not in chosen], dtype=np.intp)


def qr_apply(qr, z):
    """H_1 ... H_p z, by LAPACK."""
    return _dormqr(qr, "N", z[:, None])[:, 0]


def permuted_apply(S, X, x, rows):
    """x_(p) + X_(p) S x^(p) by permuting all n rows of X and x, then slicing."""
    p = len(rows)
    perm = listed_permutation(X.shape[0], rows)
    xp, Xp = x[perm], X[perm]
    return xp[p:] + Xp[p:] @ (S @ xp[:p])


# (n, selected rows): first p, scattered, ending at the last row, and n = p + 1
SELECTIONS = [(12, (0, 1, 2)), (12, (1, 5, 9)), (12, (3, 7, 11)),
              (4, (0, 1, 2)), (4, (0, 2, 3)), (2, (1,))]


class TestQrForSelection:
    @pytest.mark.parametrize("n,rows", SELECTIONS + [(1400, (3, 700, 1399)), (1500, (0, 2, 9))])
    def test_is_the_qr_of_the_permuted_rows(self, n, rows):
        # 1400 x 3 and 1500 x 3 lie past DGEQRF_MAX_SIZE, the others below it
        X = np.random.default_rng(n).standard_normal((n, len(rows)))
        X[0, 0] = -0.0
        qr = qr_for_selection(X, RowSelection(rows))
        ref = householder_qr(X[listed_permutation(n, rows)])
        for field in ("packed", "tau", "T"):  # bit for bit, zero signs included
            got, want = getattr(qr, field), getattr(ref, field)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field


class TestRowSelection:
    def test_permutation(self):
        sel = RowSelection((1, 3))
        np.testing.assert_array_equal(sel.permutation(5), [1, 3, 0, 2, 4])

    def test_must_increase(self):
        with pytest.raises(ValueError):
            RowSelection((3, 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            RowSelection((0, 7)).permutation(5)

    def test_negative(self):
        with pytest.raises(ValueError):
            RowSelection((-1, 2))

    # (0.2, 0.7) would truncate to rows (0, 0); (1.0, 6.5) to rows (1, 6)
    @pytest.mark.parametrize("rows", [(1.0, 6.5), (0.2, 0.7), (1.0,), (0, np.float64(2.0)),
                                      (True,), (False, True), (np.True_,), (0, 1.5, 3)])
    def test_non_integers_rejected(self, rows):
        with pytest.raises(TypeError):
            RowSelection(rows)

    def test_numpy_integers(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((8, 2))
        z = random_orthocomplement_vector(X, rng)
        sel = RowSelection((np.int64(1), np.int32(6)))
        assert sel.indices == (1, 6) and all(type(i) is int for i in sel.indices)
        assert sel == RowSelection((1, 6)) and hash(sel) == hash(RowSelection((1, 6)))
        assert RowSelection(np.array([1, 6])).indices == (1, 6)
        W = orthocomplement_apply(s_from_qr(qr_for_selection(X, sel), X, sel), X, z, sel)
        ref = RowSelection((1, 6))
        np.testing.assert_array_equal(
            W, orthocomplement_apply(s_from_qr(qr_for_selection(X, ref), X, ref), X, z, ref))

    def test_reused_at_two_sizes(self):
        # the selection keeps the row order of the last n it saw; another n must rebuild it
        sel = RowSelection((1, 4))
        rng = np.random.default_rng(16)
        kept = None
        for n in (6, 9, 6):
            order = sel.permutation(n)
            assert order is not kept  # rebuilt for the new n
            np.testing.assert_array_equal(order, listed_permutation(n, (1, 4)))
            X = rng.standard_normal((n, 2))
            x = random_orthocomplement_vector(X, rng)
            sp = s_from_qr(qr_for_selection(X, sel), X, sel)
            fresh = RowSelection((1, 4))
            W = orthocomplement_apply(sp, X, x, sel)
            np.testing.assert_array_equal(W, orthocomplement_apply(sp, X, x, fresh))
            np.testing.assert_allclose(W, permuted_apply(sp.S, X, x, (1, 4)), rtol=0, atol=1e-12)
            kept = sel.permutation(n)
            assert kept is order  # one order serves the factorization, S and the kernel
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0
        assert sel == RowSelection((1, 4))  # the kept order is not a field

    def test_generator_and_range(self):
        # a generator is read once: the bool scan must not use it up first
        assert RowSelection(i for i in (1, 2)).indices == (1, 2)
        assert RowSelection(range(3)).indices == (0, 1, 2)
        assert RowSelection(i for i in (1, 2)) == RowSelection((1, 2))

    @pytest.mark.parametrize("n,rows", SELECTIONS + [(3, (0, 1, 2)), (6, (5,))])
    def test_permutation_matches_listed_order(self, n, rows):
        perm = RowSelection(rows).permutation(n)
        assert perm.dtype == np.intp
        np.testing.assert_array_equal(perm, listed_permutation(n, rows))


class TestSFromQr:
    def test_ones_column(self):
        X = np.ones((4, 1))
        qr = householder_qr(X)
        sp = s_from_qr(qr, X)
        np.testing.assert_allclose(sp.S, [[-1.0 / 3.0]])
        assert sp.rank == 1

    def test_singular_under_custom_policy(self):
        X = np.array([[1.0], [0.0], [0.0]])
        qr = householder_qr(X, SignPolicy.custom([-1]))
        with pytest.raises(SingularMatrixError):
            s_from_qr(qr, X)

    @pytest.mark.parametrize("shape", [(5, 2), (6, 3)], ids=["other n", "other p"])
    def test_factorization_of_another_shape(self, shape):
        qr = householder_qr(np.random.default_rng(4).standard_normal(shape))
        with pytest.raises(ValueError, match="does not match X"):
            s_from_qr(qr, np.random.default_rng(3).standard_normal((6, 2)))

    def test_zero_reflector_by_cancellation_is_singular(self):
        # column 2 is +e_2 after H_1 up to a 1e-7 tail, so the to-positive
        # H_2 = I; LU of T - X^(p) then meets a pivot of 2e-16, not 0
        v = np.ones(3)
        X = (np.eye(3) - 2.0 * np.outer(v, v) / 3.0) @ [[2.0, 1.0], [0.0, 1.0], [0.0, 1e-7]]
        qr = householder_qr(X, TO_POSITIVE)
        assert qr.tau[1] == 0.0
        with pytest.raises(SingularMatrixError):
            s_from_qr(qr, X)

    @pytest.mark.parametrize("info, factor", [(1, 1.0), (0, np.inf)])
    def test_lu_failure_is_singular(self, monkeypatch, info, factor):
        # a zero LU pivot, or an S that overflowed
        true_dgesv = orthocomp.dgesv

        def dgesv(a, b):
            lu, piv, S, _ = true_dgesv(a, b)
            return lu, piv, factor * S, info

        monkeypatch.setattr(orthocomp, "dgesv", dgesv)
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(SingularMatrixError):
            s_from_qr(householder_qr(X), X)

    def test_inverse_residual(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        qr = householder_qr(X)
        sp = s_from_qr(qr, X)
        np.testing.assert_allclose(sp.S @ (qr.T - X[:3]), np.eye(3), atol=1e-10)


class TestSRecursion:
    def test_scalar(self):
        sp = s_recursion(np.full((4, 1), 0.5))
        np.testing.assert_allclose(sp.S, [[2.0]])
        assert sp.rank == 1

    def test_degenerate_reflection(self):
        sp = s_recursion(np.array([[1.0], [0.0], [0.0]]))
        np.testing.assert_allclose(sp.S, [[0.0]])
        assert sp.rank == 0

    def test_singular_configuration(self):
        sp = s_recursion(singular_config(4))
        np.testing.assert_allclose(sp.S, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert sp.rank == 1
        # generalized-inverse identity still holds
        head = singular_config(4)[:2]
        M = np.eye(2) - head
        np.testing.assert_allclose(M @ sp.S @ M, M, atol=1e-10)

    def test_equals_inverse_when_nonsingular(self):
        rng = np.random.default_rng(1)
        Xo = np.linalg.qr(rng.standard_normal((20, 4)))[0]
        sp = s_recursion(Xo)
        assert sp.rank == 4
        np.testing.assert_allclose(sp.S, np.linalg.inv(np.eye(4) - Xo[:4]), atol=1e-10)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            s_recursion(np.ones((4, 1)))

    @pytest.mark.parametrize("seed", range(5))
    def test_lemma10_identities(self, seed):
        rng = np.random.default_rng(seed)
        Xo = np.linalg.qr(rng.standard_normal((15, 3)))[0]
        sp = s_recursion(Xo)
        M = np.eye(3) - Xo[:3]
        S = sp.S
        np.testing.assert_allclose(M @ S @ M, M, atol=1e-10)
        np.testing.assert_allclose(S.T @ M.T @ S, S, atol=1e-10)
        x = random_orthocomplement_vector(Xo, rng)
        np.testing.assert_allclose(M @ S @ x[:3], x[:3], atol=1e-10)

    def test_lemma10_identities_with_forced_singular_step(self):
        rng = np.random.default_rng(42)
        # first column e1 makes the step-1 pivot exactly zero
        q = np.zeros(10)
        q[1:] = rng.standard_normal(9)
        q /= np.linalg.norm(q)
        Xo = np.column_stack([np.eye(10)[:, 0], q])
        sp = s_recursion(Xo)
        assert sp.rank == 1
        M = np.eye(2) - Xo[:2]
        np.testing.assert_allclose(M @ sp.S @ M, M, atol=1e-10)
        np.testing.assert_allclose(sp.S.T @ M.T @ sp.S, sp.S, atol=1e-10)

    def test_rank_matches_nonzero_reflectors(self):
        for X in (singular_config(4), singular_config(9)):
            sp = s_recursion(X)
            qr = householder_qr(X, TO_POSITIVE)
            assert sp.rank == qr.nonzero_reflector_count == 1

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("column", ["random", "+e_k", "-e_k"])
    @pytest.mark.parametrize("scattered", [False, True], ids=["first p", "scattered"])
    def test_is_s_from_c_at_the_identity(self, seed, column, scattered):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(4, 30)), int(rng.integers(1, 4))
        rows = np.sort(rng.choice(n, p, replace=False)) if scattered else np.arange(p)
        sel = RowSelection(rows.tolist()) if scattered else None
        A = rng.standard_normal((n, p))
        j = int(rng.integers(p))
        if column != "random":  # column j = +-e_k at selected row k, the others 0 there
            A[rows[j]] = 0.0
        X = np.linalg.qr(A)[0]
        if column != "random":
            X[:, j] = 0.0
            X[rows[j], j] = 1.0 if column == "+e_k" else -1.0  # + makes step j singular
        rec, ref = s_recursion(X, sel), s_from_c(X, np.eye(p), sel)
        for got, want, name in zip((rec.S, *rec.frame), (ref.S, *ref.frame), ("S", "Q1", "K")):
            assert np.array_equal(got, want), name
        assert rec.rank == ref.rank == p - (column == "+e_k")


class TestSFromC:
    def test_plus_and_minus_normalizers(self):
        X = np.ones((4, 1))
        np.testing.assert_allclose(s_from_c(X, [[2.0]]).S, [[1.0]])
        np.testing.assert_allclose(s_from_c(X, [[-2.0]]).S, [[-1.0 / 3.0]])

    def test_singular_configuration_matches_recursion(self):
        Xo = singular_config(4)
        sp = s_from_c(Xo, np.eye(2))
        rec = s_recursion(Xo)
        np.testing.assert_allclose(sp.S, rec.S, atol=1e-12)
        assert sp.rank == rec.rank == 1

    def test_nonsingular_case_inverts(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((25, 3))
        # C from an independent Gram-Schmidt-style factorization
        C = np.linalg.qr(A)[1]
        sp = s_from_c(A, C)
        np.testing.assert_allclose(sp.S @ (C - A[:3]), np.eye(3), atol=1e-10)
        assert sp.rank == 3

    def test_columns_scaled_apart(self):
        """C = R diag(1, 1e6, 1e-6) is not singular: S is (C - X^(p))^-1."""
        D = np.array([1.0, 1e6, 1e-6])
        for seed in range(50):
            Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((20, 3)))
            C = R * D
            X = Q @ C
            sp = s_from_c(X, C)
            want = D[:, None] * np.linalg.inv(C - X[:3])  # D S is scale-free
            assert sp.rank == 3, seed
            assert np.linalg.norm(D[:, None] * sp.S - want) <= 1e-12 * np.linalg.norm(want), seed

    def test_singular_c_rejected(self):
        with pytest.raises(SingularMatrixError):
            s_from_c(np.ones((4, 1)), [[0.0]])

    def test_non_orthonormalizing_c_rejected(self):
        with pytest.raises(ValueError):
            s_from_c(np.ones((4, 1)), [[1.0]])

    @pytest.mark.parametrize("C", [np.eye(1), np.ones((2, 3)), np.eye(3)])
    def test_c_of_another_size(self, C):
        with pytest.raises(ValueError, match="C must be 2x2"):
            s_from_c(np.ones((5, 2)), C)


NORMALIZED = {"s_from_c": s_from_c, "sign_fix": lambda X, C: sign_fix(C, X)}
WITH_C = dict(NORMALIZED, s_recursion=lambda X, C: s_recursion(X))  # C = I


class TestNonFiniteInput:
    """An inf or NaN in X or C is an input error (ValueError, as householder_qr
    raises), not a numerically singular C."""

    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 3)))[0]

    @pytest.mark.parametrize("build", WITH_C.values(), ids=WITH_C)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_in_x(self, build, value):
        X = self.Q.copy()
        X[0, 1] = value  # a selected row, which sign_fix reads
        with pytest.raises(ValueError, match="infs or NaNs"):
            build(X, np.eye(3))

    @pytest.mark.parametrize("name", ["s_from_c", "s_recursion"])
    def test_nan_row_outside_the_selection(self, name):
        # a row that sign_fix never reads; its NaN would also make the Gram error NaN
        Q = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 3)))[0]
        Q[-1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            WITH_C[name](Q, np.eye(3))

    @pytest.mark.parametrize("build", NORMALIZED.values(), ids=NORMALIZED)
    def test_nan_in_c(self, build):
        C = np.eye(3)
        C[1, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            build(self.Q, C)

    @pytest.mark.parametrize("build", NORMALIZED.values(), ids=NORMALIZED)
    def test_inf_in_c(self, build):
        # dgesv solves with C = diag(inf, 1, 1) to a finite X^(p) C^-1 and no error
        with pytest.raises(ValueError, match="infs or NaNs"):
            build(self.Q, np.diag([np.inf, 1.0, 1.0]))


class TestSignFix:
    def embed(self, head, n=6):
        X = np.zeros((n, head.shape[1]))
        X[:head.shape[0]] = head
        return X

    def test_zero_block_gives_identity(self):
        d = sign_fix(np.eye(2), self.embed(np.zeros((2, 2))))
        np.testing.assert_array_equal(d, [1.0, 1.0])

    def test_identity_block_flips_first(self):
        d = sign_fix(np.eye(2), self.embed(np.eye(2)))
        assert d[0] == -1.0

    @pytest.mark.parametrize("C", [np.eye(1), np.ones((2, 3)), np.eye(3)])
    def test_c_of_another_size(self, C):
        with pytest.raises(ValueError, match="C must be 2x2"):
            sign_fix(C, np.ones((5, 2)))

    def test_more_columns_than_rows(self):
        with pytest.raises(ValueError, match=r"need p <= n, got 2x3"):
            sign_fix(np.eye(3), np.ones((2, 3)))

    def test_mixed_diagonal(self):
        d = sign_fix(np.eye(2), self.embed(np.diag([1.0, -1.0])))
        np.testing.assert_array_equal(d, [-1.0, 1.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_output_well_conditioned(self, seed):
        rng = np.random.default_rng(seed)
        p, n = 4, 12
        Xo = np.linalg.qr(rng.standard_normal((n, p)))[0]
        C = np.linalg.qr(rng.standard_normal((p, p)))[0]
        X = Xo @ C
        d = sign_fix(C, X)
        sv = np.linalg.svd(np.diag(d) @ C - X[:p], compute_uv=False)
        assert sv[-1] > 1e-12 * np.linalg.norm(C)

    def test_columns_scaled_apart(self):
        """Column scales 1, 1e8 and 1e-8: d T is still the T of X with the
        selected rows first, column by column."""
        sel = RowSelection((3, 11, 29))
        for seed in range(40):
            z = np.random.default_rng(seed).standard_normal((30, 2))
            X = np.column_stack([np.ones(30), 1e8 * z[:, 0], 1e-8 * z[:, 1]])
            T, T_sel = householder_qr(X).T, qr_for_selection(X, sel).T
            d = sign_fix(T, X, sel)
            err = np.max(np.abs(d[:, None] * T - T_sel), axis=0)
            assert (err <= 1e-13 * np.max(np.abs(T_sel), axis=0)).all(), seed

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n,rows", [
        (2, (1,)), (5, (0, 4)), (9, (2, 5, 8)), (20, (0, 3, 7, 11, 19)),
        (60, (1, 8, 13, 22, 30, 41, 50, 57)),
    ])
    @pytest.mark.parametrize("intercept", [False, True])
    def test_reproduces_the_selection_standard_signs(self, n, rows, scale, intercept):
        """sign_fix turns the T of X into the T of X with the selected rows
        first, and keeps the latter.  X has continuous entries: in an
        integer-valued design a pivot base can be exactly 0, both signs are
        then valid, and sign_fix picks +1 where Householder may pick -1."""
        p = len(rows)
        rng = np.random.default_rng(n * 7 + p)
        X = scale * rng.standard_normal((n, p))
        if intercept:
            X[:, 0] = scale
        sel = RowSelection(rows)
        T = householder_qr(X).T
        T_sel = qr_for_selection(X, sel).T
        d = sign_fix(T, X, sel)
        assert np.max(np.abs(d[:, None] * T - T_sel)) <= 1e-13 * np.max(np.abs(T))
        np.testing.assert_array_equal(sign_fix(T_sel, X, sel), np.ones(p))


class TestOrthocomplementApply:
    X = np.ones((4, 1))
    x = np.array([-1.5, -0.5, 0.5, 1.5])

    def test_plus_variant(self):
        sp = s_from_c(self.X, [[2.0]])
        out = orthocomplement_apply(sp, self.X, self.x)
        np.testing.assert_allclose(out, [-2.0, -1.0, 0.0])
        assert abs(out @ out - 5.0) < 1e-12

    def test_minus_variant(self):
        sp = s_from_c(self.X, [[-2.0]])
        out = orthocomplement_apply(sp, self.X, self.x)
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0])

    def test_zero_vector(self):
        sp = s_from_c(self.X, [[2.0]])
        np.testing.assert_array_equal(orthocomplement_apply(sp, self.X, np.zeros(4)),
                                      np.zeros(3))

    def test_rejects_non_orthogonal(self):
        sp = s_from_c(self.X, [[2.0]])
        with pytest.raises(ValueError):
            orthocomplement_apply(sp, self.X, np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("S,x,message", [
        ([[2.0]], np.zeros(5), "vector length 5 != n = 4"),
        (np.eye(2), np.zeros(4), "projector size does not match X"),
    ])
    def test_wrong_sizes(self, S, x, message):
        sp = SProjector(S=np.array(S), rank=len(S), qr=householder_qr(self.X))
        with pytest.raises(ValueError, match=message):
            orthocomplement_apply(sp, self.X, x)

    def test_projector_without_a_factorization(self):
        # built directly with qr=None, and without the frame s_from_c stores: a typed error
        X = np.random.default_rng(0).standard_normal((10, 3))
        sp = SProjector(S=s_from_qr(householder_qr(X), X).S, rank=3, qr=None)
        x = random_orthocomplement_vector(X, np.random.default_rng(1))
        with pytest.raises(ValueError, match="no factorization to build its frame from"):
            orthocomplement_apply(sp, X, x)

    @pytest.mark.parametrize("n,p", [(5, 1), (20, 2), (100, 5)])
    def test_oracle_equivalence_and_norm(self, n, p):
        rng = np.random.default_rng(n * 10 + p)
        X = rng.standard_normal((n, p))
        qr = householder_qr(X)
        sp = s_from_qr(qr, X)
        U2 = explicit_orthocomplement_basis(qr)
        for _ in range(10):
            x = random_orthocomplement_vector(X, rng)
            fast = orthocomplement_apply(sp, X, x)
            np.testing.assert_allclose(fast, U2.T @ x, atol=1e-10)
            assert abs(fast @ fast - x @ x) <= 1e-10 * (x @ x)

    @staticmethod
    def scaled_design(seed, c):
        """X = [1, c z1, z2] on 100 rows, and a vector perpendicular to col(X)."""
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((100, 2))
        X = np.column_stack([np.ones(100), c * z[:, 0], z[:, 1]])
        return X, random_orthocomplement_vector(X, rng)

    @pytest.mark.parametrize("c", [1e6, 1e8, 1e10])
    def test_large_column_does_not_reject(self, c):
        for seed in range(20):
            X, x = self.scaled_design(seed, c)
            qr = householder_qr(X)
            fast = orthocomplement_apply(s_from_qr(qr, X), X, x)
            np.testing.assert_allclose(fast, explicit_orthocomplement_basis(qr).T @ x,
                                       rtol=0, atol=1e-10 * np.linalg.norm(x))

    def test_small_column_still_checked(self):
        # a component in col(X) that only the 1e-8-scaled column sees
        for seed in range(20):
            X, x = self.scaled_design(seed, 1e-8)
            others = X[:, [0, 2]]
            u = X[:, 1] - others @ np.linalg.lstsq(others, X[:, 1], rcond=None)[0]
            x = x + 1e-3 * np.linalg.norm(x) * u / np.linalg.norm(u)
            with pytest.raises(ValueError, match="not orthogonal"):
                orthocomplement_apply(s_from_qr(householder_qr(X), X), X, x)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160])
    def test_guard_at_any_scale(self, scale):
        # ||x||^2 overflows at 1e160, and a guard bound taken from it went inf
        rng = np.random.default_rng(14)
        X = rng.standard_normal((50, 3))
        sp = s_from_qr(householder_qr(X), X)
        x = random_orthocomplement_vector(X, rng)
        x0 = X @ rng.standard_normal(3)
        bad = x + 1e-3 * np.linalg.norm(x) * x0 / np.linalg.norm(x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = orthocomplement_apply(sp, X, scale * x)
            with pytest.raises(ValueError, match="not orthogonal"):
                orthocomplement_apply(sp, X, scale * bad)
        np.testing.assert_allclose(out, scale * orthocomplement_apply(sp, X, x), rtol=1e-13)

    @pytest.mark.parametrize("cond", [1e0, 1e4, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("rows", [None, (3, 500, 700, 1200, 1500, 1999)],
                             ids=["first p", "scattered"])
    def test_matches_reflect_route_at_any_cond(self, cond, rows):
        # x = Q [0; z] is orthogonal to the computed col(Q1); X_(p) S cancels as ||S|| grows
        # with cond, and erred by up to 9e-12, 3e-9 and 2.5e-7 ||x|| at cond 1e8, 1e10 and 1e12
        n, p = 2000, 6
        rng = np.random.default_rng(int(np.log10(cond)))
        U, V = (np.linalg.qr(rng.standard_normal(shape))[0] for shape in ((n, p), (p, p)))
        X = (U * np.logspace(0, -np.log10(cond), p)) @ V.T
        sel = RowSelection(rows) if rows else None
        qr = qr_for_selection(X, sel)
        sp = s_from_qr(qr, X, sel)
        perm = sel.permutation(n) if sel else np.arange(n)
        for _ in range(3):
            z = np.concatenate([np.zeros(p), rng.standard_normal(n - p)])
            x = np.empty(n)
            x[perm] = qr_apply(qr, z)
            err = np.max(np.abs(orthocomplement_apply(sp, X, x, sel) - apply_Qt(qr, x[perm])[p:]))
            assert err <= 1e-14 * np.linalg.norm(x)

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10])
    def test_rejects_a_vector_in_col_x_at_small_cosines(self, eps):
        # x = e lies in col(X), but its cosine with every column is about eps, which a
        # per-column guard accepted, returning ||W|| = 0.92 where the answer is 0
        a, e, f = np.linalg.qr(np.random.default_rng(0).standard_normal((50, 3)))[0].T
        X = np.column_stack([a + eps * e, a - eps * e, f])
        sp = s_from_qr(householder_qr(X), X)
        with pytest.raises(ValueError, match="not orthogonal"):
            orthocomplement_apply(sp, X, e)

    @pytest.mark.parametrize("entries,message", [
        ((np.inf, 0.0), "infs or NaNs"), ((-np.inf, 0.0), "infs or NaNs"),
        ((np.nan, 0.0), "infs or NaNs"),
        ((1.7e308, 1.7e308), "x is finite, but its norm exceeds the float range"),
    ])
    def test_non_finite_x(self, entries, message):
        # an inf in x makes ||x|| and so the guard's bound inf: the guard alone lets it through
        X = np.random.default_rng(0).standard_normal((10, 3))
        sp = s_from_qr(householder_qr(X), X)
        x = np.zeros(10)
        x[3:5] = entries  # rows outside the first p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                orthocomplement_apply(sp, X, x)

    def test_builders_record_column_norms(self):
        # T's columns carry ||x_k||, with no overflow where ||x_k||^2 would
        rng = np.random.default_rng(13)
        Q = np.linalg.qr(rng.standard_normal((15, 3)))[0]
        C = np.triu(rng.standard_normal((3, 3))) * [1e-4, 1.0, 1e4] + 5.0 * np.eye(3)
        X = Q @ C
        big = X * [1.0, 1e200, 1.0]  # ||x_2||^2 overflows; np.hypot.reduce does not
        norms = np.linalg.norm(X, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for obj, expected in [
                (householder_qr(X), norms), (householder_qr(X, TO_POSITIVE), norms),
                (householder_qr(big), norms * [1.0, 1e200, 1.0]),
            ]:
                got = np.hypot.reduce(obj.T, axis=0)
                assert np.isfinite(got).all()
                np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_arbitrary_row_selection(self):
        rng = np.random.default_rng(77)
        n, p = 30, 3
        X = rng.standard_normal((n, p))
        sel = RowSelection((2, 11, 29))
        qr = qr_for_selection(X, sel)
        sp = s_from_qr(qr, X, sel)
        U2 = explicit_orthocomplement_basis(qr)
        perm = sel.permutation(n)
        for _ in range(5):
            x = random_orthocomplement_vector(X, rng)
            fast = orthocomplement_apply(sp, X, x, sel)
            np.testing.assert_allclose(fast, U2.T @ x[perm], atol=1e-10)
            assert abs(fast @ fast - x @ x) <= 1e-10 * (x @ x)


BUILDERS = {
    "s_from_qr": lambda X: s_from_qr(householder_qr(X), X),
    "s_from_c": lambda X: s_from_c(X, householder_qr(X).T),
    "s_recursion": s_recursion,
}


class TestOwnedDesign:
    """No builder keeps a copy of its X: orthocomplement_apply runs on the projector's
    frame (Q1, K), built once from the factorization or the normalized X, whatever the
    layout of the caller's X and whatever the caller later does to it."""

    @staticmethod
    def case(seed=21, n=60, p=4):
        """An orthonormal n x p design in C order (every builder accepts it)."""
        rng = np.random.default_rng(seed)
        return rng, np.ascontiguousarray(np.linalg.qr(rng.standard_normal((n, p)))[0])

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_layouts_agree(self, build):
        rng, X = self.case()
        XF = np.asfortranarray(X)
        by_c, by_f = build(X), build(XF)
        np.testing.assert_array_equal(by_c.S, by_f.S)
        for got, want in zip(by_f.frame, by_c.frame):
            np.testing.assert_array_equal(got, want)
        for _ in range(5):
            x = random_orthocomplement_vector(X, rng)
            np.testing.assert_array_equal(orthocomplement_apply(by_f, XF, x),
                                          orthocomplement_apply(by_c, X, x))

    @pytest.mark.parametrize("name", BUILDERS)
    @pytest.mark.parametrize("rows", [None, (5, 17, 40, 59)], ids=["first p", "scattered"])
    def test_frame_is_an_orthonormal_basis(self, name, rows):
        # Q1 orthonormal, and Q1 K = X S, so Q1_(p) K = X_(p) S: the paper's formula at C = I
        _, X = self.case(seed=22)
        if name != "s_recursion":  # which needs orthonormal columns
            X = X * [1.0, 1e3, 1.0, 1e-3]
        sel = RowSelection(rows) if rows else None
        sp = {"s_from_qr": lambda: s_from_qr(qr_for_selection(X, sel), X, sel),
              "s_from_c": lambda: s_from_c(X, householder_qr(X).T, sel),
              "s_recursion": lambda: s_recursion(X, sel)}[name]()
        Q1, K = sp.frame
        assert Q1.shape == X.shape and K.shape == (4, 4)
        assert Q1.flags.f_contiguous or name != "s_from_qr"
        assert np.max(np.abs(Q1.T @ Q1 - np.eye(4))) <= 1e-14
        perm = sel.permutation(60) if sel else np.arange(60)
        np.testing.assert_allclose(Q1[perm] @ K, X[perm] @ sp.S, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", "CF")
    def test_matches_reflect_route(self, order):
        rng = np.random.default_rng(23)
        X = np.array(rng.standard_normal((80, 5)) * [1.0, 1e3, 1.0, 1e-3, 1.0], order=order)
        qr = householder_qr(X)
        sp = s_from_qr(qr, X)
        for _ in range(5):
            x = random_orthocomplement_vector(X, rng)
            err = np.max(np.abs(orthocomplement_apply(sp, X, x) - apply_Qt(qr, x)[5:]))
            assert err <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize("order", "CF")
    def test_caller_overwrites_x(self, build, order):
        rng, X = self.case(seed=24)
        x = random_orthocomplement_vector(X, rng)
        mine = np.array(X, order=order)
        sp = build(mine)
        before = orthocomplement_apply(sp, mine, x)
        mine[:] = rng.standard_normal(mine.shape)  # the frame does not read X
        np.testing.assert_array_equal(orthocomplement_apply(sp, mine, x), before)

    @pytest.mark.parametrize("shape", [(59, 4), (61, 4), (60, 3), (4, 60), (240,)])
    def test_x_of_another_shape(self, shape):
        rng, X = self.case(seed=25)
        sp = s_from_qr(householder_qr(X), X)
        with pytest.raises(ValueError, match="projector size does not match X"):
            orthocomplement_apply(sp, np.zeros(shape), random_orthocomplement_vector(X, rng))

    @pytest.mark.parametrize("order", "CF")
    def test_no_copy_of_the_design(self, order, monkeypatch):
        # s_from_qr reads p rows of X; the first apply builds Q1 (8 n p bytes) in place by
        # one dormqr, and W (8 (n - p) bytes); a second apply reuses the frame
        n, p = 20000, 5
        X = np.array(np.random.default_rng(26).standard_normal((n, p)), order=order)
        x = random_orthocomplement_vector(X, np.random.default_rng(27))
        qr = householder_qr(X)
        tracemalloc.start()
        try:
            sp = s_from_qr(qr, X)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            W = orthocomplement_apply(sp, X, x)
            applied = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 0.1 * 8 * n * p
        assert applied <= 1.25 * 8 * n * p
        monkeypatch.delattr(orthocomp, "dormqr")  # a second build of the frame would fail
        assert orthocomplement_apply(sp, X, x).tobytes() == W.tobytes()


class TestSelectionKernel:
    """The closed form for a row selection never permutes X; it must match
    the permute-then-slice evaluation and the explicit basis."""

    def setup_case(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, len(rows)))
        sel = RowSelection(rows)
        qr = qr_for_selection(X, sel)
        return rng, X, sel, qr, s_from_qr(qr, X, sel)

    @pytest.mark.parametrize("n,rows", SELECTIONS)
    def test_matches_permuted_formula_and_basis(self, n, rows):
        rng, X, sel, qr, sp = self.setup_case(n, rows, 100 + n + sum(rows))
        U2 = explicit_orthocomplement_basis(qr)
        perm = listed_permutation(n, rows)
        for _ in range(3):
            x = random_orthocomplement_vector(X, rng)
            fast = orthocomplement_apply(sp, X, x, sel)
            assert fast.shape == (n - len(rows),)
            np.testing.assert_allclose(fast, permuted_apply(sp.S, X, x, rows), rtol=0, atol=1e-12)
            np.testing.assert_allclose(fast, U2.T @ x[perm], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n,rows", SELECTIONS)
    def test_block_matches_columns(self, n, rows):
        rng, X, sel, _, sp = self.setup_case(n, rows, 200 + n + sum(rows))
        B = np.column_stack([random_orthocomplement_vector(X, rng) for _ in range(3)])
        v, out = _apply_s(sp.S, X, B, sel)
        assert v.shape == (len(rows), 3) and out.shape == (n - len(rows), 3)
        buffer = np.empty_like(out)  # the caller's storage, with the same values
        assert _apply_s(sp.S, X, B, sel, out=buffer)[1] is buffer
        np.testing.assert_array_equal(buffer, out)
        for j in range(3):
            np.testing.assert_allclose(out[:, j], orthocomplement_apply(sp, X, B[:, j], sel),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(v[:, j], sp.S @ B[list(rows), j], rtol=0, atol=1e-12)

    def test_out_of_range_selection(self):
        rng, X, _, _, sp = self.setup_case(12, (1, 5, 9), 7)
        x = random_orthocomplement_vector(X, rng)
        with pytest.raises(ValueError):
            orthocomplement_apply(sp, X, x, RowSelection((1, 5, 12)))


def projector_for(X, sel):
    """The first-p projector of X, built directly with ``sel`` as its selection."""
    qr = householder_qr(X)
    return SProjector(S=s_from_qr(qr, X).S, rank=X.shape[1], qr=qr, sel=sel)


class TestOutOfRangeSelection:
    """A selection past the last row reaches the one range check through every layer."""

    X = np.random.default_rng(21).standard_normal((10, 3))
    SEL = RowSelection((1, 5, 12))
    CALLS = {
        "qr_for_selection": qr_for_selection,
        "s_from_qr": lambda X, sel: s_from_qr(householder_qr(X), X, sel),
        "s_from_c": lambda X, sel: s_from_c(X, householder_qr(X).T, sel),
        "sign_fix": lambda X, sel: sign_fix(householder_qr(X).T, X, sel),
        "orthocomplement_apply": lambda X, sel: orthocomplement_apply(
            projector_for(X, sel), X, random_orthocomplement_vector(X, np.random.default_rng(22))),
        "independent_residuals": lambda X, sel: independent_residuals(
            fit_least_squares(X, np.random.default_rng(23).standard_normal(10)),
            projector_for(X, sel)),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
    def test_names_the_row(self, call):
        with pytest.raises(ValueError, match="row index 12 out of range for n=10"):
            call(self.X, self.SEL)


def reflector_block(qr):
    """V = [V1; V2], the unit lower reflector block stored in qr.packed."""
    return np.tril(qr.packed, -1) + np.eye(qr.n, qr.p)


def reflector_apply(qr, x):
    """U2^T x = x_(p) - V2 V1^-1 x^(p) for x perpendicular to col(X).  With Q^T = I - V Tw^T V^T
    (compact WY), the top p rows of Q^T x are 0, so Tw^T V^T x = V1^-1 x^(p); Tw, singular for a
    zero reflector, is not inverted."""
    p, V = qr.p, reflector_block(qr)
    return x[p:] - V[p:] @ np.linalg.solve(V[:p], x[:p])


class TestReflectorForm:
    """The factorization's own reflectors give the orthocomplement action, under any sign
    policy and with zero reflectors, and X_(p) S = -V2 V1^-1 under the standard one."""

    @staticmethod
    def design(seed, zero_first):
        X = np.random.default_rng(seed).standard_normal((12, 3))
        if zero_first:  # column 1 = 2 e_1: a zero tail, so reflector 1 is I or -2 e_1 e_1^T
            X[:, 0] = 0.0
            X[0, 0] = 2.0
        return X

    @pytest.mark.parametrize("zero_first", [False, True])
    @pytest.mark.parametrize("policy", [STANDARD, TO_POSITIVE, SignPolicy.custom((-1, 1, -1))],
                             ids=["standard", "to-positive", "custom"])
    def test_matches_the_explicit_basis(self, policy, zero_first):
        X = self.design(31, zero_first)
        qr = householder_qr(X, policy)
        if zero_first:  # standard: H_1 = I - 2 e_1 e_1^T; d_1 = -1 sends 2 e_1 to itself: H_1 = I
            assert qr.tau[0] == (2.0 if policy is STANDARD else 0.0)
        U2 = explicit_orthocomplement_basis(qr)
        rng = np.random.default_rng(32)
        for _ in range(3):
            x = random_orthocomplement_vector(X, rng)
            np.testing.assert_allclose(reflector_apply(qr, x), U2.T @ x,
                                       rtol=0, atol=1e-13 * np.linalg.norm(x))

    @pytest.mark.parametrize("zero_first", [False, True])
    def test_is_the_standard_s(self, zero_first):
        X = self.design(33, zero_first)
        qr = householder_qr(X)
        V = reflector_block(qr)
        np.testing.assert_allclose(X[3:] @ s_from_qr(qr, X).S, -V[3:] @ np.linalg.inv(V[:3]),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 100])
    def test_mean_only_coefficient(self, n):
        # p = 1, X = 1: -V2 V1^-1 is c = -1/(sqrt(n) + 1) in every row
        qr = householder_qr(np.ones((n, 1)))
        np.testing.assert_allclose(-qr.packed[1:, 0], -1.0 / (np.sqrt(n) + 1.0), rtol=1e-15)


class TestRankCount:
    def test_full_rank_standard(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 4))
        assert rank_count(householder_qr(X), X) == 4

    def test_identity_reflection(self):
        X = np.array([[1.0], [0.0], [0.0]])
        qr = householder_qr(X, SignPolicy.custom([-1]))
        assert rank_count(qr, X) == 0

    def test_singular_configuration(self):
        X = singular_config(4)
        qr = householder_qr(X, TO_POSITIVE)
        assert rank_count(qr, X) == 1

    @pytest.mark.parametrize("shape", [(5, 2), (6, 3)], ids=["other n", "other p"])
    def test_factorization_of_another_shape(self, shape):
        qr = householder_qr(np.random.default_rng(4).standard_normal(shape))
        with pytest.raises(ValueError, match="does not match X"):
            rank_count(qr, np.random.default_rng(3).standard_normal((6, 2)))

    def test_violation_is_arithmetic_error(self):
        # one zero reflector, but T - X^(1) = [[-3]] has rank 1
        X = np.ones((4, 1))
        qr = HouseholderQR(n=4, p=1, packed=np.zeros((4, 1), order="F"), tau=np.zeros(1),
                           T=np.array([[-2.0]]))
        with pytest.raises(ArithmeticError, match="rank formula violated"):
            rank_count(qr, X)
