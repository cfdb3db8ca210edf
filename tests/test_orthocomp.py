import numpy as np
import pytest

from orthores import (
    STANDARD,
    TO_POSITIVE,
    RowSelection,
    SignPolicy,
    SingularMatrixError,
    apply_Qt,
    explicit_orthocomplement_basis,
    householder_qr,
    orthocomplement_apply,
    qr_for_selection,
    rank_count,
    s_from_c,
    s_from_qr,
    s_recursion,
    sign_fix,
)
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


def permuted_apply(S, X, x, rows):
    """x_(p) + X_(p) S x^(p) by permuting all n rows of X and x, then slicing."""
    p = len(rows)
    perm = listed_permutation(X.shape[0], rows)
    xp, Xp = x[perm], X[perm]
    return xp[p:] + Xp[p:] @ (S @ xp[:p])


# (n, selected rows): first p, scattered, ending at the last row, and n = p + 1
SELECTIONS = [(12, (0, 1, 2)), (12, (1, 5, 9)), (12, (3, 7, 11)),
              (4, (0, 1, 2)), (4, (0, 2, 3)), (2, (1,))]


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
        assert sp.rank == 1 and sp.source == "from-t"

    def test_singular_under_custom_policy(self):
        X = np.array([[1.0], [0.0], [0.0]])
        qr = householder_qr(X, SignPolicy.custom([-1]))
        with pytest.raises(SingularMatrixError):
            s_from_qr(qr, X)

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

    def test_singular_c_rejected(self):
        with pytest.raises(SingularMatrixError):
            s_from_c(np.ones((4, 1)), [[0.0]])

    def test_non_orthonormalizing_c_rejected(self):
        with pytest.raises(ValueError):
            s_from_c(np.ones((4, 1)), [[1.0]])


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
        for j in range(3):
            np.testing.assert_allclose(out[:, j], orthocomplement_apply(sp, X, B[:, j], sel),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(v[:, j], sp.S @ B[list(rows), j], rtol=0, atol=1e-12)

    def test_out_of_range_selection(self):
        rng, X, _, _, sp = self.setup_case(12, (1, 5, 9), 7)
        x = random_orthocomplement_vector(X, rng)
        with pytest.raises(ValueError):
            orthocomplement_apply(sp, X, x, RowSelection((1, 5, 12)))


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
