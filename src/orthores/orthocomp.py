"""The p x p projector matrix S and the closed-form orthocomplement action.

For x perpendicular to col(X), the action of the orthocomplement basis is
U2^T x = x_(p) + X_(p) S x^(p), where A^(p) / A_(p) denote the first p and
last n-p rows.  S = (T - X^(p))^-1 under the standard sign choice; a
rank-one-update recursion covers the singular cases.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrs, dtrtrs

from .core import HouseholderQR, _every, _identity, _norm, as_matrix, as_vector, householder_qr

# |pivot| below this is treated as a zero reflector in the recursion.
PIVOT_TOL = 1e-10

# Orthonormality of supplied columns is checked loosely; callers may pass
# Gram-Schmidt output.
ORTHO_TOL = 1e-8

RANK_SV_TOL = 1e-10


class SingularMatrixError(ArithmeticError):
    """A matrix required to be invertible is numerically singular."""


@dataclass(frozen=True)
class RowSelection:
    """Which p rows of X play the role of the 'first p' rows: strictly increasing Python or
    numpy ints >= 0, kept as Python ints.  A float (even 1.0) or a bool raises TypeError."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if bool in map(type, self.indices):  # operator.index would take True as 1
            raise TypeError("row indices must be integers, not bools")
        idx = tuple(map(operator.index, self.indices))
        if idx and min(idx) < 0:
            raise ValueError("row indices must be non-negative")
        if not all(map(operator.lt, idx, idx[1:])):
            raise ValueError("row indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_index_array", np.array(idx, dtype=np.intp))
        self._index_array.flags.writeable = False  # built once per selection, and shared

    def permutation(self, n: int) -> np.ndarray:
        """Row order putting the selected rows first, the rest in increasing order."""
        idx = _rows(self, len(self.indices), n)
        if isinstance(idx, slice):  # the first rows already lead
            return np.arange(n)
        return np.concatenate([idx, _unselected(idx, n).nonzero()[0]])


def _unselected(idx: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the n rows that are not in idx."""
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return keep


def _rows(sel: RowSelection | None, p: int, n: int) -> slice | np.ndarray:
    """The p selected rows of an n-row array, checked against p and n: a slice
    for ``None`` or the first p rows, else an index array."""
    if sel is None:
        return slice(0, p)
    idx = sel.indices
    if len(idx) != p:
        raise ValueError(f"selection has {len(idx)} rows, need p={p}")
    last = idx[-1] if idx else -1
    if last >= n:
        raise ValueError(f"row index {last} out of range for n={n}")
    if last == p - 1:  # increasing indices, so rows 0..p-1
        return slice(0, p)
    return sel._index_array


def _apply_s(S: np.ndarray, X: np.ndarray, x: np.ndarray, sel: RowSelection | None,
             out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """v = S x^(p) and x_(p) + X_(p) v, written to ``out`` if given, for a vector
    or an n x m block x, without permuting or gathering the n rows of X."""
    p = S.shape[0]
    idx = _rows(sel, p, X.shape[0])
    v = S @ x[idx]  # on a vector, fancy indexing gathers faster than take
    if isinstance(idx, slice):  # the first p rows: views suffice
        W = np.matmul(X[p:], v, out=out)
        W += x[p:]  # in place, bit for bit, since a fresh n-row array page-faults again
        return v, W
    return v, (x + X @ v).compress(_unselected(idx, X.shape[0]), 0, out)  # axis 0


@dataclass(frozen=True)
class SProjector:
    """S with its rank and the norms ||x_k|| of the columns of the X it was
    built from."""

    S: np.ndarray
    rank: int
    col_norms: np.ndarray


def _border(S: np.ndarray, M: np.ndarray, k: int,
            diagonal: float) -> tuple[np.ndarray, bool]:
    """Grow S, the (generalized) inverse of the leading k x k block of D - M
    (D diagonal, D_{k+1,k+1} = ``diagonal``), by one row and column.

    Returns the grown matrix and whether its pivot (Schur complement) is
    nonzero; a pivot below PIVOT_TOL pads S with zeros."""
    Scol = S @ M[:k, k]
    rowS = M[k, :k] @ S
    pivot = diagonal - M[k, k] - float(M[k, :k] @ Scol)
    grown = np.zeros((k + 1, k + 1))
    grown[:k, :k] = S
    if abs(pivot) < PIVOT_TOL:
        return grown, False
    grown += np.outer(np.append(Scol, 1.0), np.append(rowS, 1.0)) / pivot
    return grown, True


def _solve(A: np.ndarray, B: np.ndarray, name: str) -> tuple[np.ndarray, ...]:
    """A^-1 B by one LAPACK dgesv call, with A's LU factors and pivots.

    A zero LU pivot or a non-finite result raises SingularMatrixError.  No
    tolerance, so scaling a column of A does not move the test."""
    lu, piv, X, info = dgesv(A, B)
    if info > 0 or not _every(np.isfinite(X)):  # info < 0 (a bad argument) needs non-square
        raise SingularMatrixError(f"{name} is numerically singular")
    return X, lu, piv


def _svd_rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(M, compute_uv=False)  # descending; M = 0 counts no sv > 0
    return int(np.sum(sv > RANK_SV_TOL * sv[0]))


def _check_orthonormal(X: np.ndarray) -> None:
    gram = X.T @ X
    err = float(np.max(np.abs(gram - np.eye(X.shape[1]))))
    if err >= ORTHO_TOL:
        raise ValueError(f"columns are not orthonormal (Gram error {err:.3e})")


def qr_for_selection(X, sel: RowSelection | None = None) -> HouseholderQR:
    """Standard-sign factorization of X with the selected rows permuted to the front."""
    X = as_matrix(X)
    n, p = X.shape
    if isinstance(_rows(sel, p, n), slice):
        return householder_qr(X)
    return householder_qr(X.take(sel.permutation(n), 0))


def s_from_qr(qr: HouseholderQR, X, sel: RowSelection | None = None) -> SProjector:
    """S = (T - X^(p))^-1 from a standard-sign factorization.

    ``qr`` must come from X with the selected rows permuted to the front
    (see qr_for_selection).  By the rank formula, T - X^(p) is singular
    exactly when a reflector is zero; that, a zero LU pivot or a non-finite S
    raises SingularMatrixError.  No tolerance, so S(XD) = D^-1 S(X).
    """
    X = as_matrix(X)
    n, p = X.shape
    if qr.n != n or qr.p != p:
        raise ValueError("factorization shape does not match X")
    rows = _rows(sel, p, n)
    if qr.nonzero_reflector_count < p:  # the rank formula
        raise SingularMatrixError("T - X^(p) is singular; use s_recursion or sign_fix")
    head = X[rows] if isinstance(rows, slice) else X.take(rows, 0)  # take gathers rows faster
    S = _solve(qr.T - head, _identity(p), "T - X^(p)")[0]
    return SProjector(S=S, rank=p, col_norms=qr.col_norms)


def s_recursion(Xortho, sel: RowSelection | None = None) -> SProjector:
    """Build S by the rank-one-update recursion on orthonormal columns.

    Step k+1 adds a rank-one term iff the pivot scalar
    1 - x_{k+1,k+1} - x_{k+1,1:k} S_k x_{k+1}^(k) is nonzero (equivalently
    the step-(k+1) reflector is nonzero); otherwise S is padded with zeros
    and the rank stays put.
    """
    X = as_matrix(Xortho)
    n, p = X.shape
    _check_orthonormal(X)
    head = X[_rows(sel, p, n)]

    S = np.zeros((0, 0))
    rank = 0
    for k in range(p):
        S, grew = _border(S, head, k, 1.0)
        rank += grew
    return SProjector(S=S, rank=rank, col_norms=np.ones(p))


def s_from_c(X, C, sel: RowSelection | None = None) -> SProjector:
    """S for a general normalizer C with X C^-1 orthonormal.

    Equals (C - X^(p))^-1 when that matrix is invertible; otherwise a
    generalized inverse of the same rank, via the recursion.
    """
    X = as_matrix(X)
    C = as_matrix(C)
    n, p = X.shape
    if C.shape != (p, p):
        raise ValueError(f"C must be {p}x{p}, got {C.shape}")
    Xt, lu, piv = _solve(C.T, X.T, "C")  # (X C^-1)^T, and the LU of C^T
    inner = s_recursion(Xt.T, sel)  # raises ValueError unless X C^-1 is orthonormal
    S = dgetrs(lu, piv, inner.S, trans=1)[0]  # C^-1 S from the same LU
    return SProjector(S=S, rank=inner.rank,
                      col_norms=np.hypot.reduce(C, axis=0))  # x_k = (X C^-1) C e_k


def sign_fix(C, X, sel: RowSelection | None = None) -> np.ndarray:
    """Diagonal of +-1 entries making D C - X^(p) non-singular.

    Greedy per-step choice keeping the growing principal block of
    D - X^(p) C^-1 invertible, with the block-inversion pivot maintained
    incrementally; O(p^3) total.  Every pivot is then d_k + base with
    |d_k + base| = 1 + |base| >= 1, so D C - X^(p) = (D - X^(p) C^-1) C is
    singular only when C is, which raises SingularMatrixError.
    """
    X = as_matrix(X)
    C = as_matrix(C)
    n, p = X.shape
    if C.shape != (p, p):
        raise ValueError(f"C must be {p}x{p}, got {C.shape}")
    M = _solve(C.T, X[_rows(sel, p, n)].T, "C")[0].T  # X^(p) C^-1

    d = np.zeros(p)
    Ainv = np.zeros((0, 0))
    for k in range(p):
        # the pivot is d_k + base; pick the sign that keeps it away from zero
        base = -M[k, k] - float(M[k, :k] @ (Ainv @ M[:k, k]))
        d[k] = 1.0 if abs(1.0 + base) >= abs(-1.0 + base) else -1.0
        Ainv, _ = _border(Ainv, M, k, d[k])
    return d


def orthocomplement_apply(sp: SProjector, X, x, sel: RowSelection | None = None) -> np.ndarray:
    """Evaluate x_(p) + X_(p) S x^(p) for x perpendicular to col(X)."""
    X = as_matrix(X)
    x = as_vector(x)
    n, p = X.shape
    if x.size != n:
        raise ValueError(f"vector length {x.size} != n = {n}")
    if sp.S.shape[0] != p:
        raise ValueError("projector size does not match X")
    # |x_k^T x| <= ORTHO_TOL ||x_k|| ||x|| for each column, so column scale cancels
    err = np.abs(X.T @ x) / sp.col_norms
    if not _every(err <= ORTHO_TOL * _norm(x)):  # a NaN fails too
        raise ValueError(f"x is not orthogonal to col(X) (|x_k^T x| / ||x_k|| {np.max(err):.3e})")
    return _apply_s(sp.S, X, x, sel)[1]


def rank_count(qr: HouseholderQR, X) -> int:
    """Count nonzero reflectors; asserted equal to the numerical rank of
    (T - X^(p)) T^-1 = I - Q11, in which column scale cancels."""
    X = as_matrix(X)
    if qr.n != X.shape[0] or qr.p != X.shape[1]:
        raise ValueError("factorization shape does not match X")
    nz = qr.nonzero_reflector_count
    est = _svd_rank(dtrtrs(qr.T, (qr.T - X[:qr.p]).T, trans=1)[0].T)
    if nz != est:
        raise ArithmeticError(
            f"rank formula violated: {nz} nonzero reflectors vs numerical rank {est}"
        )
    return nz
