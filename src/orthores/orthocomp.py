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

from .core import (ORTHO_TOL, SINGULAR_TOL, HouseholderQR, _every, _factor, _identity, _norm,
                   _record, as_matrix, as_vector, dgesv, dgetrs, dtrtrs, householder_qr)


class SingularMatrixError(ArithmeticError):
    """A matrix required to be invertible is numerically singular."""


@dataclass(frozen=True)
class RowSelection:
    """Which p rows of X play the role of the 'first p' rows: strictly increasing Python or
    numpy ints >= 0, kept as Python ints.  A float (even 1.0) or a bool raises TypeError."""

    indices: tuple[int, ...]

    def __init__(self, indices):
        if bool in map(type, indices := tuple(indices)):  # operator.index takes True as 1
            raise TypeError("row indices must be integers, not bools")
        idx = tuple(map(operator.index, indices))
        if idx and min(idx) < 0:
            raise ValueError("row indices must be non-negative")
        if not all(map(operator.lt, idx, idx[1:])):
            raise ValueError("row indices must be strictly increasing")
        self.__dict__.update(indices=idx, _index_array=np.array(idx, dtype=np.intp), _mask=None)
        self._index_array.flags.writeable = False  # built once per selection, and shared

    def permutation(self, n: int) -> np.ndarray:
        """Row order putting the selected rows first, the rest in increasing order."""
        idx = _rows(self, len(self.indices), n)
        if isinstance(idx, slice):  # the first rows already lead
            return np.arange(n)
        return np.concatenate([idx, self._unselected(n).nonzero()[0]])

    def _unselected(self, n: int) -> np.ndarray:
        """Read-only mask of the n rows outside the selection, kept for the last n."""
        mask = self._mask  # read once: another thread may store the mask of another n
        if mask is None or mask.size != n:
            mask = np.ones(n, dtype=bool)
            mask[self._index_array] = False
            mask.flags.writeable = False
            self.__dict__["_mask"] = mask
        return mask


def _rows(sel: RowSelection | None, p: int, n: int) -> slice | np.ndarray:
    """The p selected rows of an n-row array, checked against p and n: a slice
    for ``None`` or the first p rows, else an index array."""
    if sel is None:
        if p > n:
            raise ValueError(f"need p <= n, got {n}x{p}")
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
    v = S.dot(x[idx])  # fancy indexing gathers faster than take; dot: see fit_least_squares
    if isinstance(idx, slice):  # the first p rows: views suffice
        W = np.matmul(X[p:], v, out=out)  # not dot: its bits differ on a column-major X[p:]
        W += x[p:]  # in place, bit for bit, since a fresh n-row array page-faults again
        return v, W
    return v, (x + X.dot(v)).compress(sel._unselected(X.shape[0]), 0, out)  # axis 0


@dataclass(frozen=True)
class SProjector:
    """S with its rank, the norms ||x_k|| of the columns of the X it was built
    from, and ``design``: the projector's own column-major copy of that X, made
    by the builder, on which orthocomplement_apply runs."""

    S: np.ndarray
    rank: int
    col_norms: np.ndarray
    design: np.ndarray


def _recursion(M: np.ndarray, greedy: bool) -> tuple[np.ndarray, int, np.ndarray]:
    """S, its rank and the diagonal d (+-1) for the p x p block M: S is the
    (generalized) inverse of D - M, D = diag(d), grown one row and column a step.

    Step k's pivot (Schur complement) is d_k - M_kk - M_k,:k S M_:k,k.  d is all ones,
    or with ``greedy`` the sign that keeps the pivot furthest from zero.  A pivot below
    SINGULAR_TOL pads S with zeros and leaves the rank where it was."""
    p = M.shape[0]
    S, rank, d = np.zeros((0, 0)), 0, np.ones(p)
    for k in range(p):
        Scol = S @ M[:k, k]
        cross = float(M[k, :k] @ Scol)
        if greedy:  # the pivot is d_k + base
            base = -M[k, k] - cross
            d[k] = 1.0 if abs(1.0 + base) >= abs(-1.0 + base) else -1.0
        pivot = d[k] - M[k, k] - cross
        grown = np.zeros((k + 1, k + 1))
        grown[:k, :k] = S
        if not abs(pivot) < SINGULAR_TOL:  # a NaN pivot fails the test and grows S
            grown += np.outer(np.append(Scol, 1.0), np.append(M[k, :k] @ S, 1.0)) / pivot
            rank += 1
        S = grown
    return S, rank, d


def _solve(A: np.ndarray, B: np.ndarray, name: str) -> tuple[np.ndarray, ...]:
    """A^-1 B by one LAPACK dgesv call, with A's LU factors and pivots.

    A zero LU pivot or a non-finite result raises SingularMatrixError, or ValueError
    when A or B is not finite.  No tolerance, so scaling a column of A does not move it."""
    lu, piv, X, info = dgesv(A, B)
    if info > 0 or not _every(np.isfinite(X)):  # info < 0 (a bad argument) needs non-square
        if not (_every(np.isfinite(A)) and _every(np.isfinite(B))):  # the input is at fault
            raise ValueError("array must not contain infs or NaNs")
        raise SingularMatrixError(f"{name} is numerically singular")
    return X, lu, piv


def _svd_rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(M, compute_uv=False)  # descending; M = 0 counts no sv > 0
    return int(np.sum(sv > SINGULAR_TOL * sv[0]))


def _c_step(C, X: np.ndarray, sel: RowSelection | None = None, head: bool = False) -> tuple:
    """C, checked as a finite p x p matrix, with (B C^-1)^T and the LU factors and pivots
    of C^T, for B = X or, with ``head``, its selected p rows.  C is checked before the
    solve: an inf in C can leave dgesv's result finite."""
    n, p = X.shape
    C = as_matrix(C)
    if C.shape != (p, p):
        raise ValueError(f"C must be {p}x{p}, got {C.shape}")
    if not _every(np.isfinite(C)):
        raise ValueError("array must not contain infs or NaNs")
    return C, *_solve(C.T, (X[_rows(sel, p, n)] if head else X).T, "C")


def qr_for_selection(X, sel: RowSelection | None = None) -> HouseholderQR:
    """Standard-sign factorization of X with the selected rows permuted to the front."""
    X = as_matrix(X)
    n, p = X.shape
    if isinstance(idx := _rows(sel, p, n), slice):
        return householder_qr(X)
    perm = np.concatenate((idx, sel._unselected(n).nonzero()[0]))  # as sel.permutation(n)
    # p selected rows below n, so p <= n; two copies beat one take into Fortran order (ROADMAP)
    return _factor(np.asfortranarray(X.take(perm, 0)), p, X)[0]


def s_from_qr(qr: HouseholderQR, X, sel: RowSelection | None = None) -> SProjector:
    """S = (T - X^(p))^-1 from a standard-sign factorization.

    ``qr`` must come from X with the selected rows permuted to the front
    (see qr_for_selection).  By the rank formula, T - X^(p) is singular
    exactly when a reflector is zero; that, a zero LU pivot or a non-finite S
    raises SingularMatrixError.  No tolerance, so S(XD) = D^-1 S(X).
    """
    X = as_matrix(X, owned=True)
    n, p = X.shape
    if qr.n != n or qr.p != p:
        raise ValueError("factorization shape does not match X")
    rows = _rows(sel, p, n)
    if 0.0 in qr.tau.tolist():  # the rank formula: a zero reflector
        raise SingularMatrixError("T - X^(p) is singular; use s_recursion or sign_fix")
    head = X[rows]  # on a column-major X, take would first copy X to row-major
    S = _solve(qr.T - head, _identity(p), "T - X^(p)")[0]
    return _record(SProjector, S=S, rank=p, col_norms=qr.col_norms, design=X)


def s_recursion(Xortho, sel: RowSelection | None = None) -> SProjector:
    """S for orthonormal columns: s_from_c at C = I."""
    X = as_matrix(Xortho)
    return s_from_c(X, _identity(X.shape[1]), sel)


def s_from_c(X, C, sel: RowSelection | None = None) -> SProjector:
    """S for a general normalizer C with X C^-1 orthonormal.

    Equals (C - X^(p))^-1 when that matrix is invertible; otherwise a generalized
    inverse of the same rank.  S is C^-1 times the S of X C^-1, built by a rank-one-update
    recursion whose step k adds a rank-one term iff its pivot is nonzero (equivalently
    reflector k is nonzero); otherwise S is padded with zeros and the rank stays put.
    """
    X = as_matrix(X, owned=True)
    n, p = X.shape
    C, Qt, lu, piv = _c_step(C, X)  # Q^T = (X C^-1)^T, and the LU of C^T
    err = float(np.max(np.abs(Qt @ Qt.T - _identity(p))))  # Q's Gram error
    if not err < ORTHO_TOL:  # a NaN fails too
        raise ValueError(f"columns are not orthonormal (Gram error {err:.3e})")
    S, rank, _ = _recursion(Qt.T[_rows(sel, p, n)], greedy=False)
    S = dgetrs(lu, piv, S, trans=1)[0]  # C^-1 S from the same LU
    return SProjector(S=S, rank=rank, design=X,
                      col_norms=np.hypot.reduce(C, axis=0))  # x_k = (X C^-1) C e_k


def sign_fix(C, X, sel: RowSelection | None = None) -> np.ndarray:
    """Diagonal of +-1 entries making D C - X^(p) non-singular.

    s_from_c's recursion on X^(p) C^-1 with each d_k chosen greedily, so that every
    pivot is d_k + base with |d_k + base| = 1 + |base| >= 1; O(p^3) total.  Then
    D C - X^(p) = (D - X^(p) C^-1) C is singular only when C is, which raises
    SingularMatrixError.
    """
    Mt = _c_step(C, as_matrix(X), sel, head=True)[1]  # (X^(p) C^-1)^T
    return _recursion(Mt.T, greedy=True)[2]


def orthocomplement_apply(sp: SProjector, X, x, sel: RowSelection | None = None) -> np.ndarray:
    """Evaluate x_(p) + X_(p) S x^(p) for x perpendicular to col(X).

    The check and the formula run on ``sp.design``, the projector's own
    column-major copy of X, so ``X`` is checked only for its shape."""
    x = as_vector(x)
    design = sp.design
    n, p = design.shape
    if np.asarray(X).shape != (n, p) or sp.S.shape[0] != p:
        raise ValueError("projector size does not match X")
    if x.size != n:
        raise ValueError(f"vector length {x.size} != n = {n}")
    # |x_k^T x| <= ORTHO_TOL ||x_k|| ||x|| for each column, so column scale cancels
    err = np.abs(design.T @ x) / sp.col_norms
    if not _every(err <= ORTHO_TOL * _norm(x)):  # a NaN fails too
        raise ValueError(f"x is not orthogonal to col(X) (|x_k^T x| / ||x_k|| {np.max(err):.3e})")
    return _apply_s(sp.S, design, x, sel)[1]


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
