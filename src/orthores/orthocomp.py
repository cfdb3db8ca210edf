"""The p x p projector matrix S and the closed-form orthocomplement action.

For x perpendicular to col(X), the action of the orthocomplement basis is
U2^T x = x_(p) + X_(p) S x^(p), where A^(p) / A_(p) denote the first p and
last n-p rows.  S = (T - X^(p))^-1 under the standard sign choice; a
rank-one-update recursion covers the singular cases.  orthocomplement_apply
runs it at C = I on an orthonormal basis Q1 of col(X): X_(p) S = Q1_(p) K,
K = (I - Q1^(p))^-1, which X's conditioning and column scale do not enter.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (ORTHO_TOL, SINGULAR_TOL, HouseholderQR, _check_finite, _every, _factor,
                   _identity, _norm, _record, as_matrix, as_vector, dgesv, dgetrs, dormqr,
                   dtrtrs, householder_qr)


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
        self.__dict__.update(indices=idx, _kept=None)

    def permutation(self, n: int) -> np.ndarray:
        """Read-only row order putting the selected rows first, the rest in increasing order."""
        _rows(self, len(self.indices), n)
        return self._order(n)

    def _order(self, n: int) -> np.ndarray:
        """The row order of permutation(n), built once and kept for the last n."""
        order = self._kept  # read once: another thread may store the order of another n
        if order is None or order.size != n:
            head, rest = np.array(self.indices, dtype=np.intp), np.ones(n, dtype=bool)
            rest[head] = False
            order = np.concatenate((head, rest.nonzero()[0]))
            order.flags.writeable = False
            self.__dict__["_kept"] = order
        return order


def _rows(sel: RowSelection | None, p: int, n: int) -> slice | np.ndarray:
    """The p selected rows of an n-row array, checked against p and n: a slice
    for ``None`` or the first p rows, else the head of the selection's row order."""
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
    return sel._order(n)[:p]


def _apply_s(S: np.ndarray, X: np.ndarray, x: np.ndarray, sel: RowSelection | None,
             out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """v = S x^(p) and x_(p) + X_(p) v, written to ``out`` if given, for a vector
    or an n x m block x, without permuting or gathering the n rows of X."""
    n, p = X.shape[0], S.shape[0]
    idx = _rows(sel, p, n)
    v = S.dot(x[idx])  # fancy indexing gathers faster than take; dot: matmul's bits, less dispatch
    if isinstance(idx, slice):  # the first p rows: views suffice
        W = np.matmul(X[p:], v, out=out)  # not dot: its bits differ on a column-major X[p:]
        W += x[p:]  # in place, bit for bit, since a fresh n-row array page-faults again
        return v, W
    return v, (x + X.dot(v)).take(sel._order(n)[p:], 0, out)  # axis 0


@dataclass(frozen=True)
class SProjector:
    """S with its rank, ``qr``: the factorization s_from_qr was given (``None`` from
    s_from_c, which sets ``frame`` itself), and ``sel``: the row selection it was built
    for (``None``: the first p rows)."""

    S: np.ndarray
    rank: int
    qr: HouseholderQR | None
    sel: RowSelection | None = None

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q1, K), on which orthocomplement_apply runs: Q1 = H_1 ... H_p [I; 0], an
        orthonormal basis of col(X), column-major and in X's row order, and
        K = (I - Q1^(p))^-1, so that X_(p) S = Q1_(p) K.  Built on the first apply and kept."""
        if self.qr is None:  # only a projector built directly: s_from_c stores its frame
            raise ValueError("projector has no factorization to build its frame from")
        n, p = self.qr.n, self.qr.p
        rows = _rows(self.sel, p, n)
        Q1 = dormqr("L", "N", self.qr.packed, self.qr.tau, np.eye(n, p, order="F"), 64 * p,
                    overwrite_c=1)[0]
        if not isinstance(rows, slice):  # qr's rows run in the selection's order: put back X's
            Q1, by_sel = np.empty_like(Q1), Q1
            Q1[self.sel._order(n)] = by_sel
        return Q1, _solve(_identity(p) - Q1[rows], _identity(p), "I - Q1^(p)")[0]

    def _selection(self, sel: RowSelection | None) -> RowSelection | None:
        """The projector's own selection, for ``sel`` None or one that picks the same rows
        (``None`` and an explicit 0..p-1 both pick the first p); another raises ValueError."""
        own = self.sel
        if sel is not None and sel is not own and sel.indices != (
                tuple(range(self.S.shape[0])) if own is None else own.indices):
            raise ValueError("projector was built for another row selection")
        return own


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


def _c_step(C, B: np.ndarray) -> tuple:
    """C, checked as a finite p x p matrix for B's p columns, with (B C^-1)^T and C^T's LU
    factors and pivots; C is checked first, since an inf in C can leave dgesv's result finite."""
    p = B.shape[1]
    C = as_matrix(C)
    if C.shape != (p, p):
        raise ValueError(f"C must be {p}x{p}, got {C.shape}")
    if not _every(np.isfinite(C)):
        raise ValueError("array must not contain infs or NaNs")
    return C, *_solve(C.T, B.T, "C")


def qr_for_selection(X, sel: RowSelection | None = None) -> HouseholderQR:
    """Standard-sign factorization of X with the selected rows permuted to the front."""
    X = as_matrix(X)
    n, p = X.shape
    if isinstance(_rows(sel, p, n), slice):
        return householder_qr(X)
    # p selected rows below n, so p <= n; two copies beat one take into Fortran order (ROADMAP)
    return _factor(np.asfortranarray(X.take(sel._order(n), 0)), p, X)[0]


def s_from_qr(qr: HouseholderQR, X, sel: RowSelection | None = None) -> SProjector:
    """S = (T - X^(p))^-1 from a standard-sign factorization.

    ``qr`` must come from X with the selected rows permuted to the front
    (see qr_for_selection).  By the rank formula, T - X^(p) is singular
    exactly when a reflector is zero; that, a zero LU pivot or a non-finite S
    raises SingularMatrixError.  No tolerance, so S(XD) = D^-1 S(X).
    """
    X = np.asarray(X, dtype=np.float64)  # only its selected rows are read, so X is not copied
    if X.shape != (qr.n, qr.p):
        raise ValueError("factorization shape does not match X")
    rows = _rows(sel, qr.p, qr.n)
    # the rank formula: a zero reflector, kept for a to-positive or custom qr passed in; on the
    # standard path _factor's fix-up leaves none (test_singular_under_custom_policy pins this)
    if 0.0 in qr.tau.tolist():
        raise SingularMatrixError("T - X^(p) is singular; use s_recursion or sign_fix")
    head = X[rows]  # on a column-major X, take would first copy X to row-major
    S = _solve(qr.T - head, _identity(qr.p), "T - X^(p)")[0]
    return _record(SProjector, S=S, rank=qr.p, qr=qr, sel=sel)


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
    X = as_matrix(X)
    n, p = X.shape
    C, Qt, lu, piv = _c_step(C, X)  # Q^T = (X C^-1)^T, and the LU of C^T
    err = float(np.max(np.abs(Qt @ Qt.T - _identity(p))))  # Q's Gram error
    if not err < ORTHO_TOL:  # a NaN fails too
        raise ValueError(f"columns are not orthonormal (Gram error {err:.3e})")
    K, rank, _ = _recursion(Qt.T[_rows(sel, p, n)], greedy=False)  # the S of Q = X C^-1
    S = dgetrs(lu, piv, K, trans=1)[0]  # C^-1 K from the same LU
    return _record(SProjector, S=S, rank=rank, qr=None, sel=sel, frame=(Qt.T, K))


def sign_fix(C, X, sel: RowSelection | None = None) -> np.ndarray:
    """Diagonal of +-1 entries making D C - X^(p) non-singular.

    s_from_c's recursion on X^(p) C^-1 with each d_k chosen greedily, so that every
    pivot is d_k + base with |d_k + base| = 1 + |base| >= 1; O(p^3) total.  Then
    D C - X^(p) = (D - X^(p) C^-1) C is singular only when C is, which raises
    SingularMatrixError.
    """
    X = as_matrix(X)
    Mt = _c_step(C, X[_rows(sel, X.shape[1], X.shape[0])])[1]  # (X^(p) C^-1)^T
    return _recursion(Mt.T, greedy=True)[2]


def orthocomplement_apply(sp: SProjector, X, x, sel: RowSelection | None = None) -> np.ndarray:
    """Evaluate x_(p) + X_(p) S x^(p) for x perpendicular to col(X), on the rows of
    ``sp.sel``; a ``sel`` that picks other rows raises ValueError.

    The guard and the formula run on ``sp.frame``, as x_(p) + Q1_(p) K x^(p): the
    paper's formula at C = I on an orthonormal basis Q1 of col(X), whatever X's column
    scale, so ``X`` is checked only for its shape."""
    x = as_vector(x)
    sel = sp._selection(sel)
    Q1, K = sp.frame
    n, p = Q1.shape
    if np.asarray(X).shape != (n, p) or sp.S.shape[0] != p:
        raise ValueError("projector size does not match X")
    if x.size != n:
        raise ValueError(f"vector length {x.size} != n = {n}")
    if not math.isfinite(x_norm := _norm(x)):  # an inf or NaN in x, or ||x|| past the float range
        _check_finite([x_norm], x, "x is finite, but its norm exceeds the float range")
    if not (err := _norm(Q1.T.dot(x))) <= ORTHO_TOL * x_norm:  # each |q_k^T x| <= ||x||
        raise ValueError(f"x is not orthogonal to col(X) (||Q1^T x|| / ||x|| {err / x_norm:.3e})")
    return _apply_s(K, Q1, x, sel)[1]


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
