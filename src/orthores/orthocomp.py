"""The p x p projector matrix S and the closed-form orthocomplement action.

For x perpendicular to col(X), the action of the orthocomplement basis is
U2^T x = x_(p) + X_(p) S x^(p), where A^(p) / A_(p) denote the first p and
last n-p rows.  S = (T - X^(p))^-1 under the standard sign choice; a
rank-one-update recursion covers the singular cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STANDARD, HouseholderQR, SignPolicy, as_matrix, as_vector, householder_qr

# |pivot| below this is treated as a zero reflector in the recursion.
PIVOT_TOL = 1e-10

# Orthonormality of supplied columns is checked loosely; callers may pass
# Gram-Schmidt output.
ORTHO_TOL = 1e-8

RANK_SV_TOL = 1e-10


class SingularMatrixError(Exception):
    """A matrix required to be invertible is numerically singular."""


@dataclass(frozen=True)
class RowSelection:
    """Which p rows of X play the role of the 'first p' rows."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if any(i < 0 for i in idx):
            raise ValueError("row indices must be non-negative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("row indices must be strictly increasing")

    @classmethod
    def first(cls, p: int) -> "RowSelection":
        return cls(tuple(range(p)))

    def rows(self, n: int) -> np.ndarray:
        """The selected row indices as an index array, checked against n."""
        if self.indices and self.indices[-1] >= n:
            raise ValueError(f"row index {self.indices[-1]} out of range for n={n}")
        return np.array(self.indices, dtype=np.intp)

    def permutation(self, n: int) -> np.ndarray:
        """Row order putting the selected rows first, the rest in increasing order."""
        idx = self.rows(n)
        keep = np.ones(n, dtype=bool)
        keep[idx] = False
        return np.concatenate([idx, np.flatnonzero(keep)])


def _selection(sel: RowSelection | None, p: int) -> RowSelection:
    if sel is None:
        return RowSelection.first(p)
    if len(sel.indices) != p:
        raise ValueError(f"selection has {len(sel.indices)} rows, need p={p}")
    return sel


def _apply_s(S: np.ndarray, X: np.ndarray, x: np.ndarray,
             sel: RowSelection) -> tuple[np.ndarray, np.ndarray]:
    """v = S x^(p) and x_(p) + X_(p) v for a vector or an n x m block x,
    without permuting or gathering the n rows of X."""
    p = S.shape[0]
    idx = sel.rows(X.shape[0])
    if idx[-1] == p - 1:  # increasing indices, so rows 0..p-1: slices suffice
        v = S @ x[:p]
        return v, x[p:] + X[p:] @ v
    v = S @ x[idx]
    return v, np.delete(x + X @ v, idx, axis=0)  # every row, then drop the p selected


@dataclass(frozen=True)
class SProjector:
    """S with its rank and the normalizer it was derived from.

    ``normalizer`` is T from the QR route, C from the orthonormalizing
    route, or I_p for the raw recursion on orthonormal columns.
    """

    p: int
    S: np.ndarray
    rank: int
    normalizer: np.ndarray
    source: str  # "from-t" | "from-c" | "recursion"


def _svd_rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_SV_TOL * sv[0]))


def _check_orthonormal(X: np.ndarray) -> None:
    gram = X.T @ X
    err = float(np.max(np.abs(gram - np.eye(X.shape[1]))))
    if err >= ORTHO_TOL:
        raise ValueError(f"columns are not orthonormal (Gram error {err:.3e})")


def qr_for_selection(X, sel: RowSelection | None = None,
                     policy: SignPolicy = STANDARD) -> HouseholderQR:
    """Factor X with the selected rows permuted to the front."""
    X = as_matrix(X)
    sel = _selection(sel, X.shape[1])
    return householder_qr(X[sel.permutation(X.shape[0])], policy)


def s_from_qr(qr: HouseholderQR, X, sel: RowSelection | None = None) -> SProjector:
    """S = (T - X^(p))^-1 from a standard-sign factorization.

    ``qr`` must come from X with the selected rows permuted to the front
    (see qr_for_selection).  Raises SingularMatrixError when T - X^(p) is
    singular, which cannot happen under the standard sign policy.
    """
    X = as_matrix(X)
    n, p = X.shape
    if qr.n != n or qr.p != p:
        raise ValueError("factorization shape does not match X")
    sel = _selection(sel, p)
    head = X[sel.rows(n)]
    M = qr.T - head
    if _svd_rank(M) < p:
        raise SingularMatrixError("T - X^(p) is singular; use s_recursion or sign_fix")
    S = np.linalg.solve(M, np.eye(p))
    return SProjector(p=p, S=S, rank=p, normalizer=qr.T.copy(), source="from-t")


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
    sel = _selection(sel, p)
    head = X[sel.rows(n)]

    S = np.zeros((0, 0))
    rank = 0
    for k in range(p):
        col = head[:k, k]           # x_{k+1}^(k)
        row = head[k, :k]           # x_{k+1,1:k}
        Scol = S @ col
        pivot = 1.0 - head[k, k] - float(row @ Scol)
        grown = np.zeros((k + 1, k + 1))
        grown[:k, :k] = S
        if abs(pivot) >= PIVOT_TOL:
            left = np.append(Scol, 1.0)
            right = np.append(row @ S, 1.0)
            grown += np.outer(left, right) / pivot
            rank += 1
        S = grown
    return SProjector(p=p, S=S, rank=rank, normalizer=np.eye(p), source="recursion")


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
    if _svd_rank(C) < p:
        raise SingularMatrixError("C is singular")
    Xt = np.linalg.solve(C.T, X.T).T
    _check_orthonormal(Xt)
    inner = s_recursion(Xt, sel)
    S = np.linalg.solve(C, inner.S)
    return SProjector(p=p, S=S, rank=inner.rank, normalizer=C.copy(), source="from-c")


def sign_fix(C, X, sel: RowSelection | None = None) -> np.ndarray:
    """Diagonal of +-1 entries making D C - X^(p) non-singular.

    Greedy per-step choice keeping the growing principal block of
    D - X^(p) C^-1 invertible, with the block-inversion pivot maintained
    incrementally; O(p^3) total.
    """
    X = as_matrix(X)
    C = as_matrix(C)
    n, p = X.shape
    if C.shape != (p, p):
        raise ValueError(f"C must be {p}x{p}, got {C.shape}")
    sel = _selection(sel, p)
    head = X[sel.rows(n)]
    M = np.linalg.solve(C.T, head.T).T  # X^(p) C^-1

    d = np.zeros(p)
    Ainv = np.zeros((0, 0))
    for k in range(p):
        b = -M[:k, k]
        c = -M[k, :k]
        base = -M[k, k] - float(c @ (Ainv @ b))
        s = 1.0 if abs(1.0 + base) >= abs(-1.0 + base) else -1.0
        pivot = s + base
        Ab = Ainv @ b
        cA = c @ Ainv
        grown = np.zeros((k + 1, k + 1))
        grown[:k, :k] = Ainv + np.outer(Ab, cA) / pivot
        grown[:k, k] = -Ab / pivot
        grown[k, :k] = -cA / pivot
        grown[k, k] = 1.0 / pivot
        Ainv = grown
        d[k] = s

    fixed = np.diag(d) @ C - head
    sv = np.linalg.svd(fixed, compute_uv=False)
    if sv[-1] <= 1e-12 * float(np.linalg.norm(C)):
        raise SingularMatrixError("sign fix failed to produce a well-conditioned matrix")
    return d


def orthocomplement_apply(sp: SProjector, X, x, sel: RowSelection | None = None) -> np.ndarray:
    """Evaluate x_(p) + X_(p) S x^(p) for x perpendicular to col(X)."""
    X = as_matrix(X)
    x = as_vector(x)
    n, p = X.shape
    if x.size != n:
        raise ValueError(f"vector length {x.size} != n = {n}")
    if sp.p != p:
        raise ValueError("projector size does not match X")
    sel = _selection(sel, p)
    xnorm = float(np.linalg.norm(x))
    if xnorm > 0.0:
        err = float(np.max(np.abs(X.T @ x)))
        if err >= ORTHO_TOL * xnorm:
            raise ValueError(f"x is not orthogonal to col(X) (|X^T x| = {err:.3e})")
    return _apply_s(sp.S, X, x, sel)[1]


def rank_count(qr: HouseholderQR, X) -> int:
    """Count nonzero reflectors; asserted equal to rank(T - X^(p))."""
    X = as_matrix(X)
    if qr.n != X.shape[0] or qr.p != X.shape[1]:
        raise ValueError("factorization shape does not match X")
    nz = qr.nonzero_reflector_count
    est = _svd_rank(qr.T - X[:qr.p])
    if nz != est:
        raise RuntimeError(
            f"rank formula violated: {nz} nonzero reflectors vs numerical rank {est}"
        )
    return nz
