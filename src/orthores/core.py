"""Dense Householder-reflection machinery and QR factorization.

All matrices are plain float64 numpy arrays in row-major order.  A
factorization keeps its reflectors in LAPACK's ``dgeqrf`` layout (see
HouseholderQR) and applies them with one ``dormqr`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgeqrfp, dgeqrt, dormqr

# Pivot tail below this fraction of ||x_k|| means column k is linearly dependent
# on the previous ones (per column, so the scale of each column cancels).
RANK_TOL = 1e-12

# Relative threshold under which the pivot cancellation is treated as exact,
# producing a zero reflector (H = I).
CANCEL_TOL = 1e-12


class RankDeficiencyError(Exception):
    """The input matrix does not have full column rank."""


def _norm(v: np.ndarray) -> float:
    """||v||_2 with no overflow, underflow or warning: np.linalg.norm's sqrt(v . v) where
    v . v is finite and normal, else np.hypot.reduce, scaled as in Higham (2002) and dnrm2."""
    ss = float(np.vdot(v, v))  # vdot tests no floating-point flags, so needs no errstate
    if 2.0 ** -1022 <= ss < math.inf:
        return math.sqrt(ss)
    with np.errstate(over="ignore", under="ignore"):
        return float(np.hypot.reduce(v))


def _every(mask: np.ndarray) -> bool:
    """mask.all(), without the Python-level dispatch of ndarray.all, which
    costs more than the test itself on the few entries of a p-sized check."""
    return np.count_nonzero(mask) == mask.size


def as_matrix(a) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("expected a 2-D matrix with at least one row and column")
    return m


def as_vector(a) -> np.ndarray:
    v = np.ascontiguousarray(a, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D vector with at least one entry")
    return v


@dataclass(frozen=True)
class SignPolicy:
    """Which sign d_k to use when building reflector k.

    "standard" picks d_k = sgn(pivot) (with sgn(0) = +1), which avoids
    cancellation and guarantees nonzero reflectors for full-rank input.
    "to-positive" always maps the pivot column to the positive axis
    direction (d_k = -1).  "custom" uses an explicit sequence of +-1.
    """

    kind: str
    signs: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("standard", "to-positive", "custom"):
            raise ValueError(f"unknown sign policy kind: {self.kind!r}")
        if (self.kind == "custom") != (self.signs is not None):
            raise ValueError("custom policy requires signs, others forbid them")
        if self.signs is not None and any(s not in (-1, 1) for s in self.signs):
            raise ValueError("custom signs must all be +1 or -1")

    @classmethod
    def custom(cls, signs: Sequence[int]) -> "SignPolicy":
        return cls("custom", tuple(int(s) for s in signs))


STANDARD = SignPolicy("standard")
TO_POSITIVE = SignPolicy("to-positive")


@dataclass(frozen=True)
class HouseholderQR:
    """Implicit product H_1 ... H_p of p reflections with the triangular factor T.

    H_k = I - tau[k] u_k u_k^T, where u_k is zero above its unit entry k and
    ``packed[k + 1:, k]`` below it: LAPACK's ``dgeqrf`` layout, n x p in
    Fortran order, whose entries on and above the diagonal are not read.
    tau[k] = 0 marks an identity reflection.  col_norms[k] is ||x_k||.
    """

    n: int
    p: int
    packed: np.ndarray
    tau: np.ndarray
    T: np.ndarray
    col_norms: np.ndarray

    @property
    def nonzero_reflector_count(self) -> int:
        return int(np.count_nonzero(self.tau))


def make_reflector(x, k: int, sign: int) -> np.ndarray:
    """Reflector v with zeros in components 1..k-1 sending x to a multiple
    of e_k while leaving components 1..k-1 of x unchanged.

    Returns the all-zero vector when the pivot cancellation is exact
    (the reflection is then the identity).
    """
    x = as_vector(x)
    n = x.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for vector of length {n}")
    d = float(sign)
    if d not in (-1.0, 1.0):
        raise ValueError("sign must be +1 or -1")
    tail = x[k - 1:]
    norm = float(np.hypot.reduce(tail))  # no overflow or underflow near 1e+-200
    if norm == 0.0:
        raise RankDeficiencyError(f"all-zero tail from component {k}")
    v = np.zeros(n)
    v[k - 1:] = tail
    v[k - 1] += d * norm
    if abs(v[k - 1]) <= CANCEL_TOL * norm:
        return np.zeros(n)
    return v


def apply_reflection(v, x) -> np.ndarray:
    """Apply (I - 2 v v^T / ||v||^2) to x; identity when v = 0."""
    v = as_vector(v)
    x = as_vector(x)
    if v.size != x.size:
        raise ValueError("reflector and vector lengths differ")
    vn = float(np.hypot.reduce(v))  # v @ v would overflow or underflow near 1e+-200
    u = v / vn if vn > 0.0 else v
    return x - (2.0 * (u @ x)) * u


def householder_qr(X, policy: SignPolicy = STANDARD) -> HouseholderQR:
    """Factor X as H_1 ... H_p [T; 0] with T upper triangular.

    Under the standard policy this is one LAPACK ``dgeqrt`` call; other policies
    run ``dgeqrfp`` per pivot column and ``dormqr`` on the block to its right.
    Raises ValueError for an inf or NaN in X, else RankDeficiencyError at
    the first column that _check_column finds dependent on the previous ones.
    """
    X = as_matrix(X)
    n, p = X.shape
    if p > n:
        raise ValueError(f"need p <= n, got {n}x{p}")
    if policy.kind == "custom" and len(policy.signs) != p:
        raise ValueError(f"custom policy has {len(policy.signs)} signs, need {p}")
    if policy.kind == "standard":
        return _factor(np.add(X, 0.0, order="F"), p)[0]
    col_norms = np.hypot.reduce(X, axis=0)  # ||x_k||, with no overflow near 1e200
    A = np.array(X, order="F")  # ends with the reflectors below its diagonal and T on and above
    tau = np.zeros(p)
    for k, (d, col_norm) in enumerate(zip(policy.signs or (-1,) * p, _check_finite(col_norms))):
        # dlarfp's reflector sends -d x to +||x|| e_1, so it sends x to -d ||x|| e_1
        a, t, _ = dgeqrfp(-d * A[k:, k:k + 1])
        _check_column(k, a[0, 0], col_norm)  # a[0, 0] is the pivot tail norm, taken by dnrm2
        if t[0] <= CANCEL_TOL:  # dlarfp's tau_k = |v_k| / (pivot tail norm): H_k = I
            A[k + 1:, k] = 0.0
            continue
        A[k:, k + 1:] = dormqr("L", "T", a, t, A[k:, k + 1:], p)[0]
        A[k, k], A[k + 1:, k], tau[k] = -d * a[0, 0], a[1:, 0], t[0]
    return HouseholderQR(n=n, p=p, packed=A, tau=tau, T=np.triu(A[:p]), col_norms=col_norms)


def _check_finite(col_norms: np.ndarray) -> list[float]:
    """The finiteness gate of every factorization: all column norms, before any rank test."""
    if not all(map(math.isfinite, norms := col_norms.tolist())):
        raise ValueError("array must not contain infs or NaNs")
    return norms


def _check_column(k: int, tail: float, col_norm: float) -> None:
    """The rank test: column k is dependent when its pivot tail <= RANK_TOL ||x_k||."""
    if tail <= RANK_TOL * col_norm:
        raise RankDeficiencyError(
            f"rank deficiency detected at column {k + 1}: pivot tail norm {tail:.3e}"
        )


@lru_cache(maxsize=64)
def _strict_lower(p: int) -> np.ndarray:
    """The p x p mask below the diagonal; read-only, since callers share it."""
    mask = np.tri(p, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=64)
def _identity(p: int) -> np.ndarray:
    """The p x p identity; read-only, since callers share it."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


def _factor(A: np.ndarray, p: int) -> tuple[HouseholderQR, np.ndarray]:
    """The standard-sign QR of the first p columns of A, an n x m Fortran-order
    array (m >= p) that LAPACK's ``dgeqrt`` overwrites, and the array itself.

    With block size p the first p columns are dgeqrt's first panel, so they
    factor as they would alone, and the top p rows of any further column end
    as (Q^T a_j)^(p).  dlarfg picks T_kk = -sgn(pivot) * (pivot tail norm),
    the standard sign; a -0.0 pivot, for which it picks +, needs A's -0.0
    entries turned into +0.0 first.  A zero tail gives tau_k = 0 (H_k = I)
    where the standard reflection is I - 2 e_k e_k^T, which only negates row
    k, the entries of further columns included.  dgeqrf writes the same
    layout, but took 8 ms against 0.05 ms at 2000x6 (2-core VM, 2 BLAS
    threads).
    """
    n = A.shape[0]
    a, wy, _ = dgeqrt(p, A, overwrite_a=True)  # info < 0 needs p > n
    tau = wy.diagonal().copy()  # the first block factor's diagonal; the rest is not kept
    if np.count_nonzero(tau) < p:
        for k in np.flatnonzero(tau == 0.0).tolist():  # u_k is zero below the diagonal already
            a[k, k:] = 0.0 - a[k, k:]  # 0.0 - keeps the zeros positive
            tau[k] = 2.0
    T = a[:p, :p].copy()  # C order; below its diagonal a holds the reflectors
    T[_strict_lower(p)] = 0.0
    col_norms = np.hypot.reduce(T, axis=0)  # ||T e_k|| = ||x_k||; row signs do not move it
    for k, (t, col_norm) in enumerate(zip(T.diagonal().tolist(), _check_finite(col_norms))):
        _check_column(k, abs(t), col_norm)  # |T_kk| is the pivot tail norm
    qr = HouseholderQR(n=n, p=p, packed=a[:, :p], tau=tau, T=T, col_norms=col_norms)
    return qr, a


def _dormqr(qr: HouseholderQR, trans: str, C: np.ndarray) -> np.ndarray:
    """H_1 ... H_p C (trans "N") or H_p ... H_1 C ("T"), C n x m and left unchanged."""
    # workspace >= the columns of C (1 or p); from p of about 70 it lets dormqr block the update
    return dormqr("L", trans, qr.packed, qr.tau, C, 64 * qr.p)[0]


def apply_Qt(qr: HouseholderQR, x) -> np.ndarray:
    """Apply H_p ... H_1 (= U^T) to x in O(np) operations."""
    x = as_vector(x)
    if x.size != qr.n:
        raise ValueError(f"vector length {x.size} != n = {qr.n}")
    return _dormqr(qr, "T", x[:, None])[:, 0]


def reconstruct(qr: HouseholderQR) -> np.ndarray:
    """Rebuild X = H_1 ... H_p [T; 0]."""
    A = np.zeros((qr.n, qr.p), order="F")
    A[:qr.p] = qr.T
    return _dormqr(qr, "N", A)


def explicit_orthocomplement_basis(qr: HouseholderQR) -> np.ndarray:
    """Materialize U_2, the last n-p columns of H_1 ... H_p.

    This is the O(n^2 p) brute-force route, kept as the oracle for the
    closed-formula orthocomplement action; it applies the reflections in
    its own loop, not through LAPACK.
    """
    n, p = qr.n, qr.p
    if p >= n:
        raise ValueError("orthocomplement is empty when p = n")
    M = np.zeros((n, n - p))
    np.fill_diagonal(M[p:], 1.0)
    for k in reversed(range(p)):  # u_k is zero above row k
        if qr.tau[k] != 0.0:
            u = np.concatenate(([1.0], qr.packed[k + 1:, k]))
            for j in range(0, n - p, 256):  # in column blocks: no temporary is the size of M
                M[k:, j:j + 256] -= np.outer(qr.tau[k] * u, u @ M[k:, j:j + 256])
    return M
