"""Dense Householder-reflection machinery and QR factorization.

All matrices are plain float64 numpy arrays in row-major order.  Reflectors
are stored full length with leading zeros; a reflector may be exactly the
zero vector, in which case the corresponding reflection is the identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgeqrt

# Pivot tail below this fraction of ||X||_F means the column is linearly
# dependent on the previous ones.
RANK_TOL = 1e-12

# Relative threshold under which the pivot cancellation is treated as exact,
# producing a zero reflector (H = I).
CANCEL_TOL = 1e-12


class RankDeficiencyError(Exception):
    """The input matrix does not have full column rank."""


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
    """Implicit product of p reflections with the triangular factor T.

    ``reflectors[k]`` is v_{k+1}, zero in its first k components; ``vnorm2``
    caches ||v||^2 (0.0 marks an identity reflection).
    """

    n: int
    p: int
    reflectors: tuple[np.ndarray, ...]
    vnorm2: tuple[float, ...]
    T: np.ndarray

    @property
    def nonzero_reflector_count(self) -> int:
        return sum(1 for w in self.vnorm2 if w > 0.0)


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
    norm = float(np.linalg.norm(tail))
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
    vn2 = float(v @ v)
    if vn2 == 0.0:
        return x.copy()
    return x - (2.0 * (v @ x) / vn2) * v


def householder_qr(X, policy: SignPolicy = STANDARD) -> HouseholderQR:
    """Factor X as H_1 ... H_p [T; 0] with T upper triangular.

    Under the standard policy this is one LAPACK ``dgeqrt`` call, converted
    to the same reflectors; other policies build each reflector in a loop.
    Raises RankDeficiencyError when a pivot tail norm falls below
    RANK_TOL * ||X||_F.
    """
    X = as_matrix(X)
    n, p = X.shape
    if p > n:
        raise ValueError(f"need p <= n, got {n}x{p}")
    if policy.kind == "custom" and len(policy.signs) != p:
        raise ValueError(f"custom policy has {len(policy.signs)} signs, need {p}")
    scale = float(np.linalg.norm(X))
    if policy.kind == "standard":
        return _standard_qr(X, scale)
    signs = policy.signs or (-1,) * p
    A = X.copy()
    reflectors = []
    vnorm2 = []
    for k in range(p):
        norm = float(np.linalg.norm(A[k:, k]))
        if norm <= RANK_TOL * scale:
            raise _rank_deficiency(k, norm)
        v = make_reflector(A[:, k], k + 1, signs[k])
        vn2 = float(v @ v)
        if vn2 > 0.0:
            A[k:, k:] -= np.outer(v[k:], (2.0 / vn2) * (v[k:] @ A[k:, k:]))
        A[k + 1:, k] = 0.0  # with v = 0 (H_k = I) this drops the sub-diagonal dust
        reflectors.append(v)
        vnorm2.append(vn2)
    T = np.triu(A[:p, :p])
    return HouseholderQR(n=n, p=p, reflectors=tuple(reflectors), vnorm2=tuple(vnorm2), T=T)


def _rank_deficiency(k: int, norm: float) -> RankDeficiencyError:
    return RankDeficiencyError(
        f"rank deficiency detected at column {k + 1}: pivot tail norm {norm:.3e}"
    )


@functools.lru_cache(maxsize=64)
def _upper_mask(p: int) -> np.ndarray:
    """Read-only mask of the upper triangle (with the diagonal) of a p x p matrix."""
    mask = np.triu(np.ones((p, p), dtype=bool))
    mask.flags.writeable = False
    return mask


def _standard_qr(X: np.ndarray, scale: float) -> HouseholderQR:
    """Standard-sign factorization from LAPACK's H_k = I - tau_k u_k u_k^T.

    dlarfg picks T_kk = -sgn(pivot) * (pivot tail norm), the standard sign;
    adding 0.0 turns a -0.0 pivot, for which it picks +, into +0.0.  Then
    v_k = -tau_k T_kk u_k.  A zero tail gives tau_k = 0 (H_k = I) where the
    standard reflector is v_k = 2 T_kk e_k, which only negates row k of T.
    """
    n, p = X.shape
    a, wy, _ = dgeqrt(p, np.add(X, 0.0, order="F"), overwrite_a=True)  # info < 0 needs p > n
    diag = a.diagonal().tolist()
    for k, t in enumerate(diag):  # |T_kk| is the pivot tail norm; stop at the first small one
        if abs(t) <= RANK_TOL * scale:
            raise _rank_deficiency(k, abs(t))
    tau = wy.diagonal().tolist()
    identity = [k for k, t in enumerate(tau) if t == 0.0]
    coef = np.array([2.0 * d if t == 0.0 else -t * d for d, t in zip(diag, tau)])
    up = _upper_mask(p)
    T = np.where(up, a[:p], 0.0)
    if identity:
        T[identity] = 0.0 - T[identity]  # 0.0 - keeps the zeros positive
    V = a.T.copy()  # row k: u_k below its unit entry; T^T in the leading block
    V[:, :p][up.T] = 0.0
    V.ravel()[::n + 1] = 1.0  # the unit entries u_kk, at flat index k (n + 1)
    V *= coef[:, None]
    vnorm2 = np.einsum("ij,ij->i", V, V)
    return HouseholderQR(n=n, p=p, reflectors=tuple(V), vnorm2=tuple(vnorm2.tolist()), T=T)


def _reflect_all(qr: HouseholderQR, x, steps) -> np.ndarray:
    """Apply the reflections given as (v, ||v||^2) pairs in ``steps``, in order."""
    x = as_vector(x)
    if x.size != qr.n:
        raise ValueError(f"vector length {x.size} != n = {qr.n}")
    y = x.copy()
    for v, vn2 in steps:
        if vn2 > 0.0:
            y -= (2.0 * (v @ y) / vn2) * v
    return y


def apply_Qt(qr: HouseholderQR, x) -> np.ndarray:
    """Apply H_p ... H_1 (= U^T) to x in O(np) operations."""
    return _reflect_all(qr, x, zip(qr.reflectors, qr.vnorm2))


def apply_Q(qr: HouseholderQR, x) -> np.ndarray:
    """Apply H_1 ... H_p (= U) to x; inverse of apply_Qt."""
    return _reflect_all(qr, x, zip(reversed(qr.reflectors), reversed(qr.vnorm2)))


def reconstruct(qr: HouseholderQR) -> np.ndarray:
    """Rebuild X = H_1 ... H_p [T; 0] in one pass over the reflectors."""
    A = np.zeros((qr.n, qr.p))
    A[:qr.p] = qr.T
    for k in reversed(range(qr.p)):  # reflector k is zero in rows < k, where columns < k end
        v, vn2 = qr.reflectors[k], qr.vnorm2[k]
        if vn2 > 0.0:
            A[k:, k:] -= np.outer(v[k:], (2.0 / vn2) * (v[k:] @ A[k:, k:]))
    return A


def explicit_orthocomplement_basis(qr: HouseholderQR) -> np.ndarray:
    """Materialize U_2, the last n-p columns of H_1 ... H_p.

    This is the O(n^2 p) brute-force route, kept as the oracle for the
    closed-formula orthocomplement action.
    """
    n, p = qr.n, qr.p
    if p >= n:
        raise ValueError("orthocomplement is empty when p = n")
    M = np.zeros((n, n - p))
    M[p:, :] = np.eye(n - p)
    for v, vn2 in zip(reversed(qr.reflectors), reversed(qr.vnorm2)):
        if vn2 > 0.0:
            M -= np.outer(v, (2.0 / vn2) * (v @ M))
    return M
