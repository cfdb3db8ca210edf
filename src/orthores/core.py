"""Dense Householder-reflection machinery and QR factorization.

All matrices are float64 numpy arrays, row-major except the column-major
copies: a factorization's reflectors, in the LAPACK ``dgeqrf`` layout (see
HouseholderQR) that one ``dormqr`` call applies, and ``as_matrix(owned=True)``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Sequence

import numpy as np
import scipy


def _flapack(directory: str):
    """The module whose LAPACK wrappers scipy.linalg.lapack re-exports, loaded from ``directory``
    without scipy/linalg/__init__.py, which imports numpy.testing, numpy.f2py and more (0.3 s)."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is already imported
        return sys.modules[name]
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:  # another scipy layout: the public route
        from scipy.linalg import lapack
        return lapack
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules with no parent package; left
    # there, a later ``import scipy.linalg`` would find it and never bind the attribute
    sys.modules.pop(name, None)
    return module


_lapack = _flapack(f"{scipy.__path__[0]}/linalg")
dgeqrf, dgeqrfp, dgeqrt, dormqr = _lapack.dgeqrf, _lapack.dgeqrfp, _lapack.dgeqrt, _lapack.dormqr
dgesv, dgetrs, dtrtrs = _lapack.dgesv, _lapack.dgetrs, _lapack.dtrtrs  # orthocomp, regression

# The tolerance table: every threshold at which the library takes a float for zero,
# singular or orthogonal.  Other modules import these names; each line says what the
# value is compared against and which functions read it.
# pivot tail <= RANK_TOL ||x_k||: column k is dependent (_check_column, standardize_predictor)
RANK_TOL = 1e-12
# |v_k| vs the pivot tail norm: an exact cancellation, H_k = I (householder_qr's loop)
CANCEL_TOL = 1e-12
# a pivot, singular value or det factor vs its scale (_recursion, _svd_rank, univariate_coefficients)
SINGULAR_TOL = 1e-10
# |cos(x_k, v)|, and a Gram error (orthocomplement_apply, fit_least_squares, s_from_c)
ORTHO_TOL = 1e-8
# an identity's error vs its scale (idempotent_check, benchmark_apply, and the CLI's --tol default)
IDENTITY_TOL = 1e-10
# the largest entry of the Theorem 7 residual (verify_theorem7_condition)
CONDITION_TOL = 1e-9
# the quadratic's roots vs their closed forms 1/(sqrt(n)-1), -1/(sqrt(n)+1) (verify_theorem6_roots)
ROOTS_TOL = 1e-12

# The most entries of an array that _factor hands to dgeqrf rather than dgeqrt.  Up to it
# dgeqrf runs unblocked (dgeqr2: one dlarfg, dgemv and dger per column) in a third to two
# thirds of dgeqrt's time.  Past it OpenBLAS may thread the dger (m * n > 8192), and an
# isolated dgeqrf then took 6-18 ms against dgeqrt's 40-100 us (2-core VM, 2 BLAS threads).
DGEQRF_MAX_SIZE = 8192


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


def as_matrix(a, owned: bool = False) -> np.ndarray:
    """a as a float64 matrix: C-contiguous and copied only if needed, or with ``owned``
    always one fresh column-major copy, whatever a's layout."""
    m = (np.array(a, dtype=np.float64, order="F") if owned
         else np.ascontiguousarray(a, dtype=np.float64))
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("expected a 2-D matrix with at least one row and column")
    return m


def as_vector(a) -> np.ndarray:
    v = np.asarray(a, dtype=np.float64, order="C")  # a scalar stays 0-d, so it is rejected
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
        if self.signs is not None:
            if bool in map(type, signs := tuple(self.signs)):  # operator.index takes True as 1
                raise TypeError("custom signs must be integers, not bools")
            object.__setattr__(self, "signs", tuple(map(operator.index, signs)))  # 1.9 raises
            if any(s not in (-1, 1) for s in self.signs):
                raise ValueError("custom signs must all be +1 or -1")

    @classmethod
    def custom(cls, signs: Sequence[int]) -> "SignPolicy":
        return cls("custom", signs)


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


def _record(cls, **values):
    """An instance of cls, a frozen dataclass without __post_init__, from all its fields."""
    record = object.__new__(cls)  # one dict update: __init__ pays object.__setattr__ per field
    record.__dict__.update(values)
    return record


def householder_qr(X, policy: SignPolicy = STANDARD) -> HouseholderQR:
    """Factor X as H_1 ... H_p [T; 0] with T upper triangular.

    Under the standard policy this is one LAPACK call, ``dgeqrf`` up to
    DGEQRF_MAX_SIZE entries and ``dgeqrt`` above; other policies run
    ``dgeqrfp`` per pivot column and ``dormqr`` on the block to its right.
    Raises ValueError for an inf or NaN in X, else RankDeficiencyError at
    the first column that _check_column finds dependent on the previous ones.
    """
    A = as_matrix(X, owned=True)  # ends with the reflectors below its diagonal and T on and above
    n, p = A.shape
    if p > n:
        raise ValueError(f"need p <= n, got {n}x{p}")
    if policy.kind == "custom" and len(policy.signs) != p:
        raise ValueError(f"custom policy has {len(policy.signs)} signs, need {p}")
    if policy.kind == "standard":
        return _factor(A, p, X)[0]
    with np.errstate(over="ignore"):  # an inf norm is _check_finite's to report
        col_norms = np.hypot.reduce(A, axis=0)  # ||x_k||, with no overflow near 1e200
    tau = np.zeros(p)
    for k, (d, col_norm) in enumerate(zip(policy.signs or (-1,) * p, _check_finite(col_norms, A))):
        # dlarfp's reflector sends -d x to +||x|| e_1, so it sends x to -d ||x|| e_1
        a, t, _ = dgeqrfp(-d * A[k:, k:k + 1])
        _check_column(k, a[0, 0], col_norm)  # a[0, 0] is the pivot tail norm, taken by dnrm2
        if t[0] <= CANCEL_TOL:  # dlarfp's tau_k = |v_k| / (pivot tail norm): H_k = I
            A[k + 1:, k] = 0.0
            continue
        A[k:, k + 1:] = dormqr("L", "T", a, t, A[k:, k + 1:], p)[0]
        A[k, k], A[k + 1:, k], tau[k] = -d * a[0, 0], a[1:, 0], t[0]
    return HouseholderQR(n=n, p=p, packed=A, tau=tau, T=np.triu(A[:p]), col_norms=col_norms)


def _check_finite(col_norms: np.ndarray, X) -> list[float]:
    """The finiteness gate of every factorization: all column norms of X, before any rank test.
    X's entries are read on failure only, to tell an inf or NaN from a norm past the float range."""
    if not all(map(math.isfinite, norms := col_norms.tolist())):
        if not _every(np.isfinite(np.asarray(X, dtype=np.float64))):
            raise ValueError("array must not contain infs or NaNs")
        k = list(map(math.isfinite, norms)).index(False)
        raise ValueError(f"column {k + 1} is finite, but its norm exceeds the float range "
                         "in the factorization")
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


def _factor(A: np.ndarray, p: int, X) -> tuple[HouseholderQR, np.ndarray]:
    """The standard-sign QR of the first p columns of A, an n x m Fortran-order
    array (m >= p) that LAPACK overwrites, and the array itself.  X, for
    _check_finite, holds what those columns held, in any row order.

    Up to DGEQRF_MAX_SIZE entries A is factored by ``dgeqrf``, above it by
    ``dgeqrt`` with block size p; both write the same layout, and the top p
    rows of any further column end as (Q^T a_j)^(p).  The first p columns are
    ``dgeqrt``'s first panel, so they factor bit for bit as they would alone
    by ``dgeqrt``; ``dgeqrf``'s dgemv, whose sums depend on how many columns
    it is given, matches that to rounding only.
    dlarfg picks T_kk = -sgn(pivot) * (pivot tail norm), the standard sign; a
    -0.0 pivot, for which it picks +, needs A's -0.0 entries turned into +0.0
    first.  A zero tail gives tau_k = 0 (H_k = I) where the standard reflection
    is I - 2 e_k e_k^T, which only negates row k, the entries of further
    columns included.
    """
    n = A.shape[0]
    A[:, :p] += 0.0  # -0.0 to +0.0 in place: a strided np.add into A took 3x as long
    if A.size <= DGEQRF_MAX_SIZE:
        a, tau, _, _ = dgeqrf(A, overwrite_a=True)
        tau = tau[:p]
    else:
        a, wy, _ = dgeqrt(p, A, overwrite_a=True)  # info < 0 needs p > n
        tau = wy.diagonal().copy()  # the first block factor's diagonal; the rest is not kept
    if 0.0 in tau.tolist():  # a zero reflector; the list test beats np.count_nonzero
        for k in np.flatnonzero(tau == 0.0).tolist():  # u_k is zero below the diagonal already
            a[k, k:] = 0.0 - a[k, k:]  # 0.0 - keeps the zeros positive
            tau[k] = 2.0
    T = a[:p, :p].copy()  # C order; below its diagonal a holds the reflectors
    T[_strict_lower(p)] = 0.0
    col_norms = np.hypot.reduce(T, axis=0)  # ||T e_k|| = ||x_k||; row signs do not move it
    norms = col_norms.tolist()
    for k, t in enumerate(T.diagonal().tolist()):  # |T_kk| is the pivot tail norm
        if not abs(t) > RANK_TOL * norms[k] < math.inf:  # a NaN fails too; the gate comes first
            _check_column(k, abs(t), _check_finite(col_norms, X)[k])
    qr = _record(HouseholderQR, n=n, p=p, packed=a[:, :p], tau=tau, T=T, col_norms=col_norms)
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
