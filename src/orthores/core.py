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
from importlib.util import find_spec, module_from_spec
from typing import Sequence

import numpy as np


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


_lapack = _flapack(f"{find_spec('scipy').submodule_search_locations[0]}/linalg")
dgeqrf, dgeqrfp, dgeqrt, dormqr = _lapack.dgeqrf, _lapack.dgeqrfp, _lapack.dgeqrt, _lapack.dormqr
dgesv, dgetrs, dtrtrs = _lapack.dgesv, _lapack.dgetrs, _lapack.dtrtrs  # orthocomp, regression

# The tolerance table: every threshold at which the library takes a float for zero,
# singular or orthogonal.  Other modules import these names; each line says what the
# value is compared against and which functions read it.
# pivot tail <= RANK_TOL ||x_k||: column k is dependent (_factor, standardize_predictor)
RANK_TOL = 1e-12
# |v_k| vs the pivot tail norm: an exact cancellation, H_k = I (_factor's to-positive/custom loop)
CANCEL_TOL = 1e-12
# a pivot, singular value or det factor vs its scale (_recursion, _svd_rank, univariate_coefficients)
SINGULAR_TOL = 1e-10
# ||Q1^T x|| / ||x||, a Gram error, a fit's backward error (orthocomplement_apply, s_from_c, the fit)
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

    H_k = I - tau[k] u_k u_k^T, where u_k is zero above its unit entry k and ``packed[k + 1:, k]``
    below it: LAPACK's ``dgeqrf`` layout, n x p in Fortran order, whose entries on and above the
    diagonal are not read.  tau[k] = 0 marks an identity reflection.
    """

    n: int
    p: int
    packed: np.ndarray
    tau: np.ndarray
    T: np.ndarray

    @property
    def nonzero_reflector_count(self) -> int:
        return int(np.count_nonzero(self.tau))


def _record(cls, **values):
    """A frozen dataclass cls (no __post_init__) from its fields and cached property values."""
    record = object.__new__(cls)  # one dict update: __init__ pays object.__setattr__ per field
    record.__dict__.update(values)
    return record


def householder_qr(X, policy: SignPolicy = STANDARD) -> HouseholderQR:
    """Factor X as H_1 ... H_p [T; 0] with T upper triangular.

    Under the standard policy this is one LAPACK call, ``dgeqrf`` up to
    DGEQRF_MAX_SIZE entries and ``dgeqrt`` above; other policies run
    ``dgeqrfp`` per pivot column and ``dormqr`` on the block to its right.
    Raises ValueError for an inf or NaN in X, else RankDeficiencyError at
    the first column that _factor finds dependent on the previous ones.
    """
    A = as_matrix(X, owned=True)  # ends with the reflectors below its diagonal and T on and above
    n, p = A.shape
    if p > n:
        raise ValueError(f"need p <= n, got {n}x{p}")
    if policy.kind == "custom" and len(policy.signs) != p:
        raise ValueError(f"custom policy has {len(policy.signs)} signs, need {p}")
    return _factor(A, p, X, None if policy.kind == "standard" else policy.signs or (-1,) * p)[0]


def _check_finite(norms: list[float], X, message: str = "column {} is finite, but its norm "
                  "exceeds the float range in the factorization") -> list[float]:
    """The finiteness gate of every factorization, on all column norms of X before any rank
    test, and of the apply, on ||x||.  X's entries are read on failure only, to tell an inf or
    NaN from a norm past the float range, which raises ``message`` with the column's number."""
    if not all(map(math.isfinite, norms)):
        if not _every(np.isfinite(np.asarray(X, dtype=np.float64))):
            raise ValueError("array must not contain infs or NaNs")
        raise ValueError(message.format(list(map(math.isfinite, norms)).index(False) + 1))
    return norms


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


def _factor(A: np.ndarray, p: int, X, signs=None
            ) -> tuple[HouseholderQR, np.ndarray, np.ndarray, list[float]]:
    """The QR of the first p columns of A, an n x m Fortran-order array (m >= p) that
    LAPACK overwrites, with standard signs or else d_k = signs[k] (then m = p); the array
    itself; the tau of every column factored; and the column norms as Python floats.  X, for
    _check_finite, holds what those columns held, in any row order.

    Standard signs: up to DGEQRF_MAX_SIZE entries A is factored by ``dgeqrf``,
    above it by ``dgeqrt`` with block size p; both write the same layout.  A bordered
    column (m = p + 1) ends as (Q^T a_p)^(p) over its own reflector (tau[p]: ``dgeqrt``'s
    wy[0, p]), from which the fit reads (Q^T a_p)_(p).  The first p
    columns are ``dgeqrt``'s first panel, so they factor bit for bit as they
    would alone by ``dgeqrt``; ``dgeqrf``'s dgemv, whose sums depend on how
    many columns it is given, matches that to rounding only.
    dlarfg picks T_kk = -sgn(pivot) * (pivot tail norm), the standard sign; a
    -0.0 pivot, for which it picks +, needs A's -0.0 entries turned into +0.0
    first.  A zero tail gives tau_k = 0 (H_k = I) where the standard reflection
    is I - 2 e_k e_k^T, which only negates row k, the entries of further
    columns included.
    Other signs: ``dgeqrfp`` per pivot column, ``dormqr`` on the block to its right.
    Both end in one read of T, for the column norms (||T e_k||), the gate and the rank test.
    """
    n = A.shape[0]
    if signs is None:
        A[:, :p] += 0.0  # -0.0 to +0.0 in place: a strided np.add into A took 3x as long
        if A.size <= DGEQRF_MAX_SIZE:
            a, taus, _, _ = dgeqrf(A, overwrite_a=True)
        else:
            a, wy, _ = dgeqrt(p, A, overwrite_a=True)  # info < 0 needs p > n
            taus = np.append(wy.diagonal(), wy[0, p:])  # the first block factor's diagonal
        if 0.0 in taus[:p].tolist():  # a zero reflector; the list test beats np.count_nonzero
            for k in np.flatnonzero(taus[:p] == 0.0).tolist():  # u_k is zero below the diagonal
                a[k, k:] = 0.0 - a[k, k:]  # 0.0 - keeps the zeros positive
                taus[k] = 2.0
    else:
        a, taus = A, np.zeros(p)
        for k, d in enumerate(signs):
            # dlarfp's reflector sends -d x to +||x|| e_1, so it sends x to -d ||x|| e_1
            r, t, _ = dgeqrfp(-d * a[k:, k:k + 1])
            if t[0] <= CANCEL_TOL:  # dlarfp's tau_k = |v_k| / (pivot tail norm): H_k = I
                a[k + 1:, k] = 0.0
                continue
            a[k:, k + 1:] = dormqr("L", "T", r, t, a[k:, k + 1:], p)[0]
            a[k, k], a[k + 1:, k], taus[k] = -d * r[0, 0], r[1:, 0], t[0]
    T = a[:p, :p].copy()  # C order; below its diagonal a holds the reflectors
    T[_strict_lower(p)] = 0.0
    cols = T.T.tolist()  # T's columns as Python floats: the one read of T
    norms = [math.hypot(*col) for col in cols]  # ||T e_k|| = ||x_k||; inf past range, no warning
    for k, col in enumerate(cols):  # |T_kk| is the pivot tail norm
        if not abs(col[k]) > RANK_TOL * norms[k] < math.inf:  # a NaN fails; the gate comes first
            _check_finite(norms, X)
            raise RankDeficiencyError(
                f"rank deficiency detected at column {k + 1}: pivot tail norm {abs(col[k]):.3e}")
    return _record(HouseholderQR, n=n, p=p, packed=a[:, :p], tau=taus[:p], T=T), a, taus, norms


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
