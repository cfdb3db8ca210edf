"""Least-squares fitting and independent-residual constructions.

The generic path perturbs the last n-p residuals by X_(p) S R^(p); the
p = 1 (mean-only) and p = 2 (slope-intercept) cases have explicit
coefficient formulas.  Every path preserves the residual sum of squares:
W^T W = R^T R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import STANDARD, HouseholderQR, apply_Qt, as_matrix, as_vector, householder_qr
from .orthocomp import RowSelection, SProjector, _apply_s, _selection

XTR_TOL = 1e-8

# Threshold on the p = 2 variant-(a) determinant below which the rank-one
# singular branch is taken.
SINGULAR_DET_TOL = 1e-10


@dataclass(frozen=True)
class RegressionFit:
    X: np.ndarray
    Y: np.ndarray
    beta_hat: np.ndarray
    residuals: np.ndarray
    rss: float
    qr: HouseholderQR


@dataclass(frozen=True)
class IndependentResiduals:
    """W in R^(n-p) with the correction v and beta_star = beta_hat - v.

    The entries of W are the residuals on the selection complement (in
    increasing row order) of the fit with the perturbed coefficients
    beta_star.
    """

    W: np.ndarray
    v: np.ndarray
    beta_star: np.ndarray
    selection: RowSelection


@dataclass(frozen=True)
class StandardizedPredictor:
    """Predictor mapped affinely to sum zero and unit sum of squares."""

    t: np.ndarray
    shift: float
    scale: float


def fit_least_squares(X, Y) -> RegressionFit:
    """QR-based least squares: back-substitute T beta = (Q^T Y)^(p)."""
    X = as_matrix(X)
    Y = as_vector(Y)
    n, p = X.shape
    if Y.size != n:
        raise ValueError(f"Y has length {Y.size}, X has {n} rows")
    if p >= n:
        raise ValueError(f"need p < n, got {n}x{p}")
    qr = householder_qr(X, STANDARD)
    z = apply_Qt(qr, Y)
    beta = solve_triangular(qr.T, z[:p])
    R = Y - X @ beta
    resid_err = float(np.max(np.abs(X.T @ R)))
    if resid_err >= XTR_TOL * max(float(np.linalg.norm(Y)), 1.0):
        raise ArithmeticError(f"normal-equation residual too large: {resid_err:.3e}")
    return RegressionFit(X=X, Y=Y, beta_hat=beta, residuals=R,
                         rss=float(R @ R), qr=qr)


def independent_residuals(fit: RegressionFit, sp: SProjector,
                          sel: RowSelection | None = None) -> IndependentResiduals:
    """W = R_(p) + X_(p) v with v = S R^(p), for a projector built from
    the same X and row selection."""
    p = fit.X.shape[1]
    if sp.p != p:
        raise ValueError("projector size does not match the fit")
    sel = _selection(sel, p)
    v, W = _apply_s(sp.S, fit.X, fit.residuals, sel)
    return IndependentResiduals(W=W, v=v, beta_star=fit.beta_hat - v, selection=sel)


def student_w(Y, variant: str = "minus") -> IndependentResiduals:
    """Mean-only case: W_j = R_{j+1} + c R_1 with c = -1/(sqrt(n)+1)
    ("minus") or c = 1/(sqrt(n)-1) ("plus")."""
    Y = as_vector(Y)
    n = Y.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    if variant not in ("minus", "plus"):
        raise ValueError(f"unknown variant: {variant!r}")
    rn = np.sqrt(n)
    c = -1.0 / (rn + 1.0) if variant == "minus" else 1.0 / (rn - 1.0)
    mean = float(np.mean(Y))
    R = Y - mean
    W = R[1:] + c * R[0]
    v = np.array([c * R[0]])
    mu_star = mean - v[0]
    return IndependentResiduals(W=W, v=v, beta_star=np.array([mu_star]),
                                selection=RowSelection((0,)))


def univariate_coefficients(t, n: int, variant: str) -> np.ndarray:
    """The 2x2 matrix [[A, B], [C, D]] of the slope-intercept corrections.

    Variant "a" comes from (I_2 - X^(2))^-1, switching to the rank-one
    branch when its determinant factor vanishes; variant "b" comes from
    the standard-sign Householder T and has no singular case.
    """
    t = as_vector(t)
    rn = np.sqrt(n)
    t1, t2 = float(t[0]), float(t[1])
    if variant == "a":
        den = (rn - 1.0) * (1.0 - t2) - t1
        if abs(den) < SINGULAR_DET_TOL:
            return np.array([[1.0 / (rn - 1.0), 0.0], [0.0, 0.0]])
        return np.array([[1.0 - t2, t1], [1.0, rn - 1.0]]) / den
    if variant == "b":
        g = (rn + 1.0) * t2 - t1
        s = 1.0 if g >= 0.0 else -1.0
        return (-s / ((rn + 1.0) + abs(g))) * np.array(
            [[s + t2, -t1], [-1.0, rn + 1.0]]
        )
    raise ValueError(f"unknown variant: {variant!r}")


def univariate_w(t: StandardizedPredictor, Y, variant: str = "b") -> IndependentResiduals:
    """Slope-intercept case: W_j = R_{j+2} + (A R_1 + B R_2) + (C R_1 + D R_2) t_{j+2}."""
    Y = as_vector(Y)
    tv = t.t
    n = Y.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    if tv.size != n:
        raise ValueError(f"predictor length {tv.size} != {n}")
    a_hat = float(np.mean(Y))
    b_hat = float(tv @ Y)
    R = Y - a_hat - b_hat * tv
    AB = univariate_coefficients(tv, n, variant)
    corr = AB @ R[:2]
    W = R[2:] + corr[0] + corr[1] * tv[2:]
    beta_star = np.array([a_hat - corr[0], b_hat - corr[1]])
    return IndependentResiduals(W=W, v=corr, beta_star=beta_star,
                                selection=RowSelection((0, 1)))


def standardize_predictor(raw) -> StandardizedPredictor:
    """Affine map of the raw predictor to sum zero, sum of squares one."""
    raw = as_vector(raw)
    shift = float(np.mean(raw))
    centered = raw - shift
    scale = float(np.linalg.norm(centered))
    if scale <= 1e-12 * max(float(np.linalg.norm(raw)), 1.0):
        raise ValueError("predictor is constant (collinear with the intercept)")
    t = centered / scale
    # one refinement pass to pin the sum-zero invariant at rounding level
    t = t - np.mean(t)
    t = t / np.linalg.norm(t)
    return StandardizedPredictor(t=t, shift=shift, scale=scale)
