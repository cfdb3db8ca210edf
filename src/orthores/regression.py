"""Least-squares fitting and independent-residual constructions.

Every construction perturbs the last n-p residuals by X_(p) S R^(p) and
differs from the others only in S: the generic (T - X^(p))^-1, the
mean-only (p = 1) coefficient c, or the slope-intercept (p = 2) 2x2
matrix; fit_independent_residuals reads the generic W off the fit's Q^T Y
instead.  Every path preserves the residual sum of squares: W^T W = R^T R.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (ORTHO_TOL, RANK_TOL, SINGULAR_TOL, HouseholderQR, _check_finite, _dormqr,
                   _every, _factor, _norm, _record, as_matrix, as_vector, dtrtrs)
from .orthocomp import RowSelection, SProjector, _apply_s, _rows, _solve


@dataclass(frozen=True)
class RegressionFit:
    X: np.ndarray
    beta_hat: np.ndarray
    residuals: np.ndarray
    rss: float
    qr: HouseholderQR
    c2: np.ndarray  # M^T Y = M^T R, the last n-p entries of Q^T Y: the W of the first p rows


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


@dataclass(frozen=True)
class StandardizedPredictor:
    """Predictor mapped affinely to sum zero and unit sum of squares."""

    t: np.ndarray
    shift: float
    scale: float


def fit_least_squares(X, Y) -> RegressionFit:
    """QR-based least squares from one factorization of [X | Y], whose last column gives
    Q^T Y = [z; c2]: T beta = z is back-substituted, and R = Q [0; c2] (Bjorck, 1996).
    One normwise backward-error test of Y = X beta + R checks what it returns."""
    X = as_matrix(X)
    Y = as_vector(Y)
    n, p = X.shape
    if Y.size != n:
        raise ValueError(f"Y has length {Y.size}, X has {n} rows")
    if p >= n:
        raise ValueError(f"need p < n, got {n}x{p}")
    A = np.empty((n, p + 1), order="F")
    A[:, :p] = X
    A[:, p] = Y
    qr, a, tau, col_norms = _factor(A, p, X)  # its gate and rank test read X's columns only
    head = a[:p + 1, p]  # z over +-||R||, so ||head|| = ||Y||
    y_norm = math.hypot(*(h := head.tolist()))  # scales and the band test only: not outputs
    if not _BAND[0] <= y_norm * y_norm <= _BAND[1] and Y.any():  # an inf, NaN or overflow too
        return _rescaled(lambda y: fit_least_squares(X, y), Y)
    # T^T is lower triangular and already in LAPACK's column-major order;
    # info > 0 (a zero T_kk) cannot follow _factor's rank check
    beta, _ = dtrtrs(qr.T.T, head[:p], lower=1, trans=1)
    if any(map(math.isinf, b := beta.tolist())):  # a NaN is the backward-error test's to catch
        raise ValueError("Y is finite, but its fit exceeds the float range (beta_hat)")
    c2, beta_p, tau_p = a[p:, p], h[p], tau.item(p)  # reflector p + 1 sends c2 to beta_p e_1
    c2 *= 0.0 - tau_p * beta_p  # c2 = beta_p (e_1 - tau_p u); 0.0 - and + 0.0 keep zeros +0.0
    a[:p, p], c2[0] = 0.0, beta_p * (1.0 - tau_p) + 0.0  # exact: tau_p is 0 or in [1, 2]
    R = _dormqr(qr, "N", a[:, p:])[:, 0]  # Q [0; c2] (Bjorck): orthogonal to col(X) to rounding
    # Y = X beta + R, the fit's outputs, to a backward error |dx_j| <= eta ||x_j||,
    # ||dY|| <= eta ||Y||: one test of beta, c2 and R, in which column scale cancels
    scale = y_norm + sum(map(operator.mul, col_norms, map(abs, b)))
    gap = X.dot(beta)  # X beta + R - Y in place: with fresh arrays the test took 2-3x as long
    gap += R
    if not (err := _norm(np.subtract(gap, Y, out=gap))) <= ORTHO_TOL * scale:  # a NaN fails
        raise ArithmeticError(f"normal-equation residual too large: {err / scale:.3e}")
    return _record(RegressionFit, X=X, beta_hat=beta, residuals=R, rss=float(R.dot(R)), qr=qr,
                   c2=c2)


# Where ||v||^2 lies in this band, no step of the fit or the constructions on v overflows.
# Outside it, unless v = 0, they run on v 2^-e (_rescaled): exact, and their outputs are linear
# in v (t does not depend on v's scale), so they scale back, as LAPACK's dgels does.
_BAND = (2.0 ** -1000, 2.0 ** 1000)


def _rescaled(call, v: np.ndarray, what: str = "Y is finite, but its fit"):
    """call(v 2^-e), e the exponent of max |v|, with its outputs scaled back by 2^e (rss by 2^2e);
    an inf or NaN in v raises ValueError, and so does an output past the float range, named."""
    (top,) = _check_finite([float(np.abs(v).max())], v)
    e = math.frexp(top)[1]
    record = call(np.ldexp(v, -e))
    values = vars(record).copy()
    for name, value in vars(record).items():
        if name not in ("X", "qr", "t"):  # the outputs that do not depend on v's scale
            with np.errstate(over="ignore"):
                value = np.ldexp(value, 2 * e if name == "rss" else e)
            if not _every(np.isfinite(value)):
                raise ValueError(f"{what} exceeds the float range ({name})")
            values[name] = value if value.ndim else float(value)
    return _record(type(record), **values)


def _construct(X: np.ndarray, beta_hat: np.ndarray, R: np.ndarray, S: np.ndarray,
               sel: RowSelection | None = None) -> IndependentResiduals:
    v, W = _apply_s(S, X, R, sel)
    return _record(IndependentResiduals, W=W, v=v, beta_star=beta_hat - v)


def independent_residuals(fit: RegressionFit, sp: SProjector,
                          sel: RowSelection | None = None) -> IndependentResiduals:
    """W = R_(p) + X_(p) v with v = S R^(p), for a projector of the same X, on the rows of
    ``sp.sel``; a ``sel`` of other rows, or a projector of another n or p, raises ValueError."""
    if (sp.frame[0].shape[0] if sp.qr is None else sp.qr.n, sp.S.shape[0]) != fit.X.shape:
        raise ValueError("projector size does not match the fit")
    return _construct(fit.X, fit.beta_hat, fit.residuals, sp.S, sp._selection(sel))


def fit_independent_residuals(X, Y, sel: RowSelection | None = None
                              ) -> tuple[RegressionFit, IndependentResiduals]:
    """One QR for the fit and W: the fit is of X, Y in sel.permutation's order (selected first);
    W is a copy of its c2, and v = S R^(p) for s_from_qr's S = (T - X^(p))^-1, by one solve."""
    X, Y = as_matrix(X), as_vector(Y)  # a Y of another length is left to the fit to reject
    if Y.size == len(X) and not isinstance(_rows(sel, X.shape[1], Y.size), slice):
        X, Y = X[sel._order(Y.size)], Y[sel._order(Y.size)]
    fit = fit_least_squares(X, Y)  # standard signs leave no zero reflector for s_from_qr to test
    v = _solve(fit.qr.T - fit.X[:fit.qr.p], fit.residuals[:fit.qr.p], "T - X^(p)")[0]
    return fit, _record(IndependentResiduals, W=fit.c2.copy(), v=v, beta_star=fit.beta_hat - v)


def student_coefficient(n: int, variant: str) -> np.ndarray:
    """The 1x1 S of the mean-only case: c = -1/(sqrt(n)+1) ("minus") or
    c = 1/(sqrt(n)-1) ("plus"); n is an int (2.5 raises TypeError)."""
    if (n := operator.index(n)) < 2:
        raise ValueError("need at least 2 observations")
    if variant not in ("minus", "plus"):
        raise ValueError(f"unknown variant: {variant!r}")
    rn = math.sqrt(n)
    c = -1.0 / (rn + 1.0) if variant == "minus" else 1.0 / (rn - 1.0)
    return np.array([[c]])


def student_w(Y, variant: str = "minus") -> IndependentResiduals:
    """Mean-only case: W_j = R_{j+1} + c R_1 with c from student_coefficient."""
    Y = as_vector(Y)
    n = Y.size
    S = student_coefficient(n, variant)
    if not _BAND[0] <= float(np.vdot(Y, Y)) <= _BAND[1] and Y.any():
        return _rescaled(lambda y: student_w(y, variant), Y)
    mean = float(Y.sum()) / n  # the same IEEE division, on Python floats
    return _construct(np.ones((n, 1)), np.array([mean]), Y - mean, S)


def univariate_coefficients(t, n: int, variant: str) -> np.ndarray:
    """The 2x2 matrix [[A, B], [C, D]] of the slope-intercept corrections.

    Variant "a" comes from (I_2 - X^(2))^-1, switching to the rank-one
    branch when its determinant factor vanishes; variant "b" comes from
    the standard-sign Householder T and has no singular case.  n is an int
    (2.5 raises TypeError) of at least 3, and t has at least 2 entries.
    """
    t = as_vector(t)
    if (n := operator.index(n)) < 3:
        raise ValueError("need at least 3 observations")
    if t.size < 2:
        raise ValueError(f"predictor has {t.size} entry, need at least 2")
    rn = math.sqrt(n)
    t1, t2 = float(t[0]), float(t[1])
    if variant == "a":
        lead = (rn - 1.0) * (1.0 - t2)
        den = lead - t1
        if abs(den) <= SINGULAR_TOL * (abs(lead) + abs(t1)):  # relative to what cancels
            # rank one: the mean-only "plus" S, padded
            return np.pad(student_coefficient(n, "plus"), (0, 1))
        # scaled as Python floats: the roundings of an array division, without its call
        return np.array([[(1.0 - t2) / den, t1 / den], [1.0 / den, (rn - 1.0) / den]])
    if variant == "b":
        g = (rn + 1.0) * t2 - t1
        s = 1.0 if g >= 0.0 else -1.0
        f = -s / ((rn + 1.0) + abs(g))
        return np.array([[f * (s + t2), f * -t1], [-f, f * (rn + 1.0)]])
    raise ValueError(f"unknown variant: {variant!r}")


def univariate_w(t: StandardizedPredictor, Y, variant: str = "b") -> IndependentResiduals:
    """Slope-intercept case: W_j = R_{j+2} + (A R_1 + B R_2) + (C R_1 + D R_2) t_{j+2}."""
    Y = as_vector(Y)
    tv = t.t
    n = Y.size
    S = univariate_coefficients(tv, n, variant)  # n < 3 raises here
    if tv.size != n:
        raise ValueError(f"predictor length {tv.size} != {n}")
    if not _BAND[0] <= float(np.vdot(Y, Y)) <= _BAND[1] and Y.any():
        return _rescaled(lambda y: univariate_w(t, y, variant), Y)
    X = np.empty((n, 2))  # [1, t]; column_stack costs more than the fill
    X[:, 0] = 1.0
    X[:, 1] = tv
    a_hat, b_hat = float(Y.sum()) / n, float(tv.dot(Y))
    return _construct(X, np.array([a_hat, b_hat]), Y - a_hat - b_hat * tv, S)


def standardize_predictor(raw) -> StandardizedPredictor:
    """Affine map of the raw predictor to sum zero, sum of squares one."""
    raw = as_vector(raw)
    if not _BAND[0] <= (ss := float(np.vdot(raw, raw))) <= _BAND[1] and raw.any():
        return _rescaled(standardize_predictor, raw, "the predictor is finite, but its spread")
    shift = float(raw.sum()) / raw.size
    t = raw - shift  # centered; the steps below work in place, with the same roundings
    scale = _norm(t)
    if scale <= RANK_TOL * math.sqrt(ss):  # RANK_TOL ||raw||
        raise ValueError("predictor is constant (collinear with the intercept)")
    t /= scale
    # one refinement pass to pin the sum-zero invariant at rounding level
    t -= t.sum() / t.size
    t /= math.sqrt(t.dot(t))  # ||t|| is about 1, so t . t can neither overflow nor underflow
    return _record(StandardizedPredictor, t=t, shift=shift, scale=scale)
