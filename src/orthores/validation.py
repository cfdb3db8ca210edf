"""Brute-force oracles, algebraic verifications, and Monte Carlo checks.

Everything here is deliberately independent of the fast formulas it
validates: the explicit orthocomplement basis, the LDL^T route to the
mean-centering projector, and seeded moment checks of the distributional
claims.
"""

from __future__ import annotations

import statistics
import timeit
from dataclasses import dataclass

import numpy as np

from .core import STANDARD, apply_Qt, as_matrix, explicit_orthocomplement_basis, householder_qr
from .orthocomp import (RowSelection, _apply_s, _selection, _svd_rank, orthocomplement_apply,
                        s_from_qr)
from .regression import student_w, univariate_coefficients

IDEMPOTENT_TOL = 1e-10
CONDITION_TOL = 1e-9

MIN_SAMPLE_S = 1e-3  # shortest timing sample; faster calls are looped


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    p: int
    beta: np.ndarray
    sigma: float
    replicates: int
    seed: int
    construction: str = "generic"

    _CONSTRUCTIONS = ("generic", "student-minus", "student-plus",
                      "univariate-a", "univariate-b")

    def __post_init__(self):
        if self.p < 1 or self.p >= self.n:
            raise ValueError(f"need 1 <= p < n, got n={self.n}, p={self.p}")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (self.p,):
            raise ValueError(f"beta must have length p={self.p}")
        object.__setattr__(self, "beta", beta)
        if self.construction not in self._CONSTRUCTIONS:
            raise ValueError(f"unknown construction: {self.construction!r}")
        if self.construction.startswith("student") and self.p != 1:
            raise ValueError("student constructions require p = 1")
        if self.construction.startswith("univariate") and self.p != 2:
            raise ValueError("univariate constructions require p = 2")


@dataclass(frozen=True)
class SimulationReport:
    mean_W: np.ndarray
    cov_W: np.ndarray
    cov_R: np.ndarray
    mean_rss_over_sigma2: float
    var_rss_over_sigma2: float
    max_ss_identity_error: float
    replicates: int

    def to_dict(self) -> dict:
        return {
            "mean_W": self.mean_W.tolist(),
            "cov_W": self.cov_W.tolist(),
            "cov_R": self.cov_R.tolist(),
            "mean_rss_over_sigma2": self.mean_rss_over_sigma2,
            "var_rss_over_sigma2": self.var_rss_over_sigma2,
            "max_ss_identity_error": self.max_ss_identity_error,
            "replicates": self.replicates,
        }


def verify_theorem6_roots(n: int) -> tuple[float, float]:
    """Roots of (n-1)c^2 - 2c - 1 = 0, asserted equal to the closed forms
    1/(sqrt(n)-1) and -1/(sqrt(n)+1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    a, b, c = float(n - 1), -2.0, -1.0
    disc = np.sqrt(b * b - 4.0 * a * c)
    roots = sorted([(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)], reverse=True)
    rn = np.sqrt(n)
    c_plus, c_minus = 1.0 / (rn - 1.0), -1.0 / (rn + 1.0)
    if abs(roots[0] - c_plus) > 1e-12 * max(1.0, abs(c_plus)) or \
            abs(roots[1] - c_minus) > 1e-12:
        raise ArithmeticError(f"quadratic roots {roots} do not match closed forms")
    return c_plus, c_minus


def verify_theorem7_condition(S, Xortho, sel: RowSelection | None = None) -> bool:
    """Check S^T (I_p - X^(p)T X^(p)) S - X^(p) S - S^T X^(p)T = I_p."""
    S = as_matrix(S)
    X = as_matrix(Xortho)
    p = X.shape[1]
    if S.shape != (p, p):
        raise ValueError(f"S must be {p}x{p}, got {S.shape}")
    head = X[np.asarray(_selection(sel, p).indices)]
    lhs = S.T @ (np.eye(p) - head.T @ head) @ S - head @ S - S.T @ head.T
    return float(np.max(np.abs(lhs - np.eye(p)))) < CONDITION_TOL


def cheng_matrix(n: int) -> np.ndarray:
    """n x (n-1) orthonormal-column factor of the mean-centering projector.

    Runs unpivoted symmetric elimination on B2 = I - (1/n) ones ones^T to
    get B2 = L D L^T with D = diag((n-1)/n, (n-2)/(n-1), ..., 1/2), and
    returns M = L D^(1/2).  Orthonormality of the columns is forced by
    idempotency, not by any orthogonalization step.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    A = np.eye(n) - np.full((n, n), 1.0 / n)
    L = np.zeros((n, n - 1))
    d = np.zeros(n - 1)
    for k in range(n - 1):
        d[k] = A[k, k]
        L[k, k] = 1.0
        L[k + 1:, k] = A[k + 1:, k] / d[k]
        A[k + 1:, k + 1:] -= np.outer(L[k + 1:, k], A[k, k + 1:])
    return L * np.sqrt(d)


def idempotent_check(B) -> bool:
    """B^2 = B, cross-checked against rank(B) + rank(I - B) = n."""
    B = as_matrix(B)
    n, m = B.shape
    if n != m:
        raise ValueError("matrix must be square")
    if float(np.max(np.abs(B - B.T))) >= IDEMPOTENT_TOL * max(1.0, float(np.max(np.abs(B)))):
        raise ValueError("matrix must be symmetric")
    is_idem = float(np.max(np.abs(B @ B - B))) < IDEMPOTENT_TOL
    rank_sum_matches = _svd_rank(B) + _svd_rank(np.eye(n) - B) == n
    if is_idem != rank_sum_matches:
        raise ArithmeticError(
            f"idempotency criteria disagree: B^2=B is {is_idem}, "
            f"rank sum check is {rank_sum_matches}"
        )
    return is_idem


def random_orthocomplement_vector(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random vector projected onto col(X)-perp, without the QR machinery."""
    z = rng.standard_normal(X.shape[0])
    coef, *_ = np.linalg.lstsq(X, z, rcond=None)
    return z - X @ coef


def oracle_compare(X, trials: int, seed: int) -> float:
    """Max discrepancy between the closed formula and the explicit basis
    over random orthocomplement vectors."""
    X = as_matrix(X)
    qr = householder_qr(X, STANDARD)
    U2 = explicit_orthocomplement_basis(qr)
    sp = s_from_qr(qr, X)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = random_orthocomplement_vector(X, rng)
        fast = orthocomplement_apply(sp, X, x)
        worst = max(worst, float(np.max(np.abs(fast - U2.T @ x))))
    return worst


def _simulation_design(cfg: SimulationConfig) -> np.ndarray:
    """Deterministic design matrix: intercept column plus, for p > 1,
    standardized predictor columns drawn from a child seed."""
    X = np.ones((cfg.n, cfg.p))
    if cfg.p > 1:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5e1f]))
        for j in range(1, cfg.p):
            col = rng.standard_normal(cfg.n)
            col -= col.mean()
            col /= np.linalg.norm(col)
            X[:, j] = col
    return X


def monte_carlo(cfg: SimulationConfig) -> SimulationReport:
    """Seeded replication of the regression model, reporting the empirical
    moments of W and of R^T R / sigma^2.

    The sum-of-squares identity is checked exactly per replicate (max
    relative error over replicates); the distributional claims are only
    checked through moments.
    """
    X = _simulation_design(cfg)
    n, p = cfg.n, cfg.p
    hat = X @ np.linalg.solve(X.T @ X, X.T)
    annihilator = np.eye(n) - hat

    if cfg.construction == "generic":
        S = s_from_qr(householder_qr(X, STANDARD), X).S
    elif cfg.construction in ("student-minus", "student-plus"):
        rn = np.sqrt(n)
        c = -1.0 / (rn + 1.0) if cfg.construction.endswith("minus") else 1.0 / (rn - 1.0)
        S = np.array([[c]])
    else:
        S = univariate_coefficients(X[:, 1], n, cfg.construction[-1])

    rng = np.random.default_rng(cfg.seed)
    mean_signal = X @ cfg.beta

    reps = cfg.replicates
    batch = min(reps, 20000)
    sum_W = np.zeros(n - p)
    sum_WW = np.zeros((n - p, n - p))
    sum_R = np.zeros(n)
    sum_RR = np.zeros((n, n))
    sum_rss = 0.0
    sum_rss2 = 0.0
    max_err = 0.0
    done = 0
    while done < reps:
        m = min(batch, reps - done)
        Y = mean_signal[:, None] + cfg.sigma * rng.standard_normal((n, m))
        R = annihilator @ Y
        W = _apply_s(S, X, R, RowSelection.first(p))[1]
        rss = np.einsum("ij,ij->j", R, R)
        wss = np.einsum("ij,ij->j", W, W)
        max_err = max(max_err, float(np.max(np.abs(wss - rss) / rss)))
        sum_W += W.sum(axis=1)
        sum_WW += W @ W.T
        sum_R += R.sum(axis=1)
        sum_RR += R @ R.T
        sum_rss += float(rss.sum())
        sum_rss2 += float((rss * rss).sum())
        done += m

    mean_W = sum_W / reps
    cov_W = sum_WW / reps - np.outer(mean_W, mean_W)
    mean_R = sum_R / reps
    cov_R = sum_RR / reps - np.outer(mean_R, mean_R)
    s2 = cfg.sigma ** 2
    mean_rss = sum_rss / reps
    var_rss = sum_rss2 / reps - mean_rss ** 2
    return SimulationReport(
        mean_W=mean_W,
        cov_W=cov_W,
        cov_R=cov_R,
        mean_rss_over_sigma2=mean_rss / s2,
        var_rss_over_sigma2=var_rss / s2 ** 2,
        max_ss_identity_error=max_err,
        replicates=reps,
    )


def _apply_routes(n: int, p: int, seed: int) -> tuple[np.ndarray, dict]:
    """A vector x perpendicular to a random n x p design, and the three
    routes to U2^T x as calls without arguments."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    qr = householder_qr(X, STANDARD)
    sp = s_from_qr(qr, X)
    x = random_orthocomplement_vector(X, rng)
    U2 = explicit_orthocomplement_basis(qr)
    return x, {
        "explicit": lambda: U2.T @ x,
        "reflect": lambda: apply_Qt(qr, x)[p:],
        "closed": lambda: orthocomplement_apply(sp, X, x),
    }


def benchmark_apply(n_grid: list[int], p: int, repeats: int,
                    agreement_tol: float = 1e-10) -> list[dict]:
    """Time the three routes to U2^T x and check they agree.

    Methods: "explicit" multiplies by the materialized basis (O(n^2)),
    "reflect" applies the reflection sequence (O(np)), "closed" uses the
    S-matrix formula (O(np)).  ``seconds`` is the median per-call time of
    ``repeats`` samples, each looping the call for at least MIN_SAMPLE_S
    after one untimed call.  Returns one row per (method, n).
    """
    if list(n_grid) != sorted(n_grid) or len(set(n_grid)) != len(n_grid):
        raise ValueError("n_grid must be strictly ascending")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    if p >= min(n_grid):
        raise ValueError("need p < min(n_grid)")

    timers = {}
    for idx, n in enumerate(n_grid):
        x, routes = _apply_routes(n, p, 1000 + idx)
        results = {method: call() for method, call in routes.items()}  # warm-up
        scale = max(1.0, float(np.linalg.norm(x)))
        for method in ("reflect", "closed"):
            err = float(np.max(np.abs(results[method] - results["explicit"])))
            if err >= agreement_tol * scale:
                raise ArithmeticError(
                    f"method {method} disagrees with the explicit basis at n={n}: {err:.3e}"
                )
        for method, call in routes.items():
            timer = timeit.Timer(call)
            number = 1
            while timer.timeit(number) < MIN_SAMPLE_S:
                number *= 2
            timers[method, n] = (timer, number)

    # Sampling starts once every input is built and goes in rounds over all
    # (method, n): a slow spell of the machine (two-thread BLAS calls on a
    # 2-core VM stalled ~8 ms each for up to a second after it idled) then
    # falls on the set-up or on one sample of each, not on every sample of one.
    samples = {key: [] for key in timers}
    for _ in range(repeats):
        for key, (timer, number) in timers.items():
            samples[key].append(timer.timeit(number) / number)
    return [{"method": method, "n": n, "seconds": statistics.median(secs)}
            for (method, n), secs in samples.items()]
