"""Brute-force oracles, algebraic verifications, and Monte Carlo checks.

The oracles are deliberately independent of the fast formulas they
validate: the explicit orthocomplement basis and the LDL^T route to the
mean-centering projector.  The seeded Monte Carlo checks the
distributional claims through moments, and it exercises the fast kernel
(`s_from_qr` and `_apply_s`) to do so.
"""

from __future__ import annotations

import math
import timeit
from dataclasses import dataclass, fields

import numpy as np

from .core import (CONDITION_TOL, IDENTITY_TOL, ROOTS_TOL, STANDARD, apply_Qt, as_matrix,
                   explicit_orthocomplement_basis, householder_qr)
from .orthocomp import RowSelection, _apply_s, _rows, _svd_rank, orthocomplement_apply, s_from_qr
from .regression import student_coefficient, univariate_coefficients

MC_BATCH = 20000  # Monte Carlo replicates drawn per pass
MIN_SAMPLE_S = 1e-3  # shortest timing sample; faster calls are looped

CONSTRUCTIONS = ("generic", "student-minus", "student-plus", "univariate-a", "univariate-b")


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    p: int
    sigma: float
    replicates: int
    seed: int
    construction: str = "generic"

    def __post_init__(self):
        if self.p < 1 or self.p >= self.n:
            raise ValueError(f"need 1 <= p < n, got n={self.n}, p={self.p}")
        sigma = float(self.sigma)  # a Python float's square overflows to inf with no warning
        if not (sigma > 0.0 and 2.0 ** -1022 <= sigma * sigma < np.inf):  # NaN fails too
            raise ValueError(f"sigma must be positive with a normal float square, got {self.sigma}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.construction not in CONSTRUCTIONS:
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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


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
    if abs(roots[0] - c_plus) > ROOTS_TOL * max(1.0, abs(c_plus)) or \
            abs(roots[1] - c_minus) > ROOTS_TOL:
        raise ArithmeticError(f"quadratic roots {roots} do not match closed forms")
    return c_plus, c_minus


def verify_theorem7_condition(S, Xortho, sel: RowSelection | None = None) -> bool:
    """Check S^T (I_p - X^(p)T X^(p)) S - X^(p) S - S^T X^(p)T = I_p."""
    S = as_matrix(S)
    X = as_matrix(Xortho)
    p = X.shape[1]
    if S.shape != (p, p):
        raise ValueError(f"S must be {p}x{p}, got {S.shape}")
    head = X[_rows(sel, p, X.shape[0])]
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
    if float(np.max(np.abs(B - B.T))) >= IDENTITY_TOL * max(1.0, float(np.max(np.abs(B)))):
        raise ValueError("matrix must be symmetric")
    is_idem = float(np.max(np.abs(B @ B - B))) < IDENTITY_TOL
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


def check_battery(n_grid: list[int], trials: int, seed: int, tol: float) -> dict:
    """Run the oracle and theorem verifications and report each figure.

    Covers the closed formula against the explicit basis on an n x min(5, n-1)
    design for each n in ``n_grid`` (``trials`` vectors each), the Theorem 6
    roots, the Theorem 7 condition on exact and perturbed S, the Cheng
    factor's orthonormality and the idempotency test.  ``failures`` lists the
    keys of the checks that failed; the errors fail at ``tol`` or above.
    """
    rng = np.random.default_rng(seed)
    failures = []

    oracle_errors = {}
    for n in n_grid:
        X = rng.standard_normal((n, min(5, n - 1)))
        oracle_errors[str(n)] = oracle_compare(X, trials, seed + n)
    oracle_max = max(oracle_errors.values())
    if oracle_max >= tol:
        failures.append("oracle_max_error")

    roots = {}
    try:
        for n in (2, 4, 10, 100):
            roots[str(n)] = list(verify_theorem6_roots(n))
    except ArithmeticError:
        failures.append("theorem6_roots")

    n7, p7 = 20, 3
    Xo = np.linalg.qr(rng.standard_normal((n7, p7)))[0]
    theorem7_pass = True
    for _ in range(10):
        Q = np.linalg.qr(rng.standard_normal((p7, p7)))[0]
        S = np.linalg.inv(Q - Xo[:p7])
        perturbed = S + 0.1 * rng.standard_normal((p7, p7))  # must fail the condition
        if not verify_theorem7_condition(S, Xo) or verify_theorem7_condition(perturbed, Xo):
            theorem7_pass = False
    if not theorem7_pass:
        failures.append("theorem7_pass")

    cheng_err = 0.0
    for n in range(2, 31):
        M = cheng_matrix(n)
        cheng_err = max(
            cheng_err,
            float(np.max(np.abs(M.T @ M - np.eye(n - 1)))),
            float(np.max(np.abs(M.T @ np.ones(n)))),
        )
    if cheng_err >= tol:
        failures.append("cheng_orthonormality_error")

    idem_pass = True
    for n in (5, 12):
        if not idempotent_check(np.eye(n) - np.full((n, n), 1.0 / n)):
            idem_pass = False
        if idempotent_check(2.0 * np.eye(n)):
            idem_pass = False
    if not idem_pass:
        failures.append("idempotency_pass")

    return {
        "oracle_max_error": oracle_max,
        "oracle_errors": oracle_errors,
        "theorem6_roots": roots,
        "theorem7_pass": theorem7_pass,
        "cheng_orthonormality_error": cheng_err,
        "idempotency_pass": idem_pass,
        "failures": failures,
    }


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
    moments of W and of R^T R / sigma^2.  W's mean and covariance are
    those of R mapped by W = L R.

    In Y = X beta + sigma eps the residual is R = (I - H) Y = sigma (I - H) eps,
    so beta drops out: the replicates are drawn at unit sigma, and sigma
    scales the reported moments once, at the end.  The sum-of-squares
    identity is checked exactly per replicate (max relative error over
    replicates); the distributional claims are only checked through moments.
    """
    X = _simulation_design(cfg)
    n = cfg.n
    hat = X @ np.linalg.solve(X.T @ X, X.T)
    annihilator = np.eye(n) - hat

    if cfg.construction == "generic":
        S = s_from_qr(householder_qr(X, STANDARD), X).S
    elif cfg.construction.startswith("student"):
        S = student_coefficient(n, cfg.construction.split("-")[1])
    else:
        S = univariate_coefficients(X[:, 1], n, cfg.construction[-1])

    rng = np.random.default_rng(cfg.seed)
    reps = cfg.replicates
    batch = min(reps, MC_BATCH)
    draws, resid = np.empty((2, n * batch))  # [:n * m] of each is a C-contiguous n x m block
    sum_R = np.zeros(n)
    sum_RR = np.zeros((n, n))
    sum_q = 0.0  # moments of q = rss / sigma^2, which is rss itself at unit sigma
    sum_q2 = 0.0
    max_err = 0.0
    done = 0
    while done < reps:
        m = min(batch, reps - done)
        Z = rng.standard_normal(out=draws[:n * m].reshape(n, m))
        R = np.matmul(annihilator, Z, out=resid[:n * m].reshape(n, m))
        W = _apply_s(S, X, R, None, out=draws[:(n - cfg.p) * m].reshape(-1, m))[1]  # overwrites Z
        rss = np.einsum("ij,ij->j", R, R)
        wss = np.einsum("ij,ij->j", W, W)
        max_err = max(max_err, float(np.max(np.abs(wss - rss) / rss)))
        sum_R += R.sum(axis=1)
        sum_RR += R @ R.T
        sum_q += float(rss.sum())
        sum_q2 += float((rss * rss).sum())
        done += m

    mean_R = sum_R / reps
    cov_R = sum_RR / reps - np.outer(mean_R, mean_R)
    # W = L R with L = [X_(p) S | I_(n-p)], so W's moments are L-images of R's,
    # and L cov_R L^T is L applied to the columns of (L cov_R)^T (cov_R symmetric)
    mean_W = _apply_s(S, X, mean_R, None)[1]
    cov_W = _apply_s(S, X, _apply_s(S, X, cov_R, None)[1].T, None)[1]
    cov_W = (cov_W + cov_W.T) / 2.0  # exactly symmetric, as cov_R is
    mean_q = sum_q / reps
    s2 = cfg.sigma ** 2
    # sigma^2 may be near the float maximum; a covariance that would overflow there
    # cannot be reported, which is an error of its own rather than a warning and an inf
    if not math.isfinite(s2 * max(float(np.max(np.abs(cov_W))), float(np.max(np.abs(cov_R))))):
        raise ArithmeticError(f"the covariances overflow at sigma^2 = {s2:.3e}")
    return SimulationReport(
        mean_W=cfg.sigma * mean_W,
        cov_W=s2 * cov_W,
        cov_R=s2 * cov_R,
        mean_rss_over_sigma2=mean_q,
        var_rss_over_sigma2=sum_q2 / reps - mean_q ** 2,
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


def benchmark_apply(n_grid: list[int], p: int, repeats: int) -> list[dict]:
    """Time the three routes to U2^T x and check they agree.

    Methods: "explicit" multiplies by the materialized basis (O(n^2)),
    "reflect" applies the reflection sequence (O(np)), "closed" runs the
    paper's formula on the frame (O(np)).  ``seconds`` is the median per-call time of
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
            if err >= IDENTITY_TOL * scale:  # relative to max(1, ||x||)
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
    return [{"method": method, "n": n, "seconds": float(np.median(secs))}
            for (method, n), secs in samples.items()]
