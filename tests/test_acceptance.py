"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Run with -s to see the lines."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import orthores
from orthores import (
    STANDARD,
    TO_POSITIVE,
    RowSelection,
    cheng_matrix,
    explicit_orthocomplement_basis,
    fit_least_squares,
    householder_qr,
    independent_residuals,
    monte_carlo,
    orthocomplement_apply,
    qr_for_selection,
    rank_count,
    s_from_qr,
    s_recursion,
    standardize_predictor,
    student_w,
    univariate_w,
    verify_theorem6_roots,
    verify_theorem7_condition,
    SimulationConfig,
)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_orthocomplement_vector(X, rng):
    z = rng.standard_normal(X.shape[0])
    coef, *_ = np.linalg.lstsq(X, z, rcond=None)
    return z - X @ coef


def singular_predictor(n):
    rn = np.sqrt(n)
    t = np.empty(n)
    t[0] = 1.0 / rn
    t[1] = 1.0 - 1.0 / (rn * (rn - 1.0))
    t[2:] = -1.0 / (rn * (rn - 1.0))
    return t


def test_criterion_1_sum_of_squares_identity():
    rng = np.random.default_rng(2024)
    paths = ("generic", "student-minus", "student-plus", "univariate-a", "univariate-b")
    worst = 0.0
    start = time.perf_counter()
    for i in range(1000):
        path = paths[i % len(paths)]
        n = int(rng.integers(3, 201))
        Y = rng.standard_normal(n)
        if path == "generic":
            p = int(rng.integers(1, min(10, n - 1) + 1))
            X = rng.standard_normal((n, p))
            sel = RowSelection(tuple(sorted(rng.choice(n, p, replace=False).tolist())))
            fit = fit_least_squares(X, Y)
            sp = s_from_qr(qr_for_selection(X, sel), X, sel)
            out = independent_residuals(fit, sp, sel)
            rss = fit.rss
        elif path.startswith("student"):
            R = Y - Y.mean()
            rss = float(R @ R)
            out = student_w(Y, path.split("-")[1])
        else:
            t = standardize_predictor(rng.standard_normal(n))
            a, b = Y.mean(), t.t @ Y
            R = Y - a - b * t.t
            rss = float(R @ R)
            out = univariate_w(t, Y, path[-1])
        worst = max(worst, abs(float(out.W @ out.W) - rss) / rss)
    elapsed = time.perf_counter() - start
    report("criterion 1 (W'W = R'R across all paths)",
           worst < 1e-10 and elapsed < 10.0,
           f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    start = time.perf_counter()
    for n, p in ((20, 2), (100, 5), (200, 10)):
        for _ in range(100):
            X = rng.standard_normal((n, p))
            qr = householder_qr(X)
            sp = s_from_qr(qr, X)
            U2 = explicit_orthocomplement_basis(qr)
            x = random_orthocomplement_vector(X, rng)
            err = float(np.max(np.abs(orthocomplement_apply(sp, X, x) - U2.T @ x)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report("criterion 2 (closed formula vs explicit basis)",
           worst < 1e-10 and elapsed < 30.0,
           f"max err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_3_rank_formula():
    rng = np.random.default_rng(11)
    ok = True
    details = []
    # k = 0: standard policy always gives rank p
    for _ in range(10):
        X = rng.standard_normal((30, 4))
        r = rank_count(householder_qr(X), X)
        ok &= r == 4
    details.append("k=0 -> p")
    # k = 1: the slope-intercept singular configuration at n = 4
    X1 = np.column_stack([np.full(4, 0.5), singular_predictor(4)])
    qr1 = householder_qr(X1, TO_POSITIVE)
    r1 = rank_count(qr1, X1)
    ok &= r1 == 1
    details.append(f"n=4 singular config rank {r1}")
    # k = 2: two leading basis-vector columns under the to-positive map
    X2 = np.eye(6)[:, :2]
    qr2 = householder_qr(X2, TO_POSITIVE)
    r2 = rank_count(qr2, X2)
    ok &= r2 == 0
    details.append(f"two identity reflections rank {r2}")
    report("criterion 3 (rank(T - X^(p)) = p - k)", ok, "; ".join(details))


def test_criterion_4_recursion_identities():
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(4, 40))
        p = int(rng.integers(1, min(6, n)))
        if i % 5 == 0:
            # first column exactly e1 forces a singular first step
            rest = rng.standard_normal((n, p - 1))
            rest[0, :] = 0.0
            cols = [np.eye(n)[:, :1]]
            if p > 1:
                cols.append(np.linalg.qr(rest)[0])
            Xo = np.hstack(cols)
        else:
            Xo = np.linalg.qr(rng.standard_normal((n, p)))[0]
        sp = s_recursion(Xo)
        S = sp.S
        M = np.eye(p) - Xo[:p]
        worst = max(worst, float(np.max(np.abs(M @ S @ M - M))))
        worst = max(worst, float(np.max(np.abs(S.T @ M.T @ S - S))))
        x = random_orthocomplement_vector(Xo, rng)
        worst = max(worst, float(np.max(np.abs(M @ S @ x[:p] - x[:p]))))
    report("criterion 4 (recursion identities incl. singular steps)",
           worst < 1e-10, f"max err {worst:.3e}")


def test_criterion_5_student_golden_cases():
    minus = student_w([1.0, 2.0, 3.0, 4.0], "minus")
    plus = student_w([1.0, 2.0, 3.0, 4.0], "plus")
    err = max(
        float(np.max(np.abs(minus.W - [0.0, 1.0, 2.0]))),
        float(np.max(np.abs(plus.W - [-2.0, -1.0, 0.0]))),
        abs(float(minus.W @ minus.W) - 5.0),
        abs(float(plus.W @ plus.W) - 5.0),
    )
    report("criterion 5 (mean-only golden cases)", err < 1e-14, f"max err {err:.3e}")


def test_criterion_6_quadratic_roots():
    worst = 0.0
    for n in range(2, 1001):
        c_plus, c_minus = verify_theorem6_roots(n)
        worst = max(worst,
                    abs((n - 1) * c_plus ** 2 - 2 * c_plus - 1),
                    abs((n - 1) * c_minus ** 2 - 2 * c_minus - 1))
    report("criterion 6 (quadratic roots n=2..1000)", worst < 1e-12,
           f"max residual {worst:.3e}")


def test_criterion_7_solution_form_condition():
    rng = np.random.default_rng(17)
    n, p = 25, 3
    Xo = np.linalg.qr(rng.standard_normal((n, p)))[0]
    ok = True
    for _ in range(50):
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        S = np.linalg.inv(Q - Xo[:p])
        ok &= verify_theorem7_condition(S, Xo)
        ok &= not verify_theorem7_condition(S + 0.1 * rng.standard_normal((p, p)), Xo)
    report("criterion 7 (solution-form condition on 50 orthogonal normalizers)", ok)


def test_criterion_8_centering_factorization():
    worst_ortho = 0.0
    worst_diag = 0.0
    for n in range(2, 51):
        M = cheng_matrix(n)
        worst_ortho = max(
            worst_ortho,
            float(np.max(np.abs(M.T @ M - np.eye(n - 1)))),
            float(np.max(np.abs(M.T @ np.ones(n)))),
        )
        # L is unit diagonal, so the pivots are the squared diagonal of M
        expected = np.array([(n - 1.0 - k) / (n - k) for k in range(n - 1)])
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(M) ** 2 - expected))))
    report("criterion 8 (LDL' factor of the centering projector)",
           worst_ortho < 1e-10 and worst_diag < 1e-14,
           f"ortho err {worst_ortho:.3e}, diag err {worst_diag:.3e}")


def test_criterion_9_distributional_moments():
    start = time.perf_counter()
    report_p2 = monte_carlo(SimulationConfig(
        n=10, p=2, sigma=1.0, replicates=100_000,
        seed=2718, construction="generic"))
    checks = {
        "mean rss": abs(report_p2.mean_rss_over_sigma2 - 8.0) < 0.05,
        "var rss": abs(report_p2.var_rss_over_sigma2 - 16.0) < 0.5,
        "ss identity": report_p2.max_ss_identity_error < 1e-10,
    }
    cov = report_p2.cov_W
    off = cov - np.diag(np.diag(cov))
    checks["cov_W off-diag"] = float(np.max(np.abs(off))) < 0.02
    checks["cov_W diag"] = float(np.max(np.abs(np.diag(cov) - 1.0))) < 0.03

    # the -sigma^2/n residual covariance is the mean-only (p = 1) claim
    report_p1 = monte_carlo(SimulationConfig(
        n=10, p=1, sigma=1.0, replicates=100_000,
        seed=2719, construction="student-minus"))
    n, reps = 10, report_p1.replicates
    var_r = (n - 1.0) / n
    se = np.sqrt((var_r * var_r + (1.0 / n) ** 2) / reps)
    cov_r = report_p1.cov_R
    off_r = cov_r[~np.eye(n, dtype=bool)]
    checks["cov_R off-diag"] = float(np.max(np.abs(off_r + 1.0 / n))) < 3.0 * se
    elapsed = time.perf_counter() - start
    checks["runtime"] = elapsed < 60.0
    failed = [k for k, v in checks.items() if not v]
    report("criterion 9 (moment checks at 1e5 replicates)", not failed,
           f"{elapsed:.1f}s" + (f", failed: {failed}" if failed else ""))


def test_criterion_10_performance_separation():
    # `orthores bench` in a process of its own with one BLAS thread: on a busy
    # 2-core machine two-thread OpenBLAS calls stalled for milliseconds each,
    # which no repeat count evens out
    path = [str(Path(orthores.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "orthores.cli", "bench", "--n-grid",
                           "1000,4000,16000", "--p", "5", "--repeats", "3"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["timings"]
    times = {(r["method"], r["n"]): r["seconds"] for r in rows}
    explicit_ratio = times[("explicit", 16000)] / times[("explicit", 1000)]
    closed_ratio = times[("closed", 16000)] / times[("closed", 1000)]
    ok = explicit_ratio >= 4.0 * closed_ratio
    report("criterion 10 (quadratic vs linear growth)", ok,
           f"explicit ratio {explicit_ratio:.1f}, closed ratio {closed_ratio:.1f}")
