"""The four benchmark workloads.

Each workload makes its inputs from the seed with numpy alone, runs one
user-level call per op, and checks every op's output against numpy
references computed from its own data (never from the library's fast
paths).  Library functions are looked up on their modules at call time,
so the traced run's wrappers see every call.

Each op is paired with ``plain(i)``: the same problem solved with plain
numpy and the standard library, run right after the op.  The machine this
benchmark was written on changes speed by up to +-30 % over tens of
seconds; both calls of a pair see the same speed, so the ratio of their
times is steady where either time alone is not.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from time import perf_counter

import numpy as np

from orthores import cli, core, orthocomp, regression

# Relative tolerance of the numpy-side checks.
CHECK_TOL = 1e-8


def _selection_complement(n: int, sel) -> np.ndarray:
    keep = np.ones(n, dtype=bool)
    keep[list(sel)] = False
    return keep


def lstsq_rss(X: np.ndarray, Y: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    R = Y - X @ coef
    return float(R @ R)


def plain_independent_residuals(X: np.ndarray, Y: np.ndarray, sel) -> tuple:
    """W = R_(p) + X_(p) S R^(p) and beta_star with the selected rows first,
    S = (T - X^(p))^-1 from LAPACK's QR: the construction in plain numpy."""
    n, p = X.shape
    perm = np.r_[np.asarray(sel, dtype=np.intp),
                 np.flatnonzero(_selection_complement(n, sel))]
    Xp, Yp = X[perm], Y[perm]
    Q, T = np.linalg.qr(Xp)
    beta = np.linalg.solve(T, Q.T @ Yp)
    R = Yp - Xp @ beta
    v = np.linalg.solve(T - Xp[:p], R[:p])
    return R[p:] + Xp[p:] @ v, beta - v


def residuals_ok(X, Y, rss, sel, W, beta_star) -> bool:
    """W has n-p entries, W'W = R'R for the lstsq residual R, and W equals
    Y - X beta_star on the rows outside the selection."""
    n, p = X.shape
    W = np.asarray(W, dtype=np.float64)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if W.shape != (n - p,) or beta_star.shape != (p,):
        return False
    ref = (Y - X @ beta_star)[_selection_complement(n, sel)]
    scale = float(np.linalg.norm(Y)) + float(np.abs(X).max()) * float(np.abs(beta_star).sum())
    if not float(np.max(np.abs(W - ref))) <= CHECK_TOL * scale:
        return False
    return abs(float(W @ W) - rss) <= CHECK_TOL * rss


class Workload:
    name = ""
    warmup_ops = 1
    # attributes made by generate() that setup() and op() read; the set-up
    # probe (run.py) loads them instead of generating the inputs itself
    INPUTS: tuple[str, ...] = ()
    # ops the set-up probe runs after the warm-up ops, so that its peak RSS
    # covers every input size of the workload
    memory_ops = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def out_path(self, i: int) -> Path:
        """Output file of op i; warm-up ops are checked after all of them
        ran, so consecutive ops write to different files."""
        return self.workdir / f"{self.name}-{os.getpid()}-{i % 8}.json"

    def sizes(self) -> dict:
        raise NotImplementedError

    def generate(self) -> None:
        """Make the inputs; not part of set-up time."""

    def inputs_path(self) -> Path:
        return self.workdir / f"{self.name}-seed{self.seed}.inputs.pkl"

    def save_inputs(self) -> None:
        with open(self.inputs_path(), "wb") as fh:
            pickle.dump({k: getattr(self, k) for k in self.INPUTS}, fh, protocol=5)

    def load_inputs(self) -> None:
        """Read what save_inputs() wrote; protocol 5 reads each array
        straight into its buffer, so loading adds no second copy to the
        peak RSS."""
        with open(self.inputs_path(), "rb") as fh:
            self.__dict__.update(pickle.load(fh))

    def setup(self) -> None:
        """Program-side set-up before the first op; part of set-up time."""

    def op(self, i: int):
        raise NotImplementedError

    def plain(self, i: int):
        """The problem of op i solved with plain numpy; timed as the pair's
        reference."""
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError


class IndepTall(Workload):
    """``orthores indep --mode general`` from CSV to JSON, in process."""

    name = "indep-tall"
    N, P = 20_000, 6
    INPUTS = ("csv", "selections")
    SELECTIONS = 64

    def sizes(self):
        return {"n": self.N, "p": self.P, "selected_rows": self.P,
                "csv_bytes": self.csv.stat().st_size}

    def generate(self):
        rng = self.rng(1)
        n, p = self.N, self.P
        self.X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        self.Y = self.X @ rng.standard_normal(p) + rng.standard_normal(n)
        self.rss = lstsq_rss(self.X, self.Y)
        # p scattered rows, always including the last one
        self.selections = [
            tuple(sorted(int(r) for r in rng.choice(n - 1, p - 1, replace=False))) + (n - 1,)
            for _ in range(self.SELECTIONS)
        ]
        self.csv = self.workdir / f"indep-tall-seed{self.seed}.csv"
        if not self.csv.exists():
            header = ",".join([f"x{j + 1}" for j in range(p)] + ["y"])
            tmp = self.csv.with_suffix(f".tmp{os.getpid()}")
            np.savetxt(tmp, np.column_stack([self.X, self.Y]), fmt="%.17g",
                       delimiter=",", header=header, comments="")
            tmp.replace(self.csv)

    def op(self, i):
        sel = self.selections[i % len(self.selections)]
        code = cli.main(["indep", str(self.csv), "--mode", "general",
                         "--rows", ",".join(map(str, sel)), "--out", str(self.out_path(i))])
        return code, sel

    def plain(self, i):
        data = np.loadtxt(self.csv, delimiter=",", skiprows=1)
        W, beta_star = plain_independent_residuals(
            data[:, :-1], data[:, -1], self.selections[i % len(self.selections)])
        with open(self.workdir / f"plain-{os.getpid()}.json", "w") as fh:
            json.dump({"W": W.tolist(), "beta_star": beta_star.tolist()}, fh, indent=2)

    def check(self, i, out):
        code, sel = out
        if code != 0:
            return False
        with open(self.out_path(i)) as fh:
            doc = json.load(fh)
        return residuals_ok(self.X, self.Y, self.rss, sel, doc["W"], doc["beta_star"])


class Groups(Workload):
    """Many small regressions through the library calls, four constructions
    in rotation: student, univariate, general p = 3 and general p = 6."""

    name = "groups"
    warmup_ops = 4
    INPUTS = ("pool",)
    POOL = 512
    memory_ops = POOL
    N_MIN, N_MAX = 8, 512
    KINDS = ("student", "univariate", "general3", "general6")

    def sizes(self):
        ns = [pb["n"] for pb in self.pool]
        return {"problems": self.POOL, "n_min": min(ns), "n_max": max(ns),
                "n_median": float(np.median(ns)), "kinds": list(self.KINDS)}

    def generate(self):
        rng = self.rng(2)
        per_kind = self.POOL // len(self.KINDS)
        # log-uniform n, stratified so that each seed covers the range evenly
        strata = {kind: rng.permutation(per_kind) for kind in self.KINDS}
        self.pool = []
        for i in range(self.POOL):
            kind = self.KINDS[i % len(self.KINDS)]
            k = i // len(self.KINDS)
            u = (strata[kind][k] + rng.random()) / per_kind
            n = int(round(self.N_MIN * (self.N_MAX / self.N_MIN) ** u))
            variant = k % 2
            if kind == "student":
                Y = 3.0 + rng.standard_normal(n)
                pb = {"X": np.ones((n, 1)), "Y": Y, "sel": (0,),
                      "variant": ("minus", "plus")[variant]}
            elif kind == "univariate":
                raw = 5.0 + 2.0 * rng.standard_normal(n)
                Y = 1.0 + 0.5 * raw + rng.standard_normal(n)
                c = raw - raw.mean()
                t = c / np.linalg.norm(c)
                pb = {"X": np.column_stack([np.ones(n), t]), "Y": Y, "raw": raw,
                      "sel": (0, 1), "variant": ("a", "b")[variant]}
            else:
                p = 3 if kind == "general3" else 6
                X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
                Y = X @ rng.standard_normal(p) + rng.standard_normal(n)
                sel = tuple(sorted(int(r) for r in rng.choice(n, p, replace=False)))
                pb = {"X": X, "Y": Y, "sel": sel}
            pb.update(kind=kind, n=n, rss=lstsq_rss(pb["X"], pb["Y"]))
            self.pool.append(pb)

    def op(self, i):
        pb = self.pool[i % self.POOL]
        kind, Y = pb["kind"], pb["Y"]
        if kind == "student":
            return None, regression.student_w(Y, pb["variant"])
        if kind == "univariate":
            t = regression.standardize_predictor(pb["raw"])
            fit = regression.fit_least_squares(np.column_stack([np.ones(pb["n"]), t.t]), Y)
            return fit.rss, regression.univariate_w(t, Y, pb["variant"])
        X = pb["X"]
        sel = orthocomp.RowSelection(pb["sel"])
        fit = regression.fit_least_squares(X, Y)
        qr = orthocomp.qr_for_selection(X, sel)
        sp = orthocomp.s_from_qr(qr, X, sel)
        return fit.rss, regression.independent_residuals(fit, sp, sel)

    def plain(self, i):
        pb = self.pool[i % self.POOL]
        return plain_independent_residuals(pb["X"], pb["Y"], pb["sel"])

    def check(self, i, out):
        pb = self.pool[i % self.POOL]
        rss, res = out
        if rss is not None and not abs(rss - pb["rss"]) <= CHECK_TOL * pb["rss"]:
            return False
        return residuals_ok(pb["X"], pb["Y"], pb["rss"], pb["sel"], res.W, res.beta_star)


class Simulate(Workload):
    """``orthores simulate`` in process: seeded Monte Carlo moment reports."""

    name = "simulate"
    N, REPS = 100, 20_000
    CONSTRUCTIONS = (("generic", 4), ("student-minus", 1), ("univariate-b", 2))
    warmup_ops = len(CONSTRUCTIONS)

    def sizes(self):
        return {"n": self.N, "replicates": self.REPS,
                "constructions": [f"{c} (p={p})" for c, p in self.CONSTRUCTIONS]}

    def _op_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, 7, i]).generate_state(1)[0])

    def op(self, i):
        construction, p = self.CONSTRUCTIONS[i % len(self.CONSTRUCTIONS)]
        code = cli.main(["simulate", "--n", str(self.N), "--p", str(p),
                         "--reps", str(self.REPS), "--seed", str(self._op_seed(i)),
                         "--construction", construction, "--out", str(self.out_path(i))])
        return code, p

    def plain(self, i):
        """Dense numpy Monte Carlo of the same size and output."""
        n, p, m = self.N, self.CONSTRUCTIONS[i % len(self.CONSTRUCTIONS)][1], self.REPS
        rng = np.random.default_rng(self._op_seed(i))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        Q, T = np.linalg.qr(X)
        annihilator = np.eye(n) - Q @ Q.T
        w_map = np.hstack([X[p:] @ np.linalg.inv(T - X[:p]), np.eye(n - p)])
        R = annihilator @ rng.standard_normal((n, m))
        W = w_map @ R
        rss = np.einsum("ij,ij->j", R, R)
        wss = np.einsum("ij,ij->j", W, W)
        report = {"mean_W": W.mean(axis=1).tolist(), "cov_W": np.cov(W, bias=True).tolist(),
                  "cov_R": np.cov(R, bias=True).tolist(),
                  "mean_rss": float(rss.mean()), "var_rss": float(rss.var()),
                  "max_ss_identity_error": float(np.max(np.abs(wss - rss) / rss))}
        with open(self.workdir / f"plain-{os.getpid()}.json", "w") as fh:
            json.dump(report, fh, indent=2)

    def check(self, i, out):
        code, p = out
        if code != 0:
            return False
        with open(self.out_path(i)) as fh:
            doc = json.load(fh)
        n, n_w = self.N, self.N - p
        if (np.shape(doc["mean_W"]) != (n_w,) or np.shape(doc["cov_W"]) != (n_w, n_w)
                or np.shape(doc["cov_R"]) != (n, n) or doc["replicates"] != self.REPS):
            return False
        if not doc["max_ss_identity_error"] < 1e-10:
            return False
        # R'R / sigma^2 ~ chi^2_{n-p}: its sample mean lies within 6 standard errors
        return abs(doc["mean_rss_over_sigma2"] - n_w) <= 6.0 * np.sqrt(2.0 * n_w / self.REPS)


class ApplyStream(Workload):
    """The closed-form apply ``orthocomplement_apply`` on a fixed tall
    design, with the reflection route run on the same vector as reference."""

    name = "apply-stream"
    N, P, POOL = 100_000, 5, 16
    INPUTS = ("X", "pool")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reflect_s: list[float] = []
        self.bare_s: list[float] = []

    def sizes(self):
        return {"n": self.N, "p": self.P, "selection": "first p", "vector_pool": self.POOL}

    def generate(self):
        rng = self.rng(4)
        self.X = rng.standard_normal((self.N, self.P))
        Z = rng.standard_normal((self.N, self.POOL))
        coef, *_ = np.linalg.lstsq(self.X, Z, rcond=None)
        self.pool = [np.ascontiguousarray(col) for col in (Z - self.X @ coef).T]
        # S for the plain formula, from LAPACK's QR (standard signs, as the library)
        T = np.linalg.qr(self.X, mode="r")
        self.plain_S = np.linalg.inv(T - self.X[:self.P])

    def setup(self):
        self.qr = core.householder_qr(self.X)
        self.sp = orthocomp.s_from_qr(self.qr, self.X)

    def op(self, i):
        return orthocomp.orthocomplement_apply(self.sp, self.X, self.pool[i % self.POOL])

    def plain(self, i):
        """x_(p) + X_(p) S x^(p) written directly: the row order (selected
        rows first) built with a list comprehension, gathered, and the
        formula in one thread.  The pair needs the op's mix of interpreter
        and memory work: with the formula alone, whose memory-bound time
        swings more with the load on a shared 2-core VM than the op's, the
        ratio's spread over 10-second windows was 0.088 against 0.010 with
        this pair.  A two-thread BLAS GEMV also follows the load on the
        second core, which the op (mostly single-threaded Python) does not."""
        x, X, p, n = self.pool[i % self.POOL], self.X, self.P, self.N
        sel = list(range(p))
        chosen = set(sel)
        perm = np.array(sel + [r for r in range(n) if r not in chosen], dtype=np.intp)
        xp, Xp = x[perm], X[perm]
        return xp[p:] + np.einsum("ij,j->i", Xp[p:], self.plain_S @ xp[:p])

    def check(self, i, out):
        """Closed and reflect routes agree; also times the reflect route and
        the bare formula x[p:] + X[p:] @ (S @ x[:p]), the floor of the
        closed route."""
        x, X, p = self.pool[i % self.POOL], self.X, self.P
        start = perf_counter()
        ref = core.apply_Qt(self.qr, x)[p:]
        mid = perf_counter()
        x[p:] + X[p:] @ (self.plain_S @ x[:p])
        self.bare_s.append(perf_counter() - mid)
        self.reflect_s.append(mid - start)
        xnorm = float(np.linalg.norm(x))
        if out.shape != (self.N - p,):
            return False
        if not float(np.max(np.abs(out - ref))) <= 1e-9 * xnorm:
            return False
        # U2^T is an isometry on the orthocomplement
        return abs(float(np.linalg.norm(out)) - xnorm) <= 1e-9 * xnorm


WORKLOADS = {w.name: w for w in (IndepTall, Groups, Simulate, ApplyStream)}
