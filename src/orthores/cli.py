"""Command-line front end: CSV in, JSON out.

Subcommands: qr, residuals, indep, simulate, check, bench.  Every output
embeds the run manifest.  Exit codes: 0 success, 2 input error, 3 rank
deficiency, 4 internal identity violation, 5 check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .core import STANDARD, TO_POSITIVE, RankDeficiencyError, SignPolicy, householder_qr
from .orthocomp import RowSelection, qr_for_selection, rank_count, s_from_qr
from .regression import (
    fit_least_squares,
    independent_residuals,
    standardize_predictor,
    student_w,
    univariate_w,
)
from .validation import (
    SimulationConfig,
    benchmark_apply,
    cheng_matrix,
    idempotent_check,
    monte_carlo,
    oracle_compare,
    verify_theorem6_roots,
    verify_theorem7_condition,
)

EXIT_INPUT = 2
EXIT_RANK = 3
EXIT_IDENTITY = 4
EXIT_CHECK = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def read_csv_matrix(path: str) -> np.ndarray:
    """Read a CSV of floats, skipping an optional single header row."""
    try:
        with open(path, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}")
    if not raw:
        raise CliError(EXIT_INPUT, f"{path} contains no data rows")
    start = 0
    try:
        [float(cell) for cell in raw[0]]
    except ValueError:
        start = 1
    rows = raw[start:]
    if not rows:
        raise CliError(EXIT_INPUT, f"{path} contains a header but no data rows")
    width = len(rows[0])
    data = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CliError(
                EXIT_INPUT, f"{path} row {start + i + 1}: expected {width} cells, got {len(row)}"
            )
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise CliError(
                    EXIT_INPUT,
                    f"{path} row {start + i + 1}, column {j + 1}: cannot parse {cell!r}",
                )
        data.append(parsed)
    matrix = np.array(data)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise CliError(EXIT_INPUT, f"{path} row {start + i + 1}, column {j + 1}: "
                                   f"non-finite value {rows[i][j]!r}")
    return matrix


def parse_selection(spec: str | None) -> RowSelection | None:
    if spec is None:
        return None
    try:
        idx = tuple(int(s) for s in spec.split(","))
        return RowSelection(idx)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad --rows value {spec!r}: {exc}")


def parse_policy(name: str, custom: str | None) -> SignPolicy:
    if name == "standard":
        return STANDARD
    if name == "to-positive":
        return TO_POSITIVE
    try:
        return SignPolicy.custom(int(s) for s in custom.split(","))
    except (AttributeError, ValueError) as exc:
        raise CliError(EXIT_INPUT, f"bad --signs value for custom policy: {exc}")


def resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("ORTHORES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(EXIT_INPUT, f"ORTHORES_SEED is not an integer: {env!r}")
    return 0


def manifest(args) -> dict:
    return {
        "subcommand": args.command,
        "input": getattr(args, "input", None),
        "selection": getattr(args, "rows", None),
        "variant": getattr(args, "variant", None),
        "seed": getattr(args, "seed", None),
        "output": getattr(args, "out", None),
        "tool_version": __version__,
    }


def emit(args, payload: dict) -> None:
    payload = {"manifest": manifest(args), **payload}
    text = json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_qr(args) -> None:
    X = read_csv_matrix(args.input)
    qr = householder_qr(X, parse_policy(args.policy, args.signs))
    emit(args, {
        "T": qr.T.tolist(),
        "reflector_norms": [float(np.sqrt(w)) for w in qr.vnorm2],
        "rank_count": rank_count(qr, X),
    })


def cmd_residuals(args) -> None:
    data = read_csv_matrix(args.input)
    if data.shape[1] == 1:  # Y alone: fit the mean
        fit = fit_least_squares(np.ones((data.shape[0], 1)), data[:, 0])
    else:
        fit = fit_least_squares(data[:, :-1], data[:, -1])
    emit(args, {
        "beta_hat": fit.beta_hat.tolist(),
        "R": fit.residuals.tolist(),
        "rss": fit.rss,
    })


def cmd_indep(args) -> None:
    data = read_csv_matrix(args.input)
    ncols = data.shape[1]
    if args.mode == "student":
        if ncols != 1:
            raise CliError(EXIT_INPUT, f"student mode needs a 1-column file, got {ncols}")
        Y = data[:, 0]
        rss = float(np.sum((Y - Y.mean()) ** 2))
        result = student_w(Y, args.variant or "minus")
    elif args.mode == "univariate":
        if ncols != 2:
            raise CliError(EXIT_INPUT, f"univariate mode needs a 2-column file, got {ncols}")
        t = standardize_predictor(data[:, 0])
        Y = data[:, 1]
        rss = fit_least_squares(np.column_stack([np.ones(len(Y)), t.t]), Y).rss
        result = univariate_w(t, Y, args.variant or "b")
    else:
        if ncols < 2:
            raise CliError(EXIT_INPUT, "general mode needs at least 2 columns")
        X, Y = data[:, :-1], data[:, -1]
        sel = parse_selection(args.rows)
        fit = fit_least_squares(X, Y)
        rss = fit.rss
        sp = s_from_qr(qr_for_selection(X, sel), X, sel)
        result = independent_residuals(fit, sp, sel)
    wss = float(result.W @ result.W)
    rel_err = abs(wss - rss) / rss if rss != 0.0 else abs(wss)
    if not rel_err < args.tol:  # NaN fails too
        raise CliError(EXIT_IDENTITY,
                       f"sum-of-squares identity violated: wss={wss!r}, rss={rss!r}")
    emit(args, {
        "W": result.W.tolist(),
        "v": result.v.tolist(),
        "beta_star": result.beta_star.tolist(),
        "rss": rss,
        "wss": wss,
    })


def cmd_simulate(args) -> None:
    cfg = SimulationConfig(
        n=args.n, p=args.p,
        beta=np.zeros(args.p) if args.beta is None
        else np.array([float(s) for s in args.beta.split(",")]),
        sigma=args.sigma, replicates=args.reps,
        seed=resolve_seed(args), construction=args.construction,
    )
    emit(args, monte_carlo(cfg).to_dict())


def cmd_check(args) -> None:
    seed = resolve_seed(args)
    tol = args.tol
    rng = np.random.default_rng(seed)
    failures = []

    try:
        n_grid = [int(s) for s in args.n_grid.split(",")]
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad --n-grid: {exc}")
    if min(n_grid) < 2:
        raise CliError(EXIT_INPUT, f"--n-grid entries must be at least 2, got {min(n_grid)}")

    oracle_errors = {}
    for n in n_grid:
        p = min(5, n - 1)
        X = rng.standard_normal((n, p))
        oracle_errors[str(n)] = oracle_compare(X, args.trials, seed + n)
    oracle_max = max(oracle_errors.values())
    if oracle_max >= tol:
        failures.append("oracle_max_error")

    roots = {}
    try:
        for n in (2, 4, 10, 100):
            c_plus, c_minus = verify_theorem6_roots(n)
            roots[str(n)] = [c_plus, c_minus]
    except ArithmeticError:
        failures.append("theorem6_roots")

    n7, p7 = 20, 3
    Xo = np.linalg.qr(rng.standard_normal((n7, p7)))[0]
    theorem7_pass = True
    for _ in range(10):
        Q = np.linalg.qr(rng.standard_normal((p7, p7)))[0]
        S = np.linalg.inv(Q - Xo[:p7])
        if not verify_theorem7_condition(S, Xo):
            theorem7_pass = False
        if args.inject_fault or verify_theorem7_condition(
                S + 0.1 * rng.standard_normal((p7, p7)), Xo):
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

    emit(args, {
        "oracle_max_error": oracle_max,
        "oracle_errors": oracle_errors,
        "theorem6_roots": roots,
        "theorem7_pass": theorem7_pass,
        "cheng_orthonormality_error": cheng_err,
        "idempotency_pass": idem_pass,
        "failures": failures,
    })
    if failures:
        raise CliError(EXIT_CHECK, "failed checks: " + ", ".join(failures))


def cmd_bench(args) -> None:
    n_grid = [int(s) for s in args.n_grid.split(",")]
    emit(args, {"timings": benchmark_apply(n_grid, args.p, args.repeats)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthores",
        description="Householder QR, orthocomplement actions, and independent residuals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="tolerance for internal identity checks")

    p = sub.add_parser("qr", help="Householder factorization of a CSV matrix")
    p.add_argument("input")
    p.add_argument("--policy", choices=["standard", "to-positive", "custom"],
                   default="standard")
    p.add_argument("--signs", help="comma-separated +-1 list for --policy custom")
    common(p)
    p.set_defaults(func=cmd_qr)

    p = sub.add_parser("residuals", help="least-squares fit and residuals")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("indep", help="independent residuals")
    p.add_argument("input")
    p.add_argument("--mode", choices=["student", "univariate", "general"], required=True)
    p.add_argument("--variant", choices=["minus", "plus", "a", "b"])
    p.add_argument("--rows", help="comma-separated 0-based row selection (general mode)")
    common(p)
    p.set_defaults(func=cmd_indep)

    p = sub.add_parser("simulate", help="seeded Monte Carlo moment report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--beta", help="comma-separated coefficients (default zeros)")
    p.add_argument("--construction", default="generic",
                   choices=["generic", "student-minus", "student-plus",
                            "univariate-a", "univariate-b"])
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run the oracle and theorem verifications")
    p.add_argument("--n-grid", default="5,20,100")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="timing comparison of the three apply routes")
    p.add_argument("--n-grid", default="1000,4000,16000")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--repeats", type=int, default=3,
                   help="timed samples per method and n, after one warm-up call; each "
                        "sample loops for at least 1 ms and the median is reported")
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except RankDeficiencyError as exc:
        code, message = EXIT_RANK, str(exc)
    except ValueError as exc:  # input the library rejected; LinAlgError is one
        code, message = EXIT_INPUT, str(exc)
    except ArithmeticError as exc:  # an internal identity check failed
        code, message = EXIT_IDENTITY, str(exc)
    else:
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
