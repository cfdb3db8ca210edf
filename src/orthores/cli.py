"""Command-line front end: CSV in, JSON out.

Subcommands: qr, residuals, indep, simulate, check, bench.  Every output
embeds the run manifest.  Exit codes: 0 success, 2 input error, 3 rank
deficiency, 4 internal identity violation, 5 check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (IDENTITY_TOL, STANDARD, TO_POSITIVE, RankDeficiencyError, SignPolicy, _norm,
                   householder_qr)
from .orthocomp import RowSelection, rank_count
from .regression import (
    fit_independent_residuals,
    fit_least_squares,
    standardize_predictor,
    student_w,
    univariate_w,
)
from .validation import (CONSTRUCTIONS, SimulationConfig, benchmark_apply, check_battery,
                         monte_carlo)

EXIT_INPUT = 2
EXIT_RANK = 3
EXIT_IDENTITY = 4
EXIT_CHECK = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def read_csv_matrix(path: str) -> np.ndarray:
    """Read a CSV of floats, skipping blank lines and an optional header
    (a first non-blank row with a cell that is not a number)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a BOM is not a cell
            reader = csv.reader(fh)
            rows = (row for row in reader if row)
            first, skip = next(rows, []), 0
            try:
                [float(cell) for cell in first]
            except ValueError:  # a header: the data start after it
                skip = reader.line_num
                first = next(rows, [])
        if not first:
            raise CliError(EXIT_INPUT, f"{path} contains no data rows")
        matrix = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2,
                            comments=None, quotechar='"', encoding="utf-8-sig")
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}")
    except ValueError as exc:  # a cell numpy cannot parse, or ragged rows
        raise CliError(EXIT_INPUT, f"{path}: {exc}")
    if not np.isfinite(matrix).all():  # a 20th of argwhere's time; locate the cell only here
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise CliError(EXIT_INPUT, f"{path} data row {i + 1}, column {j + 1}: "
                                   f"non-finite value {matrix[i, j]}")
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
    if name != "custom":
        if custom is not None:
            raise CliError(EXIT_INPUT, f"--signs needs --policy custom, not {name}")
        return STANDARD if name == "standard" else TO_POSITIVE
    try:
        return SignPolicy.custom(int(s) for s in custom.split(","))
    except (AttributeError, ValueError) as exc:
        raise CliError(EXIT_INPUT, f"bad --signs value for custom policy: {exc}")


def _parse_n_grid(spec: str) -> list[int]:
    try:
        return [int(s) for s in spec.split(",")]
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad --n-grid: {exc}")


def tolerance(text: str) -> float:
    """A --tol value: finite and >= 0, since a NaN tolerance passes every check."""
    tol = float(text)  # argparse reports a ValueError as an invalid value
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


def resolve_seed(args) -> int:
    if args.seed is not None:
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
        "seed": resolve_seed(args) if "seed" in args else None,  # the seed the run used
        "output": getattr(args, "out", None),
        "tool_version": __version__,
    }


def emit(args, payload: dict) -> None:
    payload = {"manifest": manifest(args), **payload}
    # one top-level key per line, each value compact: json.dumps uses its C
    # encoder only when indent is None
    try:
        lines = [f"  {json.dumps(key)}: {json.dumps(value, allow_nan=False)}"
                 for key, value in payload.items()]
    except ValueError as exc:  # NaN or infinity, which JSON cannot carry
        raise CliError(EXIT_IDENTITY, f"result is not finite: {exc}")
    text = "{\n" + ",\n".join(lines) + "\n}"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot write {args.out}: {exc}")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:  # the reader closed stdout early
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())  # so that the flush at exit does not raise again
            os.close(devnull)
            raise CliError(EXIT_INPUT, f"cannot write stdout: {exc}")


def cmd_qr(args) -> None:
    X = read_csv_matrix(args.input)
    qr = householder_qr(X, parse_policy(args.policy, args.signs))
    emit(args, {
        "T": qr.T.tolist(),
        # ||v_k|| for the reflector v_k = -tau_k T_kk u_k
        "reflector_norms": (np.abs(qr.T.diagonal()) * np.sqrt(2.0 * qr.tau)).tolist(),
        "rank_count": rank_count(qr, X),
    })


def cmd_residuals(args) -> None:
    data = read_csv_matrix(args.input)
    n, ncols = data.shape
    X = data[:, :-1] if ncols > 1 else np.ones((n, 1))  # Y alone: fit the mean
    fit = fit_least_squares(X, data[:, -1])
    emit(args, {
        "beta_hat": fit.beta_hat.tolist(),
        "R": fit.residuals.tolist(),
        "rss": fit.rss,
    })


def cmd_indep(args) -> None:
    if args.rows is not None and args.mode != "general":
        raise CliError(EXIT_INPUT, f"--rows needs --mode general, not {args.mode}")
    if args.variant is not None and args.mode == "general":
        raise CliError(EXIT_INPUT, "--variant needs --mode student or univariate")
    data = read_csv_matrix(args.input)
    n, ncols = data.shape
    Y = data[:, -1]
    if args.mode == "student":
        if ncols != 1:
            raise CliError(EXIT_INPUT, f"student mode needs a 1-column file, got {ncols}")
        fit, result = fit_least_squares(np.ones((n, 1)), Y), student_w(Y, args.variant or "minus")
    elif args.mode == "univariate":
        if ncols != 2:
            raise CliError(EXIT_INPUT, f"univariate mode needs a 2-column file, got {ncols}")
        t = standardize_predictor(data[:, 0])
        fit = fit_least_squares(np.column_stack([np.ones(n), t.t]), Y)
        result = univariate_w(t, Y, args.variant or "b")
    else:
        if ncols < 2:
            raise CliError(EXIT_INPUT, "general mode needs at least 2 columns")
        fit, result = fit_independent_residuals(data[:, :-1], Y, parse_selection(args.rows))
    rss, wss = fit.rss, float(result.W @ result.W)
    # below n eps ||Y||^2 a sum of squares is rounding noise at the data's scale (a response
    # in col(X)), so the identity is held to that floor; in units of ||Y||^2, so none overflows
    unit, floor = _norm(Y), n * sys.float_info.epsilon  # Python floats: no numpy warnings
    rel_err = abs(wss - rss) / unit / unit / max(rss / unit / unit, floor) if unit else abs(wss)
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
        n=args.n, p=args.p, sigma=args.sigma, replicates=args.reps,
        seed=resolve_seed(args), construction=args.construction,
    )
    emit(args, monte_carlo(cfg).to_dict())


def cmd_check(args) -> None:
    if min(n_grid := _parse_n_grid(args.n_grid)) < 2:
        raise CliError(EXIT_INPUT, f"--n-grid entries must be at least 2, got {min(n_grid)}")
    if args.trials < 1:
        raise CliError(EXIT_INPUT, f"--trials must be at least 1, got {args.trials}")
    report = check_battery(n_grid, args.trials, resolve_seed(args), args.tol)
    emit(args, report)
    if report["failures"]:
        raise CliError(EXIT_CHECK, "failed checks: " + ", ".join(report["failures"]))


def cmd_bench(args) -> None:
    emit(args, {"timings": benchmark_apply(_parse_n_grid(args.n_grid), args.p, args.repeats)})


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthores",
        description="Householder QR, orthocomplement actions, and independent residuals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write JSON here instead of stdout")
    tol = argparse.ArgumentParser(add_help=False)  # for the commands that check identities
    tol.add_argument("--tol", type=tolerance, default=IDENTITY_TOL,
                     help="tolerance for internal identity checks")

    p = sub.add_parser("qr", parents=[out], help="Householder factorization of a CSV matrix")
    p.add_argument("input")
    p.add_argument("--policy", choices=["standard", "to-positive", "custom"],
                   default="standard")
    p.add_argument("--signs", help="comma-separated +-1 list for --policy custom")
    p.set_defaults(func=cmd_qr)

    p = sub.add_parser("residuals", parents=[out], help="least-squares fit and residuals")
    p.add_argument("input")
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("indep", parents=[out, tol], help="independent residuals")
    p.add_argument("input")
    p.add_argument("--mode", choices=["student", "univariate", "general"], required=True)
    p.add_argument("--variant", choices=["minus", "plus", "a", "b"])
    p.add_argument("--rows", help="comma-separated 0-based row selection (general mode)")
    p.set_defaults(func=cmd_indep)

    p = sub.add_parser("simulate", parents=[out], help="seeded Monte Carlo moment report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--construction", default="generic", choices=CONSTRUCTIONS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", parents=[out, tol],
                       help="run the oracle and theorem verifications")
    p.add_argument("--n-grid", default="5,20,100")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", parents=[out],
                       help="timing comparison of the three apply routes")
    p.add_argument("--n-grid", default="1000,4000,16000")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--repeats", type=int, default=3,
                   help="timed samples per method and n, after one warm-up call; each "
                        "sample loops for at least 1 ms and the median is reported")
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
    except ArithmeticError as exc:  # an identity check failed, or S is singular
        code, message = EXIT_IDENTITY, str(exc)
    except MemoryError as exc:  # a size the machine cannot hold
        code, message = EXIT_INPUT, f"input too large for the available memory: {exc}"
    else:
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
