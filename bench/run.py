#!/usr/bin/env python3
"""The orthores benchmark.

Run from the repository root:

    python3 bench/run.py --workload groups --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

One workload runs per process, as a closed loop with one caller: each op
starts when the previous one, its plain-numpy pair (see workloads.py) and
its correctness check have finished.  BLAS threads are capped at the
number of usable cores.  The library is imported from ``src/`` of the
checkout; without it the run fails before printing a result.

``--trace 0`` measures the end-to-end metrics with no tracing.  The gated
ones are set-up time, peak RSS, and op time over the paired plain time
(median and p90 of the per-op ratio, and the ratio of the sums, which is
the plain throughput over the library's); raw latencies and throughput are
in the report line.  Set-up time and peak RSS come from set-up probes:
fresh child processes that import the library, load the inputs the run
saved, and run set-up, the warm-up ops and the workload's memory ops
(workloads.py), with no plain pair and no check, so that the RSS is the
library's and not the benchmark's.  The run starts SETUP_SAMPLES probes,
spread evenly over its timed loop, and reports their medians.
``--trace 1`` spends the first half of ``--seconds`` untraced and the
second half with span wrappers installed (see spantrace.py), and reports
the per-layer metrics derived from the spans and the tracing overhead.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
full report (machine facts, input sizes, sample counts, ``fail_frac`` and,
for apply-stream, the reflect route and bare formula medians).  The exit code is 1 when any op
fails its check.

Metric names, units and workload reasons come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up probes per run; the first runs before the timed loop, the last
# after it, so that their median spans the machine's speed over the run
SETUP_SAMPLES = 5
EXIT_NO_SOURCE = 2
# units of the figures that are reported but not gated
REPORT_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
                "ops_per_op_s": "1/s", "setup_s_first": "s",
                "plain_ms_p50": "ms", "samples": "count", "samples_beyond_p90": "count",
                "reflect_ms_p50": "ms", "bare_ms_p50": "ms", "fail_frac": "fraction"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cap_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)


def probe(name: str, seed: int, workdir: Path) -> dict:
    """Body of a set-up probe process: set-up seconds (import plus
    program-side set-up plus warm-up ops; loading the inputs excluded) and
    the peak RSS once the memory ops have run."""
    start = perf_counter()
    import orthores  # noqa: F401
    import orthores.cli  # noqa: F401
    import_s = perf_counter() - start
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed, workdir)
    w.load_inputs()
    start = perf_counter()
    w.setup()
    for i in range(w.warmup_ops):
        w.op(i)
    setup_s = import_s + perf_counter() - start
    for i in range(w.warmup_ops, w.warmup_ops + w.memory_ops):
        w.op(i)
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}


def launch(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run this script with ``args`` in a child process and wait for it."""
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)


def launch_probe(name: str, seed: int, workdir: Path) -> dict:
    proc = launch("--probe", "--workload", name, "--seed", str(seed),
                  "--workdir", str(workdir), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def new_run(first_op: int) -> dict:
    return {"latencies": [], "plain": [], "attempted": 0, "failed": 0,
            "elapsed": 0.0, "next_op": first_op}


def measure(w, seconds: float, run: dict, tracer=None) -> dict:
    """Closed loop for ``seconds``, added to ``run``: time each op and its
    plain-numpy pair, then check the op's output."""
    latencies, plain = run["latencies"], run["plain"]
    attempted = failed = 0
    i = run["next_op"]
    begin = perf_counter()
    deadline = begin + seconds
    while perf_counter() < deadline:
        if tracer is not None:
            tracer.op_id = i
        attempted += 1
        try:
            start = perf_counter()
            out = w.op(i)
            mid = perf_counter()
            w.plain(i)
            latencies.append(mid - start)
            plain.append(perf_counter() - mid)
            ok = w.check(i, out)
        except Exception as exc:  # an op that raises counts as failed
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
        i += 1
    run["attempted"] += attempted
    run["failed"] += failed
    run["elapsed"] += perf_counter() - begin
    run["next_op"] = i
    return run


def time_over_plain(run: dict) -> float:
    return sum(run["latencies"]) / sum(run["plain"])


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(run: dict) -> dict:
    """The gated ratios of op time to plain time, and the raw latencies."""
    lat, plain = run["latencies"], run["plain"]
    ratios = [a / b for a, b in zip(lat, plain)]
    ratio_p90 = p90(ratios)
    ms = [t * 1e3 for t in lat]
    return {
        "op_over_plain_p50": statistics.median(ratios),
        "op_over_plain_p90": ratio_p90,
        "time_over_plain": time_over_plain(run),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90(ms),
        # ops per second of the timed loop, which also runs the plain pairs
        # and the checks; and ops per second of time inside ops
        "ops_per_s": len(lat) / run["elapsed"],
        "ops_per_op_s": len(lat) / sum(lat),
        "plain_ms_p50": statistics.median(plain) * 1e3,
        "samples": len(ms),
        "samples_beyond_p90": sum(1 for r in ratios if r > ratio_p90),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _qr_flops(args, result) -> float:
    n, p = args[0].shape
    return 2.0 * n * p * p - 2.0 * p ** 3 / 3.0


def _mc_flops(args, result) -> float:
    # dense path of validation.monte_carlo; fixed here so that the figure
    # stays comparable when the library's algorithm changes
    cfg = args[0]
    n, p, m = cfg.n, cfg.p, cfg.replicates
    return 2.0 * n * n * m + 2.0 * (n - p) * n * m + 2.0 * n * n * m + 2.0 * (n - p) ** 2 * m


MEASURES = {
    "cli.read_csv_matrix": lambda args, result: os.path.getsize(args[0]),
    "cli.emit": lambda args, result: os.path.getsize(args[0].out),
    "core.householder_qr": _qr_flops,
    "orthocomp.permutation": lambda args, result: args[1],
    "orthocomp.orthocomplement_apply":
        lambda args, result: args[1].nbytes + args[2].nbytes + result.nbytes,
    "validation.monte_carlo": _mc_flops,
}


def layer_metrics(table: dict, ops: int, errors, bare_s, overhead_frac: float) -> dict:
    """Per-layer metrics keyed by BENCHMARK.json names; per-op values are
    averaged over the traced ops, and a layer the workload never calls
    reads 0."""
    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "durations": [], "extra": []})

    def self_ms(name):
        return row(name)["self_s"] / ops * 1e3

    def rate(name, unit, ops_only=False):
        pairs = [(d, v) for d, v, in_op in row(name)["extra"] if in_op or not ops_only]
        dur = sum(d for d, _ in pairs)
        return sum(v for _, v in pairs) / dur / unit if dur > 0 else 0.0

    def per_op_sum(name):
        return sum(v for _, v, in_op in row(name)["extra"] if in_op) / ops

    m = {f"{name}.self_ms": self_ms(name) for name in (
        "cli.read_csv_matrix", "cli.emit", "core.householder_qr", "core.apply_Qt",
        "orthocomp.permutation", "orthocomp.orthocomplement_apply",
        "orthocomp.qr_for_selection", "orthocomp.s_from_qr",
        "regression.fit_least_squares", "regression.independent_residuals",
        "regression.student_w", "regression.univariate_w",
        "regression.standardize_predictor", "validation.monte_carlo")}
    closed = row("orthocomp.orthocomplement_apply")["durations"]
    m.update({
        "cli.read_csv_matrix.mb_s": rate("cli.read_csv_matrix", 1e6),
        "cli.emit.bytes": per_op_sum("cli.emit"),
        "core.householder_qr.calls": row("core.householder_qr")["calls"] / ops,
        "core.householder_qr.eff_gflop_s": rate("core.householder_qr", 1e9),
        "orthocomp.permutation.calls": row("orthocomp.permutation")["calls"] / ops,
        "orthocomp.permutation.rows_built": per_op_sum("orthocomp.permutation"),
        "orthocomp.orthocomplement_apply.floor_ratio":
            statistics.median(closed) / statistics.median(bare_s) if closed else 0.0,
        "orthocomp.orthocomplement_apply.gb_s_computed":
            rate("orthocomp.orthocomplement_apply", 1e9, ops_only=True),
        "validation.monte_carlo.eff_gflop_s": rate("validation.monte_carlo", 1e9),
        "trace.overhead_frac": overhead_frac,
    })
    for module in ("cli", "core", "orthocomp", "regression", "validation"):
        m[f"{module}.errors"] = errors[module] / ops
    return m


def read_git_commit() -> str:
    """Commit of the checkout from .git, without running git; 'unknown'
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": read_git_commit(),
        "seed": seed,
    }


def pick(values: dict, names: list, units: dict) -> dict:
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"benchmark computed no value for {missing}")
    return {n: {"value": values[n], "unit": units[n]} for n in names}


def run_workload(args) -> int:
    spec = load_spec()
    workdir = Path(args.workdir) if args.workdir else WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe:
            print(json.dumps(probe(args.workload, args.seed, workdir)))
            return 0
        return _run_workload(args, spec, workdir)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, spec, workdir) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, workdir)
    w.generate()
    w.setup()
    warm = [w.op(i) for i in range(w.warmup_ops)]
    warm_failed = sum(1 for i, out in enumerate(warm) if not w.check(i, out))
    report = {
        "workload": w.name,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
        "sizes": w.sizes(),
        "loop": "closed, one caller",
        "machine": machine_facts(args.seed),
    }

    if not args.trace:
        w.save_inputs()
        run, probes = new_run(len(warm)), []
        for k in range(SETUP_SAMPLES):
            if k:
                measure(w, args.seconds / (SETUP_SAMPLES - 1), run)
            probes.append(launch_probe(w.name, args.seed, workdir))
        setup = [p["setup_s"] for p in probes]
        values = {"setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
                  "setup_s_first": setup[0], **end_to_end(run)}
        if w.name == "apply-stream":
            values["reflect_ms_p50"] = statistics.median(w.reflect_s) * 1e3
            values["bare_ms_p50"] = statistics.median(w.bare_s) * 1e3
        report["setup_samples_s"] = setup
        metric_defs = spec["end_to_end"]
    else:
        from spantrace import Tracer

        half = args.seconds / 2.0
        untraced = measure(w, half, new_run(len(warm)))
        tracer = Tracer(MEASURES)
        tracer.install()
        try:
            w.setup()  # traced as set-up spans (op id -1)
            run = measure(w, half, new_run(untraced["next_op"]), tracer=tracer)
        finally:
            tracer.uninstall()
        ops = len(run["latencies"])
        # op time over paired plain time, traced against untraced, so that a
        # change of machine speed between the two halves cancels
        overhead = time_over_plain(run) / time_over_plain(untraced) - 1.0
        table = tracer.layer_table()
        values = layer_metrics(table, ops, tracer.errors, getattr(w, "bare_s", []), overhead)
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{w.name}-seed{args.seed}"
        tracer.write(stem.with_suffix(".spans.json.gz"))
        stem.with_suffix(".layers.json").write_text(json.dumps({
            "traced_ops": ops,
            "per_layer": values,
            "spans_by_name": {name: {k: r[k] for k in ("calls", "total_s", "self_s",
                                                       "setup_calls", "setup_total_s")}
                              for name, r in sorted(table.items())},
        }, indent=1))
        report["traced_ops"] = ops
        report["untraced_ops"] = len(untraced["latencies"])
        run["attempted"] += untraced["attempted"]
        run["failed"] += untraced["failed"]
        metric_defs = spec["per_layer"]

    attempted = run["attempted"] + len(warm)
    failed = run["failed"] + warm_failed
    values["fail_frac"] = failed / attempted
    units = {**REPORT_UNITS, **{m["name"]: m["unit"] for m in metric_defs}}
    report["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": pick(values, [m["name"] for m in metric_defs], units),
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own child process, one after another."""
    names = [w["name"] for w in load_spec()["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        proc = launch("--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace), timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and len(lines) < 2:
            print(f"{name}: exit {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        code = code or proc.returncode
        print(lines[-2])
        for metric, v in json.loads(lines[-2])["report"]["metrics"].items():
            print(f"{name:>13}  {metric:<48} {v['value']:>14.6g} {v['unit']}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": v for metric, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "orthores" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'orthores'}", file=sys.stderr)
        return EXIT_NO_SOURCE
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
