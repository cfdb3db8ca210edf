#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

For each workload: a short untraced run reports every end-to-end metric
of BENCHMARK.json with a positive value, and a short traced run reports
every per-layer metric, positive for each layer the workload calls and 0
for each layer it does not (so spans are attributed to the right names).
Last, a copy of the benchmark without the library source must fail
without printing a result.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = "2"

_QR = ("core.householder_qr.self_ms", "core.householder_qr.calls",
       "core.householder_qr.eff_gflop_s")
_PERM = ("orthocomp.permutation.self_ms", "orthocomp.permutation.calls",
         "orthocomp.permutation.rows_built")
_SELECTION = ("orthocomp.qr_for_selection.self_ms", "orthocomp.s_from_qr.self_ms",
              "regression.fit_least_squares.self_ms",
              "regression.independent_residuals.self_ms", "core.apply_Qt.self_ms")
_EMIT = ("cli.emit.self_ms", "cli.emit.bytes")

# per-layer metrics that must be positive on each workload
CALLED = {
    "indep-tall": {*_QR, *_PERM, *_SELECTION, *_EMIT,
                   "cli.read_csv_matrix.self_ms", "cli.read_csv_matrix.mb_s"},
    "groups": {*_QR, *_PERM, *_SELECTION, "regression.student_w.self_ms",
               "regression.univariate_w.self_ms",
               "regression.standardize_predictor.self_ms"},
    "simulate": {*_QR, *_PERM, *_EMIT, "orthocomp.s_from_qr.self_ms",
                 "validation.monte_carlo.self_ms", "validation.monte_carlo.eff_gflop_s"},
    "apply-stream": {*_PERM, "core.householder_qr.eff_gflop_s", "core.apply_Qt.self_ms",
                     "orthocomp.orthocomplement_apply.self_ms",
                     "orthocomp.orthocomplement_apply.floor_ratio",
                     "orthocomp.orthocomplement_apply.gb_s_computed"},
}
# metrics that may read anything (errors are expected to be 0 everywhere)
FREE = {"trace.overhead_frac"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"FAIL {what}: {result}")
    return result["metrics"]


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "1", "--seconds", SECONDS]
        metrics = result_of(run(base + ["--trace", "0"], ROOT), f"{name} untraced")
        expect(list(metrics) == e2e, f"{name}: end-to-end metrics {list(metrics)}")
        for m, v in metrics.items():
            expect(v["value"] > 0, f"{name}: {m} = {v['value']}")

        metrics = result_of(run(base + ["--trace", "1"], ROOT), f"{name} traced")
        expect(list(metrics) == layers, f"{name}: per-layer metrics {list(metrics)}")
        for m, v in metrics.items():
            if m in CALLED[name]:
                expect(v["value"] > 0, f"{name}: layer metric {m} = 0 but the layer is called")
            elif m not in FREE:
                expect(v["value"] == 0, f"{name}: layer metric {m} = {v['value']}, expected 0")
        print(f"ok {name}")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", SECONDS, "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the library source: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok no library source: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
