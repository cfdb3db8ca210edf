#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly, each run with its own seed,
and report the median and quartiles of every end-to-end metric.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --workloads groups,simulate --seeds 1-5 \\
        --compare .bench_out/steady-first.json

Each run is a fresh ``bench/run.py --trace 0`` process; runs cycle through
the workloads so that slow drifts of the machine spread over all of them.
The spread of a metric is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  A gated metric (the end_to_end
list of BENCHMARK.json) is steady when its spread is below a third of its
bound.  Set-up time is flagged when it is not, but does not fail the check:
it is gated only on its median, and its spread follows the machine's speed
(import dominates it; see CHANGES.md for the measured spreads).
``--compare`` also checks that no gated median got worse than the earlier
set's by more than the bound.
``--with-trace`` adds one traced run per workload (first seed) and stores
its per-layer metrics.  Exits 1 when a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from run import launch

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse_by(metric: dict, old: float, new: float) -> float:
    """Relative change of ``new`` against ``old``, positive when worse."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def run_once(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = launch("--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace), timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="JSON file for all values and summaries")
    parser.add_argument("--compare", help="an earlier --out file to check drift against")
    parser.add_argument("--with-trace", action="store_true")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    values = {w: {} for w in names}
    reports = {}
    ok = True
    for seed in seeds:
        for name in names:
            start = time.monotonic()
            try:
                report, result = run_once(name, seed, args.seconds, 0)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                ok = False
                continue
            reports.setdefault(name, report)
            for m, v in report["metrics"].items():
                values[name].setdefault(m, {"unit": v["unit"], "values": []})["values"].append(
                    v["value"])
            ok &= result["correct"]
            print(f"{name} seed {seed}: {time.monotonic() - start:.1f} s wall, " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)

    old = json.loads(Path(args.compare).read_text())["summary"] if args.compare else None
    summary = {}
    print(f"\n{'workload':<13} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in names:
        summary[name] = {}
        for m, entry in values[name].items():
            if len(entry["values"]) < 2:
                continue
            s = summarize(entry["values"])
            summary[name][m] = {**s, "unit": entry["unit"]}
            if m not in gated:
                continue
            metric, verdict = gated[m], []
            if s["spread"] >= metric["bound"] / 3:
                verdict.append("not steady (median-gated only)" if m == "setup_s"
                               else "NOT STEADY")
            if old and m in old.get(name, {}):
                drift = worse_by(metric, old[name][m]["median"], s["median"])
                verdict.append(f"drift {drift:+.3f}")
                if drift > metric["bound"]:
                    verdict.append("WORSE THAN BOUND")
            ok &= not any(v in ("NOT STEADY", "WORSE THAN BOUND") for v in verdict)
            print(f"{name:<13} {m:<18} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>7.3f} {metric['bound']:>6}  "
                  + (" ".join(verdict) or "ok"))

    per_layer = {}
    if args.with_trace:
        for name in names:
            _, result = run_once(name, seeds[0], args.seconds, 1)
            per_layer[name] = {m: v["value"] for m, v in result["metrics"].items()}

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({
            "seeds": seeds, "seconds": args.seconds,
            "machine": {k: v for k, v in next(iter(reports.values()))["machine"].items()
                        if k != "seed"} if reports else None,
            "workloads": {n: {"why": r["why"], "sizes": r["sizes"]} for n, r in reports.items()},
            "summary": summary, "values": values, "per_layer": per_layer,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
