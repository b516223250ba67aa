#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 benchmarks/spread.py --seeds 0-9                 # every workload
    python3 benchmarks/spread.py --workloads sim-het-n200 --seeds 0-4
    python3 benchmarks/spread.py --seeds 0-9 --record benchmarks/baseline.json
    python3 benchmarks/spread.py --seeds 0-9 --compare benchmarks/baseline.json

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4). A spread above a third of
the bound is flagged, for every metric.
--record also makes one traced run per workload (first seed) and writes the
medians, quartiles, per-seed CSV digests, R_rel values and per-layer
metrics (with each module's share of total_s) to the given file, which
run.py then uses as its reference. --compare checks each median against a
recorded file: worse by more than the bound, or a CSV digest that differs
for the same seed, is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its result line and its summary file."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         + proc.stdout)
    result = json.loads(lines[-1])
    summary = json.loads((ROOT / ".bench_out" / f"{workload}-s{seed}"
                          / f"summary-trace{trace}.json").read_text())
    if not result["correct"]:
        print("\n".join(lines[:-1]))
    return result, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    base = json.loads(args.compare.read_text()) if args.compare else None
    record = {"R_rel": {}, "digests": {}, "end_to_end": {}, "per_layer": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        digests = {}
        for seed in _seeds(args.seeds):
            result, summary = run_once(workload, seed, 0)
            steady &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            digests[str(seed)] = summary["digest"]
            record["R_rel"][workload] = summary["R_rel"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
                  flush=True)
        record["digests"][workload] = digests
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[name] / 3
            steady &= ok
            stats[name] = {"median": statistics.median(vals), "q1": q1,
                           "q3": q3, "spread": spread, "runs": vals}
            print(f"  {name:22s} median {statistics.median(vals):12.6g} "
                  f"spread {spread:7.4f} bound {bounds[name]:.2f}"
                  f"{'' if ok else '  <-- above bound/3'}")
        record["end_to_end"][workload] = stats
        if base:
            for seed, digest in digests.items():
                old = base["digests"][workload].get(seed)
                if old and old != digest:
                    steady = False
                    print(f"  seed {seed}: CSV digest {digest} != recorded {old}")
            for name, st in stats.items():
                old = base["end_to_end"][workload][name]["median"]
                worse = (st["median"] - old) / old
                if better[name] == "higher":
                    worse = -worse
                ok = worse <= bounds[name]
                steady &= ok
                print(f"  {name:22s} median {st['median']:12.6g} vs recorded "
                      f"{old:12.6g}: {100 * worse:+.1f}% worse"
                      f"{'' if ok else '  <-- beyond bound'}")
        if args.record:
            seed = _seeds(args.seeds)[0]
            result, _ = run_once(workload, seed, 1)
            record["per_layer"][workload] = {
                "seed": seed,
                **{k: v["value"] for k, v in result["metrics"].items()}}
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.record}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
