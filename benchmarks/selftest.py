#!/usr/bin/env python3
"""Self-test of the benchmark harness on the tiny workload (a few seconds).

    python3 benchmarks/selftest.py

Checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with its
    unit, passes the correctness gate and has failed_ops_frac = 0;
  * a traced run prints every per-layer metric with its unit;
  * a deliberately wrong R_rel reference makes failed_ops_frac > 0;
  * runs of the same code and seed repeat the CSV digest;
  * in a directory holding only BENCHMARK.json and benchmarks/, the run
    exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_out" / "selftest"
SEED = 7


def check(ok: bool, msg: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {msg}")
    print(f"ok: {msg}")


def run(trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"),
           "--workload", "tiny", "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def failed_ops_frac(lines: list[str]) -> float:
    for line in lines:
        m = re.match(r"\s*failed_ops_frac = (\S+) ", line)
        if m:
            return float(m.group(1))
    raise SystemExit("selftest FAILED: no failed_ops_frac line")


def summary() -> dict:
    return json.loads((ROOT / ".bench_out" / f"tiny-s{SEED}"
                       / "summary-trace0.json").read_text())


def expect_metrics(result: dict, lines: list[str], kind: str) -> None:
    missing = []
    for metric in SPEC[kind]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        printed = any(line.strip().startswith(f"{name} = ")
                      and line.rstrip().endswith(f" {unit}") for line in lines)
        if not (got and got["unit"] == unit and printed
                and isinstance(got["value"], (int, float))):
            missing.append(name)
    check(not missing and len(result["metrics"]) == len(SPEC[kind]),
          f"all {len(SPEC[kind])} {kind} metrics printed by name with their "
          f"units (missing: {missing})")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    code, lines = run(0)
    result = json.loads(lines[-1])
    check(code == 0 and result["correct"] and result["failed"] == 0,
          "untraced tiny run is correct with no failed stage call")
    check(failed_ops_frac(lines) == 0.0, "failed_ops_frac = 0")
    expect_metrics(result, lines, "end_to_end")
    first = summary()

    code, lines = run(1)
    result = json.loads(lines[-1])
    check(code == 0 and result["correct"], "traced tiny run is correct")
    expect_metrics(result, lines, "per_layer")

    wrong = {"R_rel": {"tiny": {n: value * (1 + 1e-6)
                                for n, value in first["R_rel"].items()}}}
    reference = WORK / "wrong-reference.json"
    reference.write_text(json.dumps(wrong))
    code, lines = run(0, "--reference", str(reference))
    result = json.loads(lines[-1])
    check(result["failed"] > 0 and not result["correct"]
          and failed_ops_frac(lines) > 0.0,
          "a wrong R_rel reference makes failed_ops_frac > 0")
    check(summary()["digest"] == first["digest"],
          "a repeated run of the same code and seed repeats the CSV digest")

    bare = WORK / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "benchmarks")
    code, lines = run(0, cwd=bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the sources the run exits non-zero and prints no result")
    shutil.rmtree(WORK)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
