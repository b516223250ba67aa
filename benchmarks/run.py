#!/usr/bin/env python3
"""End-to-end benchmark of the wcmdp pipeline.

One run executes one workload in this (fresh) process:

    cli generate -> model load/validate -> lp_relax build/solve/check/extract
    -> reassign + verify_slope -> lyapunov diagnostics -> simulate id and erc
    -> write_results_csv

and repeats that pipeline pass at least MIN_PASSES times, and until
--seconds have elapsed, reporting the median of every end-to-end metric.
Every stage call goes through an output-correctness gate; the run fails
(``"correct": false``) when any stage call fails it.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sim-het-n200 --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 0    # every workload, one process each

With --trace 1 the run makes MIN_PASSES - 1 untraced passes and one traced
pass and reports per-layer metrics from the traced pass's spans instead of
the end-to-end metrics. The last line of standard output is always one JSON
object with the keys correct, attempted, failed and metrics. Outputs
(instances, CSV, spans, a summary) go to .bench_out/ under the repository
root.
"""

from __future__ import annotations

import os

# at most nproc (=2) threads per workload process, also when the caller's
# environment asks for more; set before numpy loads
_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _asked = int(os.environ.get(_var, _THREADS))
    except ValueError:
        _asked = _THREADS
    os.environ[_var] = str(max(1, min(_asked, _THREADS)))

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text()) if SPEC_PATH.is_file() else None
BASELINE = BENCH_DIR / "baseline.json"

# the simulated ratio is bounded by the LP value; this many CI half-widths
# above 1 is a defect, not noise
RATIO_CI_SLACK = 4.0
R_REL_RTOL = 1e-9
# diagnose blocks and simulate calls per policy, per size and pass
CALLS = 2
# pipeline passes per run; a traced run makes MIN_PASSES - 1 untraced ones
# first, so that the traced pass runs warm and must repeat their CSV digest
MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark input set. The instance is pinned by instance_seed: LP
    solve time varies by up to 30% between generator seeds at equal size
    (13.8 s to 19.5 s at N=800 over seeds 0-2), which would swamp any
    regression bound. --seed drives every run-time random stream: the
    reassignment shuffle, the simulation replications, the diagnostic state
    and the drift probe."""

    family: str                  # cli --family flag
    instance_seed: int
    sizes: tuple[int, ...]
    horizon: int
    reps: int
    batch: int
    drift_samples: int
    states: int = 10
    actions: int = 4
    k: int = 4
    types: int = 1
    cost_mode: str = "state-action"


WORKLOADS = {
    # lp_relax dominates: solve_lp is ~70% of the pass
    "plan-het-n800": Workload(family="fully-het", instance_seed=0,
                              sizes=(800,), horizon=500, reps=2, batch=250,
                              drift_samples=200),
    # simulation is the largest share: long horizon for both policies
    "sim-het-n200": Workload(family="fully-het", instance_seed=0,
                             sizes=(200,), horizon=4000, reps=2, batch=1000,
                             drift_samples=100),
    # the acceptance suite's TYPED_SINGLE: 10 prototypes, K=1, action-only costs
    "typed-k1-sweep": Workload(family="typed", instance_seed=1,
                               sizes=(100, 200, 400), horizon=1000, reps=2,
                               batch=500, drift_samples=100,
                               k=1, types=10, cost_mode="action-only"),
    # self-test only; not listed in BENCHMARK.json
    "tiny": Workload(family="fully-het", instance_seed=0, sizes=(30,),
                     horizon=400, reps=2, batch=200,
                     drift_samples=20, states=5, actions=3, k=2),
}


def _import_wcmdp() -> None:
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "wcmdp" / "__init__.py").is_file():
        sys.exit(f"benchmark: no wcmdp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wcmdp
    if Path(wcmdp.__file__).resolve().parent != (SRC / "wcmdp").resolve():
        sys.exit(f"benchmark: imported wcmdp from {wcmdp.__file__}, not {SRC}")


# --------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans (name, start, end, parent index) kept in memory until the end.

    Tracing costs time of its own. `leak` is what one child span adds to its
    parent's self time: the wrapper call and the span's entry and exit
    outside the child's timestamps. `inner` is what a span adds inside its
    own timestamps. calibrate() measures both in this process, and totals()
    takes them out of every self time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.leak = 0.0
        self.inner = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Set leak and inner from spans around a no-op: the median of
        `repeats` rounds of `calls` spans, each less a bare no-op call."""
        def noop():
            pass

        leaks, inners = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = (time.perf_counter() - t0) / calls
            probe = Tracer()
            wrapped = spanned(probe, "child", noop)
            with probe.span("parent"):
                for _ in range(calls):
                    wrapped()
            _, self_t, _ = probe.totals()
            leaks.append(self_t["parent"] / calls - bare)
            inners.append(self_t["child"] / calls - bare)
        self.leak = statistics.median(leaks)
        self.inner = statistics.median(inners)

    def overhead_s(self) -> float:
        """Estimated wall time the recorded spans added to the run."""
        return len(self.spans) * (self.leak + self.inner)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time less the
        calibrated tracing cost, call count."""
        child = [0.0] * len(self.spans)
        children = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
                children[parent] += 1
        dur: dict[str, float] = {}
        self_t: dict[str, float] = {}
        count: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            dur[name] = dur.get(name, 0.0) + (end - start)
            self_t[name] = self_t.get(name, 0.0) + (
                end - start - child[i] - self.leak * children[i] - self.inner)
            count[name] = count.get(name, 0) + 1
        return dur, self_t, count

    def write(self, path: Path, workload: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, workload]) + "\n")


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def spanned(tracer: Tracer, name: str, fn):
    """fn wrapped in a span; set on a class, it works as a method."""
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def traced_runners(tracer: Tracer, policies_mod):
    """Wrap the runner methods simulate calls per step in spans."""
    patched = []
    for kind, cls in (("id", policies_mod.IdPolicyRunner),
                      ("erc", policies_mod.ErcPolicyRunner)):
        for method in ("step", "sample_ideal", "transition_step"):
            patched.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, spanned(tracer, f"policies.{kind}.{method}",
                                         getattr(cls, method)))
    try:
        yield
    finally:
        for cls, method, own in reversed(patched):
            if own is None:
                delattr(cls, method)
            else:
                setattr(cls, method, own)


# --------------------------------------------------------------------------
# output-correctness gate


class StageFailed(RuntimeError):
    pass


class Gate:
    """Counts stage calls and the ones that failed, with the reason."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        with self.tracer.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.failures.append(f"{name}: raised {exc!r}")
                raise StageFailed(name) from exc

    def require(self, name: str, problems: list[str]) -> None:
        """Mark the stage call just made as failed if it has problems."""
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))


# --------------------------------------------------------------------------
# one pipeline pass


def run_pass(w: Workload, seed: int, out_dir: Path, gate: Gate,
             r_rel_ref: dict) -> dict:
    """Run the whole pipeline once; return its timings and data outputs."""
    import numpy as np
    from wcmdp import cli, lyapunov
    from wcmdp.lp_relax import build_lp, check_solution, extract_policy, solve_lp
    from wcmdp.model import WcmdpInstance, validate
    from wcmdp.reassign import reassign, verify_slope
    from wcmdp.simulator import (PolicyBundle, SimConfig, simulate,
                                 write_results_csv)

    setup_s = 0.0
    # wall time of each timed diagnose block and simulate call, per size
    calls_s: dict[str, dict[int, list[float]]] = {"diagnose": {}, "id": {}, "erc": {}}
    rows: list[dict] = []
    info: dict = {"R_rel": {}, "sizes": []}
    started = time.perf_counter()
    with gate.tracer.span("bench.pass"):
        for n in w.sizes:
            path = out_dir / f"instance-n{n}.json"
            argv = ["generate", "--family", w.family, "--n", str(n),
                    "--states", str(w.states), "--actions", str(w.actions),
                    "--k", str(w.k), "--types", str(w.types),
                    "--cost-mode", w.cost_mode, "--seed", str(w.instance_seed),
                    "--out", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = gate.call("cli.generate", cli.main, argv)
            gate.require("cli.generate", [f"exit code {code}"] if code else [])
            instance = gate.call("model.load", WcmdpInstance.load, path)

            t0 = time.perf_counter()
            problems = gate.call("model.validate", validate, instance)
            gate.require("model.validate", problems)
            problem = gate.call("lp_relax.build_lp", build_lp, instance)
            solution = gate.call("lp_relax.solve_lp", solve_lp, problem)
            ref = r_rel_ref.get(str(n))
            if ref is not None and abs(solution.objective - ref) > R_REL_RTOL * abs(ref):
                gate.require("lp_relax.solve_lp", [
                    f"R_rel {solution.objective!r} != recorded {ref!r}"])
            audit = gate.call("lp_relax.check_solution", check_solution,
                              instance, solution)
            gate.require("lp_relax.check_solution",
                         [] if audit.ok else [f"audit failed: {audit}"])
            policy = gate.call("lp_relax.extract_policy", extract_policy,
                               instance, solution)
            perm = gate.call("reassign.reassign", reassign, instance, policy, seed)
            slope = gate.call("reassign.verify_slope", verify_slope,
                              instance, policy, perm)
            gate.require("reassign.verify_slope",
                         [] if slope.holds else [f"margin {slope.margin!r} < 0"])
            bundle = PolicyBundle(solution=solution, policy=policy,
                                  reassignment=perm)
            setup_s += time.perf_counter() - t0

            # diagnostics, id and erc calls alternate so that every timed
            # stage samples the same spread of machine states
            for j in range(CALLS):
                t0 = time.perf_counter()
                rng = np.random.default_rng([seed, n, j])
                x = np.eye(instance.num_states)[
                    rng.integers(0, instance.num_states, size=n)]
                diag = gate.call("lyapunov.chain_diagnostics",
                                 lyapunov.chain_diagnostics, instance, policy)
                report = gate.call("lyapunov.build_report",
                                   lyapunov.build_report, instance, x, policy,
                                   perm, diag, allow_large=True)
                gate.call("lyapunov.drift_probe", lyapunov.drift_probe,
                          instance, policy, diag, np.arange(n),
                          w.drift_samples, rng)
                calls_s["diagnose"].setdefault(n, []).append(
                    time.perf_counter() - t0)
                for kind in ("id", "erc"):
                    config = SimConfig(horizon=w.horizon, replications=w.reps,
                                       batch_size=w.batch,
                                       seed=seed * CALLS + j, policy=kind)
                    t0 = time.perf_counter()
                    res = gate.call(f"simulator.{kind}.simulate", simulate,
                                    instance, bundle, config)
                    calls_s[kind].setdefault(n, []).append(
                        time.perf_counter() - t0)
                    bad = []
                    if res.feasibility_violations:
                        bad.append(f"{res.feasibility_violations} budget violations")
                    ratio, half = res.optimality_ratio, res.ci_halfwidth
                    if not (math.isfinite(ratio) and math.isfinite(half)) or \
                            ratio > 1.0 + RATIO_CI_SLACK * half:
                        bad.append(f"ratio {res.optimality_ratio!r} with CI "
                                   f"half-width {res.ci_halfwidth!r}")
                    gate.require(f"simulator.{kind}.simulate", bad)
                    gap = res.r_rel - res.avg_reward_per_arm
                    rows.append({
                        "family": w.family, "seed": config.seed, "N": n,
                        "policy": kind, "T": w.horizon, "reps": w.reps,
                        "R_rel": res.r_rel,
                        "avg_reward": res.avg_reward_per_arm,
                        "ratio": res.optimality_ratio,
                        "ci_halfwidth": res.ci_halfwidth, "gap": gap,
                        "gap_sqrtN": gap * math.sqrt(n),
                        "conforming_frac": res.mean_conforming_fraction,
                        "violations": res.feasibility_violations,
                    })

            info["R_rel"][str(n)] = solution.objective
            info["sizes"].append({
                "N": n, "json_bytes": path.stat().st_size,
                "num_variables": problem.num_variables,
                "num_rows": problem.num_rows,
                "nnz": int(problem.budget.nnz + problem.balance.nnz
                           + problem.normalization.nnz),
                # rounding-level; floored at machine epsilon so that an
                # exact vertex does not report 0
                "max_residual": max(audit.max_normalization_residual,
                                    audit.max_balance_residual,
                                    audit.max_budget_excess,
                                    audit.max_negativity,
                                    sys.float_info.epsilon),
                "slope_margin": slope.margin,
                "group_size": perm.group_size or 0,
                "verify_slope_bytes": 8 * n * n * instance.num_constraints,
                "tau_max": diag.tau_max,
                "truncation_level": report.truncation_level,
            })

        csv_path = out_dir / "results.csv"
        gate.call("simulator.write_results_csv", write_results_csv, rows, csv_path)
    total_s = time.perf_counter() - started

    info["digest"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    info["rows"] = rows
    info.update(setup_s=setup_s, total_s=total_s, calls_s=calls_s)
    return info


# --------------------------------------------------------------------------
# metrics


def end_to_end(w: Workload, passes: list[dict]) -> dict:
    def median_call_s(key: str) -> float:
        """Sum over sizes of the median wall time of one call at that size."""
        return sum(statistics.median(t for p in passes
                                     for t in p["calls_s"][key][n])
                   for n in w.sizes)

    arm_steps = sum(n * w.horizon * w.reps for n in w.sizes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "diagnose_s": (median_call_s("diagnose"), "s"),
        "id_arm_steps_per_s": (arm_steps / median_call_s("id"), "1/s"),
        "erc_arm_steps_per_s": (arm_steps / median_call_s("erc"), "1/s"),
        "total_s": (statistics.median(p["total_s"] for p in passes), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


MODULES = ("cli", "model", "lp_relax", "reassign", "lyapunov", "policies",
           "simulator")


def per_layer(traced: dict, tracer: Tracer) -> dict:
    dur, self_t, count = tracer.totals()
    sizes = traced["sizes"]
    m: dict[str, tuple[float, str]] = {}
    for name in ("cli.generate", "model.load", "model.validate",
                 "lp_relax.build_lp", "lp_relax.solve_lp",
                 "lp_relax.check_solution", "lp_relax.extract_policy",
                 "reassign.reassign", "reassign.verify_slope",
                 "lyapunov.chain_diagnostics", "lyapunov.build_report",
                 "lyapunov.drift_probe"):
        m[f"{name}_s"] = (dur.get(name, 0.0), "s")
    m["model.json_bytes"] = (sum(s["json_bytes"] for s in sizes), "B")
    for key in ("num_variables", "num_rows", "nnz"):
        m[f"lp_relax.{key}"] = (sum(s[key] for s in sizes), "count")
    m["lp_relax.max_residual"] = (max(s["max_residual"] for s in sizes), "1")
    m["reassign.slope_margin"] = (min(s["slope_margin"] for s in sizes), "1")
    m["reassign.group_size"] = (max(s["group_size"] for s in sizes), "count")
    m["reassign.verify_slope_bytes"] = (
        sum(s["verify_slope_bytes"] for s in sizes), "B")
    m["lyapunov.tau_max"] = (max(s["tau_max"] for s in sizes), "steps")
    m["lyapunov.truncation_level"] = (
        max(s["truncation_level"] for s in sizes), "terms")

    for kind in ("id", "erc"):
        # step's only child is sample_ideal, and simulate's are step and
        # transition_step, so their self times are admit and the simulator
        steps = count.get(f"policies.{kind}.step", 0) or 1
        for key, span in (("sample", "sample_ideal"), ("admit", "step"),
                          ("transition", "transition_step")):
            m[f"policies.{kind}.{key}_us"] = (
                1e6 * self_t.get(f"policies.{kind}.{span}", 0.0) / steps, "us")
        rows = [r for r in traced["rows"] if r["policy"] == kind]
        weight = sum(r["N"] for r in rows)
        m[f"policies.{kind}.conforming_frac"] = (
            sum(r["conforming_frac"] * r["N"] for r in rows) / weight, "1")
        m[f"simulator.{kind}.self_us"] = (
            1e6 * self_t.get(f"simulator.{kind}.simulate", 0.0) / steps, "us")

    total = traced["total_s"]
    module_self = {mod: 0.0 for mod in MODULES}
    for name, t in self_t.items():
        mod = name.split(".", 1)[0]
        if mod in module_self:
            module_self[mod] += t
    for mod, t in module_self.items():
        m[f"{mod}.self_s"] = (t, "s")
        m[f"{mod}.share"] = (t / total, "1")
    m["trace.total_s"] = (total, "s")
    m["trace.overhead_s"] = (tracer.overhead_s(), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


# --------------------------------------------------------------------------
# running a workload


def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wcmdp").glob("*.py")) + [Path(__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _load_reference(path: Path | None) -> dict:
    path = path or BASELINE
    return json.loads(path.read_text()) if path.is_file() else {}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: Path | None) -> int:
    _import_wcmdp()
    from wcmdp import policies as policies_mod

    w = WORKLOADS[name]
    ref = _load_reference(reference)
    r_rel_ref = ref.get("R_rel", {}).get(name, {})
    out_dir = OUT_ROOT / f"{name}-s{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    gate = Gate(NullTracer())
    passes: list[dict] = []
    tracer = None
    started = time.perf_counter()
    try:
        if trace:
            while len(passes) < MIN_PASSES - 1:
                passes.append(run_pass(w, seed, out_dir, gate, r_rel_ref))
            tracer = Tracer()
            tracer.calibrate()
            gate.tracer = tracer
            with traced_runners(tracer, policies_mod):
                passes.append(run_pass(w, seed, out_dir, gate, r_rel_ref))
        else:
            while (len(passes) < MIN_PASSES
                   or time.perf_counter() - started < seconds):
                passes.append(run_pass(w, seed, out_dir, gate, r_rel_ref))
    except StageFailed:
        pass

    # RNG contract: every pass, and every earlier run of this code and seed,
    # must reproduce the CSV digest byte for byte
    digest = passes[0]["digest"] if passes else None
    if digest:
        for i, p in enumerate(passes[1:], start=2):
            if p["digest"] != digest:
                gate.failures.append(f"pass {i}: CSV digest {p['digest']} != {digest}")
        gate.attempted += 1
        record = OUT_ROOT / "digests" / f"{name}-s{seed}-{_code_hash()[:16]}"
        record.parent.mkdir(parents=True, exist_ok=True)
        if record.is_file() and record.read_text() != digest:
            gate.failures.append(
                f"CSV digest {digest} differs from an earlier run of the same "
                f"code and seed ({record.read_text()})")
        else:
            record.write_text(digest)
        recorded = ref.get("digests", {}).get(name, {}).get(str(seed))
        if recorded and recorded != digest:
            print(f"changed data output: {name} seed {seed} CSV sha256 {digest} "
                  f"(recorded {recorded})")

    failed = len(gate.failures)
    attempted = max(gate.attempted, 1)
    complete = len(passes) >= MIN_PASSES
    if complete and trace:
        metrics = per_layer(passes[-1], tracer)
        tracer.write(out_dir / "spans.jsonl", name)
    elif complete:
        metrics = end_to_end(w, passes)
    else:
        metrics = {}
    for msg in gate.failures:
        print(f"FAILED {msg}")
    print(f"workload {name} seed {seed}: {len(passes)} pass(es), "
          f"CSV sha256 {digest}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  failed_ops_frac = {failed / attempted:.6g} 1 "
          f"({failed}/{attempted} stage calls)")

    summary = {"workload": name, "seed": seed, "trace": trace,
               "digest": digest, "failures": gate.failures,
               "R_rel": passes[0]["R_rel"] if passes else {},
               "span_cost_s": ({"leak": tracer.leak, "inner": tracer.inner}
                               if tracer else None),
               "metrics": {k: v for k, (v, _) in metrics.items()}}
    (out_dir / f"summary-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if complete else 1


def run_all(args) -> int:
    """Run every BENCHMARK.json workload, each in its own fresh process."""
    names = [wl["name"] for wl in SPEC["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.reference:
            cmd += ["--reference", str(args.reference)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=None,
                        help="JSON with recorded R_rel values and CSV digests "
                             "(default: benchmarks/baseline.json)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        if SPEC is None:
            parser.error("BENCHMARK.json not found")
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.reference)


if __name__ == "__main__":
    sys.exit(main())
