"""Seeded Monte Carlo evaluation of the execution policies.

A run simulates a policy for `horizon` steps over independent replications,
accumulates the time- and arm-averaged reward, audits the hard budgets at
every step, and reports a batch-means confidence interval together with the
ratio of the achieved reward to the relaxation upper bound.

Replication r of a run seeded with s uses its own generator seeded by
(s, r), so a repeated run reproduces every statistic bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lp_relax import LpSolution, SingleArmPolicy, build_lp, extract_policy, solve_lp
from .model import GeneratorConfig, WcmdpInstance, generate
from .policies import ErcPolicyRunner, IdPolicyRunner
from .reassign import ReassignmentResult, reassign

POLICY_ID = "id"
POLICY_ERC = "erc"

INITIAL_UNIFORM = "uniform"
INITIAL_ALL_STATE0 = "all0"

# slack for the accumulated floating-point error of a prefix cost sum
FEASIBILITY_SLACK = 1e-9

CSV_COLUMNS = ["family", "seed", "N", "policy", "T", "reps", "R_rel",
               "avg_reward", "ratio", "ci_halfwidth", "gap", "gap_sqrtN",
               "conforming_frac", "violations"]


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters. batch_size must divide horizon."""

    horizon: int
    replications: int = 4
    batch_size: int = 4000
    seed: int = 0
    policy: str = POLICY_ID
    initial_state: str | Sequence[int] = INITIAL_UNIFORM
    record_trace: bool = False

    def check(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.batch_size < 1 or self.horizon % self.batch_size != 0:
            raise ValueError(
                f"batch_size {self.batch_size} must divide horizon {self.horizon}")
        if self.policy not in (POLICY_ID, POLICY_ERC):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class SimResult:
    """Aggregated statistics of one simulation run."""

    avg_reward_per_arm: float
    optimality_ratio: float
    ci_halfwidth: float
    per_batch_means: list
    feasibility_violations: int
    mean_conforming_fraction: float
    runtime: float
    policy: str
    horizon: int
    replications: int
    seed: int
    r_rel: float
    initial_state: str | Sequence[int]
    trace: dict | None = None


@dataclass(frozen=True)
class PolicyBundle:
    """Preprocessing artifacts shared by the execution policies."""

    solution: LpSolution
    policy: SingleArmPolicy
    reassignment: ReassignmentResult | None = None

    @classmethod
    def prepare(cls, instance: WcmdpInstance, seed: int = 0) -> "PolicyBundle":
        """Solve the relaxation, extract the single-armed policies, and
        compute the ID permutation (its leftover shuffle uses `seed`)."""
        solution = solve_lp(build_lp(instance))
        policy = extract_policy(instance, solution)
        return cls(solution=solution, policy=policy,
                   reassignment=reassign(instance, policy, seed))


def batch_means_ci(batch_means) -> tuple[float, float]:
    """Sample mean and 1.96 * stderr of the batch means. Needs >= 2 batches."""
    arr = np.asarray(batch_means, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("batch means CI needs at least 2 batches")
    mean = float(arr.mean())
    half = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return mean, half


def _initial_states(config: SimConfig, runner, num_states: int,
                    rng: np.random.Generator) -> np.ndarray:
    if isinstance(config.initial_state, str):
        if config.initial_state == INITIAL_UNIFORM:
            return rng.integers(0, num_states, size=runner.num_arms)
        if config.initial_state == INITIAL_ALL_STATE0:
            return np.zeros(runner.num_arms, dtype=np.int64)
        raise ValueError(f"unknown initial_state {config.initial_state!r}")
    explicit = np.asarray(config.initial_state, dtype=np.int64)
    if explicit.shape != (runner.num_arms,):
        raise ValueError("explicit initial state has wrong length")
    # explicit states are given in original arm order
    return explicit[runner.order]


def _run_replication(runner, instance: WcmdpInstance, config: SimConfig,
                     rep: int) -> dict:
    rng = np.random.default_rng([config.seed, rep])
    states = _initial_states(config, runner, instance.num_states, rng)
    budget = instance.alpha * instance.num_arms

    total_reward = 0.0
    batch_sum = 0.0
    batch_means: list[float] = []
    violations = 0
    conforming = 0
    trace_states = None
    trace_conforming = None
    if config.record_trace:
        trace_states = np.empty((config.horizon + 1, runner.num_arms), dtype=np.int16)
        trace_states[0] = states
        trace_conforming = np.empty(config.horizon, dtype=np.int64)

    denom = config.batch_size * runner.num_arms
    for t in range(config.horizon):
        outcome = runner.step(states, rng)
        total_reward += outcome.step_reward
        batch_sum += outcome.step_reward
        conforming += outcome.conforming_count
        if np.any(outcome.step_costs > budget + FEASIBILITY_SLACK):
            violations += 1
        if (t + 1) % config.batch_size == 0:
            batch_means.append(batch_sum / denom)
            batch_sum = 0.0
        states = runner.transition_step(states, outcome.actions, rng)
        if config.record_trace:
            trace_states[t + 1] = states
            trace_conforming[t] = outcome.conforming_count

    out = {"total_reward": total_reward, "batch_means": batch_means,
           "violations": violations, "conforming": conforming}
    if config.record_trace:
        out["trace_states"] = trace_states
        out["trace_conforming"] = trace_conforming
    return out


def make_runner(instance: WcmdpInstance, bundle: PolicyBundle, policy_kind: str):
    if policy_kind == POLICY_ID:
        if bundle.reassignment is None:
            raise ValueError("ID policy requires a reassignment in the bundle")
        return IdPolicyRunner(instance, bundle.policy, bundle.reassignment)
    if policy_kind == POLICY_ERC:
        return ErcPolicyRunner(instance, bundle.policy)
    raise ValueError(f"unknown policy {policy_kind!r}")


def simulate(instance: WcmdpInstance, bundle: PolicyBundle,
             config: SimConfig) -> SimResult:
    """Run the configured policy and aggregate across replications."""
    config.check()
    started = time.perf_counter()
    runner = make_runner(instance, bundle, config.policy)

    rep_results = [_run_replication(runner, instance, config, r)
                   for r in range(config.replications)]

    n = instance.num_arms
    steps = config.horizon * config.replications
    total = sum(r["total_reward"] for r in rep_results)
    avg_reward = total / (steps * n)
    pooled = [m for r in rep_results for m in r["batch_means"]]
    if len(pooled) >= 2:
        _, half = batch_means_ci(pooled)
    else:
        half = float("nan")
    violations = sum(r["violations"] for r in rep_results)
    conforming_frac = sum(r["conforming"] for r in rep_results) / (steps * n)

    trace = None
    if config.record_trace:
        trace = {
            "states": [r["trace_states"] for r in rep_results],
            "conforming": [r["trace_conforming"] for r in rep_results],
            "order": runner.order,
        }

    r_rel = bundle.solution.objective
    return SimResult(
        avg_reward_per_arm=avg_reward,
        optimality_ratio=avg_reward / r_rel,
        ci_halfwidth=half,
        per_batch_means=pooled,
        feasibility_violations=violations,
        mean_conforming_fraction=conforming_frac,
        runtime=time.perf_counter() - started,
        policy=config.policy,
        horizon=config.horizon,
        replications=config.replications,
        seed=config.seed,
        r_rel=r_rel,
        initial_state=config.initial_state,
        trace=trace,
    )


def sweep(template: GeneratorConfig, n_values: Sequence[int], config: SimConfig,
          policies: Sequence[str] = (POLICY_ID,)) -> list[dict]:
    """Simulate each policy at each system size; one CSV-schema row per pair.

    The instance at every size is generated from the template with the same
    seed, and the relaxation is solved once per size.
    """
    if list(n_values) != sorted(n_values):
        raise ValueError("n_values must be ascending")
    rows = []
    for n in n_values:
        cfg_n = dataclasses.replace(template, num_arms=int(n))
        instance = generate(cfg_n)
        bundle = PolicyBundle.prepare(instance, seed=config.seed)
        for policy_kind in policies:
            run_cfg = dataclasses.replace(config, policy=policy_kind)
            result = simulate(instance, bundle, run_cfg)
            rows.append(results_row(result, template.family, template.seed,
                                    int(n)))
    return rows


def results_row(result: SimResult, family: str, seed: int,
                num_arms: int) -> dict:
    """The CSV_COLUMNS row of one simulation run."""
    gap = result.r_rel - result.avg_reward_per_arm
    return {
        "family": family,
        "seed": seed,
        "N": num_arms,
        "policy": result.policy,
        "T": result.horizon,
        "reps": result.replications,
        "R_rel": result.r_rel,
        "avg_reward": result.avg_reward_per_arm,
        "ratio": result.optimality_ratio,
        "ci_halfwidth": result.ci_halfwidth,
        "gap": gap,
        "gap_sqrtN": gap * math.sqrt(num_arms),
        "conforming_frac": result.mean_conforming_fraction,
        "violations": result.feasibility_violations,
    }


def write_results_csv(rows: Sequence[dict], path) -> None:
    """Write sweep rows with the fixed column set and order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in CSV_COLUMNS})
