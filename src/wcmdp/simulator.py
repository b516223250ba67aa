"""Seeded Monte Carlo evaluation of the execution policies.

A run simulates a policy for `horizon` steps over independent replications,
accumulates the time- and arm-averaged reward, audits the hard budgets at
every step, and reports a batch-means confidence interval together with the
ratio of the achieved reward to the relaxation upper bound (NaN when that
bound is 0).

All replications step together: the state is one (R, N) array, one row per
replication, and each runner call advances every row. Replication r of a
run seeded with s uses its own generator seeded by (s, r): it first
draws every arm's start state uniformly from the state space, then draws
its uniforms in blocks of B steps, `random((B, 2N))`. Row t of a block holds
step t's N ideal-action uniforms followed by its N transition uniforms; the
generator fills the block in stream order, so these are the numbers that a
per-step pair of `random(N)` calls would draw. B only bounds the size of the
(B, R, 2N) block (`BLOCK_FLOATS`); replication r's trajectory depends on
neither B nor R, and a repeated run reproduces every statistic bit for bit.
The long-run average reward per arm does not depend on the start state, and
the statistics are running sums, so no trajectory is stored.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lp_relax import (LpCheckReport, LpSolution, LpSolveError,
                       SingleArmPolicy, check_solution, extract_policy,
                       solve_lp)
from .model import GeneratorConfig, WcmdpInstance, generate, writing
from .policies import ErcPolicyRunner, IdPolicyRunner
from .reassign import ReassignmentResult, reassign

POLICY_ID = "id"
POLICY_ERC = "erc"

# slack for the accumulated floating-point error of a prefix cost sum
FEASIBILITY_SLACK = 1e-9

# float64 uniforms per (B, R, 2N) block drawn across the replications (1 MiB)
BLOCK_FLOATS = 1 << 17

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
    """Aggregated statistics of one simulation run, and the config it ran."""

    avg_reward_per_arm: float
    optimality_ratio: float
    ci_halfwidth: float
    per_batch_means: list
    feasibility_violations: int
    mean_conforming_fraction: float
    r_rel: float
    config: SimConfig


@dataclass(frozen=True)
class PolicyBundle:
    """Preprocessing artifacts shared by the execution policies, and the
    audit report of the solution (None for a bundle built by hand)."""

    solution: LpSolution
    policy: SingleArmPolicy
    reassignment: ReassignmentResult
    audit: LpCheckReport | None = None

    @classmethod
    def prepare(cls, instance: WcmdpInstance, seed: int = 0) -> "PolicyBundle":
        """The plan of every command that solves the relaxation: solve
        it, audit the solution against the raw instance (check_solution,
        kept as `audit`), extract the single-armed policies in original arm
        order, and compute the ID permutation (its leftover shuffle uses
        `seed`). Raises LpSolveError, naming the audit's residuals, when the
        solution fails the audit."""
        solution = solve_lp(instance)
        audit = check_solution(instance, solution)
        if not audit.ok:
            raise LpSolveError(f"solution failed the feasibility audit: {audit}")
        policy = extract_policy(instance, solution)
        return cls(solution=solution, policy=policy,
                   reassignment=reassign(instance, policy, seed), audit=audit)


def batch_means_ci(batch_means) -> tuple[float, float]:
    """Sample mean and 1.96 * stderr of the batch means. Needs >= 2 batches."""
    arr = np.asarray(batch_means, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("batch means CI needs at least 2 batches")
    mean = float(arr.mean())
    half = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return mean, half


def _block_steps(num_arms: int, replications: int) -> int:
    """Steps B per uniform block, so that a (B, R, 2N) block holds at most
    BLOCK_FLOATS floats (at least one step)."""
    return max(1, BLOCK_FLOATS // (2 * num_arms * replications))


def simulate(instance: WcmdpInstance, bundle: PolicyBundle,
             config: SimConfig) -> SimResult:
    """Run the configured policy on all replications at once and aggregate."""
    config.check()
    runner = (IdPolicyRunner(instance, bundle.policy, bundle.reassignment)
              if config.policy == POLICY_ID
              else ErcPolicyRunner(instance, bundle.policy))
    n, reps = runner.num_arms, config.replications
    rngs = [np.random.default_rng([config.seed, r]) for r in range(reps)]
    states = np.stack([g.integers(0, instance.num_states, size=n) for g in rngs])
    limit = runner.budget + FEASIBILITY_SLACK

    totals = np.zeros(reps)
    batch_sum = np.zeros(reps)
    batch_means = []                    # (R,) per batch
    violations = np.zeros(reps, dtype=np.int64)
    conforming = np.zeros(reps, dtype=np.int64)
    denom = config.batch_size * n
    block = _block_steps(n, reps)
    for start in range(0, config.horizon, block):
        steps = min(block, config.horizon - start)
        uniforms = np.stack([g.random((steps, 2 * n)) for g in rngs], axis=1)
        for t, u in enumerate(uniforms, start + 1):
            outcome = runner.step(states, u[:, :n])
            totals += outcome.step_reward
            batch_sum += outcome.step_reward
            conforming += outcome.conforming_count
            violations += (outcome.step_costs > limit).any(axis=1)
            if t % config.batch_size == 0:
                batch_means.append(batch_sum / denom)
                batch_sum[:] = 0.0
            states = runner.transition_step(states, outcome.actions, u[:, n:])

    arm_steps = config.horizon * reps * n
    # sequential sum over replications, in replication order
    avg_reward = sum(totals.tolist()) / arm_steps
    pooled = np.stack(batch_means, axis=1).ravel().tolist()  # replication-major
    half = batch_means_ci(pooled)[1] if len(pooled) >= 2 else float("nan")
    r_rel = bundle.solution.objective
    return SimResult(
        avg_reward_per_arm=avg_reward,
        optimality_ratio=avg_reward / r_rel if r_rel != 0.0 else math.nan,
        ci_halfwidth=half,
        per_batch_means=pooled,
        feasibility_violations=int(violations.sum()),
        mean_conforming_fraction=int(conforming.sum()) / arm_steps,
        r_rel=r_rel,
        config=config,
    )


def _check_sweep(template: GeneratorConfig, n_values: Sequence[int],
                 config: SimConfig, policies: Sequence[str]) -> None:
    """Raise ValueError for the first sweep input that cannot run, before
    any size is generated."""
    if list(n_values) != sorted(n_values):
        raise ValueError(f"sizes {list(n_values)} are not ascending")
    for n in n_values:
        dataclasses.replace(template, num_arms=int(n)).check()
    for policy_kind in policies:
        dataclasses.replace(config, policy=policy_kind).check()


def sweep(template: GeneratorConfig, n_values: Sequence[int], config: SimConfig,
          policies: Sequence[str] = (POLICY_ID,)) -> list[dict]:
    """Simulate each policy at each system size; one CSV-schema row per pair.

    The instance at every size is generated from the template with the same
    seed, and the relaxation is solved once per size. Every input is checked
    before the first size runs.
    """
    _check_sweep(template, n_values, config, policies)
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
    config = result.config
    return {
        "family": family,
        "seed": seed,
        "N": num_arms,
        "policy": config.policy,
        "T": config.horizon,
        "reps": config.replications,
        "R_rel": result.r_rel,
        "avg_reward": result.avg_reward_per_arm,
        "ratio": result.optimality_ratio,
        "ci_halfwidth": result.ci_halfwidth,
        "gap": gap,
        "gap_sqrtN": gap * math.sqrt(num_arms),
        "conforming_frac": result.mean_conforming_fraction,
        "violations": result.feasibility_violations,
    }


def results_csv(rows: Sequence[dict]) -> str:
    """Sweep rows as CSV text with the fixed column set and order."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows({k: row[k] for k in CSV_COLUMNS} for row in rows)
    return text.getvalue()


def write_results_csv(rows: Sequence[dict], path) -> None:
    """Write results_csv(rows) to `path`, whole or not at all."""
    with writing() as write:
        write(path, [results_csv(rows)])
