"""Per-step execution of the ID policy and the ERC baseline, plus an exact
small-instance oracle for the N-armed problem.

Both policies first sample an ideal action for every arm from its
single-armed policy and then enforce the hard budgets:

* ID policy: walk arms in ascending reassigned ID and keep ideal actions
  while every budget still covers the running prefix cost; all remaining
  arms take the free action 0, whatever their individual cost would be.
* ERC baseline: rank arms each step by expected reward at their current
  state and greedily keep ideal actions that still fit every running budget,
  continuing past arms that do not fit.

Feasibility is structural: action 0 costs nothing, so the emitted system
action always satisfies every budget.

RNG discipline: the states passed to a runner are indexed in its ID order
(the simulator draws them uniformly from the replication's generator before
the first step). Each step draws one uniform per arm for ideal actions, in
that order, and state transitions later draw one uniform per arm in the same
order. Identical inputs and generator state reproduce the step exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .lp_relax import SingleArmPolicy
from .model import WcmdpInstance
from .reassign import ReassignmentResult

ORACLE_MAX_PAIRS = 10 ** 6
ORACLE_MAX_DENSE = 5 * 10 ** 7


class OracleSizeError(RuntimeError):
    """Product MDP too large for the exact oracle."""


class OracleNumericalError(RuntimeError):
    """Exact oracle solution failed its residual audit."""


@dataclass(frozen=True)
class StepOutcome:
    """Actions taken at one step and the induced reward/cost totals.

    conforming_count is the number of arms that played their sampled ideal
    action; under the ID policy it is also the length of the conforming
    prefix. step_costs never exceeds any budget.
    """

    actions: np.ndarray         # (N,)
    ideal_actions: np.ndarray   # (N,)
    conforming_count: int
    step_reward: float
    step_costs: np.ndarray      # (K,)


def sample_from_cdf(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per row of cdf_rows by inverse-CDF sampling with uniforms u."""
    # clip guards a final cumsum a hair below 1
    return np.minimum((cdf_rows <= u[:, None]).sum(axis=1),
                      cdf_rows.shape[1] - 1)


class _RunnerBase:
    """Shared tensor caches for the per-step policy runners."""

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy,
                 order: np.ndarray):
        n = instance.num_arms
        self.num_arms = n
        self.num_constraints = instance.num_constraints
        self.order = order
        self.budget = instance.alpha * n
        self.reward = instance.reward[order]
        self.cost = np.ascontiguousarray(
            instance.cost[order].transpose(0, 2, 3, 1))   # (N,S,A,K)
        self.pi_cdf = np.cumsum(policy.pi[order], axis=-1)
        self.trans_cdf = np.cumsum(instance.transition[order], axis=-1)
        self._ar = np.arange(n)

    def sample_ideal(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(self.num_arms)
        return sample_from_cdf(self.pi_cdf[self._ar, states], u)

    def transition_step(self, states: np.ndarray, actions: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        """Sample every arm's next state, one uniform per arm in ID order."""
        u = rng.random(self.num_arms)
        rows = self.trans_cdf[self._ar, states, actions]
        return sample_from_cdf(rows, u)

    def _outcome(self, states, actions, ideal, conforming) -> StepOutcome:
        step_reward = float(self.reward[self._ar, states, actions].sum())
        step_costs = self.cost[self._ar, states, actions].sum(axis=0)
        return StepOutcome(actions=actions, ideal_actions=ideal,
                           conforming_count=int(conforming),
                           step_reward=step_reward, step_costs=step_costs)


class IdPolicyRunner(_RunnerBase):
    """ID policy executor; all vectors are indexed by reassigned ID."""

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy,
                 reassignment: ReassignmentResult):
        super().__init__(instance, policy, reassignment.order())
        self.reassignment = reassignment

    def step(self, states: np.ndarray, rng: np.random.Generator) -> StepOutcome:
        ideal = self.sample_ideal(states, rng)
        costs = self.cost[self._ar, states, ideal]        # (N, K)
        prefix = np.cumsum(costs, axis=0)
        feasible = (prefix <= self.budget[None, :]).all(axis=1)
        blocked = np.flatnonzero(~feasible)
        conforming = self.num_arms if blocked.size == 0 else int(blocked[0])
        actions = ideal.copy()
        actions[conforming:] = 0
        return self._outcome(states, actions, ideal, conforming)


class ErcPolicyRunner(_RunnerBase):
    """ERC baseline executor; vectors are indexed by original arm ID."""

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy):
        super().__init__(instance, policy, np.arange(instance.num_arms))
        self.index_table = policy.r_star                  # (N, S)

    def step(self, states: np.ndarray, rng: np.random.Generator) -> StepOutcome:
        ideal = self.sample_ideal(states, rng)
        costs = self.cost[self._ar, states, ideal]        # (N, K)
        # indices recomputed from the current states every step
        indices = self.index_table[self._ar, states]
        rank = np.argsort(-indices, kind="stable")        # ties: arm ID ascending
        actions = ideal.copy()

        # zero-cost draws can never break a budget, so only the rest queue up
        needs_check = costs.max(axis=1) > 0.0
        queue = rank[needs_check[rank]]
        if queue.size:
            budget = self.budget.tolist()
            running = [0.0] * self.num_constraints
            ks = range(self.num_constraints)
            for i, row in zip(queue.tolist(), costs[queue].tolist()):
                if all(running[k] + row[k] <= budget[k] for k in ks):
                    for k in ks:
                        running[k] += row[k]
                else:
                    actions[i] = 0
        conforming = int((actions == ideal).sum())
        return self._outcome(states, actions, ideal, conforming)


def exact_oracle(instance: WcmdpInstance, tol: float = 1e-6) -> float:
    """Optimal long-run average reward per arm of the hard-budget problem.

    Builds the product MDP over joint states, restricts each joint-action set
    to the budget-feasible combinations, and solves the average-reward linear
    program for (possibly multichain) finite MDPs. Returns the best value
    over initial states, divided by the number of arms.

    Raises OracleSizeError when the joint state-action enumeration exceeds
    the size guard, and OracleNumericalError when the returned solution
    violates its own constraints by more than tol.
    """
    n, s, a = instance.num_arms, instance.num_states, instance.num_actions
    n_states = s ** n
    n_pairs = n_states * a ** n
    if n_pairs > ORACLE_MAX_PAIRS:
        raise OracleSizeError(
            f"{n_pairs} joint state-action pairs exceed the guard {ORACLE_MAX_PAIRS}")

    joint_states = np.array(list(itertools.product(range(s), repeat=n)),
                            dtype=np.int64)
    joint_actions = np.array(list(itertools.product(range(a), repeat=n)),
                             dtype=np.int64)
    budget = instance.alpha * n

    arms = np.arange(n)
    rows = []       # (joint state, P(.|s, a) - e_s, reward) per feasible pair
    for si, sv in enumerate(joint_states):
        for av in joint_actions:
            cost = instance.cost[arms, :, sv, av].sum(axis=0)
            if np.any(cost > budget):
                continue
            reward = instance.reward[arms, sv, av].sum()
            trans = np.ones(1)
            for p in instance.transition[arms, sv, av]:
                trans = np.kron(trans, p)
            trans[si] -= 1.0
            rows.append((si, trans, reward))
            # a_ub below holds (2m) x (2 n_states) float64 entries
            if 4 * len(rows) * n_states > ORACLE_MAX_DENSE:
                raise OracleSizeError(
                    f"dense matrix exceeds {ORACLE_MAX_DENSE} entries")

    m = len(rows)
    a_ub = np.zeros((2 * m, 2 * n_states))
    b_ub = np.zeros(2 * m)
    for r, (si, row, reward) in enumerate(rows):
        a_ub[r, :n_states] = row                       # P g - g(s) <= 0
        a_ub[m + r, si] = -1.0                         # -g(s) + P h - h(s) <= -r
        a_ub[m + r, n_states:] = row
        b_ub[m + r] = -reward

    c = np.concatenate([np.full(n_states, 1.0 / n_states), np.zeros(n_states)])
    res = linprog(c=c, A_ub=sp.csr_matrix(a_ub), b_ub=b_ub,
                  bounds=(None, None), method="highs")
    if res.status != 0:
        raise OracleNumericalError(f"linprog status {res.status}: {res.message}")
    residual = float(np.max(a_ub @ res.x - b_ub))
    if residual > tol:
        raise OracleNumericalError(
            f"oracle solution violates constraints by {residual:.3e} > {tol:.3e}")
    gain = res.x[:n_states]
    return float(gain.max()) / n
