"""Per-step execution of the ID policy and the ERC baseline, plus an exact
small-instance oracle for the N-armed problem.

Both policies first sample an ideal action for every arm from its
single-armed policy and then enforce the hard budgets:

* ID policy: walk arms in ascending reassigned ID and keep ideal actions
  while every budget still covers the running prefix cost; all remaining
  arms take the free action 0, whatever their individual cost would be.
* ERC baseline: rank arms each step by expected reward at their current
  state and greedily keep ideal actions that still fit every running budget,
  continuing past arms that do not fit. The greedy runs in array rounds
  (`_erc_rejections`) and rejects exactly the arms the one-at-a-time loop
  rejects: costs are non-negative and rounded addition is monotone, so the
  running totals never shrink, and every test is the same comparison
  running + cost <= budget on the same left-to-right fold.

Both runners gather each step's rows (policy and transition CDFs, rewards,
costs) with one take from flat row tables.

Feasibility is structural: action 0 costs nothing, so the emitted system
action always satisfies every budget.

RNG discipline: the runners draw no random numbers. Every method takes a
states array of shape (R, N), one row per replication with arms in the
runner's ID order, or a single (N,) row, and the uniforms it consumes in
the same shape: `sample_ideal` and `step` use one uniform per arm for the
ideal actions, and `transition_step` one per arm for the next states. The
simulator draws both from each replication's own generator (see
`simulator`). Identical states and uniforms reproduce a step exactly, and a
row of an (R, N) step equals the (N,) step of that row.
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

    Shapes follow the states of the step: (R, N) states give the fields
    below, and (N,) states drop the leading R axis. conforming_count is the
    number of arms that played their sampled ideal action; under the ID
    policy it is also the length of the conforming prefix. step_costs never
    exceeds any budget.
    """

    actions: np.ndarray            # (R, N)
    ideal_actions: np.ndarray      # (R, N)
    conforming_count: np.ndarray   # (R,)
    step_reward: np.ndarray        # (R,)
    step_costs: np.ndarray         # (R, K)


def sample_from_cdf(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per CDF row by inverse-CDF sampling; cdf_rows has the shape
    of the uniforms u plus a trailing outcome axis."""
    width = cdf_rows.shape[-1]
    # the entries at or below u, counted by a float dot product: exact for
    # any count, and much faster than a sum of bools over a short axis
    count = ((cdf_rows <= u[..., None]) @ np.ones(width)).astype(np.intp)
    # clip guards a final cumsum a hair below 1
    return np.minimum(count, width - 1)


def _erc_rejections(costs_q: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Mask of the queued cost rows (rank order) that the ERC greedy rejects.

    Works in rounds. One cumsum from the running totals gives, for every
    remaining row, the fold running + row that the greedy would test; the
    rows before the first failing one are kept, that row is rejected, and
    the running totals become the fold before it. Every later row that
    does not fit those totals on its own is rejected too: costs are
    non-negative and rounded addition is monotone, so the totals only grow
    and such a row can never fit again. The next round starts from the rows
    that remain, the first of which fits, so each round keeps at least one.
    """
    rejected = np.zeros(costs_q.shape[0], dtype=bool)
    running = np.zeros(costs_q.shape[1])
    pos = np.arange(costs_q.shape[0])
    rows = costs_q
    while pos.size:
        acc = np.cumsum(np.vstack([running, rows]), axis=0)
        fits = (acc[1:] <= budget).all(axis=1)
        j = int(fits.argmin())
        if fits[j]:
            break
        rejected[pos[j]] = True
        running = acc[j]
        pos, rows = pos[j + 1:], rows[j + 1:]
        keep = (running + rows <= budget).all(axis=1)
        rejected[pos[~keep]] = True
        pos, rows = pos[keep], rows[keep]
    return rejected


class _RunnerBase:
    """Shared tables of the per-step policy runners.

    The per-arm tables are held as flat row tables: the row of arm i in
    state s is i*S + s, and that of the pair (s, a) is (i*S + s)*A + a.
    """

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy,
                 order: np.ndarray):
        n, s, a = instance.num_arms, instance.num_states, instance.num_actions
        self.num_arms = n
        self.num_actions = a
        self.order = order
        self.budget = instance.alpha * n
        self.reward = instance.reward[order].reshape(n * s * a)
        self.cost = np.ascontiguousarray(
            instance.cost[order].transpose(0, 2, 3, 1)).reshape(n * s * a, -1)
        self.pi_cdf = np.cumsum(policy.pi[order], axis=-1).reshape(n * s, a)
        self.trans_cdf = np.cumsum(instance.transition[order],
                                   axis=-1).reshape(n * s * a, s)
        self._arm = np.arange(n)
        self._state_row = self._arm * s         # row of (arm, state 0)

    def _pair_rows(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return (self._state_row + states) * self.num_actions + actions

    def sample_ideal(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Every arm's ideal action, by inverse CDF with the uniforms u."""
        rows = self.pi_cdf.take(self._state_row + states, axis=0)
        return sample_from_cdf(rows, u)

    def transition_step(self, states: np.ndarray, actions: np.ndarray,
                        u: np.ndarray) -> np.ndarray:
        """Every arm's next state, by inverse CDF with the uniforms u."""
        rows = self.trans_cdf.take(self._pair_rows(states, actions), axis=0)
        return sample_from_cdf(rows, u)

    def _outcome(self, states, actions, ideal, conforming) -> StepOutcome:
        # recomputed from the emitted actions, independent of admission
        pairs = self._pair_rows(states, actions)
        return StepOutcome(actions=actions, ideal_actions=ideal,
                           conforming_count=conforming,
                           step_reward=self.reward.take(pairs).sum(axis=-1),
                           step_costs=self.cost.take(pairs, axis=0).sum(axis=-2))


class IdPolicyRunner(_RunnerBase):
    """ID policy executor; all vectors are indexed by reassigned ID."""

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy,
                 reassignment: ReassignmentResult):
        super().__init__(instance, policy, reassignment.order())

    def step(self, states: np.ndarray, u: np.ndarray) -> StepOutcome:
        ideal = self.sample_ideal(states, u)
        costs = self.cost.take(self._pair_rows(states, ideal), axis=0)  # (R, N, K)
        fits = (np.cumsum(costs, axis=-2) <= self.budget).all(axis=-1)
        # the prefix ends at each row's first arm whose running cost overflows
        conforming = np.where(fits.all(axis=-1), self.num_arms,
                              fits.argmin(axis=-1))
        actions = np.where(self._arm < conforming[..., None], ideal, 0)
        return self._outcome(states, actions, ideal, conforming)


class ErcPolicyRunner(_RunnerBase):
    """ERC baseline executor; vectors are indexed by original arm ID.

    Arms with a zero-cost ideal action always keep it. The others queue in
    descending index order (ties by arm ID) and are admitted in rounds by
    `_erc_rejections`, one replication row at a time, which rejects the same
    arms as the sequential greedy: costs are non-negative, rounding is
    monotone and every test is running + cost <= budget.
    """

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy):
        super().__init__(instance, policy, np.arange(instance.num_arms))
        self.index_table = policy.r_star.reshape(-1)      # (N*S,)
        self.costly = (self.cost > 0.0).any(axis=1)       # (N*S*A,)

    def step(self, states: np.ndarray, u: np.ndarray) -> StepOutcome:
        ideal = self.sample_ideal(states, u)
        pairs = self._pair_rows(states, ideal)
        costs = self.cost.take(pairs, axis=0)             # (R, N, K)
        # indices recomputed from the current states every step
        indices = self.index_table.take(self._state_row + states)
        rank = np.argsort(-indices, axis=-1, kind="stable")  # ties: arm ID ascending
        # zero-cost draws can never break a budget, so only the rest queue up
        needs_check = self.costly.take(pairs)
        actions = ideal.copy()
        n, k = costs.shape[-2:]
        for row, row_costs, row_rank, row_check in zip(
                actions.reshape(-1, n), costs.reshape(-1, n, k),
                rank.reshape(-1, n), needs_check.reshape(-1, n)):
            queue = row_rank[row_check[row_rank]]
            row[queue[_erc_rejections(row_costs[queue], self.budget)]] = 0
        conforming = (actions == ideal).sum(axis=-1)
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
