"""Per-step execution of the ID policy and the ERC baseline, plus an exact
small-instance oracle for the N-armed problem.

Both policies run one step (`_RunnerBase.step`): sample every arm's ideal
action from its single-armed policy, then apply the policy's budget rule:

* ID policy: walk arms in ascending reassigned ID and keep ideal actions
  while every budget still covers the running prefix cost; all remaining
  arms take the free action 0, whatever their individual cost would be.
* ERC baseline: rank arms each step by expected reward at their current
  state and greedily keep ideal actions that still fit every running budget,
  continuing past arms that do not fit. The rank sorts integer keys that
  the runner computes once: each (arm, state) pair's position in the order
  of descending index, ties by arm ID, with every free draw keyed after
  every costly one, so each row's queue is a prefix of its rank. The greedy
  runs in array rounds (`_erc_rejections`) and rejects exactly the arms the
  one-at-a-time loop rejects: costs are non-negative and rounded addition
  is monotone, so the running totals never shrink, and every test is the
  same comparison running + cost <= budget on the same left-to-right fold.

Both runners gather each step's rows (policy and transition CDFs, rewards,
costs) with one take from flat row tables, held in arm order for either
runner. An LP vertex randomises few policy rows, so the runners look the
ideal action of every deterministic row up in a table built once
(`det_action`, -1 on a mixed row) and run the inverse-CDF count only on the
mixed rows. The ID prefix cut runs its cumsum and its test against the
budgets on a K-major copy of the gathered costs, along contiguous arms.

Feasibility is structural: action 0 costs nothing, so the emitted system
action always satisfies every budget.

RNG discipline: the runners draw no random numbers. Every method takes a
states array of shape (R, N), one row per replication with arms in the
runner's ID order, or a single (N,) row, and the uniforms it consumes in
the same shape: `sample_ideal` and `step` use one uniform per arm for the
ideal actions, and `transition_step` one per arm for the next states. The
simulator draws both from each replication's own generator (see
`simulator`). Every arm consumes its uniform, but an arm whose policy row is
deterministic ignores it, so the stream does not depend on the policy. The
uniforms must lie in [0, 1), as `Generator.random` draws them: the lookup
equals the inverse CDF only there. Identical states and uniforms reproduce a
step exactly, and a row of an (R, N) step equals the (N,) step of that row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .lp_relax import SingleArmPolicy
from .model import WcmdpInstance
from .reassign import ReassignmentResult

ORACLE_MAX_PAIRS = 10 ** 6
ORACLE_MAX_DENSE = 12_500_000     # dense transition entries of the feasible pairs


class OracleSizeError(RuntimeError):
    """Product MDP too large for the exact oracle."""


class OracleNumericalError(RuntimeError):
    """Exact oracle solution failed its residual audit."""


@dataclass(frozen=True)
class StepOutcome:
    """Actions taken at one step and the induced reward/cost totals.

    Shapes follow the states of the step: (R, N) states give the fields
    below, and (N,) states drop the leading R axis. conforming_count is the
    conforming prefix's length under ID (an arm behind the cut that drew
    action 0 plays it uncounted) and under ERC the number of arms whose
    emitted action equals the ideal one. step_costs never exceeds any budget.
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
    """The step of both policy runners and its tables; subclasses add `_admit`.

    The per-arm tables are held as flat row tables in arm order, whatever
    the runner's order: the row of arm i in state s is i*S + s, and that of
    the pair (s, a) is (i*S + s)*A + a. reward is a view of the instance's
    reward array; the CDF, ideal-action and cost tables are built from the
    instance and policy arrays with no gathered copy, so every runner of one
    plan holds the same bytes. Position j of the runner's own order reads
    arm order[j] through _state_row, and states, uniforms and every per-step
    sum stay in the runner's order.
    """

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy,
                 order: np.ndarray):
        n, s, a = instance.num_arms, instance.num_states, instance.num_actions
        self.num_arms = n
        self.num_actions = a
        self.order = order
        self.budget = instance.alpha * n
        self.reward = instance.reward.reshape(n * s * a)
        self.cost = np.ascontiguousarray(
            instance.cost.transpose(0, 2, 3, 1)).reshape(n * s * a, -1)
        self.pi_cdf = np.cumsum(policy.pi, axis=-1).reshape(n * s, a)
        # -1 marks a mixed row; one with no CDF entry strictly inside (0, 1)
        # gives the count of its entries <= 0 for every u in [0, 1)
        mixed = ((self.pi_cdf > 0.0) & (self.pi_cdf < 1.0)).any(axis=-1)
        self.det_action = np.where(
            mixed, -1, np.minimum((self.pi_cdf <= 0.0).sum(axis=-1), a - 1))
        self.trans_cdf = np.cumsum(instance.transition,
                                   axis=-1).reshape(n * s * a, s)
        self._state_row = order * s             # row of (order[j], state 0)

    def sample_ideal(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Every arm's ideal action, by inverse CDF with the uniforms u:
        looked up for deterministic rows, counted only for mixed ones."""
        rows = self._state_row + states
        ideal = self.det_action.take(rows)
        mixed = ideal < 0
        if mixed.any():
            ideal[mixed] = sample_from_cdf(
                self.pi_cdf.take(rows[mixed], axis=0), u[mixed])
        return ideal

    def transition_step(self, states: np.ndarray, actions: np.ndarray,
                        u: np.ndarray) -> np.ndarray:
        """Every arm's next state, by inverse CDF with the uniforms u."""
        pairs = (self._state_row + states) * self.num_actions + actions
        return sample_from_cdf(self.trans_cdf.take(pairs, axis=0), u)

    def step(self, states: np.ndarray, u: np.ndarray) -> StepOutcome:
        """Sample, admit by `_admit(rows, pairs, ideal, costs) -> (actions,
        conforming)`, which writes no argument, and audit the emitted pairs."""
        ideal = self.sample_ideal(states, u)
        rows = self._state_row + states
        first = rows * self.num_actions                   # pair of action 0
        pairs = first + ideal
        costs = self.cost.take(pairs, axis=0)             # (R, N, K)
        actions, conforming = self._admit(rows, pairs, ideal, costs)
        # recomputed from the emitted actions, independent of admission
        pairs = first + actions
        return StepOutcome(actions=actions, ideal_actions=ideal,
                           conforming_count=conforming,
                           step_reward=self.reward.take(pairs).sum(axis=-1),
                           step_costs=self.cost.take(pairs, axis=0).sum(axis=-2))


class IdPolicyRunner(_RunnerBase):
    """ID policy executor; all vectors are indexed by reassigned ID."""

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy,
                 reassignment: ReassignmentResult):
        super().__init__(instance, policy, reassignment.order())

    def _admit(self, rows, pairs, ideal, costs):
        # running prefix costs in a K-major copy (costs stay as gathered), so
        # the cumsum and the budget test run along contiguous arms, with the
        # same sequential folds as along the arm axis of (R, N, K)
        running = np.array(costs.transpose(-1, *range(costs.ndim - 1)),
                           order="C")                         # (K, R, N)
        np.cumsum(running, axis=-1, out=running)
        budget = self.budget.reshape((-1,) + (1,) * (running.ndim - 1))
        fits = np.logical_and.reduce(running <= budget, axis=0)
        # the prefix ends at each row's first arm whose running cost
        # overflows; the arms behind it take the free action 0
        prefix = np.logical_and.accumulate(fits, axis=-1)
        return ideal * prefix, prefix.sum(axis=-1)


class ErcPolicyRunner(_RunnerBase):
    """ERC baseline executor; vectors are indexed by original arm ID.

    Arms with a zero-cost ideal action always keep it. The others queue in
    descending index order (ties by arm ID) and are admitted in rounds by
    `_erc_rejections`, one replication row at a time, which rejects the same
    arms as the sequential greedy: costs are non-negative, rounding is
    monotone and every test is running + cost <= budget.

    The order is fixed when the runner is built. rank_key[i*S + s] is the
    position of the pair (arm i, state s) among all N*S pairs sorted by
    descending r_star, ties by arm ID, and key_arm maps a position back to
    its arm. A free draw adds N*S to its key and key_arm repeats the arms
    for those keys, so one sort of the unique keys puts each row's costly
    draws first, in queue order, and its free draws after them. The keys
    are int32, which halves the sort against intp and covers every N*S
    below 2**30.
    """

    def __init__(self, instance: WcmdpInstance, policy: SingleArmPolicy):
        super().__init__(instance, policy, np.arange(instance.num_arms))
        self.costly = (self.cost > 0.0).any(axis=1)       # (N*S*A,)
        # the flat rows run in arm order, so the stable sort ties by arm ID
        order = np.argsort(-policy.r_star.reshape(-1), kind="stable")
        self.rank_key = order.argsort().astype(np.int32)  # (N*S,)
        self.key_arm = np.tile(order // instance.num_states, 2)  # (2*N*S,)

    def _rank(self, rows: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Each row's arms in queue order from their state rows: the costly
        draws by descending index, ties by arm ID, then the free ones."""
        keys = self.rank_key.take(rows)
        keys += free * np.int32(self.rank_key.size)
        return self.key_arm.take(np.sort(keys, axis=-1))

    def _admit(self, rows, pairs, ideal, costs):
        # zero-cost draws can never break a budget, so only the rest queue up
        costly = self.costly.take(pairs)
        rank = self._rank(rows, ~costly)
        actions = ideal.copy()
        n, k = costs.shape[-2:]
        for row, row_costs, row_rank, queued in zip(
                actions.reshape(-1, n), costs.reshape(-1, n, k),
                rank.reshape(-1, n), costly.sum(axis=-1).reshape(-1)):
            queue = row_rank[:queued]
            row[queue[_erc_rejections(row_costs[queue], self.budget)]] = 0
        return actions, (actions == ideal).sum(axis=-1)


def _digits(index: np.ndarray, size: int, n: int) -> np.ndarray:
    """Digits (len(index), n) of joint indices, arm 0 the most significant."""
    return index[:, None] // size ** np.arange(n)[::-1] % size


def _joint_rows(instance: WcmdpInstance, states: np.ndarray,
                actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transition rows (m, S^N) and rewards (m,) of the joint pairs with
    (m, N) states and actions: each row the arms' outer product in arm order,
    as np.kron forms it, each reward numpy's sum over the arms."""
    arms = np.arange(instance.num_arms)
    rows = np.ones((len(states), 1))
    for p in instance.transition[arms, states, actions].swapaxes(0, 1):
        rows = (rows[:, :, None] * p[:, None, :]).reshape(len(rows), -1)
    return rows, instance.reward[arms, states, actions].sum(axis=-1)


def exact_oracle(instance: WcmdpInstance, tol: float = 1e-6) -> float:
    """Optimal long-run average reward per arm of the hard-budget problem.

    Builds the product MDP over joint states, restricts each joint-action set
    to the budget-feasible combinations, and solves the average-reward linear
    program for (possibly multichain) finite MDPs. Returns the best value
    over initial states, divided by the number of arms.

    Raises OracleSizeError when the enumeration exceeds a size guard, and
    OracleNumericalError when the returned solution violates its own
    constraints by more than tol.
    """
    n, s, a = instance.num_arms, instance.num_states, instance.num_actions
    n_states = s ** n
    n_pairs = n_states * a ** n
    if n_pairs > ORACLE_MAX_PAIRS:
        raise OracleSizeError(
            f"{n_pairs} joint state-action pairs exceed the guard {ORACLE_MAX_PAIRS}")

    # (S^N, A^N, K) joint costs in product order, summed arm by arm
    cost = np.zeros((1, 1, instance.num_constraints))
    for arm_cost in instance.cost.transpose(0, 2, 3, 1):       # (S, A, K)
        cost = (cost[:, None, :, None] + arm_cost[None, :, None]).reshape(
            cost.shape[0] * s, cost.shape[1] * a, -1)
    si, ai = np.nonzero(~(cost > instance.alpha * n).any(axis=-1))
    m = len(si)
    if m * n_states > ORACLE_MAX_DENSE:
        raise OracleSizeError(f"{m * n_states} transition entries exceed "
                              f"the guard {ORACLE_MAX_DENSE}")
    rows, reward = _joint_rows(instance, _digits(si, s, n), _digits(ai, a, n))
    rows[np.arange(m), si] -= 1.0
    t = sp.csr_matrix(rows)                           # P - e_s
    e = -sp.eye(n_states, format="csr")[si]           # -e_s
    # P g - g(s) <= 0 and -g(s) + P h - h(s) <= -r, over x = (g, h)
    a_ub = sp.bmat([[t, None], [e, t]], format="csr")
    b_ub = np.concatenate([np.zeros(m), -reward])

    c = np.concatenate([np.full(n_states, 1.0 / n_states), np.zeros(n_states)])
    res = linprog(c=c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None),
                  method="highs")
    if res.status != 0:
        raise OracleNumericalError(f"linprog status {res.status}: {res.message}")
    residual = float(np.max(a_ub @ res.x - b_ub))
    if residual > tol:
        raise OracleNumericalError(
            f"oracle solution violates constraints by {residual:.3e} > {tol:.3e}")
    gain = res.x[:n_states]
    return float(gain.max()) / n + 0.0    # + 0.0 reports a zero optimum as +0.0
