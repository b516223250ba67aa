"""Per-arm LP relaxation and the single-armed policies it induces.

The relaxation optimizes state-action frequencies y_i(s, a), one block per
arm, coupled only through the K budget rows: maximize the mean per-arm reward
subject to per-arm flow balance, per-arm normalization, nonnegativity, and
the time-average budget constraints. Its optimum upper-bounds the optimal
long-run average reward per arm of the hard-constrained N-armed problem.

Normalizing an optimal y over actions gives each arm a randomized stationary
policy; the induced chain, its stationary distribution, and the expected
rewards/costs under that policy are what the execution policies and the
diagnostics consume.

The constraint matrix is block-angular, so solve_lp uses Dantzig-Wolfe
column generation instead of one LP over all N*S*A variables:

- Master. One HiGHS model, built once per solve_lp call, over the K budget
  rows plus one convexity row per arm. Each column is the stationary
  occupation measure of one arm under one deterministic policy. Every round
  appends its new columns to the live model and re-solves, so the simplex
  starts from the previous optimal basis instead of from scratch. The rows
  are O(1): reward R and budget C <= N alpha, not build_lp's R/N and
  C/N <= alpha, which lets HiGHS's default tolerances reach the optimum
  (1/N-scaled rows stop the warm simplex early at N >= 200). scipy exposes
  the incremental HiGHS interface only through its private pybind module,
  so _Master is the one place that imports it. Round 0 prices every arm at
  -sum_k c before any master solve: action 0 is free, so each arm's
  all-action-0 policy is optimal there and its column enters, and the first
  master is always feasible.
- Pricing. With the master's budget duals lam, every arm maximizes the
  long-run gain of the price r - lam.c. Arms whose transition, reward and
  cost rows hold the same bytes are priced once (model.distinct_arms): the
  typed family's copies share one pricing problem, and its policy, bound and
  column reach every copy. Howard policy iteration runs for all distinct
  arms at once: each sweep evaluates every policy with one batched
  np.linalg.inv of (n, S, S) unichain systems, then improves it. Each round
  starts from the previous round's policies and keeps the current action on
  ties, so the iteration terminates. Every arm keeps its own convexity row,
  reduced cost and column in the master.
- Fallback. An arm whose evaluation system is singular is at a multichain
  policy; it is priced by an LP over its own S*A occupation polytope.
- Certificate. For any bias vector h, flow balance gives
  sum y (r - lam.c) <= max_{s,a} [r - lam.c + P h - h(s)] for every y in the
  arm's polytope. This bound, less the arm's convexity dual in the master,
  is the arm's reduced cost; the master objective plus the positive reduced
  costs is a Lagrangian upper bound on the relaxation. Generation stops when
  no arm's reduced cost exceeds REDUCED_COST_RTOL, and the remaining gap is
  reported in SolveStats.

check_solution re-evaluates every constraint family from the raw instance
data, so the solver never certifies itself. The monolithic HiGHS LP over
all N*S*A variables is kept only in the tests, as the oracle this solver is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .model import WcmdpInstance, distinct_arms

# y entries below this are treated as an unvisited state-action pair
ZERO_MARGINAL_THRESHOLD = 1e-12
# an arm's reduced cost must exceed this, relative to its gain bound, for a
# new column to enter the master
REDUCED_COST_RTOL = 1e-12
# policy iteration switches an action only when it gains more than this,
# relative to the arm's largest action value
TIE_RTOL = 1e-13
# a certified solve leaves at most this Lagrangian gap, relative
GAP_RTOL = 1e-9
# an evaluation system whose infinity-norm condition number exceeds this is
# treated as singular: its policy is multichain, or too close to it for the
# bias to be accurate
EVALUATION_COND_MAX = 1e8
# iteration caps; reaching one raises LpSolveError
MAX_MASTER_ROUNDS = 500
MAX_POLICY_SWEEPS = 1000


class LpSolveError(RuntimeError):
    """Solver failed to return a certified optimum."""


@dataclass(frozen=True)
class LpProblem:
    """Sparse description of the relaxation for one instance.

    Variables are y[i, s, a] flattened in C order. Rows: K budget
    inequalities (coefficients cost/N, right-hand side alpha), then N*S flow
    balance equalities, then N normalization equalities. transition, reward
    and cost are the instance's own read-only arrays, not copies; solve_lp
    works from them.
    """

    num_arms: int
    num_states: int
    num_actions: int
    num_constraints: int
    reward_coeffs: np.ndarray       # (N*S*A,) objective, to be maximized
    budget: sp.csr_matrix           # (K, N*S*A)
    budget_rhs: np.ndarray          # (K,)
    balance: sp.csr_matrix          # (N*S, N*S*A), rhs 0
    normalization: sp.csr_matrix    # (N, N*S*A), rhs 1
    transition: np.ndarray          # (N, S, A, S)
    reward: np.ndarray              # (N, S, A)
    cost: np.ndarray                # (N, K, S, A)

    @property
    def num_variables(self) -> int:
        return self.num_arms * self.num_states * self.num_actions

    @property
    def num_rows(self) -> int:
        return (self.num_constraints
                + self.num_arms * self.num_states
                + self.num_arms)


@dataclass(frozen=True)
class SolveStats:
    """Counters of one column-generation solve.

    pricing_iterations counts batched policy-evaluation sweeps over all
    rounds, round 0 included; fallback_arms counts the arms priced by a
    per-arm LP at least once; lagrangian_gap is the Lagrangian bound minus
    the master objective at the last round; simplex_iterations sums HiGHS's
    simplex iterations over the master solves; distinct_arms is the number
    of arms priced in every round, one per set of identical arms (see
    model.distinct_arms).
    """

    master_rounds: int
    columns: int
    pricing_iterations: int
    fallback_arms: int
    lagrangian_gap: float
    simplex_iterations: int
    distinct_arms: int


@dataclass(frozen=True)
class LpSolution:
    """Optimal state-action frequencies and the per-arm reward upper bound."""

    y: np.ndarray           # (N, S, A), nonnegative
    objective: float        # optimal mean per-arm reward
    duals: np.ndarray       # (K,) multipliers of the budget rows (diagnostic)
    stats: SolveStats | None = None   # None for a solution built by hand

    def to_json_dict(self) -> dict:
        return {"R_rel": self.objective,
                "y": self.y.tolist(),
                "duals": self.duals.tolist()}


@dataclass(frozen=True)
class SingleArmPolicy:
    """Randomized stationary policy per arm, with its induced-chain data.

    pi[i, s, a] is the probability arm i takes action a in state s.
    induced_P[i] is the state transition matrix of arm i under pi.
    mu_star[i] is its stationary distribution, recovered from the y
    marginals. C_star[k, i] is arm i's expected type-k cost per step;
    r_star[i, s] and c_star[k, i, s] are the expected reward and costs at
    state s under pi.
    """

    pi: np.ndarray          # (N, S, A)
    induced_P: np.ndarray   # (N, S, S)
    mu_star: np.ndarray     # (N, S)
    C_star: np.ndarray      # (K, N)
    r_star: np.ndarray      # (N, S)
    c_star: np.ndarray      # (K, N, S)

    @property
    def num_arms(self) -> int:
        return self.pi.shape[0]


def build_lp(instance: WcmdpInstance) -> LpProblem:
    """Assemble the sparse relaxation for a validated instance."""
    N, S, A, K = (instance.num_arms, instance.num_states,
                  instance.num_actions, instance.num_constraints)
    sa = S * A

    reward_coeffs = instance.reward.reshape(N * sa) / N
    cost_rows = instance.cost.transpose(1, 0, 2, 3).reshape(K, N * sa)
    budget = sp.csr_matrix(cost_rows / N)

    # row (i, s), column (i, s', a'): P_i(s | s', a') - 1{s == s'}; every
    # row holds arm i's S*A columns, exact zeros dropped
    block = instance.transition.transpose(0, 3, 1, 2).reshape(N, S, sa).copy()
    own_cols = np.arange(S)[:, None] * A + np.arange(A)   # columns (s, a') of row s
    block[:, np.arange(S)[:, None], own_cols] -= 1.0
    indices = np.broadcast_to(np.arange(N * sa).reshape(N, 1, sa), (N, S, sa))
    balance = sp.csr_matrix(
        (block.ravel(), indices.ravel(), np.arange(N * S + 1) * sa),
        shape=(N * S, N * sa))
    balance.eliminate_zeros()

    normalization = sp.kron(sp.identity(N, format="csr"),
                            np.ones((1, sa)), format="csr")

    return LpProblem(num_arms=N, num_states=S, num_actions=A,
                     num_constraints=K, reward_coeffs=reward_coeffs,
                     budget=budget, budget_rhs=instance.alpha.copy(),
                     balance=balance, normalization=normalization,
                     transition=instance.transition, reward=instance.reward,
                     cost=instance.cost)


def _require_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise LpSolveError(f"non-finite {name}")


def _occupation(policy: np.ndarray, mu: np.ndarray, num_actions: int) -> np.ndarray:
    """(n, S, A) occupation measures mu(s) 1{a = policy(s)}."""
    x = np.zeros(policy.shape + (num_actions,))
    np.put_along_axis(x, policy[:, :, None], mu[:, :, None], axis=2)
    return x


def _evaluate(transition: np.ndarray, price: np.ndarray, policy: np.ndarray):
    """Bias and stationary distribution of deterministic policies.

    Solves g + h(s) = r(s) + sum_t P(s, t) h(t) with h(0) = 0 per arm: the
    matrix is I - P with its first column replaced by ones, its solution is
    (g, h(1), ..., h(S-1)), and the first row of its inverse is the
    stationary distribution. Returns h (n, S), mu (n, S) and a mask of the
    arms whose matrix is singular (see EVALUATION_COND_MAX), i.e. whose
    policy is multichain.
    """
    n, S = policy.shape
    p_pi = np.take_along_axis(transition, policy[:, :, None, None], axis=2)[:, :, 0]
    r_pi = np.take_along_axis(price, policy[:, :, None], axis=2)[:, :, 0]
    m = np.eye(S) - p_pi
    m[:, :, 0] = 1.0
    try:
        inverse = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inverse = np.full_like(m, np.nan)
        for i in range(n):
            try:
                inverse[i] = np.linalg.inv(m[i])
            except np.linalg.LinAlgError:
                pass
    cond = (np.abs(m).sum(axis=2).max(axis=1)
            * np.abs(inverse).sum(axis=2).max(axis=1))
    singular = ~(cond <= EVALUATION_COND_MAX)
    h = np.einsum("nst,nt->ns", inverse, r_pi)
    h[:, 0] = 0.0
    return h, np.maximum(inverse[:, 0, :], 0.0), singular


def _policy_iteration(transition: np.ndarray, price: np.ndarray,
                      policy: np.ndarray):
    """Howard policy iteration for every arm, from the given policies.

    Returns the final policies, their stationary distributions, a gain
    bound per arm (max over (s, a) of price + P h - h(s) at the final
    bias h), a mask of arms that reached a multichain policy (left for the
    fallback; their other outputs are meaningless) and the number of
    evaluation sweeps.
    """
    policy = policy.copy()
    n, S = policy.shape
    mu = np.zeros((n, S))
    bound = np.full(n, np.nan)
    multichain = np.zeros(n, dtype=bool)
    active = np.arange(n)
    sweeps = 0
    while active.size:
        if sweeps == MAX_POLICY_SWEEPS:
            raise LpSolveError(f"policy iteration did not converge in "
                               f"{MAX_POLICY_SWEEPS} sweeps")
        sweeps += 1
        h, mu_a, singular = _evaluate(transition[active], price[active],
                                         policy[active])
        multichain[active[singular]] = True
        ok = ~singular
        mu[active[ok]] = mu_a[ok]
        active, h = active[ok], h[ok]
        _require_finite("bias in policy iteration", h)
        q = price[active] + np.einsum("nsat,nt->nsa", transition[active], h)
        current = np.take_along_axis(q, policy[active][:, :, None], axis=2)[:, :, 0]
        tie = TIE_RTOL * np.maximum(1.0, np.abs(q).max(axis=(1, 2)))
        improve = q.max(axis=2) > current + tie[:, None]
        changed = improve.any(axis=1)
        done = ~changed
        bound[active[done]] = (q[done] - h[done][:, :, None]).max(axis=(1, 2))
        policy[active] = np.where(improve, q.argmax(axis=2), policy[active])
        active = active[changed]
    return policy, mu, bound, multichain, sweeps


def _arm_lp(transition: np.ndarray, price: np.ndarray):
    """Best occupation measure of one arm under `price` over its own S*A
    polytope (flow balance, normalization, y >= 0), and its value."""
    S, A = price.shape
    balance = (transition.transpose(2, 0, 1).reshape(S, S * A)
               - np.kron(np.eye(S), np.ones(A)))
    res = linprog(c=-price.ravel(),
                  A_eq=np.vstack([balance, np.ones(S * A)]),
                  b_eq=np.append(np.zeros(S), 1.0),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise LpSolveError(f"per-arm linprog status {res.status}: {res.message}")
    return np.maximum(res.x.reshape(S, A), 0.0), float(-res.fun)


class _Master:
    """The restricted master LP as one live HiGHS model: minimize -sum w R
    subject to sum w C <= N alpha (K budget rows) and sum_{j of arm i} w_j
    = 1 (one convexity row per arm), w >= 0. Columns added between solves
    leave the last optimal basis valid, so each solve() starts from it.
    The only code that imports scipy's private HiGHS binding.
    """

    def __init__(self, alpha: np.ndarray, num_arms: int):
        from scipy.optimize._highspy import _core as highs
        self._optimal = highs.HighsModelStatus.kOptimal
        self._inf = highs.kHighsInf
        self._highs = highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        K = alpha.size
        self._num_budget = K
        self._highs.addRows(
            K + num_arms,
            np.concatenate([np.full(K, -self._inf), np.ones(num_arms)]),
            np.concatenate([num_arms * alpha, np.ones(num_arms)]),
            0, np.zeros(K + num_arms, dtype=np.int32),
            np.zeros(0, dtype=np.int32), np.zeros(0))
        self.simplex_iterations = 0

    def add(self, arm: np.ndarray, reward: np.ndarray, cost: np.ndarray) -> None:
        """Append one column per entry: its arm, reward and (K,) costs."""
        m, K = cost.shape
        values = np.column_stack([cost, np.ones(m)])
        rows = np.column_stack([np.broadcast_to(np.arange(K), (m, K)), K + arm])
        keep = values != 0.0
        starts = np.concatenate([[0], np.cumsum(keep.sum(axis=1))[:-1]])
        self._highs.addCols(m, -reward, np.zeros(m), np.full(m, self._inf),
                            int(keep.sum()), starts.astype(np.int32),
                            rows[keep].astype(np.int32), values[keep])

    def solve(self):
        """Re-optimize; return the objective sum w R, the column weights w,
        and the budget and convexity row duals (HiGHS's sign, <= 0 for a
        binding budget)."""
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != self._optimal:
            raise LpSolveError(f"master HiGHS model status "
                               f"{self._highs.modelStatusToString(status)}")
        self.simplex_iterations += self._highs.getInfo().simplex_iteration_count
        solution = self._highs.getSolution()
        duals = np.array(solution.row_dual)
        return (-self._highs.getObjectiveValue(),
                np.array(solution.col_value),
                duals[:self._num_budget], duals[self._num_budget:])


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the relaxation by column generation; raise LpSolveError unless
    the Lagrangian gap certifies optimality within GAP_RTOL. y is the
    master's convex combination of its columns, nonnegative by construction."""
    transition, reward, cost = problem.transition, problem.reward, problem.cost
    alpha = problem.budget_rhs
    N, S, A = problem.num_arms, problem.num_states, problem.num_actions
    for name in ("transition", "reward", "cost", "budget_rhs"):
        _require_finite(name, getattr(problem, name))

    # pricing runs once per distinct arm: copies of one arm share their
    # price, policies, bound and fallback result, which reach every copy
    # through `inverse`
    first, inverse = distinct_arms(transition, reward, cost)
    arm_transition, arm_reward, arm_cost = (
        table[first] for table in (transition, reward, cost))

    # columns: arm index and occupation measure, kept to rebuild y; their
    # reward and cost coefficients go straight into the master.
    # A column already in the master may price slightly positive within
    # HiGHS's dual tolerance; `seen` keeps it from entering again, which
    # would change nothing and repeat the round.
    master = _Master(alpha, N)
    arms, occupations = [], []
    seen = set()

    # round 0 prices at -sum_k c before any master solve. Costs are
    # non-negative and action 0 is free, so the all-action-0 policy is
    # optimal, and the empty master's convexity rows, which no column meets
    # yet, let every arm's column enter: the first master is feasible.
    price = -arm_cost.sum(axis=1)
    convexity_duals = np.full(N, np.inf)
    policy = np.zeros((first.size, S), dtype=np.intp)
    sweeps = 0
    fallback = np.zeros(first.size, dtype=bool)
    for rounds in range(MAX_MASTER_ROUNDS + 1):
        policy, mu, bound, multichain, n_sweeps = _policy_iteration(
            arm_transition, price, policy)
        sweeps += n_sweeps
        x = _occupation(policy, mu, A)
        for j in np.flatnonzero(multichain):
            x[j], bound[j] = _arm_lp(arm_transition[j], price[j])
        fallback |= multichain
        x, bound = x[inverse], bound[inverse]

        reduced = bound + convexity_duals
        gap = float(np.maximum(reduced, 0.0).sum() / N)
        improving = np.flatnonzero(
            reduced > REDUCED_COST_RTOL * np.maximum(1.0, np.abs(bound)))
        rounded = x[improving].round(12)
        fresh = np.array([(i, c.tobytes()) not in seen
                          for i, c in zip(improving.tolist(), rounded)],
                         dtype=bool)
        if not fresh.any():
            break
        if rounds == MAX_MASTER_ROUNDS:
            raise LpSolveError(f"column generation did not converge in "
                               f"{MAX_MASTER_ROUNDS} master rounds")
        new = improving[fresh]
        arms.append(new)
        occupations.append(x[new])
        master.add(new, np.einsum("nsa,nsa->n", x[new], reward[new]),
                   np.einsum("nsa,nksa->nk", x[new], cost[new]))
        seen.update(zip(new.tolist(), (c.tobytes() for c in rounded[fresh])))

        # the master's rows are N times build_lp's: its budget duals are
        # build_lp's, its convexity duals N times theirs (HiGHS's sign)
        value, weights, budget_duals, convexity_duals = master.solve()
        lam = -budget_duals
        price = arm_reward - np.einsum("k,nksa->nsa", lam, arm_cost)
        _require_finite("price", price)

    objective = value / N + 0.0     # + 0.0 reports a zero optimum as +0.0
    if not gap <= GAP_RTOL * max(1.0, abs(objective)):
        raise LpSolveError(f"column generation stalled with Lagrangian gap "
                           f"{gap:.3e} after {rounds} master rounds")
    arm = np.concatenate(arms)
    y = np.zeros((N, S, A))
    used = np.flatnonzero(weights > 0.0)
    np.add.at(y, arm[used],
              weights[used, None, None] * np.concatenate(occupations)[used])
    stats = SolveStats(master_rounds=rounds, columns=int(arm.size),
                       pricing_iterations=sweeps,
                       fallback_arms=int(fallback[inverse].sum()),
                       lagrangian_gap=gap,
                       simplex_iterations=master.simplex_iterations,
                       distinct_arms=int(first.size))
    return LpSolution(y=y, objective=objective, duals=budget_duals,
                      stats=stats)


def extract_policy(instance: WcmdpInstance, solution: LpSolution) -> SingleArmPolicy:
    """Normalize y over actions into per-arm policies and derived quantities.

    States whose frequency marginal is below ZERO_MARGINAL_THRESHOLD get the
    uniform policy over actions. The stationary distributions come from the
    renormalized y marginals, not from an eigen-solve.
    """
    N, S, A = solution.y.shape
    K = instance.num_constraints
    y = np.maximum(solution.y, 0.0)

    marginal = y.sum(axis=2)                          # (N, S)
    visited = marginal > ZERO_MARGINAL_THRESHOLD
    safe = np.where(visited, marginal, 1.0)
    pi = np.where(visited[:, :, None], y / safe[:, :, None], 1.0 / A)
    pi /= pi.sum(axis=2, keepdims=True)

    induced_P = np.einsum("nsat,nsa->nst", instance.transition, pi)

    mu_star = marginal / marginal.sum(axis=1, keepdims=True)

    C_star = np.einsum("nsa,nksa->kn", y, instance.cost)
    r_star = np.einsum("nsa,nsa->ns", pi, instance.reward)
    c_star = np.einsum("nsa,nksa->kns", pi, instance.cost)

    return SingleArmPolicy(pi=pi, induced_P=induced_P, mu_star=mu_star,
                           C_star=C_star, r_star=r_star, c_star=c_star)


@dataclass(frozen=True)
class LpCheckReport:
    """Worst residual of each constraint family, recomputed from raw data."""

    max_normalization_residual: float
    max_balance_residual: float
    max_budget_excess: float
    max_negativity: float
    tol: float

    @property
    def ok(self) -> bool:
        return max(self.max_normalization_residual, self.max_balance_residual,
                   self.max_budget_excess, self.max_negativity) <= self.tol


def check_solution(instance: WcmdpInstance, solution: LpSolution,
                   tol: float = 1e-8) -> LpCheckReport:
    """Independent feasibility audit of a solution against the instance."""
    y = solution.y
    N = instance.num_arms

    norm_res = float(np.max(np.abs(y.sum(axis=(1, 2)) - 1.0)))

    inflow = np.einsum("nsat,nsa->nt", instance.transition, y)
    outflow = y.sum(axis=2)
    balance_res = float(np.max(np.abs(inflow - outflow)))

    usage = np.einsum("nsa,nksa->k", y, instance.cost) / N
    budget_excess = float(np.max(usage - instance.alpha))

    negativity = float(max(0.0, -np.min(y)))

    return LpCheckReport(max_normalization_residual=norm_res,
                         max_balance_residual=balance_res,
                         max_budget_excess=budget_excess,
                         max_negativity=negativity, tol=tol)
