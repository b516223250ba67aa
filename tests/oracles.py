"""Independent oracles and hand-built fixtures shared by the test modules.

Everything here is deliberately implemented from first principles (value
iteration, closed forms, explicit constructions) so it exercises none of the
code paths it is used to check.

`executor_value` gives the exact long-run reward per arm and conforming
fraction of the ID policy or the ERC baseline on a tiny instance. Both
executors are Markov on the joint state: given the states, the ideal actions
are independent draws from pi, admission is deterministic, and the arms then
move independently. It writes the admission rules again as sequential loops
(`admission_reference`), takes each admitted pair's joint transition row and
reward from the oracle's joint-chain enumerator, and solves the stationary
distribution of the S^N-state chain.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from wcmdp.lp_relax import LpProblem, LpSolution, LpSolveError
from wcmdp.lyapunov import (BURN_IN, DEFAULT_T_CAP, MIXING_THRESHOLD,
                            UNBOUNDED, DriftProbeResult, _deviation_series,
                            _tau_window, _weights_for)
from wcmdp.model import GeneratorConfig, WcmdpInstance, generate
from wcmdp.policies import _digits, _joint_rows


def rvi_average_reward(transition: np.ndarray, reward: np.ndarray,
                       tol: float = 1e-11, max_iter: int = 500_000) -> float:
    """Optimal average reward of one unconstrained arm via relative value
    iteration. Requires the optimal chains to be aperiodic unichains, which
    holds almost surely for the random instances used in tests."""
    v = np.zeros(transition.shape[0])
    for _ in range(max_iter):
        q = reward + np.einsum("sat,t->sa", transition, v)
        v_new = q.max(axis=1)
        delta = v_new - v
        span = float(delta.max() - delta.min())
        if span < tol:
            return float((delta.max() + delta.min()) / 2.0)
        v = v_new - v_new.min()
    raise RuntimeError("relative value iteration did not converge")


def solve_lp_highs(problem: LpProblem) -> LpSolution:
    """The relaxation as one HiGHS LP over all N*S*A variables: the solver
    that column generation replaced, kept as its reference. Negative
    frequencies no larger than 1e-12 in magnitude are clamped to zero."""
    a_eq = sp.vstack([problem.balance, problem.normalization], format="csr")
    b_eq = np.concatenate([
        np.zeros(problem.balance.shape[0]), np.ones(problem.num_arms)])
    res = linprog(
        c=-problem.reward_coeffs,
        A_ub=problem.budget, b_ub=problem.alpha,
        A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise LpSolveError(f"linprog status {res.status}: {res.message}")
    y = res.x.reshape(problem.num_arms, problem.num_states, problem.num_actions)
    y = np.where((y < 0) & (y >= -1e-12), 0.0, y)
    duals = np.asarray(res.ineqlin.marginals, dtype=np.float64)
    return LpSolution(y=y, objective=float(-res.fun), duals=duals)


def inverse_cdf_reference(cdf_rows, u) -> np.ndarray:
    """One index per row of the (N, width) cdf_rows: the number of entries
    at or below u, clipped to the last index."""
    return np.minimum((cdf_rows <= u[:, None]).sum(axis=1),
                      cdf_rows.shape[1] - 1)


def erc_rejections_reference(costs_q, budget) -> np.ndarray:
    """Mask of the queued cost rows (rank order) that the ERC greedy rejects,
    by the sequential loop: keep a row while running[k] + row[k] <= budget[k]
    holds for every k, and add it to the running totals."""
    rejected = np.zeros(len(costs_q), dtype=bool)
    budget = np.asarray(budget, dtype=np.float64).tolist()
    ks = range(len(budget))
    running = [0.0] * len(budget)
    for i, row in enumerate(np.asarray(costs_q, dtype=np.float64).tolist()):
        if all(running[k] + row[k] <= budget[k] for k in ks):
            for k in ks:
                running[k] += row[k]
        else:
            rejected[i] = True
    return rejected


def admission_reference(instance, bundle, kind, states, ideal):
    """The system action and conforming count of one step of the ID ("id")
    or ERC ("erc") executor, for (N,) states and ideal actions in original
    arm order.

    ID: walk arms in `bundle.reassignment.order()`, keep ideal actions while
    every running budget covers the prefix cost, and give the first arm that
    overflows and every later arm action 0; the count is the prefix length.
    ERC: rank arms by r_star at their state, descending with ties by arm ID,
    keep each ideal action whose cost still fits every running budget and
    give the others action 0; the count is the arms that keep their ideal
    action."""
    n = instance.num_arms
    budget = (instance.alpha * n).tolist()
    ks = range(len(budget))
    costs = [instance.cost[i, :, states[i], ideal[i]].tolist() for i in range(n)]
    actions = np.zeros(n, dtype=np.intp)
    running = [0.0] * len(budget)
    if kind == "id":
        conforming = 0
        for arm in bundle.reassignment.order().tolist():
            if not all(running[k] + costs[arm][k] <= budget[k] for k in ks):
                break
            running = [running[k] + costs[arm][k] for k in ks]
            actions[arm] = ideal[arm]
            conforming += 1
        return actions, conforming
    index = bundle.policy.r_star
    for arm in sorted(range(n), key=lambda i: (-index[i, states[i]], i)):
        if all(running[k] + costs[arm][k] <= budget[k] for k in ks):
            running = [running[k] + costs[arm][k] for k in ks]
            actions[arm] = ideal[arm]
    return actions, int((actions == ideal).sum())


def executor_value(instance, bundle, kind) -> tuple[float, float]:
    """Exact long-run reward per arm and conforming fraction of the ID
    ("id") or ERC ("erc") executor: the stationary averages of the joint
    chain over the S^N joint states, which must be a unichain."""
    n, s, a = instance.num_arms, instance.num_states, instance.num_actions
    si, ai = np.divmod(np.arange(s ** n * a ** n), a ** n)   # product order
    states, ideals = _digits(si, s, n), _digits(ai, a, n)
    prob = bundle.policy.pi[np.arange(n), states, ideals].prod(axis=1)
    admitted = [admission_reference(instance, bundle, kind, st, ideal)
                for st, ideal in zip(states, ideals)]
    actions = np.array([act for act, _ in admitted])
    conforming = np.array([count for _, count in admitted], dtype=np.float64)
    rows, reward = _joint_rows(instance, states, actions)
    # expectations over the ideal vector, one per joint state
    chain = (prob[:, None] * rows).reshape(s ** n, a ** n, -1).sum(axis=1)
    reward = (prob * reward).reshape(s ** n, -1).sum(axis=1)
    conforming = (prob * conforming).reshape(s ** n, -1).sum(axis=1)
    # stationary mu: mu (P - I) = 0 with one balance row replaced by sum = 1
    system = (chain - np.eye(s ** n)).T
    system[-1] = 1.0
    rhs = np.zeros(s ** n)
    rhs[-1] = 1.0
    mu = np.linalg.solve(system, rhs)
    return float(mu @ reward) / n, float(mu @ conforming) / n


def mixing_time_reference(P: np.ndarray, mu: np.ndarray,
                          t_cap: int = DEFAULT_T_CAP):
    """Smallest t with every row of P^t within 1/e of mu in l1 distance, by
    one power loop per chain: the per-chain mixing_time that the batched
    chain_diagnostics replaced. Returns an int, or UNBOUNDED if t_cap is
    reached first."""
    P = np.asarray(P, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("P is not row-stochastic")
    if np.abs(mu @ P - mu).sum() > 1e-8:
        raise ValueError("mu is not stationary for P within 1e-8")
    power = np.eye(P.shape[0])
    for t in range(t_cap + 1):
        if np.max(np.abs(power - mu[None, :]).sum(axis=1)) <= MIXING_THRESHOLD:
            return t
        power = power @ P
    return UNBOUNDED


def chain_structure_reference(P: np.ndarray) -> tuple[bool, bool]:
    """(unichain, aperiodic) from the definitions, by boolean powers of the
    support matrix. A state is recurrent when every state it reaches
    reaches it back, and the recurrent states that reach each other form one
    closed class. A class's period is the gcd of the lengths of the closed
    walks through one of its members, and walks of length <= 3 S suffice:
    for every simple cycle C of the class some closed walk W through that
    member meets C with |W| <= 2 S, W with C inserted is a closed walk too,
    and gcd(|W|, |W| + |C|) divides |C|."""
    s = P.shape[0]
    support = (np.asarray(P) > 0.0).astype(np.int64)
    power = np.eye(s, dtype=np.int64)
    reach = np.eye(s, dtype=bool)
    returns: list[list[int]] = [[] for _ in range(s)]
    for t in range(1, 3 * s + 1):
        power = np.minimum(power @ support, 1)
        reach |= power > 0
        for i in np.flatnonzero(np.diag(power)):
            returns[i].append(t)
    recurrent = [i for i in range(s)
                 if all(reach[j, i] for j in np.flatnonzero(reach[i]))]
    classes = {min(np.flatnonzero(reach[i] & reach[:, i])) for i in recurrent}
    return (len(classes) == 1,
            all(math.gcd(*returns[i]) == 1 for i in classes))


def drift_probe_reference(instance, policy, diag, D, num_samples, rng,
                          tol: float = 1e-6) -> DriftProbeResult:
    """The sequential drift probe: one full deviation series per sampled
    state, evaluated between the draws. Its sampler is
    inverse_cdf_reference; the draws are those of lyapunov.drift_probe."""
    window = _tau_window(diag)
    idx = np.asarray(D, dtype=np.int64)
    bound = diag.c_h * math.sqrt(instance.num_arms)
    if idx.size == 0 or num_samples == 0:
        return DriftProbeResult(mean=0.0, stderr=0.0, bound=bound,
                                num_samples=num_samples)

    n = idx.size
    s = instance.num_states
    mu = policy.mu_star[idx]
    P = policy.induced_P[idx]
    weights = _weights_for(policy, idx)
    cdf = np.cumsum(P, axis=-1)
    ar = np.arange(n)

    def h_of(states: np.ndarray) -> float:
        x = np.zeros((n, s))
        x[ar, states] = 1.0
        values, _, _ = _deviation_series(x - mu, P, mu, weights, diag.gamma,
                                         tol, window)
        return float(values[-1])

    states = rng.integers(0, s, size=n)
    for _ in range(BURN_IN):
        states = inverse_cdf_reference(cdf[ar, states], rng.random(n))

    stats = np.empty(num_samples)
    h_prev = h_of(states)
    for j in range(num_samples):
        states = inverse_cdf_reference(cdf[ar, states], rng.random(n))
        h_next = h_of(states)
        stats[j] = max(h_next - diag.gamma * h_prev, 0.0)
        h_prev = h_next

    stderr = float(stats.std(ddof=1) / math.sqrt(num_samples)) \
        if num_samples > 1 else 0.0
    return DriftProbeResult(mean=float(stats.mean()), stderr=stderr,
                            bound=bound, num_samples=num_samples)


class ReferenceRunner:
    """The ID policy (arms in `order`) or, with order None, the ERC baseline,
    stepped with three-index gathers from the (N, S, A, ...) tables and the
    sequential ERC greedy. step and transition_step each draw random(N) from
    the generator they are given, the uniforms that the package runners are
    passed, so a step from equal states and uniforms must match bit for bit.
    step returns (actions, ideal, conforming, step_reward, step_costs)."""

    def __init__(self, instance: WcmdpInstance, policy, order=None):
        n = instance.num_arms
        self.erc = order is None
        order = np.arange(n) if order is None else order
        self.num_arms = n
        self.budget = instance.alpha * n
        self.reward = instance.reward[order]
        self.cost = instance.cost[order].transpose(0, 2, 3, 1)   # (N,S,A,K)
        self.pi_cdf = np.cumsum(policy.pi[order], axis=-1)
        self.trans_cdf = np.cumsum(instance.transition[order], axis=-1)
        self.index_table = policy.r_star
        self.ar = np.arange(n)

    def step(self, states, rng):
        ar = self.ar
        ideal = inverse_cdf_reference(self.pi_cdf[ar, states],
                                      rng.random(self.num_arms))
        costs = self.cost[ar, states, ideal]
        actions = ideal.copy()
        if self.erc:
            rank = np.argsort(-self.index_table[ar, states], kind="stable")
            queue = rank[costs[rank].max(axis=1) > 0.0]
            actions[queue[erc_rejections_reference(costs[queue], self.budget)]] = 0
            conforming = int((actions == ideal).sum())
        else:
            fits = (np.cumsum(costs, axis=0) <= self.budget).all(axis=1)
            conforming = self.num_arms if fits.all() else int(fits.argmin())
            actions[conforming:] = 0
        return (actions, ideal, conforming,
                float(self.reward[ar, states, actions].sum()),
                self.cost[ar, states, actions].sum(axis=0))

    def transition_step(self, states, actions, rng):
        rows = self.trans_cdf[self.ar, states, actions]
        return inverse_cdf_reference(rows, rng.random(self.num_arms))


def tiny_instance(seed: int, n: int = 4, s: int = 3, a: int = 2,
                  k: int = 1, **kwargs) -> WcmdpInstance:
    return generate(GeneratorConfig(seed=seed, num_arms=n, num_states=s,
                                    num_actions=a, num_constraints=k, **kwargs))


def zero_cost_copy(instance: WcmdpInstance) -> WcmdpInstance:
    """Same rewards and dynamics, every cost table zeroed."""
    return dataclasses.replace(instance, cost=np.zeros_like(instance.cost))


def take_arms(instance: WcmdpInstance, index) -> WcmdpInstance:
    """The arms at `index` (repeats allowed), with the same alpha."""
    return dataclasses.replace(instance, transition=instance.transition[index],
                               reward=instance.reward[index],
                               cost=instance.cost[index])


def stack_arms(arms, alpha) -> WcmdpInstance:
    """Instance from per-arm (transition, reward, cost) tables of equal shape."""
    transition, reward, cost = (np.stack(tables) for tables in zip(*arms))
    return WcmdpInstance(transition=transition, reward=reward, cost=cost,
                         alpha=np.asarray(alpha, dtype=np.float64))


def single_state_arm(rewards, costs):
    """One-state arm: every action loops back to state 0."""
    rewards = np.asarray(rewards, dtype=np.float64)
    costs = np.atleast_2d(np.asarray(costs, dtype=np.float64))
    a = rewards.shape[0]
    return (np.ones((1, a, 1)), rewards.reshape(1, a),
            costs.reshape(costs.shape[0], 1, a))


def two_cycle_arm(r0: float, r1: float, k: int = 1):
    """Single-action arm deterministically alternating between two states."""
    return (np.array([[[0.0, 1.0]], [[1.0, 0.0]]]), np.array([[r0], [r1]]),
            np.zeros((k, 2, 1)))


def iid_pair_arm(r0: float, r1: float, k: int = 1):
    """Single-action two-state arm that jumps to either state with 1/2."""
    return np.full((2, 1, 2), 0.5), np.array([[r0], [r1]]), np.zeros((k, 2, 1))


def sticky_pair_arm(rewards, costs, stay: float = 0.998):
    """Two-action, two-state arm in which every action keeps the state with
    probability stay and otherwise redraws it uniformly, so its induced
    chain mixes in about 1 / (1 - stay) steps whatever the policy.
    rewards: (2, 2); costs: (K, 2, 2)."""
    transition = np.full((2, 2, 2), (1.0 - stay) / 2.0)
    transition[[0, 1], :, [0, 1]] += stay
    return (transition, np.asarray(rewards, dtype=np.float64),
            np.asarray(costs, dtype=np.float64))


def slow_mixing_instance() -> WcmdpInstance:
    """Three sticky arms with K=1: tau = 500, so the deviation series needs
    about 30 tau terms."""
    return stack_arms([
        sticky_pair_arm([[0.1, 0.6], [0.3, 0.9]], [[[0.0, 0.5], [0.0, 0.7]]]),
        sticky_pair_arm([[0.2, 0.5], [0.4, 0.8]], [[[0.0, 0.4], [0.0, 0.9]]]),
        sticky_pair_arm([[0.3, 0.4], [0.5, 0.7]], [[[0.0, 0.6], [0.0, 0.3]]]),
    ], [0.4])


def absorbing_pair_arm(r0: float, r1: float, k: int = 1):
    """Single-action arm with two absorbing states (two closed classes)."""
    return (np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.array([[r0], [r1]]),
            np.zeros((k, 2, 1)))
