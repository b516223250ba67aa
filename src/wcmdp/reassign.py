"""ID reassignment: arm ordering that spreads expected cost evenly.

Execution policies walk arms in ID order and stop once a budget would be
exceeded, so long stretches of IDs whose expected cost is near zero make the
stopping point erratic. The reassignment permutes IDs so that every
contiguous block of size group_size carries at least a minimum expected cost
c_thr for each cost type whose budget is under real pressure ("active").

The remaining-budget function beta_k([n]) tracks the slack of the first n
arms (with a per-arm correction for inactive types), and verify_slope checks
the resulting guarantee: expanding a prefix drains at least eta_c per arm,
up to a fixed offset m_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp_relax import SingleArmPolicy
from .model import WcmdpInstance


@dataclass(frozen=True)
class ReassignmentResult:
    """Permutation of arm IDs plus the constants the construction used.

    new_id[old] = new, 0-based; identity when no constraint is active.
    fallback is set when there were not enough high-cost arms to serve every
    group (tiny N); the permutation is still a bijection but the slope
    guarantee is void.
    """

    new_id: np.ndarray          # (N,) int
    active_set: tuple[int, ...]
    c_thr: float
    group_size: int | None
    eta_c: float
    m_c: float
    rng_seed: int
    fallback: bool = False

    @property
    def identity(self) -> bool:
        return len(self.active_set) == 0

    def order(self) -> np.ndarray:
        """Inverse permutation: order()[new] is the old index of that slot."""
        return np.argsort(self.new_id)


def active_constraints(instance: WcmdpInstance,
                       policy: SingleArmPolicy) -> tuple[int, ...]:
    """Cost types whose total expected usage is at least half the budget."""
    n = instance.num_arms
    total = policy.C_star.sum(axis=1)                 # (K,)
    return tuple(int(k) for k in range(instance.num_constraints)
                 if total[k] >= instance.alpha[k] * n / 2)


def remaining_budget_curve(instance: WcmdpInstance, policy: SingleArmPolicy,
                           reassignment: ReassignmentResult) -> np.ndarray:
    """Slack beta_k([n]) of every ID prefix [n], the arms with new IDs
    0..n-1: array of shape (N+1, K) with row n for [n].

    `policy` is in original arm order; the curve reads its expected costs
    in the order reassignment.order() sets. Types in reassignment.active_set
    get alpha_k*N minus the prefix expected cost; inactive types
    additionally pay alpha_k/3 per arm so the slack still drains linearly.
    """
    n_arms = instance.num_arms
    prefix = np.zeros((n_arms + 1, instance.num_constraints))
    prefix[1:] = np.cumsum(policy.C_star[:, reassignment.order()].T, axis=0)
    curve = instance.alpha[None, :] * n_arms - prefix
    arms_counted = np.arange(n_arms + 1, dtype=np.float64)[:, None]
    inactive = np.array([k not in reassignment.active_set
                         for k in range(instance.num_constraints)])
    curve[:, inactive] -= (instance.alpha[None, inactive] / 3.0) * arms_counted
    return curve


def _slope_constants(instance: WcmdpInstance, active_set) -> tuple[float, int | None, float, float]:
    alpha_min = float(instance.alpha.min())
    c_thr = alpha_min / 4.0
    if not active_set:
        return c_thr, None, alpha_min / 3.0, 2.0 * c_thr
    group_size = math.ceil((instance.c_max - c_thr) * instance.num_constraints
                           / (alpha_min / 2.0 - c_thr))
    eta_c = min(alpha_min / 3.0, c_thr / group_size)
    return c_thr, group_size, eta_c, 2.0 * c_thr


def reassign(instance: WcmdpInstance, policy: SingleArmPolicy,
             seed: int) -> ReassignmentResult:
    """Compute the ID permutation.

    With no active type the permutation is the identity. Otherwise new IDs
    are split into consecutive groups of group_size; for each group and each
    active type whose already-placed arms contribute less than c_thr, the
    lowest-indexed remaining arm with expected cost >= c_thr is placed into
    the group. All unplaced arms then get the remaining IDs in seeded-random
    order. Deterministic given (instance, policy, seed).
    """
    n_arms = instance.num_arms
    act = active_constraints(instance, policy)
    c_thr, group_size, eta_c, m_c = _slope_constants(instance, act)
    if not act:
        return ReassignmentResult(new_id=np.arange(n_arms), active_set=act,
                                  c_thr=c_thr, group_size=None, eta_c=eta_c,
                                  m_c=m_c, rng_seed=seed)

    c_star = policy.C_star                             # (K, N)
    new_id = np.full(n_arms, -1, dtype=np.int64)
    placed = np.zeros(n_arms, dtype=bool)
    # candidate pools, ascending old ID; a cursor per active type skips arms
    # already taken for another type
    pools = {k: np.flatnonzero(c_star[k] >= c_thr) for k in act}
    cursors = {k: 0 for k in act}
    fallback = False

    for group in range(n_arms // group_size):
        start = group * group_size
        j = start
        group_cost = np.zeros(instance.num_constraints)
        for k in act:
            if group_cost[k] >= c_thr:
                continue
            pool, cur = pools[k], cursors[k]
            while cur < len(pool) and placed[pool[cur]]:
                cur += 1
            cursors[k] = cur
            if cur >= len(pool):
                fallback = True
                break
            i = int(pool[cur])
            new_id[i] = j
            placed[i] = True
            group_cost += c_star[:, i]
            j += 1
        if fallback:
            break

    leftover_old = np.flatnonzero(new_id < 0)
    taken = new_id[new_id >= 0]
    free_slots = np.setdiff1d(np.arange(n_arms), taken, assume_unique=True)
    rng = np.random.default_rng(seed)
    new_id[leftover_old] = free_slots[rng.permutation(len(free_slots))]

    return ReassignmentResult(new_id=new_id, active_set=act, c_thr=c_thr,
                              group_size=group_size, eta_c=eta_c, m_c=m_c,
                              rng_seed=seed, fallback=fallback)


@dataclass(frozen=True)
class SlopeReport:
    """Outcome of the exhaustive prefix-slope check."""

    holds: bool
    worst: tuple[int, int, int]     # (n1, n2, k) attaining the minimum slack
    margin: float                   # min over all (n1 <= n2, k) of the slack


def verify_slope(instance: WcmdpInstance, policy: SingleArmPolicy,
                 result: ReassignmentResult) -> SlopeReport:
    """Exhaustively check beta_k([n1]) - beta_k([n2]) >= eta_c*(n2-n1) - m_c
    for all 1 <= n1 <= n2 <= N and every cost type, in reassigned ID order."""
    if result.fallback:
        raise ValueError("reassignment used the small-N fallback; "
                         "the slope guarantee does not apply")
    curve = remaining_budget_curve(instance, policy, result)
    n_arms = instance.num_arms

    margin = math.inf
    worst = (1, 1, 0)
    idx = np.arange(n_arms + 1, dtype=np.float64)
    for k in range(instance.num_constraints):
        f = (curve[:, k] + result.eta_c * idx)[1:]
        # f[j] belongs to the prefix [j+1]: slack(n1, n2) = f[n1-1] - f[n2-1]
        # + m_c over n1 <= n2. Rounding is monotone, so the suffix maximum of
        # f gives each row's exact minimum, and the first row, then the
        # first column, attaining it reproduces a row-major argmin
        row_min = f - np.maximum.accumulate(f[::-1])[::-1] + result.m_c
        i = int(np.argmin(row_min))
        if row_min[i] < margin:
            margin = float(row_min[i])
            j = i + int(np.argmin(f[i] - f[i:] + result.m_c))
            worst = (i + 1, j + 1, k)
    return SlopeReport(holds=margin >= 0.0, worst=worst, margin=margin)
