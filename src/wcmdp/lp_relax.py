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

Solving is delegated to scipy's HiGHS backend; check_solution re-evaluates
every constraint family from the raw instance data so the solver never
certifies itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .model import WcmdpInstance

# y entries below this are treated as an unvisited state-action pair
ZERO_MARGINAL_THRESHOLD = 1e-12
# negative y entries no larger than this in magnitude are clamped to 0
NEGATIVE_CLAMP = 1e-12


class LpSolveError(RuntimeError):
    """Solver failed to return a certified optimum."""


@dataclass(frozen=True)
class LpProblem:
    """Sparse description of the relaxation for one instance.

    Variables are y[i, s, a] flattened in C order. Rows: K budget
    inequalities (coefficients cost/N, right-hand side alpha), then N*S flow
    balance equalities, then N normalization equalities.
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

    @property
    def num_variables(self) -> int:
        return self.num_arms * self.num_states * self.num_actions

    @property
    def num_rows(self) -> int:
        return (self.num_constraints
                + self.num_arms * self.num_states
                + self.num_arms)


@dataclass(frozen=True)
class LpSolution:
    """Optimal state-action frequencies and the per-arm reward upper bound."""

    y: np.ndarray           # (N, S, A), nonnegative after clamping
    objective: float        # optimal mean per-arm reward
    solver_status: str
    duals: np.ndarray       # (K,) multipliers of the budget rows (diagnostic)

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

    def permuted(self, order: np.ndarray) -> "SingleArmPolicy":
        """The same policy with arms listed in the given index order."""
        return SingleArmPolicy(
            pi=self.pi[order],
            induced_P=self.induced_P[order],
            mu_star=self.mu_star[order],
            C_star=self.C_star[:, order],
            r_star=self.r_star[order],
            c_star=self.c_star[:, order],
        )


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
                     balance=balance, normalization=normalization)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the relaxation; raise LpSolveError unless the solver certifies
    optimality. Tiny negative frequencies are clamped to zero on extraction."""
    a_eq = sp.vstack([problem.balance, problem.normalization], format="csr")
    b_eq = np.concatenate([
        np.zeros(problem.balance.shape[0]), np.ones(problem.num_arms)])
    res = linprog(
        c=-problem.reward_coeffs,
        A_ub=problem.budget, b_ub=problem.budget_rhs,
        A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise LpSolveError(f"linprog status {res.status}: {res.message}")
    y = res.x.reshape(problem.num_arms, problem.num_states, problem.num_actions)
    y = np.where((y < 0) & (y >= -NEGATIVE_CLAMP), 0.0, y)
    duals = np.asarray(res.ineqlin.marginals, dtype=np.float64)
    return LpSolution(y=y, objective=float(-res.fun),
                      solver_status=str(res.message), duals=duals)


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
