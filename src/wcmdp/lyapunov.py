"""Mixing-time and drift diagnostics for the single-armed policies.

The central object is a deviation functional over a set of arms D: project
each arm's deviation from its stationary distribution onto the expected
reward and cost profiles, push it through the arm's induced chain for every
look-ahead horizon, inflate horizon ell by gamma^-ell, and take the worst
absolute total over the profiles and horizons:

    h(x, D) = max_g sup_ell | sum_{i in D} <(x_i - mu_i) P_i^ell, g_i> / gamma^ell |

with gamma = exp(-1/(2*tau)) for tau the largest mixing time. Because
(x_i - mu_i) P_i^ell = (x_i - mu_i) (P_i - Xi_i)^ell, where Xi_i repeats
mu_i in every row, the series is evaluated on deflated difference vectors
and truncated once a certified bound on all remaining terms drops below a
tolerance. The certificate uses the actual iterate norms: they contract by
at least exp(-1/2) every tau horizons, so the running maximum over the last
tau horizons dominates the entire tail.

h_id takes the upper envelope over ID prefixes, the focus fraction m(x) is
the largest grid point whose envelope value is still covered by the worst
remaining budget, and the composite potential is

    V(x) = h_id(x, m(x)) + L_h * N * (1 - m(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .lp_relax import SingleArmPolicy
from .model import WcmdpInstance
from .reassign import ReassignmentResult, remaining_budget_curve

UNBOUNDED = math.inf
MIXING_THRESHOLD = 1.0 / math.e
C_TAU_COEFF = 4.0 * math.e / (1.0 - 1.0 / math.sqrt(math.e))
DEFAULT_T_CAP = 10_000
SERIES_MAX_TERMS = 10_000
FOCUS_SIZE_GUARD = 200


class AssumptionError(RuntimeError):
    """An induced chain is not an aperiodic unichain (unbounded mixing)."""


class TruncationError(RuntimeError):
    """The deviation series tail failed to decay within the iteration cap."""


def mixing_time(P: np.ndarray, mu: np.ndarray, t_cap: int = DEFAULT_T_CAP):
    """Smallest t with every row of P^t within 1/e of mu in l1 distance.

    Returns an int, or UNBOUNDED if t_cap is reached first. mu must be
    stationary for P within 1e-8.
    """
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


def chain_structure(P: np.ndarray) -> tuple[bool, bool]:
    """(unichain, aperiodic) of a stochastic matrix via its support graph.

    Unichain means exactly one closed communicating class; aperiodic means
    every closed class has cycle-length gcd 1.
    """
    P = np.asarray(P)
    n = P.shape[0]
    adjacency = sp.csr_matrix((P > 0.0).astype(np.int8))
    n_comp, labels = connected_components(adjacency, directed=True,
                                          connection="strong")
    closed = []
    for comp in range(n_comp):
        members = np.flatnonzero(labels == comp)
        leaves = P[np.ix_(members, np.setdiff1d(np.arange(n), members))]
        if leaves.size == 0 or not np.any(leaves > 0.0):
            closed.append(members)
    unichain = len(closed) == 1

    aperiodic = True
    for members in closed:
        if _class_period(P, members) != 1:
            aperiodic = False
    return unichain, aperiodic


def _class_period(P: np.ndarray, members: np.ndarray) -> int:
    """gcd of cycle lengths inside one strongly connected closed class."""
    index = {int(s): j for j, s in enumerate(members)}
    sub = P[np.ix_(members, members)] > 0.0
    m = len(members)
    level = np.full(m, -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(sub[u]):
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u in range(m):
        for v in np.flatnonzero(sub[u]):
            g = math.gcd(g, int(level[u] + 1 - level[v]))
    return g if g > 0 else 1


@dataclass(frozen=True)
class AssumptionReport:
    """Per-arm unichain/aperiodicity of the induced chains."""

    unichain: np.ndarray    # (N,) bool
    aperiodic: np.ndarray   # (N,) bool

    @property
    def ok(self) -> bool:
        return bool(np.all(self.unichain) and np.all(self.aperiodic))

    def failing_arms(self) -> list[int]:
        return [int(i) for i in
                np.flatnonzero(~(self.unichain & self.aperiodic))]


def check_assumption(policy: SingleArmPolicy) -> AssumptionReport:
    pairs = [chain_structure(policy.induced_P[i])
             for i in range(policy.num_arms)]
    return AssumptionReport(unichain=np.array([p[0] for p in pairs]),
                            aperiodic=np.array([p[1] for p in pairs]))


@dataclass(frozen=True)
class ChainDiagnostics:
    """Mixing times of the induced chains and the constants derived from
    them: gamma = exp(-1/(2*tau)), the geometric-tail constant c_tau, the
    set-Lipschitz constant l_h, and the one-step drift constant c_h."""

    tau: np.ndarray         # (N,) float; UNBOUNDED where mixing never hits 1/e
    tau_max: float
    gamma: float
    c_tau: float
    l_h: float
    c_h: float
    unichain: np.ndarray
    aperiodic: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "tau": [None if math.isinf(t) else int(t) for t in self.tau],
            "gamma": self.gamma,
            "C_tau": self.c_tau,
            "L_h": self.l_h,
            "C_h": self.c_h,
            "unichain": self.unichain.tolist(),
            "aperiodic": self.aperiodic.tolist(),
        }


def chain_diagnostics(instance: WcmdpInstance, policy: SingleArmPolicy,
                      t_cap: int = DEFAULT_T_CAP,
                      require_bounded: bool = True) -> ChainDiagnostics:
    """Compute per-arm mixing times and the derived constants.

    By default an arm with unbounded mixing time raises AssumptionError;
    with require_bounded=False the constants use the largest finite mixing
    time and the offending arms stay flagged in the tau vector.
    """
    report = check_assumption(policy)
    tau = np.array([mixing_time(policy.induced_P[i], policy.mu_star[i], t_cap)
                    for i in range(policy.num_arms)], dtype=np.float64)
    unbounded = np.flatnonzero(np.isinf(tau))
    if unbounded.size and require_bounded:
        raise AssumptionError(
            f"arm(s) {unbounded.tolist()} have unbounded mixing time; "
            "the induced chain is not an aperiodic unichain")
    finite = tau[np.isfinite(tau)]
    if finite.size == 0:
        raise AssumptionError("no arm has a finite mixing time")
    tau_max = float(max(finite.max(), 1.0))
    gamma = math.exp(-1.0 / (2.0 * tau_max))
    c_tau = C_TAU_COEFF * tau_max
    l_h = 2.0 * max(instance.c_max, instance.r_max) * c_tau
    c_h = 2.0 * (instance.num_constraints * instance.c_max + instance.r_max) * c_tau
    return ChainDiagnostics(tau=tau, tau_max=tau_max, gamma=gamma, c_tau=c_tau,
                            l_h=l_h, c_h=c_h, unichain=report.unichain,
                            aperiodic=report.aperiodic)


def _deviation_series(diff: np.ndarray, P: np.ndarray, mu: np.ndarray,
                      weights: np.ndarray, gamma: float, tol: float,
                      tau_window: int, max_terms: int = SERIES_MAX_TERMS,
                      prefixes: bool = False, min_terms: int = 0):
    """Evaluate the deviation sup over horizons on deflated difference rows.

    diff, mu: (n, S); P: (n, S, S); weights: (G, n, S). Returns
    (value, terms_used, certified_tail) where value is a scalar, or an
    (n+1,) array over prefixes of the rows when prefixes=True. The iterate
    carries the 1/gamma^ell scaling, so no separate power is formed.
    """
    n = diff.shape[0]
    best: np.ndarray | float = np.zeros(n + 1) if prefixes else 0.0
    if n == 0:
        return best, 0, 0.0
    g_max = float(np.max(np.abs(weights))) if weights.size else 0.0
    v = diff.astype(np.float64).copy()
    window: list[float] = []
    for ell in range(max_terms):
        per_arm = np.einsum("gns,ns->gn", weights, v)     # (G, n)
        if prefixes:
            totals = np.abs(np.cumsum(per_arm, axis=1)).max(axis=0)
            best[1:] = np.maximum(best[1:], totals)
        else:
            best = max(best, float(np.abs(per_arm.sum(axis=1)).max()))
        tail = float(np.abs(v).sum()) * g_max
        window.append(tail)
        if (ell + 1 >= min_terms and len(window) >= tau_window
                and max(window[-tau_window:]) <= tol):
            return best, ell + 1, max(window[-tau_window:])
        v = (np.einsum("ns,nst->nt", v, P)
             - v.sum(axis=1, keepdims=True) * mu) / gamma
    raise TruncationError(
        f"deviation series tail above {tol} after {max_terms} terms; "
        "an induced chain is likely not an aperiodic unichain")


def _check_rows(x: np.ndarray) -> None:
    if np.min(x) < -1e-12 or np.max(np.abs(x.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rows of x must be probability distributions")


def _weights_for(policy: SingleArmPolicy, idx: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [policy.c_star[:, idx, :], policy.r_star[idx][None, :, :]], axis=0)


def _tau_window(diag: ChainDiagnostics) -> int:
    return max(1, int(math.ceil(diag.tau_max)))


def subset_h(x: np.ndarray, D, policy: SingleArmPolicy,
             diag: ChainDiagnostics, tol: float = 1e-6,
             min_terms: int = 0) -> float:
    """Deviation value h(x, D) within tol, rows of x in the policy's order.

    Rows may be one-hot states or any probability distributions. min_terms
    forces a longer horizon than the certificate needs (used to audit the
    truncation itself).
    """
    idx = np.asarray(D, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    if idx.size == 0:
        return 0.0
    _check_rows(x[idx])
    value, _, _ = _deviation_series(
        x[idx] - policy.mu_star[idx], policy.induced_P[idx],
        policy.mu_star[idx], _weights_for(policy, idx), diag.gamma, tol,
        _tau_window(diag), min_terms=min_terms)
    return float(value)


def prefix_h(x: np.ndarray, policy: SingleArmPolicy, diag: ChainDiagnostics,
             tol: float = 1e-6):
    """h(x, [n]) for every prefix n = 0..N in one series pass."""
    values, _, _ = _prefix_h_detailed(x, policy, diag, tol)
    return values


def _prefix_h_detailed(x, policy, diag, tol):
    x = np.asarray(x, dtype=np.float64)
    _check_rows(x)
    idx = np.arange(policy.num_arms)
    return _deviation_series(
        x - policy.mu_star, policy.induced_P, policy.mu_star,
        _weights_for(policy, idx), diag.gamma, tol, _tau_window(diag),
        prefixes=True)


def _grid_count(m: float, n: int) -> int:
    scaled = m * n
    if abs(scaled - round(scaled)) > 1e-9:
        raise ValueError(f"m={m} is not a multiple of 1/{n}")
    return int(round(scaled))


def h_id(x: np.ndarray, m: float, policy: SingleArmPolicy,
         diag: ChainDiagnostics, tol: float = 1e-6) -> float:
    """Upper envelope max_{m' <= m} h(x, [N m']) over the 1/N grid."""
    n_m = _grid_count(m, policy.num_arms)
    values = prefix_h(x, policy, diag, tol)
    return float(values[:n_m + 1].max())


def _focus_scan(instance, x, policy, reassignment, diag, tol, allow_large):
    """Prefix values h(x, [n]) in reassigned order, their envelope, the focus
    fraction m, and the series truncation level and certified tail; x is in
    original arm order."""
    if instance.num_arms > FOCUS_SIZE_GUARD and not allow_large:
        raise ValueError(
            f"N={instance.num_arms} exceeds the diagnostic guard "
            f"{FOCUS_SIZE_GUARD}; pass allow_large=True to override")
    order = reassignment.order()
    ordered = policy.permuted(order)
    values, level, tail = _prefix_h_detailed(
        np.asarray(x, dtype=np.float64)[order], ordered, diag, tol)
    envelope = np.maximum.accumulate(values)
    beta = remaining_budget_curve(instance, ordered, reassignment.active_set)
    min_beta = beta.min(axis=1)
    m = 0.0
    for n in range(instance.num_arms, -1, -1):
        if envelope[n] <= min_beta[n]:
            m = n / instance.num_arms
            break
    return values, envelope, m, level, tail


def focus_m(instance: WcmdpInstance, x: np.ndarray, policy: SingleArmPolicy,
            reassignment: ReassignmentResult, diag: ChainDiagnostics,
            tol: float = 1e-6, allow_large: bool = False) -> float:
    """Largest grid fraction m with h_id(x, m) covered by the worst remaining
    budget of the prefix [Nm]. x is given in original arm order."""
    return _focus_scan(instance, x, policy, reassignment, diag, tol,
                       allow_large)[2]


def lyapunov_value(instance: WcmdpInstance, x: np.ndarray,
                   policy: SingleArmPolicy, reassignment: ReassignmentResult,
                   diag: ChainDiagnostics, tol: float = 1e-6,
                   allow_large: bool = False) -> tuple[float, float, float]:
    """(V(x), m(x), h_id(x, m(x))) with V = h_id + l_h * N * (1 - m)."""
    report = build_report(instance, x, policy, reassignment, diag, tol,
                          allow_large)
    return report.v, report.focus_m, report.h_id[report.focus_m]


@dataclass(frozen=True)
class LyapunovReport:
    """Snapshot of the diagnostics at one system state."""

    h_values: dict          # subset descriptor -> h(x, D)
    h_id: dict              # grid fraction m -> envelope value
    focus_m: float
    v: float
    truncation_level: int
    tail_bound: float

    def to_json_dict(self) -> dict:
        return {"h_values": self.h_values,
                "h_id": {str(k): v for k, v in self.h_id.items()},
                "focus_m": self.focus_m, "V": self.v,
                "truncation_level": self.truncation_level,
                "tail_bound": self.tail_bound}


def build_report(instance: WcmdpInstance, x: np.ndarray,
                 policy: SingleArmPolicy, reassignment: ReassignmentResult,
                 diag: ChainDiagnostics, tol: float = 1e-6,
                 allow_large: bool = False) -> LyapunovReport:
    """Evaluate prefixes, envelope, focus fraction, and V at one state."""
    values, envelope, m, level, tail = _focus_scan(
        instance, x, policy, reassignment, diag, tol, allow_large)
    n_arms = instance.num_arms
    h_at_m = float(envelope[int(round(m * n_arms))])
    return LyapunovReport(
        h_values={f"prefix:{n}": float(values[n]) for n in range(n_arms + 1)},
        h_id={n / n_arms: float(envelope[n]) for n in range(n_arms + 1)},
        focus_m=m,
        v=h_at_m + diag.l_h * n_arms * (1.0 - m),
        truncation_level=level,
        tail_bound=tail,
    )


@dataclass(frozen=True)
class DriftProbeResult:
    """Empirical one-step drift statistics against the theoretical bound."""

    mean: float
    stderr: float
    bound: float
    num_samples: int
    gamma: float

    @property
    def within_bound(self) -> bool:
        return self.mean <= self.bound


def drift_probe(instance: WcmdpInstance, policy: SingleArmPolicy,
                diag: ChainDiagnostics, D, num_samples: int,
                rng: np.random.Generator, burn_in: int = 100,
                tol: float = 1e-6) -> DriftProbeResult:
    """Sample E[(h(X_{t+1}, D) - gamma * h(X_t, D))^+] with every arm in D
    run under its single-armed policy, against the c_h * sqrt(N) bound."""
    idx = np.asarray(D, dtype=np.int64)
    bound = diag.c_h * math.sqrt(instance.num_arms)
    if idx.size == 0 or num_samples == 0:
        return DriftProbeResult(mean=0.0, stderr=0.0, bound=bound,
                                num_samples=num_samples, gamma=diag.gamma)

    n = idx.size
    s = instance.num_states
    mu = policy.mu_star[idx]
    P = policy.induced_P[idx]
    weights = _weights_for(policy, idx)
    cdf = np.cumsum(P, axis=-1)
    window = _tau_window(diag)
    ar = np.arange(n)

    def h_of(states: np.ndarray) -> float:
        x = np.zeros((n, s))
        x[ar, states] = 1.0
        value, _, _ = _deviation_series(x - mu, P, mu, weights, diag.gamma,
                                        tol, window)
        return float(value)

    def advance(states: np.ndarray) -> np.ndarray:
        u = rng.random(n)
        rows = cdf[ar, states]
        return np.minimum((rows <= u[:, None]).sum(axis=1), s - 1)

    states = rng.integers(0, s, size=n)
    for _ in range(burn_in):
        states = advance(states)

    stats = np.empty(num_samples)
    h_prev = h_of(states)
    for j in range(num_samples):
        states = advance(states)
        h_next = h_of(states)
        stats[j] = max(h_next - diag.gamma * h_prev, 0.0)
        h_prev = h_next

    stderr = float(stats.std(ddof=1) / math.sqrt(num_samples)) \
        if num_samples > 1 else 0.0
    return DriftProbeResult(mean=float(stats.mean()), stderr=stderr,
                            bound=bound, num_samples=num_samples,
                            gamma=diag.gamma)
