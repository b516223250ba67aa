"""Mixing-time and drift diagnostics for the single-armed policies.

One entry point per quantity:

- chain_diagnostics: per-arm mixing times, the unichain/aperiodic flags,
  and the constants derived from the largest mixing time;
- subset_h: the deviation functional h(x, D) of any arm set D;
- build_report: h on every ID prefix, the envelope h_ID, the focus
  fraction m(x) and the potential V(x) at one state;
- drift_probe: the sampled one-step drift of h against its bound.

The deviation functional projects each arm's deviation from its stationary
distribution onto the expected reward and cost profiles, pushes it through
the arm's induced chain for every look-ahead horizon, inflates horizon ell
by gamma^-ell, and takes the worst absolute total over the profiles and
horizons:

    h(x, D) = max_g sup_ell | sum_{i in D} <(x_i - mu_i) P_i^ell, g_i> / gamma^ell |

with gamma = exp(-1/(2*tau)) for tau the largest mixing time. Because
(x_i - mu_i) P_i^ell = (x_i - mu_i) (P_i - Xi_i)^ell, where Xi_i repeats
mu_i in every row, one term generator evaluates the series on deflated
difference vectors for every entry point. It stops once tau terms in a row
have a tail bound below a tolerance: the bound uses the actual iterate
norms, which contract by at least exp(-1/2) every tau horizons, so such a
run dominates the entire tail. The same contraction caps the number of
terms in proportion to tau. The profiles are stored arm by arm, so h sums
the arms one after another, in the same order for every K.

drift_probe evaluates h at many one-hot states of one trajectory. The
states never depend on h, so it draws the whole trajectory first and runs
one series per start state: arm i in state s adds the same amount to term
ell in every sample, so each sample gathers its terms from those S series.
Memory does not grow with tau or with the number of terms, and a sample
leaves once its own certificate holds.

h_ID(x, m) = max_{m' <= m} h(x, [N m']) is the upper envelope over ID
prefixes, the focus fraction m(x) is the largest grid point whose envelope
value is still covered by the worst remaining budget, and the composite
potential is

    V(x) = h_ID(x, m(x)) + L_h * N * (1 - m(x)).

A finite mixing time certifies the assumption on its own: a second closed
class, or a period d >= 2, keeps some row of P^t at l1 distance >= 1 from mu
for every t, above the 1/e threshold. The support-graph structure check
therefore runs only on the arms that do not mix, to say how they fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

from .lp_relax import SingleArmPolicy
from .model import WcmdpInstance, distinct_arms
from .policies import sample_from_cdf
from .reassign import ReassignmentResult, remaining_budget_curve

UNBOUNDED = math.inf
MIXING_THRESHOLD = 1.0 / math.e
C_TAU_COEFF = 4.0 * math.e / (1.0 - 1.0 / math.sqrt(math.e))
DEFAULT_T_CAP = 10_000
FOCUS_SIZE_GUARD = 200
BURN_IN = 100


class AssumptionError(RuntimeError):
    """An induced chain is not an aperiodic unichain (unbounded mixing)."""


class TruncationError(RuntimeError):
    """The deviation series tail outlived the term cap that the mixing time
    implies: the diagnostics do not describe the chains."""


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
    """gcd of cycle lengths inside one strongly connected closed class: the
    gcd over its edges u -> v of level(u) + 1 - level(v), with levels the
    BFS distances from its first member."""
    sub = sp.csr_matrix((P[np.ix_(members, members)] > 0.0).astype(np.int8))
    level = shortest_path(sub, unweighted=True, indices=0).astype(np.int64)
    u, v = sub.nonzero()
    return int(np.gcd.reduce(level[u] + 1 - level[v]))


@dataclass(frozen=True)
class ChainDiagnostics:
    """Mixing times of the induced chains, the structure of the chains that
    do not mix, and the constants derived from the largest mixing time:
    gamma = exp(-1/(2*tau)), the geometric-tail constant c_tau, the
    set-Lipschitz constant l_h, and the one-step drift constant c_h. The
    constants are None unless every arm mixes (ok)."""

    tau: np.ndarray         # (N,) float; UNBOUNDED where mixing never hits 1/e
    tau_max: float | None
    gamma: float | None
    c_tau: float | None
    l_h: float | None
    c_h: float | None
    unichain: np.ndarray    # (N,) bool; True wherever tau is finite
    aperiodic: np.ndarray   # (N,) bool; True wherever tau is finite

    @property
    def ok(self) -> bool:
        """Every arm mixes, hence every induced chain is an aperiodic
        unichain."""
        return bool(np.all(np.isfinite(self.tau)))

    def failing_arms(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(np.isinf(self.tau))]

    def to_json_dict(self) -> dict:
        return {
            "tau": [None if math.isinf(t) else int(t) for t in self.tau],
            "gamma": self.gamma,
            "C_tau": self.c_tau,
            "L_h": self.l_h,
            "C_h": self.c_h,
            "unichain": self.unichain.tolist(),
            "aperiodic": self.aperiodic.tolist(),
            "assumption_ok": self.ok,
        }


def chain_diagnostics(instance: WcmdpInstance, policy: SingleArmPolicy,
                      t_cap: int = DEFAULT_T_CAP) -> ChainDiagnostics:
    """Per-arm mixing times, the unichain/aperiodic flags, and the derived
    constants.

    Each distinct chain, keyed on the bytes of (induced_P[i], mu_star[i]),
    is measured once and its result copied to every arm that shares it.
    chain_structure runs only on the chains whose mixing time reaches t_cap;
    every other arm is an aperiodic unichain. When any arm does not mix the
    result has ok False and constants of None.
    """
    P, mu = policy.induced_P, policy.mu_star
    first, inverse = distinct_arms(P, mu)
    tau = np.array([mixing_time(P[i], mu[i], t_cap) for i in first],
                   dtype=np.float64)
    unichain = np.ones(first.size, dtype=bool)
    aperiodic = np.ones(first.size, dtype=bool)
    failing = np.flatnonzero(np.isinf(tau))
    for j in failing:
        unichain[j], aperiodic[j] = chain_structure(P[first[j]])
    tau, unichain, aperiodic = (a[inverse] for a in (tau, unichain, aperiodic))
    if failing.size:
        return ChainDiagnostics(tau=tau, tau_max=None, gamma=None, c_tau=None,
                                l_h=None, c_h=None, unichain=unichain,
                                aperiodic=aperiodic)
    tau_max = float(max(tau.max(), 1.0))
    gamma = math.exp(-1.0 / (2.0 * tau_max))
    c_tau = C_TAU_COEFF * tau_max
    l_h = 2.0 * max(instance.c_max, instance.r_max) * c_tau
    c_h = 2.0 * (instance.num_constraints * instance.c_max + instance.r_max) * c_tau
    return ChainDiagnostics(tau=tau, tau_max=tau_max, gamma=gamma, c_tau=c_tau,
                            l_h=l_h, c_h=c_h, unichain=unichain,
                            aperiodic=aperiodic)


def _terms(diff: np.ndarray, P: np.ndarray, mu: np.ndarray,
           weights: np.ndarray, gamma: float, tol: float, tau_window: int):
    """Yield (v, per_arm) for ell = 0, 1, ...: the iterate
    v = diff (P - Xi)^ell / gamma^ell, (n, S), and its (G, n) projections.

    Rows of diff are differences of distributions, so the tail bound
    g_max * |v|_1 starts at most at t0 = 2 n g_max. It shrinks by exp(-1/2)
    or more every tau_window terms and grows by exp(1/2) at most within one
    window, so all tails from term tau_window * j on are <= tol once
    j >= 1 + 2 ln(t0 / tol). With tau_window more terms to certify,
    ceil(tau_window * (2 ln(t0 / tol) + 3)) terms always suffice.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    t0 = 2.0 * diff.shape[0] * float(np.max(np.abs(weights)))
    cap = math.ceil(tau_window * (2.0 * math.log(max(t0, tol) / tol) + 3.0))
    v = diff.astype(np.float64)
    for _ in range(cap):
        yield v, np.einsum("gns,ns->gn", weights, v)
        v = (np.einsum("ns,nst->nt", v, P)
             - v.sum(axis=1, keepdims=True) * mu) / gamma
    raise TruncationError(
        f"deviation series tail above {tol} after {cap} terms, more than a "
        f"mixing time of {tau_window} allows; the diagnostics do not "
        "describe these chains")


def _deviation_series(diff: np.ndarray, P: np.ndarray, mu: np.ndarray,
                      weights: np.ndarray, gamma: float, tol: float,
                      tau_window: int):
    """Evaluate the deviation sup over horizons on deflated difference rows,
    for every prefix of the rows.

    diff, mu: (n, S); P: (n, S, S); weights: (G, n, S). Returns
    (values, terms_used, tail_bound): values[m] is the value on the first m
    rows, an (n+1,) array whose last entry is the value on all of them. The
    series stops once tau_window terms in a row have tail bound <= tol;
    tail_bound is the largest of them.
    """
    n = diff.shape[0]
    best = np.zeros(n + 1)
    if n == 0:
        return best, 0, 0.0
    g_max = float(np.max(np.abs(weights)))
    calm, tail_bound = 0, 0.0
    for ell, (v, per_arm) in enumerate(
            _terms(diff, P, mu, weights, gamma, tol, tau_window)):
        totals = np.abs(np.cumsum(per_arm, axis=1)).max(axis=0)
        best[1:] = np.maximum(best[1:], totals)
        tail = float(np.abs(v).sum()) * g_max
        calm, tail_bound = ((calm + 1, max(tail_bound, tail)) if tail <= tol
                            else (0, 0.0))
        if calm == tau_window:
            return best, ell + 1, tail_bound


def _check_rows(x: np.ndarray) -> None:
    if np.min(x) < -1e-12 or np.max(np.abs(x.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rows of x must be probability distributions")


def _weights_for(policy: SingleArmPolicy, idx: np.ndarray) -> np.ndarray:
    """(G, n, S) profiles of the arms idx: the K cost rows, then the reward
    row. They are stored arm-major, as (n, G, S) memory, so every projection
    einsum returns a (G, n) array laid out arm by arm, which numpy sums over
    the arms one after another, whatever K is."""
    k = policy.c_star.shape[0]
    stored = np.empty((idx.size, k + 1, policy.r_star.shape[1]))
    stored[:, :k] = policy.c_star[:, idx].transpose(1, 0, 2)
    stored[:, k] = policy.r_star[idx]
    return stored.transpose(1, 0, 2)


def _tau_window(diag: ChainDiagnostics) -> int:
    if not diag.ok:
        raise AssumptionError(
            f"arm(s) {diag.failing_arms()} do not mix; the diagnostics carry "
            "no constants")
    return max(1, int(math.ceil(diag.tau_max)))


def _arm_set(D, num_arms: int) -> np.ndarray:
    """The arm set D as int64 indices: every entry an integer in
    [0, num_arms), none repeated. Raises ValueError naming an offending
    entry."""
    raw = np.asarray(D)
    if raw.size == 0:
        return np.zeros(0, dtype=np.int64)
    if raw.ndim != 1 or raw.dtype.kind not in "iuf":
        raise ValueError(f"arm set must be a flat sequence of arm indices, "
                         f"got {raw.dtype} of shape {raw.shape}")
    for bad, what in ((raw != np.floor(raw), "is not an integer"),
                      (raw < 0, "is negative"),
                      (raw >= num_arms, f"is out of range for {num_arms} arms")):
        if bad.any():
            raise ValueError(f"arm set entry {raw[bad][0].item()!r} {what}")
    idx = raw.astype(np.int64)
    repeated = np.bincount(idx, minlength=num_arms)[idx] > 1
    if repeated.any():
        raise ValueError(f"arm set entry {idx[repeated][0].item()!r} "
                         "appears more than once")
    return idx


def subset_h(x: np.ndarray, D, policy: SingleArmPolicy,
             diag: ChainDiagnostics, tol: float = 1e-6) -> float:
    """Deviation value h(x, D) within tol, rows of x in the policy's order.

    Rows may be one-hot states or any probability distributions.
    """
    idx = _arm_set(D, policy.num_arms)
    x = np.asarray(x, dtype=np.float64)
    if idx.size == 0:
        return 0.0
    _check_rows(x[idx])
    values, _, _ = _deviation_series(
        x[idx] - policy.mu_star[idx], policy.induced_P[idx],
        policy.mu_star[idx], _weights_for(policy, idx), diag.gamma, tol,
        _tau_window(diag))
    return float(values[-1])


@dataclass(frozen=True)
class LyapunovReport:
    """Snapshot of the diagnostics at one system state. Both arrays are
    indexed by prefix size n = 0..N, over the arms in ID order."""

    prefix_h: np.ndarray    # (N+1,) h(x, [n])
    h_id: np.ndarray        # (N+1,) h_ID(x, n/N), the running max of prefix_h
    focus_m: float
    v: float
    truncation_level: int
    tail_bound: float


def build_report(instance: WcmdpInstance, x: np.ndarray,
                 policy: SingleArmPolicy, reassignment: ReassignmentResult,
                 diag: ChainDiagnostics, tol: float = 1e-6,
                 allow_large: bool = False) -> LyapunovReport:
    """h on every ID prefix, the envelope h_ID, the focus fraction m and V at
    one state x, given in original arm order.

    The prefix values come from one series pass over the arms in reassigned
    order. m is the largest grid fraction n/N whose envelope value is covered
    by the worst remaining budget of the prefix [n], or 0.
    """
    n_arms = instance.num_arms
    if n_arms > FOCUS_SIZE_GUARD and not allow_large:
        raise ValueError(
            f"N={n_arms} exceeds the diagnostic guard "
            f"{FOCUS_SIZE_GUARD}; pass allow_large=True to override")
    order = reassignment.order()
    x = np.asarray(x, dtype=np.float64)[order]
    _check_rows(x)
    mu = policy.mu_star[order]
    values, level, tail = _deviation_series(
        x - mu, policy.induced_P[order], mu, _weights_for(policy, order),
        diag.gamma, tol, _tau_window(diag))
    envelope = np.maximum.accumulate(values)
    beta = remaining_budget_curve(instance, policy, reassignment)
    covered = np.flatnonzero(envelope <= beta.min(axis=1))
    n_m = int(covered[-1]) if covered.size else 0
    m = n_m / n_arms
    return LyapunovReport(
        prefix_h=values,
        h_id=envelope,
        focus_m=m,
        v=float(envelope[n_m]) + diag.l_h * n_arms * (1.0 - m),
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

    @property
    def within_bound(self) -> bool:
        return self.mean <= self.bound


def drift_probe(instance: WcmdpInstance, policy: SingleArmPolicy,
                diag: ChainDiagnostics, D, num_samples: int,
                rng: np.random.Generator, tol: float = 1e-6) -> DriftProbeResult:
    """Sample E[(h(X_{t+1}, D) - gamma * h(X_t, D))^+] with every arm in D
    run under its single-armed policy from a uniform start advanced BURN_IN
    steps, against the c_h * sqrt(N) bound.

    The states never depend on h, so one sampling loop draws the whole
    trajectory first, burn-in included, and keeps the states from step
    BURN_IN on; h is then evaluated for all of them at once by
    _one_hot_h."""
    window = _tau_window(diag)
    idx = _arm_set(D, policy.num_arms)
    if num_samples < 0:
        raise ValueError(f"num_samples must be >= 0, got {num_samples}")
    bound = diag.c_h * math.sqrt(instance.num_arms)
    if idx.size == 0 or num_samples == 0:
        return DriftProbeResult(mean=0.0, stderr=0.0, bound=bound,
                                num_samples=num_samples)

    n = idx.size
    P = policy.induced_P[idx]
    cdf = np.cumsum(P, axis=-1)
    ar = np.arange(n)
    path = np.empty((BURN_IN + num_samples + 1, n), dtype=np.intp)
    path[0] = rng.integers(0, instance.num_states, size=n)
    for j in range(BURN_IN + num_samples):
        path[j + 1] = sample_from_cdf(cdf[ar, path[j]], rng.random(n))

    h = _one_hot_h(path[BURN_IN:], policy.mu_star[idx], P,
                   _weights_for(policy, idx), diag.gamma, tol, window)
    stats = np.maximum(h[1:] - diag.gamma * h[:-1], 0.0)
    stderr = float(stats.std(ddof=1) / math.sqrt(num_samples)) \
        if num_samples > 1 else 0.0
    return DriftProbeResult(mean=float(stats.mean()), stderr=stderr,
                            bound=bound, num_samples=num_samples)


def _one_hot_h(paths: np.ndarray, mu: np.ndarray, P: np.ndarray,
               weights: np.ndarray, gamma: float, tol: float,
               tau_window: int) -> np.ndarray:
    """h at every one-hot state of paths (M, n), arm i in state paths[m, i]:
    the last prefix value _deviation_series gives one state at a time.

    Arm i in state a starts its series from the row e_a - mu_i, so the S
    series from the rows e_a - mu hold every term of every sample. Each live
    sample gathers its per-arm inner products from them and adds them one
    arm after another, as _deviation_series sums arm-major projections, so
    its running max is the same bit for bit. Its tail bound adds the same
    entries in another order; a sample leaves once tau_window terms in a row
    have tail bound <= tol, on the term _deviation_series stops at unless a
    tail lies within rounding of tol. Memory is O((S + M) n G).
    """
    num_paths, n = paths.shape
    s = mu.shape[1]
    g_max = float(np.max(np.abs(weights)))
    series = zip(*(_terms(np.eye(s)[a] - mu, P, mu, weights, gamma, tol,
                          tau_window) for a in range(s)))
    live = np.arange(num_paths)
    cells = paths * n + np.arange(n)                     # into (S*n,) tables
    best = np.zeros(num_paths)
    calm = np.zeros(num_paths, dtype=np.int64)   # latest terms with tail <= tol
    for term in series:
        iterates, per_arm = zip(*term)
        table = np.stack([t.T for t in per_arm]).reshape(s * n, -1)
        totals = np.take(table, cells.T, axis=0).sum(axis=0)    # (M', G)
        best[live] = np.maximum(best[live], np.abs(totals).max(axis=1))
        norms = np.stack([np.abs(v).sum(axis=1) for v in iterates])  # (S, n)
        tails = np.take(norms, cells).sum(axis=1) * g_max
        calm = np.where(tails <= tol, calm + 1, 0)
        running = calm < tau_window
        live, cells, calm = live[running], cells[running], calm[running]
        if live.size == 0:
            return best

