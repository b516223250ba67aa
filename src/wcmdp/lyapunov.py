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
ell in every sample, so every sample's terms come from those S series. The
series run once per distinct arm, and each term is one sparse product of a
sample-by-(arm, state) selection matrix with the term's (arm, state) table.
Memory is O(M n + S n (K+2)) for M samples of n arms; it does not grow with
tau or with the number of terms, and a sample leaves once its own
certificate holds.

chain_diagnostics measures each distinct induced chain once, in one power
loop over the stack of distinct chains from which a chain leaves as soon as
it mixes.

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
    tau = _mixing_times(np.asarray(P)[None], np.asarray(mu)[None], t_cap)[0]
    return int(tau) if math.isfinite(tau) else UNBOUNDED


def _mixing_times(P: np.ndarray, mu: np.ndarray, t_cap: int) -> np.ndarray:
    """mixing_time of every chain of the (D, S, S) stack P with stationary
    rows mu (D, S), as a (D,) float array.

    One power loop runs over the whole stack, and a chain leaves it at the
    first power whose rows all lie within 1/e of its mu. numpy multiplies a
    stack one (S, S) product at a time, the product a loop over the chains
    would take, so every power and every tau is the same. Raises the
    ValueError of the first chain, in stack order, that is not
    row-stochastic or whose mu is not stationary.
    """
    P = np.asarray(P, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    bad_rows = np.abs(P.sum(axis=2) - 1.0).max(axis=1) > 1e-9
    bad_mu = np.abs(np.matmul(mu[:, None], P)[:, 0] - mu).sum(axis=1) > 1e-8
    bad = np.flatnonzero(bad_rows | bad_mu)
    if bad.size:
        raise ValueError("P is not row-stochastic" if bad_rows[bad[0]]
                         else "mu is not stationary for P within 1e-8")
    tau = np.full(P.shape[0], UNBOUNDED)
    live, targets = np.arange(P.shape[0]), mu[:, None, :]
    power = np.broadcast_to(np.eye(P.shape[1]), P.shape).copy()
    for t in range(t_cap + 1):
        if live.size == 0:
            break
        mixed = (np.abs(power - targets).sum(axis=2).max(axis=1)
                 <= MIXING_THRESHOLD)
        if mixed.any():
            tau[live[mixed]] = t
            live, P, targets, power = (a[~mixed]
                                       for a in (live, P, targets, power))
        power = power @ P
    return tau


def chain_structure(P: np.ndarray) -> tuple[bool, bool]:
    """(unichain, aperiodic) of a stochastic matrix via its support graph.

    Unichain means exactly one closed communicating class; aperiodic means
    every closed class has cycle-length gcd 1. A strongly connected class is
    closed when no support edge leaves it, so one scan of the edges finds
    every closed class. A breadth-first search from a member of a closed
    class never leaves it, so one search from the first member of each
    levels every closed class, and a class's period is the gcd over its
    edges u -> v of level(u) + 1 - level(v).
    """
    adjacency = sp.csr_matrix((np.asarray(P) > 0.0).astype(np.int8))
    _, labels = connected_components(adjacency, directed=True,
                                     connection="strong")
    u, v = adjacency.nonzero()
    closed = np.ones(labels.max() + 1, dtype=bool)
    closed[labels[u[labels[u] != labels[v]]]] = False
    roots = np.unique(labels, return_index=True)[1][closed]
    level = shortest_path(adjacency, unweighted=True, indices=roots)
    inner = closed[labels[u]]         # no edge leaves a closed class
    u, v = u[inner], v[inner]
    row = (np.cumsum(closed) - 1)[labels[u]]
    period = np.zeros(roots.size, dtype=np.int64)
    np.gcd.at(period, row, (level[row, u] + 1 - level[row, v]).astype(np.int64))
    return roots.size == 1, bool(np.all(period == 1))


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
    (P, mu), inverse = distinct_arms(policy.induced_P, policy.mu_star)
    tau = _mixing_times(P, mu, t_cap)
    unichain = np.ones(len(P), dtype=bool)
    aperiodic = np.ones(len(P), dtype=bool)
    failing = np.flatnonzero(np.isinf(tau))
    for j in failing:
        unichain[j], aperiodic[j] = chain_structure(P[j])
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
           weights: np.ndarray, gamma: float, tol: float, tau_window: int,
           arms: int | None = None):
    """Yield (v, per_arm) for ell = 0, 1, ...: the iterate
    v = diff (P - Xi)^ell / gamma^ell, (n, S), and its (G, n) projections
    onto the (n, G, S) arm-major profiles `weights`. The projection einsum
    reads them through a (G, n, S) view, so its (G, n) output is laid out
    arm by arm and numpy sums it over the arms one after another, whatever
    K is.

    Each row of diff is a difference of distributions, and a tail bound
    g_max * |v|_1 adds one row per arm: over the n rows of diff, or over
    `arms` arms for a caller that adds rows of several series, so it starts
    at most at t0 = 2 arms g_max. It shrinks by exp(-1/2)
    or more every tau_window terms and grows by exp(1/2) at most within one
    window, so all tails from term tau_window * j on are <= tol once
    j >= 1 + 2 ln(t0 / tol). With tau_window more terms to certify,
    ceil(tau_window * (2 ln(t0 / tol) + 3)) terms always suffice.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    arms = diff.shape[0] if arms is None else arms
    t0 = 2.0 * arms * float(np.max(np.abs(weights)))
    cap = math.ceil(tau_window * (2.0 * math.log(max(t0, tol) / tol) + 3.0))
    v = diff.astype(np.float64)
    by_profile = weights.transpose(1, 0, 2)
    for _ in range(cap):
        yield v, np.einsum("gns,ns->gn", by_profile, v)
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

    diff, mu: (n, S); P: (n, S, S); weights: (n, G, S), arm-major. Returns
    (values, terms_used, tail_bound): values[m] is the value on the first m
    rows, an (n+1,) array whose last entry is the value on all of them. The
    series stops once tau_window terms in a row have tail bound <= tol;
    tail_bound is the largest of them.
    """
    best = np.zeros(diff.shape[0] + 1)
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
    """(n, G, S) profiles of the arms idx, arm-major: for every arm its K
    cost rows, then its reward row. Every consumer keeps this one layout."""
    k = policy.c_star.shape[0]
    profiles = np.empty((idx.size, k + 1, policy.r_star.shape[1]))
    profiles[:, :k] = policy.c_star[:, idx].transpose(1, 0, 2)
    profiles[:, k] = policy.r_star[idx]
    return profiles


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

    n, s = idx.size, instance.num_states
    P = policy.induced_P[idx]
    cdf = np.cumsum(P, axis=-1).reshape(n * s, s)     # row arm * S + state
    base = np.arange(n) * s
    path = np.empty((BURN_IN + num_samples + 1, n), dtype=np.intp)
    path[0] = rng.integers(0, s, size=n)
    for j in range(BURN_IN + num_samples):
        path[j + 1] = sample_from_cdf(cdf.take(base + path[j], axis=0),
                                      rng.random(n))

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
    weights are the (n, G, S) arm-major profiles, as everywhere, so
    distinct_arms compares each arm's profile rows as they are stored.

    Arm i in state a starts its series from the row e_a - mu_i, so the S
    series from the rows e_a - mu hold every term of every sample. Arms
    with the same chain, mu and profile rows have the same series, and a
    series never mixes its rows, so the S series run on the distinct arms
    only and give each copy its own terms bit for bit.

    Each term fills one (D, S, G+1) table over the D distinct arms, the G
    projections and then the l1 norm of the iterate per (distinct arm,
    start state), row d S + a for distinct arm d in state a. A CSR
    selection matrix holds one row per live sample, with a 1 at column
    inverse[i] S + paths[m, i] for every arm i in arm order, so one sparse
    product gives every sample's G totals and its l1 norm; copies of one
    distinct arm select the same column, and the product adds each entry
    again, with no copy of the table per arm. scipy adds a row's entries
    in stored order, duplicates included, one arm after another, as
    _deviation_series sums arm-major projections, so the running max is
    the same bit for bit.
    The tail bound adds the same norms in another order; a sample leaves
    once tau_window terms in a row have tail bound <= tol, on the term
    _deviation_series stops at unless a tail lies within rounding of tol.
    Memory is O(M n + S D (K+2)), with no (n, M, G) temporary.
    """
    num_paths, n = paths.shape
    s, g = mu.shape[1], weights.shape[1]
    g_max = float(np.max(np.abs(weights)))
    (P, mu, weights), inverse = distinct_arms(P, mu, weights)
    series = zip(*(_terms(np.eye(s)[a] - mu, P, mu, weights, gamma, tol,
                          tau_window, arms=n) for a in range(s)))
    d = len(P)
    select = sp.csr_matrix(
        (np.ones(num_paths * n), (paths + inverse * s).ravel(),
         np.arange(0, num_paths * n + 1, n)), shape=(num_paths, d * s))
    table = np.empty((d, s, g + 1))
    live = np.arange(num_paths)
    best = np.zeros(num_paths)
    calm = np.zeros(num_paths, dtype=np.int64)   # latest terms with tail <= tol
    for term in series:
        for a, (v, per_arm) in enumerate(term):
            table[:, a, :g] = per_arm.T
            table[:, a, g] = np.abs(v).sum(axis=1)
        sums = select @ table.reshape(d * s, g + 1)    # (M', G+1)
        best[live] = np.maximum(best[live], np.abs(sums[:, :g]).max(axis=1))
        calm = np.where(sums[:, g] * g_max <= tol, calm + 1, 0)
        running = calm < tau_window
        if not running.all():
            live, calm, select = live[running], calm[running], select[running]
            if live.size == 0:
                return best
