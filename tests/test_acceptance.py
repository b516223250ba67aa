"""Acceptance suite: each numbered criterion runs at its stated tolerance
and prints one pass/fail line. Run with `pytest tests/test_acceptance.py -s`.

The full module takes a few minutes; the dominant cost is the size sweep at
horizon 2e4 with 4 replications for both policies.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from wcmdp.lp_relax import extract_policy, solve_lp
from wcmdp.lyapunov import (UNBOUNDED, chain_diagnostics, drift_probe,
                            mixing_time, subset_h)
from wcmdp.model import (COST_ACTION_ONLY, TYPED, GeneratorConfig,
                         generate)
from wcmdp.policies import exact_oracle
from wcmdp.reassign import reassign, verify_slope
from wcmdp.simulator import PolicyBundle, SimConfig, simulate, sweep

from oracles import tiny_instance
import test_lyapunov as lyap_helpers

FIGURE1 = GeneratorConfig(seed=0, num_arms=100, num_states=10, num_actions=4,
                          num_constraints=4)
TYPED_SINGLE = GeneratorConfig(seed=1, num_arms=100, num_states=10,
                               num_actions=4, num_constraints=1, family=TYPED,
                               num_types=10, cost_mode=COST_ACTION_ONLY)
SIM = SimConfig(horizon=20_000, replications=4, batch_size=4000, seed=0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def figure1_rows():
    return sweep(FIGURE1, [100, 200, 400, 800], SIM, policies=("id", "erc"))


@pytest.fixture(scope="module")
def typed_rows():
    return sweep(TYPED_SINGLE, [100, 200, 400], SIM, policies=("id", "erc"))


def test_criterion_1_oracle_upper_bound():
    worst = -math.inf
    for seed in range(20):
        instance = tiny_instance(seed=seed, n=2, s=3, a=2, k=1)
        r_star = exact_oracle(instance)
        r_rel = solve_lp(instance).objective
        worst = max(worst, r_star - r_rel)
    _report(1, worst <= 1e-6,
            f"exact optimum vs relaxation bound over 20 instances, "
            f"worst margin {worst:+.3e} (tolerance 1e-6)")


def test_criterion_2_hard_feasibility(figure1_rows):
    total = sum(row["violations"] for row in figure1_rows)
    detail = ", ".join(f"N={r['N']}/{r['policy']}:{r['violations']}"
                       for r in figure1_rows)
    _report(2, total == 0, f"budget violations across the sweep: {detail}")


def test_criterion_3_asymptotic_trend(figure1_rows):
    rows = [r for r in figure1_rows if r["policy"] == "id"]
    rows.sort(key=lambda r: r["N"])
    ratios = [float(r["ratio"]) for r in rows]
    scaled = [float(r["gap_sqrtN"]) for r in rows]
    endpoints = ratios[-1] > ratios[0]
    monotone = all(b >= a - 0.005 for a, b in zip(ratios, ratios[1:]))
    band = max(scaled) <= 3.0 * min(scaled)
    detail = (f"ratios {[round(v, 4) for v in ratios]}, "
              f"gap*sqrtN {[round(v, 4) for v in scaled]} "
              f"(band factor {max(scaled) / min(scaled):.2f})")
    _report(3, endpoints and monotone and band, detail)


def test_criterion_4_erc_comparison(typed_rows):
    by_n = {}
    for row in typed_rows:
        by_n.setdefault(row["N"], {})[row["policy"]] = row["ratio"]
    ok = all(v["id"] >= v["erc"] - 0.02 for v in by_n.values())
    detail = ", ".join(
        f"N={n}: id={v['id']:.4f} erc={v['erc']:.4f}"
        for n, v in sorted(by_n.items()))
    _report(4, ok, detail + " (tolerance 0.02)")


def test_criterion_5_slope_property():
    worst_margin = math.inf
    failures = []
    for seed in range(10):
        cfg = GeneratorConfig(seed=seed, num_arms=200, num_states=10,
                              num_actions=4, num_constraints=4)
        instance = generate(cfg)
        policy = extract_policy(instance, solve_lp(instance))
        result = reassign(instance, policy, seed=seed)
        report = verify_slope(instance, policy, result)
        worst_margin = min(worst_margin, report.margin)
        if not report.holds:
            failures.append((seed, report.worst, report.margin))
    _report(5, not failures,
            f"prefix slope over 10 seeds at N=200, worst slack "
            f"{worst_margin:.4f}; failures: {failures}")


def test_criterion_6_drift_bound():
    cfg = GeneratorConfig(seed=0, num_arms=50, num_states=10, num_actions=4,
                          num_constraints=4)
    instance = generate(cfg)
    policy = extract_policy(instance, solve_lp(instance))
    diag = chain_diagnostics(instance, policy)
    probe = drift_probe(instance, policy, diag, np.arange(50), 1000,
                        np.random.default_rng(0))
    ok = probe.mean + 3 * probe.stderr < probe.bound
    _report(6, ok,
            f"one-step drift mean {probe.mean:.3f} + 3*stderr "
            f"{3 * probe.stderr:.3f} vs bound {probe.bound:.1f}")


def test_criterion_7_h_unit_truths():
    instance = tiny_instance(seed=3, n=25, s=5, a=3, k=2)
    policy = extract_policy(instance, solve_lp(instance))
    diag = chain_diagnostics(instance, policy)
    n, s = instance.num_arms, instance.num_states
    parts = []

    h_mu = subset_h(policy.mu_star, np.arange(n), policy, diag)
    parts.append(("h=0 at stationary rows", h_mu == 0.0))

    rng = np.random.default_rng(0)
    states = rng.integers(0, s, n)
    x = np.zeros((n, s))
    x[np.arange(n), states] = 1.0
    tol = 1e-8
    lipschitz_ok = True
    for _ in range(100):
        size_big = int(rng.integers(1, n + 1))
        big = rng.choice(n, size=size_big, replace=False)
        small = big[:int(rng.integers(0, size_big + 1))]
        gap = abs(subset_h(x, big, policy, diag, tol)
                  - subset_h(x, small, policy, diag, tol))
        if gap > diag.l_h * (len(big) - len(small)) + 2 * tol:
            lipschitz_ok = False
    parts.append(("Lipschitz over 100 nested subsets", lipschitz_ok))

    from wcmdp.lyapunov import (_deviation_series, _tau_window, _terms,
                                _weights_for)
    args = (x - policy.mu_star, policy.induced_P, policy.mu_star,
            _weights_for(policy, np.arange(n)), diag.gamma, 1e-7,
            _tau_window(diag))
    values, used, _ = _deviation_series(*args)
    doubled = max(float(np.abs(per_arm.sum(axis=1)).max())
                  for _, per_arm in itertools.islice(_terms(*args), 2 * used))
    parts.append(("doubled horizon within 1e-7",
                  abs(doubled - values[-1]) <= 1e-7))

    one_arm = lyap_helpers.one_arm_policy(lyap_helpers.IID2,
                                          lyap_helpers.HALF, [1.0, 0.0])
    h_closed = subset_h(np.array([[1.0, 0.0]]), [0], one_arm,
                        lyap_helpers.manual_diag(1.0), tol=1e-9)
    parts.append(("closed-form value 0.5", h_closed == 0.5))

    ok = all(flag for _, flag in parts)
    _report(7, ok, "; ".join(f"{name}: {flag}" for name, flag in parts))


def test_criterion_8_mixing_closed_forms():
    t_iid = mixing_time(lyap_helpers.IID2, lyap_helpers.HALF)
    t_lazy = mixing_time(lyap_helpers.LAZY2, lyap_helpers.HALF)
    t_cycle = mixing_time(lyap_helpers.CYCLE2, lyap_helpers.HALF, t_cap=1000)

    instance = tiny_instance(seed=4, n=10, s=4, a=3, k=2)
    policy = extract_policy(instance, solve_lp(instance))
    diag = chain_diagnostics(instance, policy)
    tau = diag.tau_max
    gamma_ref = math.exp(-1.0 / (2.0 * tau))
    c_tau_ref = 4.0 * math.e / (1.0 - 1.0 / math.sqrt(math.e)) * tau
    ok = (t_iid == 1 and t_lazy == 2 and t_cycle == UNBOUNDED
          and abs(diag.gamma - gamma_ref) <= 1e-12
          and abs(diag.c_tau - c_tau_ref) <= 1e-12)
    _report(8, ok,
            f"tau(iid)={t_iid}, tau(lazy)={t_lazy}, tau(cycle)={t_cycle}; "
            f"|gamma-ref|={abs(diag.gamma - gamma_ref):.1e}, "
            f"|C_tau-ref|={abs(diag.c_tau - c_tau_ref):.1e}")


def test_criterion_9_finite_time_bound(figure1_rows):
    # the short run is the N=200 id row of the sweep: same instance, bundle
    # seed and SIM config
    short = next(r for r in figure1_rows
                 if r["N"] == 200 and r["policy"] == "id")
    instance = generate(dataclasses.replace(FIGURE1, num_arms=200))
    bundle = PolicyBundle.prepare(instance, seed=SIM.seed)
    long = simulate(instance, bundle,
                    dataclasses.replace(SIM, horizon=40_000))
    diff = abs(short["avg_reward"] - long.avg_reward_per_arm)
    combined = math.hypot(short["ci_halfwidth"], long.ci_halfwidth)
    _report(9, diff <= 3 * combined,
            f"|avg(2e4)-avg(4e4)| = {diff:.3e} vs 3*combined CI "
            f"{3 * combined:.3e}")
