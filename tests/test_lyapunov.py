import math

import numpy as np
import pytest

from wcmdp.lp_relax import SingleArmPolicy
from wcmdp.lyapunov import (AssumptionError, C_TAU_COEFF, ChainDiagnostics,
                            UNBOUNDED, build_report, chain_diagnostics,
                            chain_structure, drift_probe, mixing_time,
                            subset_h)
from wcmdp.model import GeneratorConfig, generate
from wcmdp.policies import IdPolicyRunner
from wcmdp.reassign import verify_slope
from wcmdp.simulator import PolicyBundle

from oracles import tiny_instance, zero_cost_copy

IID2 = np.array([[0.5, 0.5], [0.5, 0.5]])
LAZY2 = np.array([[0.75, 0.25], [0.25, 0.75]])
CYCLE2 = np.array([[0.0, 1.0], [1.0, 0.0]])
HALF = np.array([0.5, 0.5])


def manual_diag(tau: float) -> ChainDiagnostics:
    c_tau = C_TAU_COEFF * tau
    return ChainDiagnostics(tau=np.array([tau]), tau_max=tau,
                            gamma=math.exp(-1.0 / (2.0 * tau)), c_tau=c_tau,
                            l_h=2 * c_tau, c_h=2 * c_tau,
                            unichain=np.array([True]),
                            aperiodic=np.array([True]))


def one_arm_policy(P, mu, r_star) -> SingleArmPolicy:
    s = P.shape[0]
    return SingleArmPolicy(pi=np.ones((1, s, 1)),
                           induced_P=np.asarray(P, dtype=float)[None],
                           mu_star=np.asarray(mu, dtype=float)[None],
                           C_star=np.zeros((0, 1)),
                           r_star=np.asarray(r_star, dtype=float)[None],
                           c_star=np.zeros((0, 1, s)))


class TestMixingTime:
    def test_iid_chain_mixes_in_one_step(self):
        assert mixing_time(IID2, HALF) == 1

    def test_lazy_chain_mixes_in_two_steps(self):
        # row distance decays as 0.5^t: 0.5 > 1/e >= 0.25
        assert mixing_time(LAZY2, HALF) == 2

    def test_periodic_cycle_is_unbounded(self):
        assert mixing_time(CYCLE2, HALF, t_cap=500) == UNBOUNDED

    def test_non_stationary_mu_rejected(self):
        with pytest.raises(ValueError, match="stationary"):
            mixing_time(LAZY2, np.array([0.9, 0.1]))


class TestChainStructure:
    def test_strictly_positive_chain(self):
        assert chain_structure(IID2) == (True, True)

    def test_identity_is_not_unichain(self):
        assert chain_structure(np.eye(2))[0] is False

    def test_two_cycle_is_periodic_unichain(self):
        assert chain_structure(CYCLE2) == (True, False)

    def test_transient_state_still_unichain(self):
        P = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert chain_structure(P) == (True, True)

    def test_finite_mixing_time_implies_aperiodic_unichain(self):
        # a second closed class or a period d >= 2 keeps some row of P^t at
        # l1 distance >= 1 from mu, so a finite tau rules both out
        rng = np.random.default_rng(0)
        seen = {}
        for _ in range(1200):
            s = int(rng.integers(1, 6))
            if rng.random() < 0.2:
                # a permutation, often with cycles of length >= 2
                P = np.eye(s)[rng.permutation(s)]
            else:
                support = rng.random((s, s)) < 0.35
                support[np.arange(s), rng.integers(0, s, s)] = True
                P = np.where(support, rng.random((s, s)) + 0.05, 0.0)
                P /= P.sum(axis=1, keepdims=True)
            mu = _some_stationary_distribution(P)
            structure = chain_structure(P)
            tau = mixing_time(P, mu, t_cap=300)
            seen[structure] = seen.get(structure, 0) + 1
            if tau != UNBOUNDED:
                assert structure == (True, True), P
        # periodic and multichain chains were drawn, not just healthy ones
        assert seen.get((True, False), 0) >= 50
        assert seen.get((False, True), 0) + seen.get((False, False), 0) >= 50
        assert seen.get((True, True), 0) >= 300


def _some_stationary_distribution(P: np.ndarray) -> np.ndarray:
    """A stationary distribution of P: the limit of the uniform start under
    the lazy chain (I + P) / 2, which has the same stationary set as P and
    no period; repeated squaring reaches it."""
    Q = (np.eye(P.shape[0]) + P) / 2.0
    for _ in range(60):
        Q = Q @ Q
        Q /= Q.sum(axis=1, keepdims=True)
    mu = Q.mean(axis=0)
    mu /= mu.sum()
    assert np.abs(mu @ P - mu).sum() <= 1e-9
    return mu


class TestChainDiagnostics:
    def test_constants_match_closed_forms(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        tau = diag.tau_max
        assert diag.gamma == pytest.approx(math.exp(-1.0 / (2 * tau)), abs=1e-12)
        coeff = 4 * math.e / (1 - 1 / math.sqrt(math.e))
        assert diag.c_tau == pytest.approx(coeff * tau, abs=1e-12)
        assert diag.l_h == pytest.approx(
            2 * max(instance.c_max, instance.r_max) * diag.c_tau, abs=1e-9)
        assert diag.c_h == pytest.approx(
            2 * (instance.num_constraints * instance.c_max + instance.r_max)
            * diag.c_tau, abs=1e-9)
        assert 0 < diag.gamma < 1
        assert np.all(diag.unichain) and np.all(diag.aperiodic)

    def test_periodic_arm_raises_by_default(self):
        # chain_diagnostics reports the arm; every evaluator of h raises
        # AssumptionError naming it
        policy = one_arm_policy(CYCLE2, HALF, [1.0, 0.0])
        instance = tiny_instance(seed=0, n=1, s=2, a=1, k=1)
        diag = chain_diagnostics(instance, policy, t_cap=200)
        assert not diag.ok
        x = np.array([[1.0, 0.0]])
        reassignment = PolicyBundle.prepare(instance, seed=0).reassignment
        calls = [
            lambda: subset_h(x, [0], policy, diag),
            lambda: build_report(instance, x, policy, reassignment, diag),
            lambda: drift_probe(instance, policy, diag, [0], 5,
                                np.random.default_rng(0)),
        ]
        for call in calls:
            with pytest.raises(AssumptionError, match=r"arm\(s\) \[0\]"):
                call()

    def test_assumption_report_flags_arms(self):
        policy = one_arm_policy(CYCLE2, HALF, [1.0, 0.0])
        instance = tiny_instance(seed=0, n=1, s=2, a=1, k=1)
        diag = chain_diagnostics(instance, policy, t_cap=200)
        assert not diag.ok
        assert diag.failing_arms() == [0]
        assert diag.tau.tolist() == [UNBOUNDED]
        assert (diag.unichain.tolist(), diag.aperiodic.tolist()) == (
            [True], [False])
        assert diag.tau_max is None and diag.gamma is None
        assert diag.l_h is None and diag.c_h is None

    def test_slow_mixing_arm_fails_without_structure_defect(self, small_solved):
        # t_cap=0: no arm mixes, yet every induced chain is an aperiodic
        # unichain, so the structure check clears them all
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy, t_cap=0)
        assert not diag.ok
        assert diag.failing_arms() == list(range(instance.num_arms))
        assert np.all(diag.unichain) and np.all(diag.aperiodic)
        assert diag.to_json_dict()["L_h"] is None
        with pytest.raises(AssumptionError, match="do not mix"):
            subset_h(policy.mu_star, [0], policy, diag)

    def test_structure_runs_only_on_arms_that_do_not_mix(self, small_solved,
                                                          monkeypatch):
        import wcmdp.lyapunov as lyapunov
        instance, _, policy = small_solved
        calls = []
        monkeypatch.setattr(lyapunov, "chain_structure",
                            lambda P: calls.append(P) or (True, True))
        assert chain_diagnostics(instance, policy).ok
        assert calls == []


class TestSubsetH:
    def test_closed_form_half(self):
        policy = one_arm_policy(IID2, HALF, [1.0, 0.0])
        diag = manual_diag(1.0)
        h = subset_h(np.array([[1.0, 0.0]]), [0], policy, diag, tol=1e-9)
        assert h == pytest.approx(0.5, abs=0)

    def test_zero_at_stationary_rows(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        h = subset_h(policy.mu_star, np.arange(instance.num_arms), policy, diag)
        assert h == 0.0

    def test_empty_subset_is_zero(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        assert subset_h(policy.mu_star, [], policy, diag) == 0.0

    def test_reward_term_lower_bound(self, small_solved):
        # the horizon-0 reward projection participates in the max
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        rng = np.random.default_rng(0)
        states = rng.integers(0, instance.num_states, instance.num_arms)
        x = np.zeros((instance.num_arms, instance.num_states))
        x[np.arange(instance.num_arms), states] = 1.0
        d = np.arange(10)
        lower = abs(float(np.einsum("ns,ns->", x[d] - policy.mu_star[d],
                                    policy.r_star[d])))
        assert subset_h(x, d, policy, diag) >= lower - 1e-12

    def test_lipschitz_over_nested_subsets(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        n = instance.num_arms
        rng = np.random.default_rng(1)
        states = rng.integers(0, instance.num_states, n)
        x = np.zeros((n, instance.num_states))
        x[np.arange(n), states] = 1.0
        tol = 1e-8
        for _ in range(100):
            size_big = int(rng.integers(1, n + 1))
            big = rng.choice(n, size=size_big, replace=False)
            small = big[:int(rng.integers(0, size_big + 1))]
            gap = abs(subset_h(x, big, policy, diag, tol)
                      - subset_h(x, small, policy, diag, tol))
            assert gap <= diag.l_h * (len(big) - len(small)) + 2 * tol

    def test_truncation_certificate_vs_doubled_horizon(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        rng = np.random.default_rng(2)
        states = rng.integers(0, instance.num_states, instance.num_arms)
        x = np.zeros((instance.num_arms, instance.num_states))
        x[np.arange(instance.num_arms), states] = 1.0
        d = np.arange(instance.num_arms)
        from wcmdp.lyapunov import _deviation_series, _weights_for, _tau_window
        value, used, _ = _deviation_series(
            x - policy.mu_star, policy.induced_P, policy.mu_star,
            _weights_for(policy, d), diag.gamma, 1e-7, _tau_window(diag))
        doubled, _, _ = _deviation_series(
            x - policy.mu_star, policy.induced_P, policy.mu_star,
            _weights_for(policy, d), diag.gamma, 1e-7, _tau_window(diag),
            min_terms=2 * used)
        assert doubled == pytest.approx(value, abs=1e-7)

    def test_non_distribution_rows_rejected(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        bad = np.full((instance.num_arms, instance.num_states), 0.9)
        with pytest.raises(ValueError, match="probability"):
            subset_h(bad, [0, 1], policy, diag)


def _random_state(instance, seed):
    rng = np.random.default_rng(seed)
    states = rng.integers(0, instance.num_states, instance.num_arms)
    x = np.zeros((instance.num_arms, instance.num_states))
    x[np.arange(instance.num_arms), states] = 1.0
    return x


class TestHIdAndFocus:
    def test_empty_prefix_is_zero_and_envelope_monotone(self, small_solved):
        instance, _, policy = small_solved
        bundle = PolicyBundle.prepare(instance, seed=0)
        diag = chain_diagnostics(instance, policy)
        report = build_report(instance, _random_state(instance, 3),
                              bundle.policy, bundle.reassignment, diag)
        n = instance.num_arms
        assert report.h_id.shape == (n + 1,)
        assert report.h_id[0] == 0.0
        assert np.all(np.diff(report.h_id) >= 0)
        assert report.h_id[n] == report.prefix_h.max()

    def test_h_id_lipschitz_in_m(self, small_solved):
        instance, _, policy = small_solved
        bundle = PolicyBundle.prepare(instance, seed=0)
        diag = chain_diagnostics(instance, policy)
        n = instance.num_arms
        report = build_report(instance, _random_state(instance, 4),
                              bundle.policy, bundle.reassignment, diag,
                              tol=1e-8)
        env = report.h_id
        rng = np.random.default_rng(4)
        for _ in range(50):
            m1, m2 = sorted(rng.integers(0, n + 1, size=2))
            assert abs(env[m2] - env[m1]) <= diag.l_h * (m2 - m1) + 1e-6

    def test_focus_is_full_when_budgets_never_bind(self):
        instance = zero_cost_copy(tiny_instance(seed=5, n=20, s=3, a=2, k=1))
        bundle = PolicyBundle.prepare(instance, seed=0)
        diag = chain_diagnostics(instance, bundle.policy)
        report = build_report(instance, bundle.policy.mu_star, bundle.policy,
                              bundle.reassignment, diag)
        assert report.focus_m == 1.0

    def test_focus_guard_on_large_systems(self):
        big = generate(GeneratorConfig(seed=0, num_arms=201, num_states=2,
                                       num_actions=2, num_constraints=1))
        bundle = PolicyBundle.prepare(big, seed=0)
        big_diag = chain_diagnostics(big, bundle.policy)
        x = bundle.policy.mu_star
        with pytest.raises(ValueError, match="guard"):
            build_report(big, x, bundle.policy, bundle.reassignment, big_diag)
        # allow_large overrides
        build_report(big, x, bundle.policy, bundle.reassignment, big_diag,
                     allow_large=True)

    def test_build_report_consistency(self, small_solved):
        instance, _, policy = small_solved
        bundle = PolicyBundle.prepare(instance, seed=0)
        diag = chain_diagnostics(instance, policy)
        x = _random_state(instance, 7)
        report = build_report(instance, x, bundle.policy,
                              bundle.reassignment, diag)
        n = instance.num_arms
        assert report.prefix_h.shape == (n + 1,)
        assert report.prefix_h[0] == 0.0
        # prefix values are h over the first arms in reassigned order
        order = bundle.reassignment.order()
        for size in (1, n // 2, n):
            assert report.prefix_h[size] == pytest.approx(
                subset_h(x, order[:size], policy, diag), abs=2e-6)
        assert np.array_equal(report.h_id,
                              np.maximum.accumulate(report.prefix_h))
        assert report.tail_bound <= 1e-6

    def test_lyapunov_value_assembles_from_parts(self, small_solved):
        instance, _, policy = small_solved
        bundle = PolicyBundle.prepare(instance, seed=0)
        diag = chain_diagnostics(instance, policy)
        report = build_report(instance, _random_state(instance, 6),
                              bundle.policy, bundle.reassignment, diag)
        m = report.focus_m
        n = instance.num_arms
        assert m >= 0.0
        assert report.v == pytest.approx(
            report.h_id[round(m * n)] + diag.l_h * n * (1 - m), rel=1e-12)


class TestDriftProbe:
    def test_empty_set_is_identically_zero(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        probe = drift_probe(instance, policy, diag, [], 10,
                            np.random.default_rng(0))
        assert probe.mean == 0.0 and probe.stderr == 0.0

    def test_absorbing_chain_has_zero_drift_statistic(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0]])
        policy = one_arm_policy(P, np.array([1.0, 0.0]), [0.7, 0.2])
        instance = tiny_instance(seed=0, n=1, s=2, a=1, k=1)
        diag = ChainDiagnostics(tau=np.array([1.0]), tau_max=1.0,
                                gamma=math.exp(-0.5), c_tau=C_TAU_COEFF,
                                l_h=1.0, c_h=1.0, unichain=np.array([True]),
                                aperiodic=np.array([True]))
        probe = drift_probe(instance, policy, diag, [0], 20,
                            np.random.default_rng(1))
        assert probe.mean == 0.0

    def test_mean_within_loose_bound(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        probe = drift_probe(instance, policy, diag,
                            np.arange(instance.num_arms), 100,
                            np.random.default_rng(2))
        assert probe.mean + 3 * probe.stderr < probe.bound
        assert probe.within_bound


@pytest.fixture(scope="module")
def trajectories():
    data = {}
    for n in (50, 100, 200):
        cfg = GeneratorConfig(seed=0, num_arms=n, num_states=4,
                              num_actions=3, num_constraints=2)
        instance = generate(cfg)
        bundle = PolicyBundle.prepare(instance, seed=0)
        diag = chain_diagnostics(instance, bundle.policy)
        # the simulator's replication 0 of seed 0, observed at times 100..140
        runner = IdPolicyRunner(instance, bundle.policy, bundle.reassignment)
        rng = np.random.default_rng([0, 0])
        states = rng.integers(0, instance.num_states, size=n)
        ms, n_star = [], []
        for t in range(141):
            if t >= 100:
                x = np.zeros((n, instance.num_states))
                x[runner.order, states] = 1.0
                report = build_report(instance, x, bundle.policy,
                                      bundle.reassignment, diag)
                ms.append((report.focus_m,
                           report.h_id[round(report.focus_m * n)]))
            outcome = runner.step(states, rng.random(n))
            n_star.append(outcome.conforming_count)
            states = runner.transition_step(states, outcome.actions,
                                            rng.random(n))
        data[n] = (instance, bundle, diag, ms, n_star[100:140])
    return data


class TestFocusSetDiagnostics:
    """Scaling-shape checks of the focus-set statistics along trajectories."""

    def test_majority_conformity_scaling(self, trajectories):
        scaled = {}
        raw = {}
        for n, (_, _, _, ms, n_star) in trajectories.items():
            gaps = [(max(n * m - ns, 0.0)) / n
                    for (m, _), ns in zip(ms[:-1], n_star)]
            raw[n] = float(np.mean(gaps))
            scaled[n] = raw[n] * math.sqrt(n)
        # sqrt(N)-scaled statistic stays in a fixed band across sizes
        assert max(scaled.values()) <= 3.0 * max(min(scaled.values()), 0.2)
        # unscaled gap shrinks with N (cross-check of the conformity trend)
        assert raw[200] <= raw[50] + 0.02

    def test_almost_non_shrinking_scaling(self, trajectories):
        scaled = {}
        for n, (_, _, _, ms, _) in trajectories.items():
            drops = [max(m1 - m2, 0.0)
                     for (m1, _), (m2, _) in zip(ms[:-1], ms[1:])]
            scaled[n] = float(np.mean(drops)) * math.sqrt(n)
        assert max(scaled.values()) <= 3.0 * max(min(scaled.values()), 0.2)

    def test_sufficient_coverage_pointwise(self, trajectories):
        for n, (instance, bundle, diag, ms, _) in trajectories.items():
            res = bundle.reassignment
            if res.fallback or not verify_slope(instance, bundle.policy,
                                                res).holds:
                continue
            k_cov = (res.eta_c + res.m_c + diag.l_h) / res.eta_c
            for m, h_at_m in ms:
                rhs = h_at_m / (res.eta_c * n) + k_cov / n \
                    + 2e-6 / (res.eta_c * n) + 1e-12
                assert 1.0 - m <= rhs
