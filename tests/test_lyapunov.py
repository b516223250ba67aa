import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from wcmdp.lp_relax import (SingleArmPolicy, build_lp, extract_policy,
                            solve_lp)
from wcmdp.lyapunov import (AssumptionError, C_TAU_COEFF, ChainDiagnostics,
                            UNBOUNDED, build_report, chain_diagnostics,
                            chain_structure, drift_probe, mixing_time,
                            subset_h)
from wcmdp.model import (COST_ACTION_ONLY, TYPED, GeneratorConfig,
                         distinct_arms, generate)
from wcmdp.policies import IdPolicyRunner
from wcmdp.reassign import verify_slope
from wcmdp.simulator import PolicyBundle

from oracles import (drift_probe_reference, slow_mixing_instance,
                     tiny_instance, zero_cost_copy)

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


@pytest.mark.pins
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


@pytest.mark.pins
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

    def test_tau_matches_arm_by_arm_on_randomised_copies(self):
        # the degenerate typed LP gives some copies of a prototype another
        # induced chain than their siblings
        instance = generate(GeneratorConfig(
            seed=1, num_arms=20, num_states=4, num_actions=3,
            num_constraints=1, family=TYPED, num_types=4,
            cost_mode=COST_ACTION_ONLY))
        policy = extract_policy(instance, solve_lp(build_lp(instance)))
        assert distinct_arms(policy.induced_P)[0].size > 4
        diag = chain_diagnostics(instance, policy)
        assert diag.tau.tolist() == [
            mixing_time(P, mu) for P, mu in zip(policy.induced_P,
                                                policy.mu_star)]

    def test_structure_runs_once_per_distinct_failing_chain(self,
                                                           monkeypatch):
        import wcmdp.lyapunov as lyapunov
        chains = [CYCLE2, np.eye(2), IID2, CYCLE2, np.eye(2), LAZY2, CYCLE2]
        policy = SingleArmPolicy(
            pi=np.ones((7, 2, 1)), induced_P=np.stack(chains),
            mu_star=np.tile(HALF, (7, 1)), C_star=np.zeros((1, 7)),
            r_star=np.zeros((7, 2)), c_star=np.zeros((1, 7, 2)))
        instance = tiny_instance(seed=0, n=7, s=2, a=1, k=1)
        calls = []
        structure = lyapunov.chain_structure
        monkeypatch.setattr(lyapunov, "chain_structure",
                            lambda P: calls.append(P) or structure(P))
        diag = chain_diagnostics(instance, policy, t_cap=200)
        assert len(calls) == 2
        assert diag.tau.tolist() == [mixing_time(P, HALF, 200) for P in chains]
        assert diag.failing_arms() == [0, 1, 3, 4, 6]
        flags = [chain_structure(P) if math.isinf(mixing_time(P, HALF, 200))
                 else (True, True) for P in chains]
        assert list(zip(diag.unichain.tolist(), diag.aperiodic.tolist())) == flags

    def test_copies_of_a_chain_are_keyed_on_their_own_mu(self):
        # two arms with one induced chain but different mu are measured
        # apart, so the second arm's non-stationary mu is caught
        policy = SingleArmPolicy(
            pi=np.ones((2, 2, 1)), induced_P=np.stack([IID2, IID2]),
            mu_star=np.array([HALF, [0.3, 0.7]]), C_star=np.zeros((1, 2)),
            r_star=np.zeros((2, 2)), c_star=np.zeros((1, 2, 2)))
        instance = tiny_instance(seed=0, n=2, s=2, a=1, k=1)
        with pytest.raises(ValueError, match="not stationary"):
            chain_diagnostics(instance, policy)

    def test_structure_runs_only_on_arms_that_do_not_mix(self, small_solved,
                                                          monkeypatch):
        import wcmdp.lyapunov as lyapunov
        instance, _, policy = small_solved
        calls = []
        monkeypatch.setattr(lyapunov, "chain_structure",
                            lambda P: calls.append(P) or (True, True))
        assert chain_diagnostics(instance, policy).ok
        assert calls == []


@pytest.mark.pins
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
        from wcmdp.lyapunov import (_deviation_series, _terms, _weights_for,
                                    _tau_window)
        args = (x - policy.mu_star, policy.induced_P, policy.mu_star,
                _weights_for(policy, d), diag.gamma, 1e-7, _tau_window(diag))
        values, used, _ = _deviation_series(*args)
        doubled = max(float(np.abs(per_arm.sum(axis=1)).max())
                      for _, per_arm in itertools.islice(_terms(*args),
                                                         2 * used))
        assert doubled == pytest.approx(values[-1], abs=1e-7)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_non_positive_tol_is_named(self, small_solved, tol):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        x = _random_state(instance, 0)
        with pytest.raises(ValueError, match="tol must be positive"):
            subset_h(x, [0, 1], policy, diag, tol=tol)

    def test_non_distribution_rows_rejected(self, small_solved):
        instance, _, policy = small_solved
        diag = chain_diagnostics(instance, policy)
        bad = np.full((instance.num_arms, instance.num_states), 0.9)
        with pytest.raises(ValueError, match="probability"):
            subset_h(bad, [0, 1], policy, diag)


class TestArmSetChecks:
    """subset_h and drift_probe take the arm set D through one check."""

    @pytest.fixture(scope="class")
    def six_arms(self):
        instance = tiny_instance(seed=4, n=6, s=3, a=2, k=1)
        policy = PolicyBundle.prepare(instance, seed=0).policy
        return instance, policy, chain_diagnostics(instance, policy)

    def _calls(self, six_arms, D):
        instance, policy, diag = six_arms
        x = _random_state(instance, 0)
        return [lambda: subset_h(x, D, policy, diag),
                lambda: drift_probe(instance, policy, diag, D, 3,
                                    np.random.default_rng(0))]

    @pytest.mark.parametrize("D, message", [
        ([0, 0, 1, 1], r"entry 0 appears more than once"),
        ([2, 5, 2], r"entry 2 appears more than once"),
        ([-1], r"entry -1 is negative"),
        ([0.5], r"entry 0\.5 is not an integer"),
        ([1, float("nan")], r"entry nan is not an integer"),
        ([6], r"entry 6 is out of range for 6 arms"),
        ([[0, 1]], r"flat sequence"),
        ([True, False], r"flat sequence"),
    ])
    def test_bad_entry_is_named(self, six_arms, D, message):
        for call in self._calls(six_arms, D):
            with pytest.raises(ValueError, match=message):
                call()

    def test_integral_floats_and_arrays_are_indices(self, six_arms):
        instance, policy, diag = six_arms
        x = _random_state(instance, 1)
        h = subset_h(x, [3, 0], policy, diag)
        assert subset_h(x, [3.0, 0.0], policy, diag) == h
        assert subset_h(x, np.array([3, 0], dtype=np.uint8), policy, diag) == h

    def test_negative_num_samples_is_named(self, six_arms):
        instance, policy, diag = six_arms
        with pytest.raises(ValueError, match="num_samples must be >= 0, got -1"):
            drift_probe(instance, policy, diag, [0, 1], -1,
                        np.random.default_rng(0))


def _random_state(instance, seed):
    rng = np.random.default_rng(seed)
    states = rng.integers(0, instance.num_states, instance.num_arms)
    x = np.zeros((instance.num_arms, instance.num_states))
    x[np.arange(instance.num_arms), states] = 1.0
    return x


@pytest.mark.pins
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


@pytest.mark.pins
class TestSeriesPins:
    """subset_h and build_report bit for bit on seeded K=2 and K=4
    instances, at one-hot and at Dirichlet states. A digest moves only when
    the series arithmetic or its summation order changes."""

    DIGESTS = {
        ("k2", "one-hot"):
            "692ba8e1e62260b2ead8f7d0aacfa4b4662f92938f0dd0b6a0741809706ea98b",
        ("k2", "dirichlet"):
            "60d3cd5b9bb5062c70883d11aa440633c67b05682948eb2235502bf9e7a5d684",
        ("k4", "one-hot"):
            "6f49a1382ae36eeb18173b5db81472fd17f7eff28dcd398da01bc40d59a0968f",
        ("k4", "dirichlet"):
            "554423c14f5f2cbf1d0796428b6995170880219c31b0521fcf6590b730f64bc4",
    }

    @pytest.fixture(scope="class")
    def pin_cases(self):
        cases = {}
        for name, k in (("k2", 2), ("k4", 4)):
            instance = generate(GeneratorConfig(
                seed=k, num_arms=40, num_states=5, num_actions=3,
                num_constraints=k))
            bundle = PolicyBundle.prepare(instance, seed=0)
            cases[name] = (instance, bundle,
                           chain_diagnostics(instance, bundle.policy))
        return cases

    @pytest.mark.parametrize("case, state", sorted(DIGESTS))
    def test_outputs_are_pinned(self, pin_cases, case, state):
        instance, bundle, diag = pin_cases[case]
        n, s = instance.num_arms, instance.num_states
        rng = np.random.default_rng(11)
        x = (_random_state(instance, 11) if state == "one-hot"
             else rng.dirichlet(np.ones(s), size=n))
        digest = hashlib.sha256()
        for D in (np.arange(n), rng.permutation(n)[:n // 2], [3]):
            digest.update(subset_h(x, D, bundle.policy, diag).hex().encode())
        report = build_report(instance, x, bundle.policy,
                              bundle.reassignment, diag)
        for values in (report.prefix_h, report.h_id):
            digest.update(np.asarray(values, dtype="<f8").tobytes())
        digest.update(repr((report.focus_m.hex(), report.v.hex(),
                            report.truncation_level,
                            report.tail_bound.hex())).encode())
        assert digest.hexdigest() == self.DIGESTS[(case, state)]

    def test_k1_and_k4_sum_the_arms_in_one_order(self, pin_cases):
        # both policies hold the same first cost row, the K=4 one beside
        # three zero rows, the K=1 one laid out as extract_policy lays out
        # K=1; h is the same maximum over the same values, so only the
        # order in which the arms are summed could tell them apart
        instance, bundle, diag = pin_cases["k4"]
        policy = bundle.policy
        first_row = np.zeros_like(policy.c_star)
        first_row[0] = policy.c_star[0]
        k4 = dataclasses.replace(policy, c_star=first_row)
        k1 = dataclasses.replace(
            policy, c_star=np.ascontiguousarray(policy.c_star[:1]),
            C_star=policy.C_star[:1])
        arms = np.arange(instance.num_arms)
        for seed in range(5):
            x = _random_state(instance, seed)
            assert subset_h(x, arms, k1, diag) == subset_h(x, arms, k4, diag)
        probes = [drift_probe(instance, p, diag, arms, 40,
                              np.random.default_rng(5)) for p in (k1, k4)]
        assert probes[0] == probes[1]


@pytest.mark.pins
class TestSlowMixing:
    """tau = 500: the series needs about 30 tau terms, past any fixed cap
    of 10^4 terms."""

    def test_series_returns(self):
        instance = slow_mixing_instance()
        bundle = PolicyBundle.prepare(instance, seed=0)
        diag = chain_diagnostics(instance, bundle.policy)
        assert diag.tau_max == 500
        x = _random_state(instance, 0)
        h = subset_h(x, np.arange(instance.num_arms), bundle.policy, diag)
        report = build_report(instance, x, bundle.policy,
                              bundle.reassignment, diag)
        assert report.truncation_level > 10_000
        assert report.tail_bound <= 1e-6
        assert report.prefix_h[-1] == pytest.approx(h, abs=2e-6)


@pytest.mark.pins
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

    @pytest.mark.parametrize("case, num_samples", [
        ("het", 200), ("typed", 60), ("slow", 60), ("subset", 60),
        ("het", 0), ("het", 1)])
    def test_matches_sequential_reference(self, probe_cases, case,
                                          num_samples):
        instance, policy, diag, D = probe_cases[case]
        rng, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
        probe = drift_probe(instance, policy, diag, D, num_samples, rng)
        ref = drift_probe_reference(instance, policy, diag, D, num_samples,
                                    rng_ref)
        assert probe.mean == ref.mean
        assert probe.stderr == ref.stderr
        assert probe.bound == ref.bound
        assert probe.num_samples == ref.num_samples == num_samples
        # both drew the same uniforms, no more and no fewer
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_slow_case_stops_states_at_different_terms(self, probe_cases):
        from wcmdp.lyapunov import _deviation_series, _tau_window, _weights_for
        instance, policy, diag, D = probe_cases["slow"]
        assert diag.tau_max >= 5
        used = set()
        for seed in range(20):
            x = _random_state(instance, seed)
            _, terms, _ = _deviation_series(
                x - policy.mu_star, policy.induced_P, policy.mu_star,
                _weights_for(policy, D), diag.gamma, 1e-6, _tau_window(diag))
            used.add(terms)
        assert len(used) > 1


def _solved(cfg: GeneratorConfig):
    instance = generate(cfg)
    return instance, extract_policy(instance, solve_lp(build_lp(instance)))


@pytest.fixture(scope="module")
def probe_cases(small_solved):
    """(instance, policy, diag, D) per drift-probe case: fully heterogeneous
    N=200, S=10, K=4; typed with K=1; a lazy copy of small_solved whose
    chains mix in >= 5 steps; and a shuffled proper subset of the first."""
    het, het_policy = _solved(GeneratorConfig(
        seed=0, num_arms=200, num_states=10, num_actions=4, num_constraints=4))
    typed, typed_policy = _solved(GeneratorConfig(
        seed=2, num_arms=80, num_states=5, num_actions=3, num_constraints=1,
        family=TYPED, num_types=8))
    # (1 - eps) I + eps P keeps mu stationary and slows the mixing by ~1/eps
    slow, small_policy = small_solved[0], small_solved[2]
    eye = np.eye(slow.num_states)
    slow_policy = dataclasses.replace(
        small_policy, induced_P=0.9 * eye + 0.1 * small_policy.induced_P)
    subset = np.random.default_rng(3).permutation(het.num_arms)[:70]
    return {
        "het": (het, het_policy, chain_diagnostics(het, het_policy),
                np.arange(het.num_arms)),
        "typed": (typed, typed_policy, chain_diagnostics(typed, typed_policy),
                  np.arange(typed.num_arms)),
        "slow": (slow, slow_policy, chain_diagnostics(slow, slow_policy),
                 np.arange(slow.num_arms)),
        "subset": (het, het_policy, chain_diagnostics(het, het_policy),
                   subset),
    }


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
