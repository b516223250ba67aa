import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcmdp.lp_relax import SingleArmPolicy, build_lp, extract_policy, solve_lp
from wcmdp.model import (COST_ACTION_ONLY, TYPED, GeneratorConfig,
                         generate)
from wcmdp.reassign import (ReassignmentResult, active_constraints, reassign,
                            remaining_budget_curve, verify_slope)

from oracles import tiny_instance, zero_cost_copy


def manual_policy(instance, C_star):
    """Policy stub carrying only the expected costs the reassignment reads."""
    n, s, a = instance.num_arms, instance.num_states, instance.num_actions
    return SingleArmPolicy(pi=np.full((n, s, a), 1.0 / a),
                           induced_P=np.stack([np.full((s, s), 1.0 / s)] * n),
                           mu_star=np.full((n, s), 1.0 / s),
                           C_star=np.asarray(C_star, dtype=np.float64),
                           r_star=np.zeros((n, s)),
                           c_star=np.zeros((instance.num_constraints, n, s)))


def dense_slope(instance, policy, result):
    """Reference slope check over the full (n1, n2) table, O(N^2) memory:
    (margin, worst) as verify_slope reports them."""
    curve = remaining_budget_curve(instance, policy, result)
    margin, worst = math.inf, (1, 1, 0)
    idx = np.arange(instance.num_arms + 1, dtype=np.float64)
    for k in range(instance.num_constraints):
        f = curve[:, k] + result.eta_c * idx
        diff = f[1:, None] - f[None, 1:] + result.m_c
        mask = np.tril(np.ones_like(diff, dtype=bool)).T  # n1 <= n2
        masked = np.where(mask, diff, math.inf)
        pos = np.unravel_index(np.argmin(masked), masked.shape)
        if masked[pos] < margin:
            margin = float(masked[pos])
            worst = (int(pos[0]) + 1, int(pos[1]) + 1, k)
    return margin, worst


def in_id_order(instance, active_set):
    """The identity reassignment with the given active set; its slope
    constants are placeholders that remaining_budget_curve does not read."""
    return ReassignmentResult(new_id=np.arange(instance.num_arms),
                              active_set=tuple(active_set), c_thr=0.0,
                              group_size=None, eta_c=0.0, m_c=0.0, rng_seed=0)


def solved_policy(instance):
    return extract_policy(instance, solve_lp(build_lp(instance)))


class TestActiveConstraints:
    def test_direct_threshold(self):
        instance = tiny_instance(seed=0, n=4, s=2, a=2, k=1)
        instance = dataclasses.replace(instance, alpha=np.array([0.4]))
        policy = manual_policy(instance, [[0.3, 0.3, 0.3, 0.3]])
        assert active_constraints(instance, policy) == (0,)

    def test_zero_costs_give_empty_set(self):
        instance = tiny_instance(seed=1, n=4, s=2, a=2, k=2)
        policy = manual_policy(instance, np.zeros((2, 4)))
        assert active_constraints(instance, policy) == ()

    def test_boundary_is_inclusive(self):
        instance = tiny_instance(seed=2, n=4, s=2, a=2, k=1)
        instance = dataclasses.replace(instance, alpha=np.array([0.4]))
        # total exactly alpha*N/2 = 0.8
        policy = manual_policy(instance, [[0.2, 0.2, 0.2, 0.2]])
        assert active_constraints(instance, policy) == (0,)


class TestRemainingBudget:
    def test_empty_prefix_active(self):
        instance = tiny_instance(seed=0, n=5, s=2, a=2, k=1)
        policy = manual_policy(instance, [[0.1] * 5])
        curve = remaining_budget_curve(instance, policy,
                                       in_id_order(instance, (0,)))
        assert curve[0, 0] == pytest.approx(instance.alpha[0] * 5)

    def test_inactive_full_prefix_with_zero_costs(self):
        instance = tiny_instance(seed=0, n=6, s=2, a=2, k=1)
        policy = manual_policy(instance, np.zeros((1, 6)))
        curve = remaining_budget_curve(instance, policy,
                                       in_id_order(instance, ()))
        assert curve[6, 0] == pytest.approx(2.0 / 3.0 * instance.alpha[0] * 6)

    def test_nonnegative_on_feasible_policies(self, small_solved):
        instance, _, policy = small_solved
        act = active_constraints(instance, policy)
        curve = remaining_budget_curve(instance, policy,
                                       in_id_order(instance, act))
        assert np.min(curve) >= -1e-9

    def test_nonincreasing_for_active_types(self, small_solved):
        instance, _, policy = small_solved
        act = active_constraints(instance, policy)
        curve = remaining_budget_curve(instance, policy,
                                       in_id_order(instance, act))
        for k in act:
            assert np.all(np.diff(curve[:, k]) <= 1e-12)


class TestReassign:
    def test_zero_costs_give_identity(self):
        instance = zero_cost_copy(tiny_instance(seed=3, n=8, s=3, a=2, k=2))
        policy = solved_policy(instance)
        result = reassign(instance, policy, seed=0)
        assert result.identity
        assert np.array_equal(result.new_id, np.arange(8))
        assert result.group_size is None

    def test_constants_when_active(self, small_solved):
        instance, _, policy = small_solved
        result = reassign(instance, policy, seed=0)
        alpha_min = instance.alpha.min()
        assert result.c_thr == pytest.approx(alpha_min / 4)
        assert result.m_c == pytest.approx(2 * result.c_thr)
        if result.active_set:
            b = int(np.ceil((instance.c_max - result.c_thr)
                            * instance.num_constraints
                            / (alpha_min / 2 - result.c_thr)))
            assert result.group_size == b
            assert result.eta_c == pytest.approx(
                min(alpha_min / 3, result.c_thr / b))

    def test_small_n_below_group_size_still_bijects(self):
        instance = tiny_instance(seed=4, n=5, s=3, a=3, k=2)
        policy = solved_policy(instance)
        result = reassign(instance, policy, seed=0)
        assert sorted(result.new_id.tolist()) == list(range(5))
        if result.active_set and result.group_size > 5:
            assert not result.fallback  # no group was ever served

    def test_determinism(self, small_solved):
        instance, _, policy = small_solved
        a = reassign(instance, policy, seed=9)
        b = reassign(instance, policy, seed=9)
        assert np.array_equal(a.new_id, b.new_id)

    def test_bijection_over_random_instances(self):
        for seed in range(100):
            instance = tiny_instance(seed=seed, n=12, s=3, a=2, k=2)
            policy = solved_policy(instance)
            result = reassign(instance, policy, seed=seed)
            assert sorted(result.new_id.tolist()) == list(range(12))

    def test_each_full_group_carries_threshold_cost(self):
        instance = tiny_instance(seed=0, n=120, s=4, a=3, k=2)
        policy = solved_policy(instance)
        result = reassign(instance, policy, seed=1)
        if not result.active_set or result.fallback:
            pytest.skip("no active constraint for this draw")
        b = result.group_size
        ordered_C = policy.C_star[:, result.order()]
        for g in range(instance.num_arms // b):
            for k in result.active_set:
                assert ordered_C[k, g * b:(g + 1) * b].sum() >= result.c_thr


class TestVerifySlope:
    def test_equal_prefixes_always_hold(self, small_solved):
        instance, _, policy = small_solved
        result = reassign(instance, policy, seed=0)
        report = verify_slope(instance, policy, result)
        # n1 == n2 contributes slack exactly m_c > 0
        assert report.margin <= result.m_c + 1e-12

    def test_inactive_only_margin_at_least_m_c(self):
        instance = zero_cost_copy(tiny_instance(seed=5, n=20, s=3, a=2, k=1))
        policy = solved_policy(instance)
        result = reassign(instance, policy, seed=0)
        assert result.identity
        report = verify_slope(instance, policy, result)
        assert report.holds
        assert report.margin >= result.m_c - 1e-12

    def test_holds_after_reassignment_at_n200(self):
        instance = generate(GeneratorConfig(seed=0, num_arms=200,
                                            num_states=10, num_actions=4,
                                            num_constraints=4))
        policy = solved_policy(instance)
        result = reassign(instance, policy, seed=0)
        assert not result.fallback
        report = verify_slope(instance, policy, result)
        assert report.holds, report

    def test_fallback_flag_blocks_verification(self, small_solved):
        instance, _, policy = small_solved
        result = reassign(instance, policy, seed=0)
        flagged = ReassignmentResult(
            new_id=result.new_id, active_set=result.active_set,
            c_thr=result.c_thr, group_size=result.group_size,
            eta_c=result.eta_c, m_c=result.m_c, rng_seed=result.rng_seed,
            fallback=True)
        with pytest.raises(ValueError, match="fallback"):
            verify_slope(instance, policy, flagged)


    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_reference_on_random_curves(self, seed):
        rng = np.random.default_rng(seed)
        instance = tiny_instance(seed=seed, n=60, s=2, a=2, k=3)
        policy = manual_policy(instance, rng.random((3, 60)) * 0.3)
        result = ReassignmentResult(
            new_id=rng.permutation(60), active_set=(0, 2), c_thr=0.01,
            group_size=4, eta_c=rng.random() * 0.05, m_c=0.02, rng_seed=0)
        report = verify_slope(instance, policy, result)
        assert (report.margin, report.worst) == dense_slope(instance, policy,
                                                            result)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_reference_with_forced_ties(self, seed):
        # costs and slopes on a 1/4 grid make many (n1, n2, k) slacks equal
        rng = np.random.default_rng(seed)
        instance = dataclasses.replace(
            tiny_instance(seed=seed, n=40, s=2, a=2, k=2),
            alpha=np.array([0.5, 0.25]))
        policy = manual_policy(instance, rng.integers(0, 3, (2, 40)) * 0.25)
        result = ReassignmentResult(
            new_id=np.arange(40), active_set=(0,) if seed % 2 else (),
            c_thr=0.0625, group_size=None, eta_c=0.25 * (seed % 3),
            m_c=0.125, rng_seed=0)
        report = verify_slope(instance, policy, result)
        assert (report.margin, report.worst) == dense_slope(instance, policy,
                                                            result)



@pytest.mark.pins
class TestSlopePins:
    """verify_slope bit for bit on two reassigned instances, neither in
    identity order nor on the fallback. The real constants put the minimum
    at (1, 1, 0), where the slack is m_c whatever the order; the steeper
    slopes eta_c = e with m_c = 0 make the report depend on the order (at
    het N=200, e = 0.05, the worst pair is (1, 2, 3), and (17, 18, 3) in
    identity order)."""

    CASES = {
        "het-n200": GeneratorConfig(seed=0, num_arms=200, num_states=10,
                                    num_actions=4, num_constraints=4),
        # the typed-k1-sweep benchmark instance at its largest size
        "typed-k1-n400": GeneratorConfig(
            seed=1, num_arms=400, num_states=10, num_actions=4,
            num_constraints=1, family=TYPED, num_types=10,
            cost_mode=COST_ACTION_ONLY),
    }
    DIGESTS = {
        ("het-n200", None):
            "54d67c7405601c7864dfd70b432ee00370b0f367151c1d9a96d20e1acb05d2a9",
        ("het-n200", 0.05):
            "a36305e831dd64b07bd45accc44de7c3e14072725545963fa2a44741e53dee6e",
        ("het-n200", 0.5):
            "c9be9c507b16b4dbd84fec12e6dd16a16ef81e275eae59fb51da0cfa420949f4",
        ("typed-k1-n400", None):
            "193d88d6ba9ba38ec01e04c23463f68df2f37c21c061014b7fd4e487b2b78e26",
        ("typed-k1-n400", 0.05):
            "dc80d3ae6b7307ebe04b9edad8bdec80a9a94e6148bc8f323767be6788f5f61d",
        ("typed-k1-n400", 0.5):
            "2d8c4a3498e7e74446cebeb8a5439644258c45c688bab8da637f53f4879ca87a",
    }

    @pytest.fixture(scope="class")
    def pin_cases(self):
        cases = {}
        for name, cfg in self.CASES.items():
            instance = generate(cfg)
            policy = solved_policy(instance)
            result = reassign(instance, policy, seed=0)
            assert not result.fallback
            assert not np.array_equal(result.new_id, np.arange(cfg.num_arms))
            cases[name] = (instance, policy, result)
        return cases

    @pytest.mark.parametrize("case, eta", sorted(
        DIGESTS, key=lambda key: (key[0], key[1] or 0.0)))
    def test_report_is_pinned(self, pin_cases, case, eta):
        instance, policy, result = pin_cases[case]
        if eta is not None:
            result = dataclasses.replace(result, eta_c=eta, m_c=0.0)
        report = verify_slope(instance, policy, result)
        key = repr((report.margin.hex(), report.worst, report.holds))
        assert hashlib.sha256(key.encode()).hexdigest() == self.DIGESTS[
            (case, eta)]

@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_reassignment_is_always_a_bijection(seed):
    instance = tiny_instance(seed=seed, n=9, s=3, a=2, k=2)
    policy = solved_policy(instance)
    result = reassign(instance, policy, seed=seed)
    assert sorted(result.new_id.tolist()) == list(range(9))
    assert np.array_equal(result.new_id[result.order()], np.arange(9))
