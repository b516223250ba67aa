import dataclasses
import hashlib

import numpy as np
import pytest

from wcmdp import lp_relax
from wcmdp.lp_relax import (LpSolution, LpSolveError, build_lp,
                            check_solution, extract_policy, solve_lp)
from wcmdp.model import (COST_ACTION_ONLY, TYPED, GeneratorConfig,
                         WcmdpInstance, distinct_arms, generate, validate)

from oracles import (rvi_average_reward, single_state_arm, solve_lp_highs,
                     stack_arms, take_arms, tiny_instance, zero_cost_copy)


class TestBuildLp:
    def test_counts_small(self):
        instance = tiny_instance(seed=0, n=2, s=2, a=2, k=1)
        prob = build_lp(instance)
        assert prob.num_variables == 8
        assert prob.num_rows == 1 + 4 + 2

    def test_counts_large(self):
        instance = tiny_instance(seed=0, n=100, s=10, a=4, k=4)
        prob = build_lp(instance)
        assert prob.num_variables == 4000
        assert prob.num_rows == 4 + 1000 + 100

    def test_budget_row_coefficients_are_cost_over_n(self):
        instance = tiny_instance(seed=1, n=3, s=2, a=2, k=2)
        prob = build_lp(instance)
        dense = prob.budget.toarray()
        for i in range(3):
            block = dense[:, i * 4:(i + 1) * 4]
            assert np.allclose(block, instance.cost[i].reshape(2, 4) / 3.0)
        assert np.array_equal(prob.alpha, instance.alpha)


class TestSolveLp:
    def test_zero_costs_match_per_arm_value_iteration(self):
        instance = zero_cost_copy(tiny_instance(seed=7, n=4, s=3, a=2, k=1))
        solution = solve_lp(instance)
        expected = np.mean([rvi_average_reward(p, r) for p, r
                            in zip(instance.transition, instance.reward)])
        assert solution.objective == pytest.approx(expected, abs=1e-7)

    def test_hand_solved_one_variable_lp(self):
        arm = single_state_arm([0.0, 0.7], [[0.0, 1.0]])
        instance = stack_arms([arm], [0.5])
        solution = solve_lp(instance)
        assert solution.objective == pytest.approx(0.35, abs=1e-9)
        assert solution.y[0, 0, 1] == pytest.approx(0.5, abs=1e-9)

    def test_homogeneous_matches_single_arm_lp(self):
        cfg = GeneratorConfig(seed=4, num_arms=6, num_states=3, num_actions=2,
                              num_constraints=1, family="typed", num_types=1)
        instance = generate(cfg)
        single = take_arms(instance, [0])
        many = solve_lp(instance)
        one = solve_lp(single)
        assert many.objective == pytest.approx(one.objective, abs=1e-7)

    def test_duplicating_arms_leaves_objective_unchanged(self):
        instance = tiny_instance(seed=11, n=5, s=3, a=2, k=2)
        doubled = take_arms(instance, np.tile(np.arange(5), 2))
        r1 = solve_lp(instance).objective
        r2 = solve_lp(doubled).objective
        assert r2 == pytest.approx(r1, abs=1e-7)

    def test_solution_invariants(self, small_solved):
        instance, solution, _ = small_solved
        assert np.all(solution.y >= 0.0)
        assert np.max(np.abs(solution.y.sum(axis=(1, 2)) - 1.0)) <= 1e-8
        report = check_solution(instance, solution)
        assert report.ok, report
        assert solution.duals.shape == (instance.num_constraints,)

    def test_solution_json_schema(self, small_solved):
        _, solution, _ = small_solved
        d = solution.to_json_dict()
        assert set(d) == {"R_rel", "y", "duals"}


def multichain_arm(num_states: int):
    """Action 0 splits the states into two closed classes, so the
    all-action-0 policy is multichain; action 1 mixes uniformly and costs 1.
    With two states action 0 is absorbing and the evaluation system is
    exactly singular; with four it is singular only up to rounding."""
    if num_states == 2:
        stay = np.eye(2)
    else:   # classes {0, 2} and {1, 3}
        weights = np.array([[2.0, 0.0, 5.0, 0.0], [0.0, 1.0, 0.0, 2.0],
                            [4.0, 0.0, 3.0, 0.0], [0.0, 3.0, 0.0, 4.0]])
        stay = weights / weights.sum(axis=1, keepdims=True)
    transition = np.stack([stay, np.full((num_states, num_states),
                                         1.0 / num_states)], axis=1)
    reward = np.column_stack([np.linspace(0.1, 0.6, num_states),
                              np.full(num_states, 0.9)])
    cost = np.zeros((1, num_states, 2))
    cost[0, :, 1] = 1.0
    return transition, reward, cost


@pytest.mark.pins
class TestColumnGenerationAgainstHighs:
    """solve_lp against the monolithic HiGHS LP over all N*S*A variables."""

    @pytest.mark.parametrize("family", ["fully-het", "typed"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("a", [1, 2, 4])
    def test_matches_monolithic_lp(self, family, k, a):
        for seed in range(3):
            typed = dict(family=TYPED, num_types=3) if family == "typed" else {}
            instance = tiny_instance(seed=seed, n=12, s=3, a=a, k=k, **typed)
            problem = build_lp(instance)
            solution = solve_lp(problem)
            reference = solve_lp_highs(problem)
            assert solution.objective == pytest.approx(reference.objective,
                                                       abs=1e-9)
            # the fully heterogeneous relaxation has a unique optimum; the
            # typed one is degenerate and may end at another optimal vertex
            if family == "fully-het":
                assert np.max(np.abs(solution.y - reference.y)) <= 1e-9
            assert check_solution(instance, solution).ok
            assert np.all(solution.duals <= 0.0)
            assert np.allclose(solution.duals, reference.duals, atol=1e-9)

    def test_matches_monolithic_lp_at_benchmark_scale(self):
        # large enough that a master stopping inside HiGHS's tolerances (as
        # 1/N-scaled rows do) misses the 1e-9 gates
        instance = tiny_instance(seed=0, n=200, s=10, a=4, k=4)
        problem = build_lp(instance)
        solution = solve_lp(problem)
        reference = solve_lp_highs(problem)
        assert solution.objective == pytest.approx(reference.objective,
                                                   abs=1e-9)
        assert np.max(np.abs(solution.y - reference.y)) <= 1e-9
        assert np.all(solution.duals <= 0.0)
        assert np.allclose(solution.duals, reference.duals, atol=1e-9)
        assert check_solution(instance, solution).ok
        assert solution.stats.lagrangian_gap <= lp_relax.GAP_RTOL

    @pytest.mark.parametrize("family", ["fully-het", "typed"])
    def test_warm_started_solve_matches_monolithic_lp(self, family):
        # N = WARM_STRIDE * WARM_MIN_ARMS: the smallest warm-started size
        typed = dict(family=TYPED, num_types=4) if family == "typed" else {}
        for seed in range(3):
            instance = tiny_instance(seed=seed, n=512, s=3, a=2, k=2, **typed)
            problem = build_lp(instance)
            solution = solve_lp(problem)
            reference = solve_lp_highs(problem)
            assert solution.stats.warm_start is not None
            assert solution.objective == pytest.approx(reference.objective,
                                                       abs=1e-9)
            if family == "fully-het":
                assert np.max(np.abs(solution.y - reference.y)) <= 1e-9
            assert np.allclose(solution.duals, reference.duals, atol=1e-9)
            assert check_solution(instance, solution).ok
            assert solution.stats.lagrangian_gap <= lp_relax.GAP_RTOL
        below = take_arms(instance, np.arange(511))
        assert solve_lp(below).stats.warm_start is None

    @pytest.mark.parametrize("scale", [0.0, 100.0])
    def test_poor_warm_duals_are_only_a_hint(self, monkeypatch, scale):
        instance = tiny_instance(seed=1, n=512, s=3, a=2, k=2)
        problem = build_lp(instance)
        reference = solve_lp_highs(problem)
        solve = lp_relax._column_generation

        def poor_hint(transition, reward, cost, alpha):
            solution = solve(transition, reward, cost, alpha)
            if transition.shape[0] == instance.num_arms:
                return solution
            return dataclasses.replace(solution, duals=scale * reference.duals)

        monkeypatch.setattr(lp_relax, "_column_generation", poor_hint)
        solution = solve_lp(problem)
        assert solution.stats.warm_start is not None
        assert solution.objective == pytest.approx(reference.objective,
                                                   abs=1e-9)
        assert check_solution(instance, solution).ok

    def test_warm_started_fallback_counts_every_copy(self):
        # 64 copies of the eight arms; every subsampled arm is a copy of
        # the multichain prototype
        instance = take_arms(repeated_multichain_instance(),
                             np.tile(np.arange(8), 64))
        problem = build_lp(instance)
        solution = solve_lp(problem)
        assert solution.stats.warm_start is not None
        assert solution.stats.fallback_arms == 3 * 64
        assert solution.objective == pytest.approx(
            solve_lp_highs(problem).objective, abs=1e-9)
        assert check_solution(instance, solution).ok

    def test_stats_certify_the_solve(self, small_solved):
        _, solution, _ = small_solved
        stats = solution.stats
        assert stats.master_rounds >= 1
        assert stats.columns >= 30
        assert stats.pricing_iterations >= stats.master_rounds
        assert stats.fallback_arms == 0
        assert 0.0 <= stats.lagrangian_gap <= 1e-9

    @pytest.mark.parametrize("num_states", [2, 4])
    def test_multichain_arm_is_priced_by_fallback_lp(self, num_states):
        base = tiny_instance(seed=5, n=3, s=num_states, a=2, k=1)
        arms = [multichain_arm(num_states)] + list(zip(
            base.transition, base.reward, base.cost))
        instance = stack_arms(arms, [0.3])
        problem = build_lp(instance)
        solution = solve_lp(problem)
        assert solution.stats.fallback_arms == 1
        assert solution.objective == pytest.approx(
            solve_lp_highs(problem).objective, abs=1e-9)
        assert check_solution(instance, solution).ok

    def test_non_optimal_master_raises(self, monkeypatch):
        # HiGHS itself stops the master: every run after the first, which
        # presolve solves outright, ends at a simplex iteration limit of 0
        init = lp_relax._Master.__init__

        def stopping_init(master, *args):
            init(master, *args)
            master._highs.setOptionValue("simplex_iteration_limit", 0)

        monkeypatch.setattr(lp_relax._Master, "__init__", stopping_init)
        instance = tiny_instance(seed=0, n=20, s=4, a=3, k=2)
        with pytest.raises(LpSolveError, match="Iteration limit reached"):
            solve_lp(instance)

    @pytest.mark.parametrize("cap", ["MAX_MASTER_ROUNDS", "MAX_POLICY_SWEEPS"])
    def test_iteration_cap_raises(self, monkeypatch, cap):
        monkeypatch.setattr(lp_relax, cap, 1)
        instance = tiny_instance(seed=0, n=20, s=4, a=3, k=2)
        with pytest.raises(LpSolveError, match="did not converge"):
            solve_lp(instance)


class TestHowardEvaluationCache:
    """The pricing object inverts each distinct arm's evaluation system once
    when it is built, and after that only the systems of the arms whose
    policy a sweep changed."""

    def test_each_sweep_inverts_exactly_the_arms_it_changed(self,
                                                             monkeypatch):
        transition = tiny_instance(seed=3, n=12, s=5, a=3, k=1).transition
        n, S, A = transition.shape[:3]
        price = np.random.default_rng(0).normal(size=(n, S, A))
        inv = np.linalg.inv
        inverted = []   # (matrices, every arm's policy when they were passed)
        howard = None

        def recording_inv(m):
            policy = (np.zeros((n, S), dtype=np.intp) if howard is None
                      else howard.policy.copy())
            inverted.append((m.copy(), policy))
            return inv(m)

        def systems(arms, policy):
            m = np.eye(S) - transition[arms[:, None], np.arange(S),
                                       policy[arms]]
            m[:, :, 0] = 1.0
            return m

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        howard = lp_relax._Howard(transition)
        [(matrices, policy)] = inverted
        np.testing.assert_array_equal(matrices, systems(np.arange(n), policy))

        mu, bound, multichain, sweeps = howard.howard(price)
        assert not multichain.any()
        # every sweep but the last changed some policies and inverted them
        assert len(inverted) == sweeps >= 3
        sizes = []
        for (_, before), (matrices, after) in zip(inverted, inverted[1:]):
            changed = np.flatnonzero((after != before).any(axis=1))
            np.testing.assert_array_equal(matrices, systems(changed, after))
            sizes.append(changed.size)
        assert 0 < min(sizes) < n
        np.testing.assert_array_equal(inverted[-1][1], howard.policy)

        inverted.clear()
        *again, sweeps = howard.howard(price)
        assert sweeps == 1 and inverted == []
        for first, second in zip((mu, bound, multichain), again):
            np.testing.assert_array_equal(first, second)


def repeated_multichain_instance():
    """K=2 instance of eight arms from three prototypes, interleaved: three
    copies of a four-state multichain arm (priced by the fallback LP) and
    three and two copies of two random arms."""
    transition, reward, cost = multichain_arm(4)
    multichain = (transition, reward, np.concatenate([cost, 0.5 * cost]))
    base = tiny_instance(seed=5, n=2, s=4, a=2, k=2)
    first, second = (tuple(table[i] for table in (base.transition, base.reward,
                                                  base.cost)) for i in (0, 1))
    return stack_arms([multichain, first, multichain, second, first,
                       multichain, second, first], [0.3, 0.2])


def structured_instance(seed: int) -> WcmdpInstance:
    """One seeded instance of sparse, badly scaled arms: N in [2, 8], S in
    [2, 5], A in [2, 3], K in [1, 3]; every transition row supported on one
    or two states with uniform or random weights; rewards U[0,1) times one
    scale 10^U(-3, 6); costs of actions >= 1 on the 0.1 grid {0, ..., 1.0},
    action 0 free; alpha on the 0.05 grid {0.05, ..., 1.0}."""
    rng = np.random.default_rng(seed)
    n, s, a, k = (int(rng.integers(lo, hi + 1))
                  for lo, hi in ((2, 8), (2, 5), (2, 3), (1, 3)))
    transition = np.zeros((n, s, a, s))
    for row in transition.reshape(-1, s):
        support = rng.choice(s, size=int(rng.integers(1, 3)), replace=False)
        weights = (np.ones(support.size) if rng.random() < 0.5
                   else rng.random(support.size) + 0.05)
        row[support] = weights / weights.sum()
    reward = rng.random((n, s, a)) * 10.0 ** rng.uniform(-3.0, 6.0)
    cost = np.zeros((n, k, s, a))
    cost[..., 1:] = rng.integers(0, 11, size=(n, k, s, a - 1)) / 10.0
    alpha = rng.integers(1, 21, size=k) * 0.05
    return WcmdpInstance(transition=transition, reward=reward, cost=cost,
                         alpha=alpha)


@pytest.mark.pins
class TestStructuredFamily:
    """solve_lp on 300 seeded structured instances against the monolithic
    HiGHS LP. Sparse rows make many policies multichain, so the family keeps
    the per-arm fallback LP exercised."""

    SEEDS = range(300)
    RTOL = 1e-9
    MIN_FALLBACK_INSTANCES = 100

    @pytest.fixture(scope="class")
    def solved(self):
        out = []
        for seed in self.SEEDS:
            instance = structured_instance(seed)
            problem = build_lp(instance)
            out.append((seed, instance, solve_lp(problem),
                        solve_lp_highs(problem)))
        return out

    def test_instances_are_valid(self, solved):
        assert [seed for seed, instance, _, _ in solved
                if validate(instance)] == []

    def test_matches_monolithic_lp_and_passes_audit(self, solved):
        bad = [seed for seed, instance, solution, reference in solved
               if not (abs(solution.objective - reference.objective)
                       <= self.RTOL * abs(reference.objective)
                       and check_solution(instance, solution).ok)]
        assert bad == []

    def test_fallback_path_is_exercised(self, solved):
        count = sum(solution.stats.fallback_arms > 0
                    for _, _, solution, _ in solved)
        assert count >= self.MIN_FALLBACK_INSTANCES


@pytest.mark.pins
class TestSolvePins:
    """solve_lp bit for bit: y, objective, duals and the SolveStats counters
    on a typed, a repeated-multichain and a fully heterogeneous instance. A
    digest moves only when the solve's arithmetic or its column order
    changes."""

    STATS = ("master_rounds", "columns", "pricing_iterations", "fallback_arms",
             "lagrangian_gap", "simplex_iterations")
    DIGESTS = {
        "typed-k1-n200":
            "0bf98f6fa45f6cf59bdf28237d20f8e75c1dd982d3466dce4d8a3959f7f4a412",
        "multichain-k2":
            "9bc1c5f4af5f537ebc9e1f01433d8406568fac5eaf4b397ee97e34c8d5ca1fa9",
        "het-k4-n60":
            "6448c330d6fe8ef92d4ec0752b7c5eb8db53b0470d91b422edc2acc4d4d65a1c",
    }

    @staticmethod
    def instance(case: str):
        if case == "typed-k1-n200":
            return generate(GeneratorConfig(
                seed=1, num_arms=200, num_states=10, num_actions=4,
                num_constraints=1, family=TYPED, num_types=10,
                cost_mode=COST_ACTION_ONLY))
        if case == "multichain-k2":
            return repeated_multichain_instance()
        return tiny_instance(seed=2, n=60, s=10, a=4, k=4)

    # solve_lp reads the same four arrays from the instance and from
    # build_lp's problem; the build_lp cases are named by the case alone
    @pytest.mark.parametrize("case, source", [
        *(pytest.param(c, "build_lp", id=c) for c in sorted(DIGESTS)),
        *(pytest.param(c, "instance", id=f"{c}-instance")
          for c in sorted(DIGESTS))])
    def test_solution_is_pinned(self, case, source):
        instance = self.instance(case)
        solution = solve_lp(build_lp(instance) if source == "build_lp"
                            else instance)
        digest = hashlib.sha256()
        digest.update(solution.y.tobytes())
        digest.update(float(solution.objective).hex().encode())
        digest.update(solution.duals.tobytes())
        for name in self.STATS:
            digest.update(repr(getattr(solution.stats, name)).encode())
        assert digest.hexdigest() == self.DIGESTS[case]

    def test_fallback_counts_every_copy(self):
        solution = solve_lp(repeated_multichain_instance())
        assert solution.stats.fallback_arms == 3


@pytest.mark.pins
class TestDistinctArms:
    """Repeated arms are priced once; arms that differ in any bit are not."""

    @staticmethod
    def tables(instance):
        return instance.transition, instance.reward, instance.cost

    def assert_rows_of(self, distinct, instance, arms):
        """The distinct tables hold the given arms' rows, byte for byte."""
        for table, full in zip(distinct, self.tables(instance)):
            assert table.tobytes() == full[arms].tobytes()

    def test_typed_copies_map_to_their_prototype(self):
        instance = tiny_instance(seed=3, n=40, s=3, a=2, k=2, family=TYPED,
                                 num_types=4)
        distinct, inverse = distinct_arms(*self.tables(instance))
        self.assert_rows_of(distinct, instance, [0, 10, 20, 30])
        assert np.array_equal(inverse, np.repeat(np.arange(4), 10))
        for table, full in zip(distinct, self.tables(instance)):
            assert table[inverse].tobytes() == full.tobytes()
        assert solve_lp(instance).stats.distinct_arms == 4

    def test_heterogeneous_arms_are_all_distinct(self):
        instance = tiny_instance(seed=3, n=30, s=3, a=2, k=2)
        distinct, inverse = distinct_arms(*self.tables(instance))
        assert [len(table) for table in distinct] == [30, 30, 30]
        assert np.array_equal(inverse, np.arange(30))
        assert solve_lp(instance).stats.distinct_arms == 30

    def test_all_distinct_returns_the_input_arrays(self):
        instance = tiny_instance(seed=3, n=30, s=3, a=2, k=2)
        distinct, _ = distinct_arms(*self.tables(instance))
        assert all(table is full for table, full
                   in zip(distinct, self.tables(instance)))

    def test_interleaved_copies_keep_first_occurrence_order(self):
        instance = repeated_multichain_instance()
        distinct, inverse = distinct_arms(*self.tables(instance))
        self.assert_rows_of(distinct, instance, [0, 1, 3])
        assert inverse.tolist() == [0, 1, 0, 2, 1, 0, 2, 1]

    @pytest.mark.parametrize("change", ["transition-ulp", "reward-ulp",
                                        "cost-negative-zero"])
    def test_copy_differing_in_one_bit_stays_distinct(self, change):
        base = tiny_instance(seed=6, n=12, s=3, a=2, k=1, family=TYPED,
                             num_types=3)
        transition, reward, cost = (table.copy() for table in
                                    self.tables(base))
        if change == "transition-ulp":
            transition[1, 0, 1, 0] = np.nextafter(transition[1, 0, 1, 0], 1.0)
        elif change == "reward-ulp":
            reward[5, 2, 1] = np.nextafter(reward[5, 2, 1], np.inf)
        else:
            cost[9, 0, 1, 0] = -0.0
        instance = dataclasses.replace(base, transition=transition,
                                       reward=reward, cost=cost)
        distinct, _ = distinct_arms(*self.tables(instance))
        # the changed arm is stored on its own, after the copies before it
        self.assert_rows_of(distinct, instance, {
            "transition-ulp": [0, 1, 4, 8], "reward-ulp": [0, 4, 5, 8],
            "cost-negative-zero": [0, 4, 8, 9]}[change])
        problem = build_lp(instance)
        solution = solve_lp(problem)
        assert solution.stats.distinct_arms == 4
        assert solution.objective == pytest.approx(
            solve_lp_highs(problem).objective, abs=1e-9)
        assert check_solution(instance, solution).ok


class TestExtractPolicy:
    def test_normalization_arithmetic(self):
        # frequencies 0.2/0.1 on one state normalize to 2/3 and 1/3
        arm_inst = tiny_instance(seed=2, n=1, s=2, a=2, k=1)
        y = np.array([[[0.2, 0.1], [0.35, 0.35]]])
        solution = LpSolution(y=y, objective=0.0, duals=np.zeros(1))
        policy = extract_policy(arm_inst, solution)
        assert policy.pi[0, 0] == pytest.approx([2 / 3, 1 / 3])
        assert policy.pi[0, 1] == pytest.approx([0.5, 0.5])

    def test_zero_marginal_state_gets_uniform_policy(self):
        arm_inst = tiny_instance(seed=2, n=1, s=2, a=4, k=1)
        y = np.zeros((1, 2, 4))
        y[0, 0] = [0.5, 0.5, 0.0, 0.0]
        solution = LpSolution(y=y, objective=0.0, duals=np.zeros(1))
        policy = extract_policy(arm_inst, solution)
        assert policy.pi[0, 1] == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_zero_costs_give_zero_expected_costs(self):
        instance = zero_cost_copy(tiny_instance(seed=8, n=3, s=3, a=2, k=2))
        solution = solve_lp(instance)
        policy = extract_policy(instance, solution)
        assert np.all(policy.C_star == 0.0)

    def test_derived_chain_quantities(self, small_solved):
        instance, solution, policy = small_solved
        n = instance.num_arms
        # pi rows are distributions
        assert np.allclose(policy.pi.sum(axis=2), 1.0, atol=1e-12)
        # induced chain is the policy-weighted kernel
        i = 7
        manual = np.einsum("sat,sa->st", instance.transition[i], policy.pi[i])
        assert np.allclose(policy.induced_P[i], manual)
        # stationary distributions match the y marginals and are invariant
        marg = solution.y.sum(axis=2)
        marg /= marg.sum(axis=1, keepdims=True)
        assert np.allclose(policy.mu_star, marg, atol=1e-12)
        drift = max(np.abs(policy.mu_star[i] @ policy.induced_P[i]
                           - policy.mu_star[i]).sum() for i in range(n))
        assert drift <= 1e-7
        # expected costs/rewards match their defining sums
        k0 = np.einsum("nsa,nsa->n", solution.y, instance.cost[:, 0])
        assert np.allclose(policy.C_star[0], k0, atol=1e-12)
        r_manual = np.einsum("sa,sa->s", policy.pi[i], instance.reward[i])
        assert np.allclose(policy.r_star[i], r_manual)


class TestCheckSolution:
    def test_perturbed_solution_reports_linear_residual(self, small_solved):
        instance, solution, _ = small_solved
        y = solution.y.copy()
        y[0, 0, 0] += 1e-3
        bad = LpSolution(y=y, objective=solution.objective,
                         duals=solution.duals)
        report = check_solution(instance, bad)
        assert report.max_normalization_residual == pytest.approx(1e-3, abs=1e-10)
        assert 1e-4 <= report.max_balance_residual <= 1e-3 + 1e-9
        assert not report.ok

    def test_exact_toy_has_zero_residuals_at_tol_zero(self):
        arm = single_state_arm([0.0, 0.7], [[0.0, 1.0]])
        instance = stack_arms([arm], [0.5])
        y = np.array([[[0.5, 0.5]]])
        solution = LpSolution(y=y, objective=0.35, duals=np.zeros(1))
        report = check_solution(instance, solution, tol=0.0)
        assert report.max_normalization_residual == 0.0
        assert report.max_balance_residual == 0.0
        assert report.max_budget_excess <= 0.0
        assert report.max_negativity == 0.0
        assert report.ok
