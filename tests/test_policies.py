import dataclasses
import math

import numpy as np
import pytest

from wcmdp.lp_relax import SingleArmPolicy, extract_policy, solve_lp
from wcmdp.model import WcmdpInstance
from wcmdp.policies import (ErcPolicyRunner, IdPolicyRunner, OracleSizeError,
                            _prefix_fold, _RunnerBase, exact_oracle,
                            sample_from_cdf)
from wcmdp.reassign import ReassignmentResult, reassign

from oracles import (ReferenceRunner, erc_rejections_reference,
                     rvi_average_reward, single_state_arm, stack_arms,
                     tiny_instance, zero_cost_copy)


def det_policy(instance, chosen_action):
    """Deterministic single-armed policies picking one action per arm."""
    n, s, a = instance.num_arms, instance.num_states, instance.num_actions
    pi = np.zeros((n, s, a))
    for i, act in enumerate(chosen_action):
        pi[i, :, act] = 1.0
    return policy_from_pi(instance, pi)


def policy_from_pi(instance, pi):
    """Single-armed policies with the given (N, S, A) action probabilities
    and a uniform mu_star."""
    n, s = instance.num_arms, instance.num_states
    induced = np.einsum("nsat,nsa->nst", instance.transition, pi)
    c_star = np.einsum("nsa,nksa->kns", pi, instance.cost)
    r_star = np.einsum("nsa,nsa->ns", pi, instance.reward)
    mu = np.full((n, s), 1.0 / s)
    return SingleArmPolicy(pi=pi, induced_P=induced, mu_star=mu,
                           C_star=c_star.sum(axis=2) / s, r_star=r_star,
                           c_star=c_star)


def identity_reassignment(n):
    return ReassignmentResult(new_id=np.arange(n), active_set=(),
                              c_thr=0.0125, group_size=None, eta_c=0.05 / 3,
                              m_c=0.025, rng_seed=0)


def two_arm_instance(costs, alpha, rewards=(1.0, 1.0)):
    arms = [single_state_arm([0.0, rewards[0]], [[0.0, costs[0]]]),
            single_state_arm([0.0, rewards[1]], [[0.0, costs[1]]])]
    return stack_arms(arms, [alpha])


class TestIdPolicyStep:
    def test_zero_costs_everyone_conforms(self):
        instance = zero_cost_copy(tiny_instance(seed=0, n=6, s=3, a=2, k=1))
        policy = extract_policy(instance, solve_lp(instance))
        runner = IdPolicyRunner(instance, policy, identity_reassignment(6))
        outcome = runner.step(np.zeros(6, dtype=int),
                              np.random.default_rng(0).random(6))
        assert outcome.conforming_count == 6
        assert np.array_equal(outcome.actions, outcome.ideal_actions)

    def test_prefix_fits_budget(self):
        instance = two_arm_instance(costs=(0.5, 0.0), alpha=0.4)
        policy = det_policy(instance, [1, 1])
        runner = IdPolicyRunner(instance, policy, identity_reassignment(2))
        outcome = runner.step(np.array([0, 0]),
                              np.random.default_rng(0).random(2))
        assert outcome.conforming_count == 2
        assert outcome.actions.tolist() == [1, 1]
        assert outcome.step_costs[0] == pytest.approx(0.5)

    def test_blocked_arm_cuts_off_everyone_behind_it(self):
        # arm 1's free ideal action is also dropped once arm 0 overflows
        instance = two_arm_instance(costs=(0.5, 0.0), alpha=0.2)
        policy = det_policy(instance, [1, 1])
        runner = IdPolicyRunner(instance, policy, identity_reassignment(2))
        outcome = runner.step(np.array([0, 0]),
                              np.random.default_rng(0).random(2))
        assert outcome.conforming_count == 0
        assert outcome.actions.tolist() == [0, 0]
        assert outcome.ideal_actions.tolist() == [1, 1]
        assert outcome.step_costs[0] == 0.0
        # an arm behind the cut that draws action 0 plays its ideal action,
        # but the count is the prefix length
        runner = IdPolicyRunner(instance, det_policy(instance, [1, 0]),
                                identity_reassignment(2))
        outcome = runner.step(np.array([0, 0]),
                              np.random.default_rng(0).random(2))
        assert outcome.conforming_count == 0
        assert outcome.actions[1] == outcome.ideal_actions[1] == 0

    def test_conforming_set_is_a_prefix(self, small_solved):
        instance, _, policy = small_solved
        result = reassign(instance, policy, seed=0)
        runner = IdPolicyRunner(instance, policy, result)
        rng = np.random.default_rng(3)
        states = rng.integers(0, instance.num_states, size=instance.num_arms)
        for _ in range(50):
            outcome = runner.step(states, rng.random(instance.num_arms))
            n_star = outcome.conforming_count
            assert np.array_equal(outcome.actions[:n_star],
                                  outcome.ideal_actions[:n_star])
            assert np.all(outcome.actions[n_star:] == 0)
            states = runner.transition_step(states, outcome.actions,
                                            rng.random(instance.num_arms))


    @staticmethod
    def _exact_hit_instance(k):
        """Eight one-action-costly arms with dyadic costs and budgets 1, 2,
        0.5, 4 (the first k): state 0 costs a quarter of every budget, state
        1 nothing, state 2 twice every budget, and state 3 half of the last
        budget only, so running sums meet a budget exactly."""
        n, s = 8, 4
        alpha = np.array([0.125, 0.25, 0.0625, 0.5])[:k]
        budget = alpha * n
        per_state = np.stack([budget / 4, 0 * budget, 2 * budget,
                              np.where(np.arange(k) == k - 1, budget / 2, 0)])
        cost = np.zeros((n, k, s, 2))
        cost[:, :, :, 1] = per_state.T
        instance = WcmdpInstance(transition=np.full((n, s, 2, s), 1 / s),
                                 reward=np.ones((n, s, 2)), cost=cost,
                                 alpha=alpha)
        return instance, det_policy(instance, [1] * n)

    @pytest.mark.pins
    @pytest.mark.parametrize("k", [1, 4])
    def test_cut_matches_reference_when_running_costs_meet_the_budget(self, k):
        instance, policy = self._exact_hit_instance(k)
        new_id = np.array([3, 0, 6, 1, 7, 2, 5, 4])
        result = dataclasses.replace(identity_reassignment(8), new_id=new_id)
        runner = IdPolicyRunner(instance, policy, result)
        ref = ReferenceRunner(instance, policy, result.order())
        states = np.array([
            [0, 0, 0, 0, 0, 1, 1, 1],   # meets every budget at arm 3
            [2, 1, 1, 1, 1, 1, 1, 1],   # the first arm overflows
            [1, 1, 1, 1, 1, 1, 1, 1],   # every arm fits
            [0, 1, 1, 0, 1, 0, 1, 0],   # meets every budget at the last arm
            [3, 3, 0, 1, 1, 1, 1, 1],   # meets the last budget at arm 1
        ])
        u = np.stack([np.random.default_rng(r).random(8) for r in range(5)])
        conforming = [4, 0, 8, 8, 2]
        out = runner.step(states, u)
        assert out.conforming_count.tolist() == conforming
        for r in range(len(states)):
            actions, ideal, count, reward, costs = ref.step(
                states[r], np.random.default_rng(r))
            row = runner.step(states[r], u[r])
            for got in (row, dataclasses.replace(
                    out, **{f.name: getattr(out, f.name)[r]
                            for f in dataclasses.fields(out)})):
                assert np.array_equal(got.actions, actions)
                assert np.array_equal(got.ideal_actions, ideal)
                assert got.conforming_count == count
                assert got.step_reward == reward
                assert got.step_costs.tobytes() == costs.tobytes()

    @pytest.mark.parametrize("k", [1, 4])
    def test_admission_leaves_the_gathered_costs_as_they_were(self, k):
        # at K=1 the K-major transpose of the costs is already contiguous
        instance, policy = self._exact_hit_instance(k)
        runner = IdPolicyRunner(instance, policy, identity_reassignment(8))
        rows = runner._state_row + np.arange(8) % 4
        ideal = np.ones(8, dtype=np.intp)
        pairs = rows * runner.num_actions + ideal
        costs = runner.cost.take(pairs, axis=0)
        before = costs.copy()
        runner._admit(rows, pairs, ideal, costs)
        assert np.array_equal(costs, before)


class TestSampleIdeal:
    @pytest.mark.pins
    def test_lookup_matches_inverse_cdf_on_edge_rows(self):
        top = np.nextafter(1.0, 0.0)
        kinds = np.array([
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],  # one-hot
            [1 / 3, 1 / 3, 1 / 3],                              # uniform
            [0.5, 0.25, top - 0.75],                            # ends at top
            [0.0, 1e-300, 1.0],                                 # 1e-300 mass
        ])
        instance = tiny_instance(seed=0, n=6, s=2, a=3, k=1)
        # arm i plays kind i in state 0 and kind (i + 3) % 6 in state 1,
        # so states [0, 0, 0, 1, 1, 1] read one-hot rows only
        pi = np.stack([kinds, np.roll(kinds, -3, axis=0)], axis=1)
        policy = policy_from_pi(instance, pi)
        new_id = np.array([2, 5, 0, 4, 1, 3])
        result = dataclasses.replace(identity_reassignment(6), new_id=new_id)
        uniforms = [0.0, top, 1e-300, 0.25, 1 / 3, 0.5, 0.75, 0.9]
        states = np.array([[0] * 6, [1] * 6, [0, 0, 0, 1, 1, 1],
                           [1, 0, 1, 0, 1, 0]])
        all_states = np.repeat(states, len(uniforms), axis=0)
        u = np.tile(np.repeat(uniforms, 6).reshape(-1, 6), (len(states), 1))
        u[-6:] = np.random.default_rng(0).random((6, 6))  # one per arm
        for runner in (IdPolicyRunner(instance, policy, result),
                       ErcPolicyRunner(instance, policy)):
            assert runner.pi_cdf[4 * 2 + 0, -1] == top
            mixed = runner.det_action < 0
            assert mixed.any() and not mixed.all()
            expected = sample_from_cdf(
                runner.pi_cdf[runner._state_row + all_states], u)
            got = runner.sample_ideal(all_states, u)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            for r in range(len(all_states)):
                assert np.array_equal(
                    runner.sample_ideal(all_states[r], u[r]), expected[r])


class TestErcPolicyStep:
    def test_ties_break_by_arm_id(self):
        # equal indices, budget fits exactly one unit-cost action
        instance = two_arm_instance(costs=(1.0, 1.0), alpha=0.5)
        policy = det_policy(instance, [1, 1])
        outcome = ErcPolicyRunner(instance, policy).step(
            np.array([0, 0]), np.random.default_rng(0).random(2))
        assert outcome.actions.tolist() == [1, 0]
        assert outcome.conforming_count == 1

    def test_ample_budget_everyone_plays_ideal(self):
        instance = two_arm_instance(costs=(0.3, 0.3), alpha=5.0)
        policy = det_policy(instance, [1, 1])
        outcome = ErcPolicyRunner(instance, policy).step(
            np.array([0, 0]), np.random.default_rng(0).random(2))
        assert np.array_equal(outcome.actions, outcome.ideal_actions)

    def test_high_index_arm_wins_the_budget(self):
        instance = two_arm_instance(costs=(1.0, 1.0), alpha=0.5,
                                    rewards=(0.1, 0.9))
        policy = det_policy(instance, [1, 1])
        outcome = ErcPolicyRunner(instance, policy).step(
            np.array([0, 0]), np.random.default_rng(0).random(2))
        assert outcome.actions.tolist() == [0, 1]

    def test_tiny_cost_arm_still_queues_for_the_budget(self):
        # only exactly free draws skip admission; 1e-3 overflows a full budget
        instance = two_arm_instance(costs=(1.0, 1e-3), alpha=0.5,
                                    rewards=(0.9, 0.1))
        policy = det_policy(instance, [1, 1])
        outcome = ErcPolicyRunner(instance, policy).step(
            np.array([0, 0]), np.random.default_rng(0).random(2))
        assert outcome.actions.tolist() == [1, 0]

    def test_rejected_arm_keeps_iteration_going(self):
        # middle arm too expensive; cheaper low-index arm after it still fits
        arms = [single_state_arm([0.0, 0.9], [[0.0, 0.6]]),
                single_state_arm([0.0, 0.5], [[0.0, 0.9]]),
                single_state_arm([0.0, 0.2], [[0.0, 0.5]])]
        instance = stack_arms(arms, [1.2 / 3])
        policy = det_policy(instance, [1, 1, 1])
        outcome = ErcPolicyRunner(instance, policy).step(
            np.array([0, 0, 0]), np.random.default_rng(0).random(3))
        # order by index: arm0 (0.9), arm1 (0.5), arm2 (0.2); budget 1.2
        assert outcome.actions.tolist() == [1, 0, 1]

    @staticmethod
    def _tied_policy(n, s, seed):
        """An instance and a deterministic policy whose index table mixes
        0.0, -0.0 and repeated values."""
        instance = tiny_instance(seed=seed, n=n, s=s, a=2, k=1)
        rng = np.random.default_rng(seed)
        policy = dataclasses.replace(
            det_policy(instance, rng.integers(0, 2, n)),
            r_star=rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(n, s)))
        return instance, policy

    @pytest.mark.parametrize("n, s", [(30, 4), (1700, 10)])
    def test_rank_is_the_stable_argsort_of_the_indices(self, n, s):
        # 1700 arms of 10 states give keys up to 2*N*S = 34000 > 32767
        instance, policy = self._tied_policy(n, s, seed=n)
        runner = ErcPolicyRunner(instance, policy)
        rng = np.random.default_rng(1)
        states = rng.integers(0, s, (20, n))
        index = policy.r_star[np.arange(n), states]
        none_free = np.zeros(states.shape, dtype=bool)
        expected = np.argsort(-index, axis=-1, kind="stable")
        rows = runner._state_row + states
        assert np.array_equal(runner._rank(rows, none_free), expected)
        assert np.array_equal(runner._rank(rows[3], none_free[3]),
                              expected[3])
        # free draws follow every costly one, each part in index order
        free = rng.random(states.shape) < 0.3
        assert np.array_equal(runner._rank(rows, free),
                              np.lexsort((-index, free), axis=-1))

    def test_step_rows_match_reference_with_tied_indices(self):
        instance, policy = self._tied_policy(1700, 10, seed=2)
        instance = dataclasses.replace(instance, alpha=instance.alpha * 0.3)
        ref = ReferenceRunner(instance, policy)
        states = np.random.default_rng(3).integers(0, 10, (2, 1700))
        u = np.stack([np.random.default_rng(r).random(1700) for r in range(2)])
        out = ErcPolicyRunner(instance, policy).step(states, u)
        for r in range(2):
            actions, ideal, conforming, _, costs = ref.step(
                states[r], np.random.default_rng(r))
            assert np.array_equal(out.actions[r], actions)
            assert np.array_equal(out.ideal_actions[r], ideal)
            assert out.conforming_count[r] == conforming < 1700
            assert out.step_costs[r].tobytes() == costs.tobytes()


class TestRunnerTables:
    def test_id_and_erc_hold_the_same_tables_in_arm_order(self,
                                                          small_solved):
        instance, _, policy = small_solved
        result = reassign(instance, policy, seed=0)
        assert not np.array_equal(result.order(),
                                  np.arange(instance.num_arms))
        id_runner = IdPolicyRunner(instance, policy, result)
        erc_runner = ErcPolicyRunner(instance, policy)
        for name in ("pi_cdf", "det_action", "trans_cdf", "cost"):
            assert (getattr(id_runner, name).tobytes()
                    == getattr(erc_runner, name).tobytes())
        for runner in (id_runner, erc_runner):
            assert np.shares_memory(runner.reward, instance.reward)


def one_state_instance(costs, alpha, free=0.0):
    """One one-state arm per cost: action 1 costs it, action 0 costs free."""
    return stack_arms([single_state_arm([0.0, 1.0], [[free, c]])
                       for c in costs], [alpha])


class TestCostGuard:
    @pytest.mark.parametrize("costs, arm", [((0.7, -0.5, 0.3), 1),
                                            ((0.7, 0.3, math.nan), 2)])
    def test_runners_reject_a_negative_or_nan_cost(self, costs, arm):
        # with the -0.5 draw a fold over running costs would keep arm 0,
        # whose cost alone exceeds the budget 0.6
        instance = one_state_instance(costs, alpha=0.2)
        policy = det_policy(instance, [1, 1, 1])
        with pytest.raises(ValueError, match=f"arm {arm} "):
            IdPolicyRunner(instance, policy, identity_reassignment(3))
        with pytest.raises(ValueError, match=f"arm {arm} "):
            ErcPolicyRunner(instance, policy)

    def test_negative_zero_costs_pass(self):
        instance = one_state_instance((0.7, -0.0, 0.3), alpha=0.2, free=-0.0)
        policy = det_policy(instance, [1, 1, 1])
        u = np.zeros(3)
        out = IdPolicyRunner(instance, policy,
                             identity_reassignment(3)).step(np.zeros(3, int), u)
        assert out.actions.tolist() == [0, 0, 0]
        out = ErcPolicyRunner(instance, policy).step(np.zeros(3, int), u)
        assert out.actions.tolist() == [0, 1, 1]


# queues of one constraint's costs against budget 1.0, and the number of
# draws each keeps before its first overflow
FOLD_QUEUES = [
    ([0.25, 0.5, 0.25, 0.125], 3),              # an exact dyadic fit
    ([0.5, 0.25, 0.125, 0.125, 0.5], 4),        # an exact fit at the end
    ([0.125, 0.25, 0.5], 3),                    # the whole queue fits
    ([1.5, 0.25, 0.5], 0),                      # the first draw overflows
    ([-0.0, 0.5, -0.0, 0.5, -0.0, 0.25], 5),    # -0.0 draws at an exact fit
    # 0.1 + 0.2 = 0.30000000000000004, and adding 0.7 lands on 1.0
    ([0.1, 0.2, 0.7, 0.0], 4),
]


@pytest.mark.pins
class TestPrefixFold:
    @staticmethod
    def _queue(values, row, k):
        """(M, K) costs: the queue on constraint row % k, a tenth of it on
        the others (-0.0 on the next constraint of the first draw)."""
        costs = np.repeat(np.array(values)[:, None] / 10.0, k, axis=1)
        costs[:, row % k] = values
        if k > 1:
            costs[0, (row + 1) % k] = -0.0
        return costs

    @staticmethod
    def _first_rejected(costs, budget):
        rejected = erc_rejections_reference(costs, budget)
        return rejected.argmax() if rejected.any() else len(costs)

    @pytest.mark.parametrize("k", [1, 5])
    def test_kept_is_the_greedy_first_rejection_on_single_queues(self, k):
        budget = np.ones(k)
        for row, (values, kept) in enumerate(FOLD_QUEUES):
            costs = self._queue(values, row, k)
            before = costs.copy()
            acc, got = _prefix_fold(costs, budget)
            assert isinstance(got, np.integer), row
            assert got == self._first_rejected(costs, budget) == kept, row
            assert acc.shape == (k, len(values))
            assert acc.tobytes() == np.cumsum(costs, axis=0).T.tobytes()
            assert costs.tobytes() == before.tobytes()

    @pytest.mark.parametrize("k", [1, 5])
    def test_kept_is_the_greedy_first_rejection_on_padded_rows(self, k):
        # (R, M, K): every queue padded to the longest with 0.0 and -0.0
        budget = np.ones(k)
        m = max(len(values) for values, _ in FOLD_QUEUES) + 2
        costs = np.zeros((len(FOLD_QUEUES), m, k))
        costs[:, 1::2] = -0.0
        for row, (values, _) in enumerate(FOLD_QUEUES):
            costs[row, :len(values)] = self._queue(values, row, k)
        acc, got = _prefix_fold(costs, budget)
        expected = [self._first_rejected(row, budget) for row in costs]
        assert got.tolist() == expected
        # a queue that fits keeps its free padding too
        assert expected == [3, 4, m, 0, 5, m]
        assert acc.shape == (k, len(costs), m)
        assert acc.tobytes() == np.cumsum(
            costs, axis=1).transpose(2, 0, 1).tobytes()

    def test_single_row_id_step_counts_a_numpy_integer(self):
        instance, policy = TestIdPolicyStep._exact_hit_instance(4)
        runner = IdPolicyRunner(instance, policy, identity_reassignment(8))
        out = runner.step(np.zeros(8, dtype=int), np.zeros(8))
        assert isinstance(out.conforming_count, np.integer)
        assert out.conforming_count == 4


class TestSharedStep:
    def test_one_step_samples_once_for_both_runners(self, small_solved,
                                                    monkeypatch):
        # benchmarks/run.py --trace 1 times sample_ideal apart from the rest
        # of step by wrapping both on each runner class
        assert IdPolicyRunner.step is _RunnerBase.step
        assert ErcPolicyRunner.step is _RunnerBase.step
        calls = []
        sample = _RunnerBase.sample_ideal

        def counted(self, states, u):
            calls.append(states.shape)
            return sample(self, states, u)

        for cls in (IdPolicyRunner, ErcPolicyRunner):
            monkeypatch.setattr(cls, "sample_ideal", counted)
        instance, _, policy = small_solved
        rng = np.random.default_rng(0)
        states = rng.integers(0, instance.num_states, (3, instance.num_arms))
        u = rng.random(states.shape)
        for runner in (IdPolicyRunner(instance, policy,
                                      reassign(instance, policy, seed=0)),
                       ErcPolicyRunner(instance, policy)):
            calls.clear()
            batch = runner.step(states, u)
            single = runner.step(states[1], u[1])
            assert calls == [states.shape, states[1].shape]
            assert np.array_equal(single.actions, batch.actions[1])
            assert single.conforming_count == batch.conforming_count[1]


class TestHardFeasibility:
    @pytest.mark.parametrize("kind", ["id", "erc"])
    def test_costs_never_exceed_budget(self, kind, small_solved):
        instance, _, policy = small_solved
        budget = instance.alpha * instance.num_arms
        if kind == "id":
            runner = IdPolicyRunner(instance, policy,
                                    reassign(instance, policy, seed=0))
        else:
            runner = ErcPolicyRunner(instance, policy)
        rng = np.random.default_rng(11)
        states = rng.integers(0, instance.num_states, size=instance.num_arms)
        for _ in range(200):
            outcome = runner.step(states, rng.random(instance.num_arms))
            assert np.all(outcome.step_costs <= budget + 1e-9)
            states = runner.transition_step(states, outcome.actions,
                                            rng.random(instance.num_arms))

    def test_step_is_deterministic_given_rng_state(self, small_solved):
        instance, _, policy = small_solved
        result = reassign(instance, policy, seed=0)
        states = np.zeros(instance.num_arms, dtype=int)
        runner = IdPolicyRunner(instance, policy, result)
        n = instance.num_arms
        a = runner.step(states, np.random.default_rng(21).random(n))
        b = runner.step(states, np.random.default_rng(21).random(n))
        assert np.array_equal(a.actions, b.actions)
        assert a.step_reward == b.step_reward
        assert np.array_equal(a.step_costs, b.step_costs)


# R* of the hard-budget problem, bit for bit: (seed, N, S, A, K) -> hex. The
# N=8 case has enough arms for numpy's pairwise sum to regroup the reward sum.
ORACLE_PINS = {
    (0, 2, 3, 2, 1): "0x1.be9be4fa0d394p-2",
    (1, 2, 3, 2, 1): "0x1.fc20e5c61c2d4p-3",
    (2, 2, 3, 2, 1): "0x1.837e228ea0762p-2",
    (3, 2, 3, 2, 1): "0x1.4d68bab5cd78cp-2",
    (4, 2, 3, 2, 1): "0x1.84a38caff928ep-2",
    (0, 3, 3, 2, 1): "0x1.b3f62a1007a3dp-2",
    (1, 3, 3, 2, 1): "0x1.01301edc46bd2p-2",
    (2, 3, 3, 2, 1): "0x1.780a3b38231b9p-2",
    (0, 2, 4, 3, 2): "0x1.38041046cd5d0p-2",
    (0, 8, 1, 2, 1): "0x1.94b8c0a55988ep-2",
}


@pytest.mark.pins
@pytest.mark.parametrize("key", list(ORACLE_PINS), ids=str)
def test_exact_oracle_pinned(key):
    seed, n, s, a, k = key
    instance = tiny_instance(seed, n=n, s=s, a=a, k=k)
    assert exact_oracle(instance).hex() == ORACLE_PINS[key]


class TestExactOracle:
    def test_single_arm_unconstrained_matches_value_iteration(self):
        instance = zero_cost_copy(tiny_instance(seed=6, n=1, s=3, a=2, k=1))
        expected = rvi_average_reward(instance.transition[0],
                                      instance.reward[0])
        assert exact_oracle(instance) == pytest.approx(expected, abs=1e-6)

    def test_zero_rewards_give_zero(self):
        base = tiny_instance(seed=7, n=2, s=2, a=2, k=1)
        instance = dataclasses.replace(base, reward=np.zeros_like(base.reward))
        assert exact_oracle(instance) == pytest.approx(0.0, abs=1e-9)

    def test_zero_optimum_is_positive_zero(self):
        # one action and no reward: the LP's gain is exactly zero, and HiGHS
        # can return it as -0.0
        instance = tiny_instance(seed=0, n=2, s=2, a=1, k=1)
        assert not instance.reward.any()
        r_star = exact_oracle(instance)
        assert r_star == 0.0 and math.copysign(1.0, r_star) == 1.0

    def test_upper_bound_on_small_instances(self):
        for seed in range(5):
            instance = tiny_instance(seed=seed, n=2, s=3, a=2, k=1)
            r_star = exact_oracle(instance)
            r_rel = solve_lp(instance).objective
            assert r_star <= r_rel + 1e-6

    def test_size_guard(self):
        instance = tiny_instance(seed=0, n=10, s=10, a=4, k=1)
        with pytest.raises(OracleSizeError):
            exact_oracle(instance)

    def test_dense_guard_bounds_the_constraint_matrix(self, monkeypatch):
        # zero costs keep all 16 joint pairs over 4 joint states: 64 entries
        # of transition rows, the block that both halves of A_ub share
        import wcmdp.policies as policies
        instance = zero_cost_copy(tiny_instance(seed=0, n=2, s=2, a=2, k=1))
        monkeypatch.setattr(policies, "ORACLE_MAX_DENSE", 63)
        with pytest.raises(OracleSizeError, match="guard 63"):
            exact_oracle(instance)
        monkeypatch.setattr(policies, "ORACLE_MAX_DENSE", 64)
        exact_oracle(instance)

    def test_binding_constraint_strictly_below_relaxation(self):
        # one arm, one state: hard budget forces action 0 every other step
        # in spirit; optimal stationary feasible policy picks the best single
        # action with cost <= budget, here action 0 with reward 0
        arm = single_state_arm([0.0, 1.0], [[0.0, 1.0]])
        instance = stack_arms([arm], [0.5])
        # budget 0.5 < cost 1.0, so the ideal action is never playable
        assert exact_oracle(instance) == pytest.approx(0.0, abs=1e-8)
        assert solve_lp(instance).objective == pytest.approx(0.5, abs=1e-9)
