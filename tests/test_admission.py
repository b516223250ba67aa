"""Pins of the per-step executors against their sequential references.

ERC admission must reject exactly the queued draws that the sequential
greedy in `oracles.erc_rejections_reference` rejects, in every replication
row of one call whatever its queue length, and both runners must step
bit for bit like `oracles.ReferenceRunner`, in single (N,) rows and, on a
typed instance whose arms tie in index, in (R, N) rows. A simulate result
of a rejection-heavy ERC run is pinned as literals.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcmdp.model import COST_ACTION_ONLY, TYPED, GeneratorConfig, generate
from wcmdp.policies import ErcPolicyRunner, IdPolicyRunner, _erc_rejections
from wcmdp.simulator import PolicyBundle, SimConfig, simulate

pytestmark = pytest.mark.pins

from oracles import ReferenceRunner, erc_rejections_reference


def _admission_case(rng):
    """Queued cost rows and a budget mixing the float-fold edge cases."""
    k = int(rng.integers(1, 6))
    m = int(rng.integers(1, 401))
    costs = rng.uniform(0.0, 1.0, (m, k))
    if rng.random() < 0.5:
        costs = np.round(costs, 1)          # 0.1 + 0.2 > 0.3 in floats
    if rng.random() < 0.5:
        costs[rng.random(m) < rng.uniform(0.0, 0.5)] = 0.0
    if rng.random() < 0.3:                  # ties: repeated rows
        costs = costs[rng.integers(0, max(1, m // 4), m)]
    total = costs.sum(axis=0)
    mode = rng.integers(0, 4)
    if mode == 0:                           # exhausted after a few rows
        budget = total * rng.uniform(0.005, 0.1, k)
    elif mode == 1:
        budget = total * rng.uniform(0.1, 1.2, k)
    elif mode == 2:                         # exact fit: a prefix fold
        fold = np.cumsum(costs, axis=0)
        budget = fold[rng.integers(0, m, k), np.arange(k)]
    else:
        budget = np.round(total * rng.uniform(0.05, 1.0, k), 1)
    return costs, np.maximum(budget, 0.1)


def _one_row(costs, budget):
    """`_erc_rejections` on a single row whose whole (M, K) array is queued."""
    return _erc_rejections(costs[None], np.array([len(costs)]), budget)[0]


# each row's queue on its binding constraint, with budget 1.0
ROW_QUEUES = [
    [0.1, 0.2, 0.1, 0.3],                       # the whole queue fits
    [1.5, 0.3, 0.4, 0.3, 2.0, 0.2, 0.1],        # the first draw overflows alone
    [0.25, 0.5, 0.5],                           # the last draw: an empty tail
    # 0.1 + 0.2 = 0.30000000000000004, then 0.7 lands on 1.0 exactly, and
    # the tail draw one ulp above 0.7 overflows the prefix total alone
    [0.1, 0.2, 0.8, 0.7000000000000002, 0.7, 0.5],
    [0.5, 0.25, 0.5, 0.25, 0.125],              # exact fit 0.75 + 0.25
]
ROW_REJECTED = [[], [0, 4, 5, 6], [2], [2, 3, 5], [2, 4]]


def _rows_case(k):
    """(R, M, K) costs with the ROW_QUEUES on constraint r % k of row r, a
    tenth of them on the others (-0.0 on one), and -0.0 and 0.0 free draws
    behind each queue."""
    queued = np.array([len(q) for q in ROW_QUEUES])
    costs = np.zeros((len(queued), queued.max() + 3, k))
    costs[:, 1::2] = -0.0
    for r, queue in enumerate(ROW_QUEUES):
        costs[r, :len(queue)] = np.array(queue)[:, None] / 10.0
        costs[r, :len(queue), r % k] = queue
        if k > 1:
            costs[r, 0, (r + 1) % k] = -0.0
    return costs, queued, np.ones(k)


def _random_rows_case(rng):
    """Several rows of different queue lengths, zero-padded behind their
    queues, and one budget for all: the rows share the constraints."""
    k = int(rng.integers(1, 6))
    queued = rng.integers(0, 120, int(rng.integers(1, 6)))
    costs = rng.uniform(0.0, 1.0, (len(queued), queued.max() + 5, k))
    if rng.random() < 0.5:
        costs = np.round(costs, 1)
    costs[np.arange(costs.shape[1]) >= queued[:, None]] = -0.0
    total = costs.sum(axis=1).max(axis=0)
    if rng.random() < 0.5:                  # exact fit: a fold of one row
        row = int(rng.integers(0, len(queued)))
        fold = np.cumsum(costs[row], axis=0)
        budget = fold[rng.integers(0, costs.shape[1], k), np.arange(k)]
    else:
        budget = total * rng.uniform(0.05, 1.0, k)
    return costs, queued, np.maximum(budget, 0.1)


class TestErcRejections:
    def test_matches_sequential_greedy_on_seeded_cases(self):
        exact_fits = rejected = 0
        for seed in range(3000):
            costs, budget = _admission_case(np.random.default_rng(seed))
            expected = erc_rejections_reference(costs, budget)
            got = _one_row(costs, budget)
            assert got.dtype == bool and got.shape == expected.shape
            assert np.array_equal(got, expected), seed
            kept = costs[~expected]
            exact_fits += bool(np.any(np.cumsum(kept, axis=0) == budget))
            rejected += bool(expected.any())
        # the cases reach both the equality edge and real rejections
        assert exact_fits > 300 and rejected > 1500

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]),
                          min_size=k, max_size=k), min_size=1, max_size=40),
        st.lists(st.sampled_from([0.1, 0.3, 0.6, 0.7, 1.0, 2.5]),
                 min_size=k, max_size=k))))
    def test_matches_sequential_greedy_on_grid_rows(self, case):
        costs, budget = np.array(case[0]), np.array(case[1])
        assert np.array_equal(_one_row(costs, budget),
                              erc_rejections_reference(costs, budget))

    @pytest.mark.parametrize("k", [1, 5])
    def test_rows_of_one_call_match_sequential_greedy_row_by_row(self, k):
        costs, queued, budget = _rows_case(k)
        got = _erc_rejections(costs, queued, budget)
        assert got.dtype == bool and got.shape == costs.shape[:2]
        for r, (q, expected) in enumerate(zip(queued, ROW_REJECTED)):
            reference = erc_rejections_reference(costs[r, :q], budget)
            assert np.array_equal(got[r, :q], reference), r
            assert np.flatnonzero(got[r]).tolist() == expected, r
            kept = np.cumsum(costs[r, :q][~reference], axis=0)
            # the exact-fit rows land on the budget across the junction
            assert (kept[-1, r % k] == 1.0) == (r in (1, 3, 4)), r

    def test_random_rows_match_sequential_greedy_row_by_row(self):
        overflowing = 0
        for seed in range(500):
            costs, queued, budget = _random_rows_case(
                np.random.default_rng(seed))
            got = _erc_rejections(costs, queued, budget)
            for r, q in enumerate(queued):
                expected = erc_rejections_reference(costs[r, :q], budget)
                assert np.array_equal(got[r, :q], expected), (seed, r)
                assert not got[r, q:].any(), (seed, r)
                overflowing += bool(expected.any())
        assert overflowing > 500


@pytest.fixture(scope="module")
def het200():
    instance = generate(GeneratorConfig(seed=0, num_arms=200, num_states=5,
                                        num_actions=4, num_constraints=4))
    return instance, PolicyBundle.prepare(instance, seed=0)


@pytest.mark.parametrize("alpha_scale", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["id", "erc"])
def test_runner_steps_match_reference(het200, kind, alpha_scale):
    instance, bundle = het200
    instance = dataclasses.replace(instance, alpha=instance.alpha * alpha_scale)
    if kind == "id":
        runner = IdPolicyRunner(instance, bundle.policy, bundle.reassignment)
        ref = ReferenceRunner(instance, bundle.policy,
                              bundle.reassignment.order())
    else:
        runner = ErcPolicyRunner(instance, bundle.policy)
        ref = ReferenceRunner(instance, bundle.policy)
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    states = ref_states = np.zeros(instance.num_arms, dtype=np.int64)
    cut = 0
    for _ in range(2000):
        out = runner.step(states, rng.random(instance.num_arms))
        actions, ideal, conforming, reward, costs = ref.step(ref_states, rng_ref)
        assert np.array_equal(out.actions, actions)
        assert np.array_equal(out.ideal_actions, ideal)
        assert out.conforming_count == conforming
        assert out.step_reward == reward
        assert out.step_costs.tobytes() == costs.tobytes()
        cut += instance.num_arms - conforming
        states = runner.transition_step(states, out.actions,
                                        rng.random(instance.num_arms))
        ref_states = ref.transition_step(ref_states, actions, rng_ref)
        assert np.array_equal(states, ref_states)
    assert cut > 0          # the budgets bind on this run


@pytest.fixture(scope="module")
def typed100():
    instance = generate(GeneratorConfig(seed=1, num_arms=100, num_states=10,
                                        num_actions=4, num_constraints=1,
                                        family=TYPED, num_types=10,
                                        cost_mode=COST_ACTION_ONLY))
    return instance, PolicyBundle.prepare(instance, seed=0)


@pytest.mark.parametrize("alpha_scale", [1.0, 0.5])
def test_erc_rows_match_reference_on_typed_ties(typed100, alpha_scale):
    instance, bundle = typed100
    r_star = bundle.policy.r_star
    # most copies of one type share their index rows, and many indices are
    # 0.0, so the queue order rests on the tie break by arm ID
    assert len(np.unique(r_star, axis=0)) < 20 and (r_star == 0.0).any()
    instance = dataclasses.replace(instance, alpha=instance.alpha * alpha_scale)
    n, rows = instance.num_arms, 3
    runner = ErcPolicyRunner(instance, bundle.policy)
    ref = ReferenceRunner(instance, bundle.policy)
    rngs = [np.random.default_rng(seed) for seed in range(rows)]
    ref_rngs = [np.random.default_rng(seed) for seed in range(rows)]
    states = np.zeros((rows, n), dtype=np.int64)
    ref_states = list(states)
    cut = 0
    for _ in range(1000):
        out = runner.step(states, np.stack([rng.random(n) for rng in rngs]))
        for r, rng_ref in enumerate(ref_rngs):
            actions, ideal, conforming, reward, costs = ref.step(ref_states[r],
                                                                 rng_ref)
            assert np.array_equal(out.actions[r], actions)
            assert np.array_equal(out.ideal_actions[r], ideal)
            assert out.conforming_count[r] == conforming
            assert out.step_reward[r] == reward
            assert out.step_costs[r].tobytes() == costs.tobytes()
            cut += n - conforming
            ref_states[r] = ref.transition_step(ref_states[r], actions, rng_ref)
        states = runner.transition_step(states, out.actions,
                                        np.stack([rng.random(n) for rng in rngs]))
        assert np.array_equal(states, ref_states)
    assert cut > 0          # the budget binds on this run


def test_rejection_heavy_erc_simulate_pinned(het200):
    instance, bundle = het200
    tight = dataclasses.replace(instance, alpha=instance.alpha * 0.5)
    result = simulate(tight, bundle, SimConfig(
        horizon=1000, replications=2, batch_size=250, seed=1, policy="erc"))
    assert result.feasibility_violations == 0
    assert result.avg_reward_per_arm == AVG_REWARD
    assert result.mean_conforming_fraction == CONFORMING
    assert result.per_batch_means == BATCH_MEANS


# recorded with the sequential greedy; 36% of the ideal actions are cut
AVG_REWARD = 0.232333911670599
CONFORMING = 0.638205
BATCH_MEANS = [0.2328473797185502, 0.2307555199876747, 0.2307137767865263,
               0.2316252078955902, 0.23445065870042717, 0.23203127383087419,
               0.23353401601517232, 0.2327134604299774]
