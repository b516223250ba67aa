"""Pins of the per-step executors against their sequential references.

ERC admission must reject exactly the queued rows that the sequential greedy
in `oracles.erc_rejections_reference` rejects, and both runners must step
bit for bit like `oracles.ReferenceRunner`. A simulate result of a
rejection-heavy ERC run is pinned as literals.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcmdp.model import GeneratorConfig, generate
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


class TestErcRejections:
    def test_matches_sequential_greedy_on_seeded_cases(self):
        exact_fits = rejected = 0
        for seed in range(3000):
            costs, budget = _admission_case(np.random.default_rng(seed))
            expected = erc_rejections_reference(costs, budget)
            got = _erc_rejections(costs, budget)
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
        assert np.array_equal(_erc_rejections(costs, budget),
                              erc_rejections_reference(costs, budget))


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
