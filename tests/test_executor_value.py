"""The exact long-run reward of the ID policy and the ERC baseline.

`oracles.executor_value` computes each executor's average reward per arm
and conforming fraction from the stationary distribution of its joint
chain, with admission written again from the definitions. On tiny
instances, these values must lie below the hard-budget optimum R* of
`exact_oracle`, `simulate` must reproduce them within its confidence
interval, and the runners must admit exactly what the definitions admit on
every reachable (joint state, ideal vector) pair. The grid and the
tolerances are fixed in advance: seeds 0-2 of N=3, S=3, A=2, K=1, a plan
with seed 0 and T=2*10^4 x 4 replications.
"""

import dataclasses

import numpy as np
import pytest

from wcmdp.policies import ErcPolicyRunner, IdPolicyRunner, exact_oracle
from wcmdp.simulator import PolicyBundle, SimConfig, simulate

from oracles import admission_reference, executor_value, tiny_instance

CONFIG = SimConfig(horizon=20_000, replications=4, batch_size=4000, seed=0)
KINDS = ["id", "erc"]


@pytest.fixture(scope="module", params=[0, 1, 2], ids=lambda s: f"seed{s}")
def planned(request):
    instance = tiny_instance(request.param, n=3, s=3, a=2, k=1)
    return instance, PolicyBundle.prepare(instance, seed=0)


@pytest.mark.parametrize("kind", KINDS)
def test_exact_value_is_at_most_the_optimum(planned, kind):
    instance, bundle = planned
    value, _ = executor_value(instance, bundle, kind)
    assert value <= exact_oracle(instance) + 1e-6


@pytest.mark.parametrize("kind", KINDS)
def test_simulation_matches_the_exact_values(planned, kind):
    instance, bundle = planned
    value, conforming = executor_value(instance, bundle, kind)
    result = simulate(instance, bundle, dataclasses.replace(CONFIG, policy=kind))
    assert abs(result.avg_reward_per_arm - value) <= 2 * result.ci_halfwidth
    assert abs(result.mean_conforming_fraction - conforming) <= 0.01


@pytest.mark.parametrize("kind", KINDS)
def test_runner_admits_what_the_definition_admits(planned, kind):
    # one batched step over every (joint state, ideal vector) pair of
    # positive probability, each uniform inside its ideal action's CDF
    # interval
    instance, bundle = planned
    n, s, a = instance.num_arms, instance.num_states, instance.num_actions
    arms = np.arange(n)
    pairs = [(st, ideal) for st in np.ndindex(*[s] * n)
             for ideal in np.ndindex(*[a] * n)
             if bundle.policy.pi[arms, st, ideal].all()]
    states = np.array([st for st, _ in pairs])
    ideal = np.array([i for _, i in pairs])
    cdf = np.cumsum(bundle.policy.pi, axis=-1)[arms, states]       # (R, N, A)
    upper = np.take_along_axis(cdf, ideal[..., None], axis=-1)[..., 0]
    lower = np.where(ideal > 0, np.take_along_axis(
        cdf, np.maximum(ideal - 1, 0)[..., None], axis=-1)[..., 0], 0.0)
    u = (lower + upper) / 2.0
    if kind == "id":
        order = bundle.reassignment.order()
        runner = IdPolicyRunner(instance, bundle.policy, bundle.reassignment)
    else:
        order = arms
        runner = ErcPolicyRunner(instance, bundle.policy)
    outcome = runner.step(states[:, order], u[:, order])

    expected = [admission_reference(instance, bundle, kind, st, i)
                for st, i in zip(states, ideal)]
    assert np.array_equal(outcome.ideal_actions, ideal[:, order])
    assert np.array_equal(outcome.actions,
                          np.array([act for act, _ in expected])[:, order])
    assert outcome.conforming_count.tolist() == [c for _, c in expected]
