"""The batched simulator against a sequential replay.

`simulate` steps all replications as one (R, N) array and draws each
replication's uniforms in (B, 2N) blocks. The replay here runs each
replication on its own with `oracles.ReferenceRunner`, which draws a pair of
random(N) calls per step from the replication's generator, and every
statistic must agree exactly.
"""

import dataclasses

import numpy as np
import pytest

from wcmdp.model import GeneratorConfig, generate
from wcmdp.simulator import (FEASIBILITY_SLACK, PolicyBundle, SimConfig,
                             _block_steps, simulate)

from oracles import ReferenceRunner

pytestmark = pytest.mark.pins


def sequential_simulate(instance, bundle, config):
    """avg_reward_per_arm, per_batch_means, feasibility_violations and
    mean_conforming_fraction of `config`, one replication and one step at a
    time."""
    n = instance.num_arms
    order = None if config.policy == "erc" else bundle.reassignment.order()
    ref = ReferenceRunner(instance, bundle.policy, order)
    limit = instance.alpha * n + FEASIBILITY_SLACK
    totals, pooled, violations, conforming = [], [], 0, 0
    for r in range(config.replications):
        rng = np.random.default_rng([config.seed, r])
        states = rng.integers(0, instance.num_states, size=n)
        total = batch_sum = 0.0
        for t in range(config.horizon):
            actions, _, count, reward, costs = ref.step(states, rng)
            total += reward
            batch_sum += reward
            conforming += count
            violations += bool(np.any(costs > limit))
            if (t + 1) % config.batch_size == 0:
                pooled.append(batch_sum / (config.batch_size * n))
                batch_sum = 0.0
            states = ref.transition_step(states, actions, rng)
        totals.append(total)
    arm_steps = config.horizon * config.replications * n
    return sum(totals) / arm_steps, pooled, violations, conforming / arm_steps


@pytest.fixture(scope="module")
def het100():
    instance = generate(GeneratorConfig(seed=3, num_arms=100, num_states=4,
                                        num_actions=3, num_constraints=2))
    return instance, PolicyBundle.prepare(instance, seed=0)


@pytest.mark.parametrize("alpha_scale", [1.0, 0.5])
@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("kind", ["id", "erc"])
def test_simulate_matches_sequential_replay(het100, kind, reps, alpha_scale):
    instance, bundle = het100
    instance = dataclasses.replace(instance, alpha=instance.alpha * alpha_scale)
    block = _block_steps(instance.num_arms, reps)
    horizon = 10 * ((5 * block // 2) // 10)      # two blocks and a partial one
    assert horizon > 2 * block and horizon % block
    config = SimConfig(horizon=horizon, replications=reps,
                       batch_size=horizon // 10, seed=4, policy=kind)

    result = simulate(instance, bundle, config)
    avg, pooled, violations, conforming = sequential_simulate(
        instance, bundle, config)
    assert result.avg_reward_per_arm == avg
    assert result.per_batch_means == pooled
    assert result.feasibility_violations == violations == 0
    assert result.mean_conforming_fraction == conforming
    if alpha_scale < 1.0:
        assert conforming < 1.0         # the budgets bind on this run


@pytest.mark.parametrize("n, steps", [(1, 5), (7, 33), (100, 64)])
def test_block_rows_are_successive_random_pairs(n, steps):
    # the simulator's draw order: start states, then one block of steps
    g = np.random.default_rng([9, 2])
    start = g.integers(0, 5, size=n)
    block = g.random((steps, 2 * n))

    g = np.random.default_rng([9, 2])
    assert np.array_equal(g.integers(0, 5, size=n), start)
    pairs = [np.concatenate([g.random(n), g.random(n)]) for _ in range(steps)]
    assert block.tobytes() == np.array(pairs).tobytes()
