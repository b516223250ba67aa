import pytest

from wcmdp.lp_relax import extract_policy, solve_lp
from wcmdp.model import GeneratorConfig, generate


@pytest.fixture(scope="session")
def small_solved():
    """A solved mid-size heterogeneous instance shared across test modules."""
    cfg = GeneratorConfig(seed=3, num_arms=30, num_states=5, num_actions=3,
                          num_constraints=2)
    instance = generate(cfg)
    solution = solve_lp(instance)
    policy = extract_policy(instance, solution)
    return instance, solution, policy
