import tracemalloc

import numpy as np
import pytest

from wcmdp import lp_relax, simulator
from wcmdp.model import GeneratorConfig, generate
from wcmdp.policies import ErcPolicyRunner, IdPolicyRunner
from wcmdp.simulator import (CSV_COLUMNS, PolicyBundle, SimConfig,
                             batch_means_ci, simulate, sweep,
                             write_results_csv)

from oracles import stack_arms, two_cycle_arm
from test_model import _heap_peak


@pytest.fixture(scope="module")
def bundle_30(small_solved):
    instance, solution, policy = small_solved
    return instance, PolicyBundle.prepare(instance, seed=0)


class TestBatchMeansCi:
    def test_zero_variance(self):
        assert batch_means_ci([1, 1, 1, 1]) == (1.0, 0.0)

    def test_two_point(self):
        mean, half = batch_means_ci([0.0, 2.0])
        assert mean == pytest.approx(1.0)
        # std(ddof=1) of [0, 2] is sqrt(2); halfwidth 1.96*sqrt(2)/sqrt(2)
        assert half == pytest.approx(1.96)

    def test_single_batch_raises(self):
        with pytest.raises(ValueError):
            batch_means_ci([1.0])

    def test_matches_analytic_stderr_of_standard_normal(self):
        rng = np.random.default_rng(99)
        draws = rng.standard_normal(5)
        mean, half = batch_means_ci(draws)
        assert mean == pytest.approx(float(draws.mean()))
        expected = 1.96 * float(draws.std(ddof=1)) / np.sqrt(5)
        assert half == pytest.approx(expected, rel=1e-12)
        # sampling-noise sanity against the exact stderr 1.96/sqrt(5)
        assert 0.2 * 1.96 / np.sqrt(5) <= half <= 3.0 * 1.96 / np.sqrt(5)


class TestSimConfig:
    def test_batch_size_must_divide_horizon(self):
        with pytest.raises(ValueError, match="divide"):
            SimConfig(horizon=1000, batch_size=300).check()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=100, batch_size=50, policy="whittle").check()


class TestSimulate:
    def test_deterministic_two_cycle_hits_exact_average(self):
        # single action, alternating rewards 0.3/0.7: the even-horizon
        # average is exactly 0.5 from either start state
        arms = [two_cycle_arm(0.3, 0.7) for _ in range(3)]
        instance = stack_arms(arms, [0.2])
        bundle = PolicyBundle.prepare(instance, seed=0)
        config = SimConfig(horizon=2000, replications=2, batch_size=500,
                           seed=0)
        result = simulate(instance, bundle, config)
        assert result.avg_reward_per_arm == pytest.approx(0.5, abs=1e-12)
        assert result.optimality_ratio == pytest.approx(1.0, abs=1e-9)
        assert result.feasibility_violations == 0
        assert result.mean_conforming_fraction == 1.0

    def test_same_seed_reproduces_bitwise(self, bundle_30):
        instance, bundle = bundle_30
        config = SimConfig(horizon=400, replications=2, batch_size=100, seed=5)
        a = simulate(instance, bundle, config)
        b = simulate(instance, bundle, config)
        assert a.avg_reward_per_arm == b.avg_reward_per_arm
        assert a.per_batch_means == b.per_batch_means
        assert a.ci_halfwidth == b.ci_halfwidth
        assert a.mean_conforming_fraction == b.mean_conforming_fraction

    def test_zero_violations_and_batch_count(self, bundle_30):
        instance, bundle = bundle_30
        config = SimConfig(horizon=600, replications=2, batch_size=200, seed=2,
                           policy="erc")
        result = simulate(instance, bundle, config)
        assert result.feasibility_violations == 0
        assert len(result.per_batch_means) == 6
        assert 0.0 <= result.mean_conforming_fraction <= 1.0


class TestSweep:
    def test_single_point_smoke(self):
        template = GeneratorConfig(seed=0, num_arms=20, num_states=3,
                                   num_actions=2, num_constraints=1)
        config = SimConfig(horizon=200, replications=1, batch_size=100, seed=0)
        rows = sweep(template, [20], config, policies=("id",))
        assert len(rows) == 1
        row = rows[0]
        assert row["N"] == 20 and row["policy"] == "id"
        assert row["gap"] == pytest.approx(row["R_rel"] - row["avg_reward"])
        assert row["gap_sqrtN"] == pytest.approx(row["gap"] * np.sqrt(20))

    def test_descending_sizes_rejected(self):
        template = GeneratorConfig(seed=0, num_arms=10, num_states=3,
                                   num_actions=2, num_constraints=1)
        config = SimConfig(horizon=100, replications=1, batch_size=100, seed=0)
        with pytest.raises(ValueError, match="ascending"):
            sweep(template, [20, 10], config)

    def test_every_input_is_checked_before_the_first_size(self, monkeypatch):
        def fail(cfg):
            raise AssertionError(f"generated N={cfg.num_arms} before checking")

        monkeypatch.setattr(simulator, "generate", fail)
        template = GeneratorConfig(seed=0, num_arms=4, num_states=3,
                                   num_actions=2, num_constraints=1)
        config = SimConfig(horizon=100, replications=1, batch_size=50, seed=0)
        with pytest.raises(ValueError, match="whittle"):
            sweep(template, [4, 64], config, policies=["id", "whittle"])


class TestCsv:
    def test_golden_column_order(self, tmp_path):
        assert CSV_COLUMNS == ["family", "seed", "N", "policy", "T", "reps",
                               "R_rel", "avg_reward", "ratio", "ci_halfwidth",
                               "gap", "gap_sqrtN", "conforming_frac",
                               "violations"]
        row = {c: 0 for c in CSV_COLUMNS}
        path = tmp_path / "out.csv"
        write_results_csv([row], path)
        header = path.read_text().splitlines()[0]
        assert header == ("family,seed,N,policy,T,reps,R_rel,avg_reward,"
                          "ratio,ci_halfwidth,gap,gap_sqrtN,"
                          "conforming_frac,violations")


class TestPlanMemory:
    """The plan and the runners work from the instance's own arrays."""

    @pytest.fixture(scope="class")
    def het_800(self):
        """Fully heterogeneous, N=800: solve_lp warm-starts at this size."""
        return generate(GeneratorConfig(seed=0, num_arms=800, num_states=10,
                                        num_actions=4, num_constraints=4))

    @pytest.fixture(scope="class")
    def bundle_800(self, het_800):
        return PolicyBundle.prepare(het_800, seed=0)

    def test_prepare_builds_no_sparse_matrix(self, bundle_30, monkeypatch):
        class NoSparse:
            def __getattr__(self, name):
                raise AssertionError(f"scipy.sparse.{name} used in planning")

        instance, bundle = bundle_30
        monkeypatch.setattr(lp_relax, "sp", NoSparse())
        again = PolicyBundle.prepare(instance, seed=0)
        assert again.audit.ok
        assert again.solution.y.tobytes() == bundle.solution.y.tobytes()

    def test_prepare_heap_peak(self, het_800):
        """Gathering the still-improving arms' transition rows in every
        policy-iteration sweep peaked at 2.9x."""
        peak = _heap_peak(lambda: PolicyBundle.prepare(het_800, seed=0))
        assert peak <= 2.75 * het_800.transition.nbytes

    @pytest.mark.parametrize("kind", ["id", "erc"])
    def test_runner_build_peaks_at_what_it_holds(self, het_800, bundle_800,
                                                 kind):
        """No table is gathered into the runner's order before its cumsum;
        gathering every table first peaked at 1.6x."""
        held = []

        def build():
            runner = (IdPolicyRunner(het_800, bundle_800.policy,
                                     bundle_800.reassignment) if kind == "id"
                      else ErcPolicyRunner(het_800, bundle_800.policy))
            held.append(tracemalloc.get_traced_memory()[0])
            return runner

        assert _heap_peak(build) <= 1.1 * held[0]
