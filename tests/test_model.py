import contextlib
import dataclasses
import errno
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcmdp.lp_relax import check_solution, solve_lp
from wcmdp.model import (ALPHA_GRID_STEP, COST_ACTION_ONLY, FULLY_HETEROGENEOUS,
                         MAX_ENTRY, TYPED, GeneratorConfig, WcmdpInstance,
                         distinct_arms, generate, validate, writing)

from oracles import single_state_arm, stack_arms, take_arms


def cfg(seed=0, n=6, s=3, a=2, k=2, **kw):
    return GeneratorConfig(seed=seed, num_arms=n, num_states=s, num_actions=a,
                           num_constraints=k, **kw)


class TestValidate:
    def test_well_formed_instance_has_empty_report(self):
        assert validate(generate(cfg())) == []

    def test_nonzero_cost_of_free_action_is_reported(self):
        arm = single_state_arm([0.0, 1.0], [[0.3, 1.0]])
        instance = stack_arms([arm], [0.5])
        report = validate(instance)
        assert any("cost[0][0][0] = 0.3" in msg for msg in report)

    def test_bad_row_sum_is_reported_with_value(self):
        arm = (np.array([[[0.49, 0.49], [0.5, 0.5]],
                         [[0.5, 0.5], [0.5, 0.5]]]),
               np.zeros((2, 2)), np.zeros((1, 2, 2)))
        instance = stack_arms([arm], [0.5])
        report = validate(instance)
        assert any("sums to 0.98" in msg for msg in report)

    def test_nonpositive_alpha_is_reported(self):
        instance = generate(cfg())
        bad = dataclasses.replace(instance, alpha=np.array([0.2, 0.0]))
        assert any("alpha[1]" in msg for msg in validate(bad))

    @pytest.mark.parametrize("field, index, expected", [
        ("transition", (2, 1, 0, 0), "arm 2: non-finite transition"),
        ("reward", (3, 0, 1), "arm 3: non-finite reward"),
        ("cost", (4, 1, 2, 1), "arm 4: non-finite cost"),
        ("alpha", (0,), "alpha[0] = inf is not finite"),
    ])
    def test_non_finite_entry_is_reported(self, field, index, expected):
        instance = generate(cfg())
        table = getattr(instance, field).copy()
        table[index] = np.inf if field == "alpha" else np.nan
        bad = dataclasses.replace(instance, **{field: table})
        assert any(expected in msg for msg in validate(bad)), validate(bad)

    @staticmethod
    def _with_entries(reward_entry, cost_entry):
        instance = generate(cfg(n=3))
        reward, cost = instance.reward.copy(), instance.cost.copy()
        reward[0, 1, 1] = reward_entry
        cost[2, 1, 0, 1] = cost_entry
        return dataclasses.replace(instance, reward=reward, cost=cost)

    def test_entries_at_the_magnitude_bound_solve_and_audit(self):
        instance = self._with_entries(-MAX_ENTRY, MAX_ENTRY)
        assert validate(instance) == []
        solution = solve_lp(instance)
        assert check_solution(instance, solution).ok

    def test_entries_beyond_the_magnitude_bound_are_reported(self):
        above = np.nextafter(MAX_ENTRY, np.inf)
        report = validate(self._with_entries(1e300, above))
        assert report == [
            "arm 0: reward entry 1e+300 exceeds 1e+06 in magnitude",
            "arm 2: cost entry 1000000.0000000001 exceeds 1e+06 in magnitude"]

    @pytest.mark.parametrize("states, reported", [(32767, False), (32768, True)])
    def test_state_count_beyond_int16_trace_is_reported(self, states, reported):
        # zero actions keep the arrays empty at any state count
        instance = WcmdpInstance(transition=np.zeros((1, states, 0, states)),
                                 reward=np.zeros((1, states, 0)),
                                 cost=np.zeros((1, 1, states, 0)),
                                 alpha=np.array([0.5]))
        report = validate(instance)
        assert "instance: no actions" in report
        assert any("exceeds 32767" in msg for msg in report) == reported, report

    @pytest.mark.parametrize("s, a, k, expected", [
        (0, 2, 1, "instance: no states"),
        (2, 0, 1, "instance: no actions"),
        (2, 2, 0, "instance: no constraints"),
    ])
    def test_empty_axis_is_reported(self, s, a, k, expected):
        instance = WcmdpInstance(transition=np.zeros((1, s, a, s)),
                                 reward=np.zeros((1, s, a)),
                                 cost=np.zeros((1, k, s, a)),
                                 alpha=np.full(k, 0.5))
        assert expected in validate(instance)

    def test_mismatched_shapes_are_reported(self):
        instance = generate(cfg())
        bad = dataclasses.replace(instance, alpha=np.array([0.2]))
        assert any("cost has shape" in msg for msg in validate(bad))


class TestGenerators:
    def test_fully_heterogeneous_matches_sampling_contract(self):
        instance = generate(cfg(seed=0, n=100, s=10, a=4, k=4))
        assert validate(instance) == []
        # alpha on the 0.05 grid inside (0, 0.5)
        steps = instance.alpha / ALPHA_GRID_STEP
        assert np.allclose(steps, np.round(steps))
        assert np.all((instance.alpha >= 0.05) & (instance.alpha <= 0.45))
        assert np.all(instance.reward[:, :, 0] == 0.0)
        assert np.all(instance.cost[:, :, :, 0] == 0.0)
        assert np.all((instance.reward[:, :, 1:] >= 0)
                      & (instance.reward[:, :, 1:] <= 1))

    def test_same_seed_is_bit_identical(self):
        a = generate(cfg(seed=42, n=12, s=4, a=3, k=2))
        b = generate(cfg(seed=42, n=12, s=4, a=3, k=2))
        for field in ("transition", "reward", "cost", "alpha"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_single_arm_degenerate_size(self):
        instance = generate(cfg(seed=5, n=1, s=2, a=2, k=1))
        assert validate(instance) == []
        assert instance.num_arms == 1

    def test_typed_shares_tables_within_type(self):
        instance = generate(
            cfg(seed=1, n=100, s=4, a=3, k=1, family=TYPED, num_types=10))
        assert validate(instance) == []
        block = 10
        for t in range(10):
            base = instance.transition[t * block]
            for i in range(t * block, (t + 1) * block):
                assert np.array_equal(instance.transition[i], base)
        # adjacent types differ
        assert not np.array_equal(instance.transition[0],
                                  instance.transition[block])

    def test_single_type_collapses_to_homogeneous(self):
        instance = generate(
            cfg(seed=2, n=6, s=3, a=2, k=1, family=TYPED, num_types=1))
        assert np.all(instance.reward == instance.reward[0])

    def test_divisibility_violation_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            generate(cfg(seed=0, n=15, s=3, a=2, k=1,
                         family=TYPED, num_types=10))

    def test_action_only_cost_is_state_independent(self):
        instance = generate(
            cfg(seed=3, n=10, s=4, a=3, k=1, family=TYPED, num_types=5,
                cost_mode=COST_ACTION_ONLY))
        assert np.all(instance.cost == instance.cost[:, :, :1, :])
        assert np.all(instance.cost[:, :, :, 0] == 0.0)

    def test_heap_peak_is_the_instance(self):
        """Each sampled arm is written straight into its rows, so generate
        holds no second copy of a table; a repeat copy peaked at 2.0x."""
        instances = []
        peak = _heap_peak(lambda: instances.append(
            generate(cfg(seed=0, n=3200, s=10, a=4, k=4))))
        size = sum(getattr(instances[0], f).nbytes
                   for f in ("transition", "reward", "cost", "alpha"))
        assert peak <= 1.1 * size

    def test_validate_generated_over_many_seeds(self):
        for seed in range(100):
            instance = generate(cfg(seed=seed, n=4, s=3, a=2, k=2))
            assert validate(instance) == []


def _same_bytes(a: WcmdpInstance, b: WcmdpInstance) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               and getattr(a, f).shape == getattr(b, f).shape
               for f in ("transition", "reward", "cost", "alpha"))


def _round_trip(instance: WcmdpInstance) -> WcmdpInstance:
    return WcmdpInstance.from_json(instance.to_json())


def _heap_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distinct_arms_heap_peak_is_small_against_the_tables():
    """No arm's row bytes are kept past its own lookup: keeping every arm's
    bytes as dict keys peaked at 16.3 MB at N=3200, above the 15.4 MB of
    the tables themselves."""
    instance = generate(cfg(seed=0, n=3200, s=10, a=4, k=4))
    tables = (instance.transition, instance.reward, instance.cost)
    peak = _heap_peak(lambda: distinct_arms(*tables))
    assert peak <= 0.1 * sum(t.nbytes for t in tables)


def test_distinct_arms_tells_apart_arms_whose_hashes_collide(monkeypatch):
    """With every hash equal, arms still match on their bytes alone."""
    from wcmdp import model
    instance = generate(cfg(seed=4, n=12, s=3, a=2, k=1, family=TYPED,
                            num_types=3))
    tables = (instance.transition, instance.reward, instance.cost)
    expected, expected_inverse = distinct_arms(*tables)
    monkeypatch.setattr(model, "hash", lambda rows: 0, raising=False)
    distinct, inverse = distinct_arms(*tables)
    assert np.array_equal(inverse, expected_inverse)
    assert len(expected[0]) == 3
    assert all(a.tobytes() == b.tobytes() for a, b in zip(distinct, expected))


class TestSerialization:
    @given(seed=st.integers(min_value=0, max_value=2 ** 63 - 1),
           family=st.sampled_from([FULLY_HETEROGENEOUS, TYPED]),
           order=st.permutations(range(4)))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_bit_identical(self, seed, family, order):
        types = 2 if family == TYPED else 1
        instance = take_arms(generate(cfg(seed=seed, n=4, s=3, a=2, k=2,
                                          family=family, num_types=types)),
                             order)
        back = _round_trip(instance)
        assert _same_bytes(back, instance)
        assert back.to_json() == instance.to_json()

    def test_file_round_trip(self, tmp_path):
        instance = generate(cfg(seed=9))
        path = tmp_path / "inst.json"
        instance.save(path)
        back = WcmdpInstance.load(path)
        assert back.to_json() == instance.to_json()

    def test_typed_file_round_trip_reproduces_the_text(self, tmp_path):
        instance = generate(cfg(seed=9, n=6, family=TYPED, num_types=3))
        path = tmp_path / "inst.json"
        instance.save(path)
        assert WcmdpInstance.load(path).to_json() == path.read_text()

    @pytest.mark.parametrize("existing", [None, "old text"])
    def test_failed_save_leaves_the_directory_as_it_was(
            self, tmp_path, monkeypatch, existing):
        chunks = WcmdpInstance.json_chunks

        def fail_after_first_arm(instance):
            it = chunks(instance)
            yield next(it)  # the header
            yield next(it)  # arm 0
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(WcmdpInstance, "json_chunks", fail_after_first_arm)
        path = tmp_path / "inst.json"
        if existing is not None:
            path.write_text(existing)
        with pytest.raises(OSError, match="No space left on device"):
            generate(cfg(seed=9)).save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if existing is None else ["inst.json"])
        if existing is not None:
            assert path.read_text() == existing

    @pytest.mark.parametrize("fail", [False, True])
    def test_writing_renames_every_file_or_none(self, tmp_path, fail):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("old a")
        raises = (pytest.raises(RuntimeError) if fail
                  else contextlib.nullcontext())
        with raises, writing() as write:
            digest = write(a, ["new ", "a"])
            write(b, ["new b"])
            assert digest == hashlib.sha256(b"new a").hexdigest()
            # nothing is renamed in before the block ends
            assert a.read_text() == "old a" and not b.exists()
            if fail:
                raise RuntimeError("a later step failed")
        expected = ({"a.txt": "old a"} if fail
                    else {"a.txt": "new a", "b.txt": "new b"})
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == expected

    def test_schema_top_level_keys(self):
        d = json.loads(generate(cfg()).to_json())
        assert set(d) == {"N", "S", "A", "K", "alpha", "arms"}
        assert set(d["arms"][0]) == {"P", "r", "c"}

    def test_typed_file_stores_each_type_once(self):
        instance = generate(cfg(seed=2, n=12, family=TYPED, num_types=3))
        d = json.loads(instance.to_json())
        assert list(d) == ["N", "S", "A", "K", "alpha", "arms", "arm_type"]
        assert len(d["arms"]) == 3 and d["N"] == 12
        _, inverse = distinct_arms(instance.transition, instance.reward,
                                   instance.cost)
        assert d["arm_type"] == inverse.tolist()
        assert instance.to_json() == json.dumps(d)

    def test_interleaved_repeats_round_trip(self):
        a, b, c = (single_state_arm([0.0, r], [[0.0, 1.0]])
                   for r in (0.25, 0.5, 0.75))
        instance = stack_arms([a, b, a, c, b], [0.5])
        d = json.loads(instance.to_json())
        assert len(d["arms"]) == 3 and d["arm_type"] == [0, 1, 0, 2, 1]
        assert _same_bytes(_round_trip(instance), instance)

    def test_negative_zero_cost_is_its_own_stored_arm(self):
        a = single_state_arm([0.0, 1.0], [[0.0, 1.0]])
        b = single_state_arm([0.0, 1.0], [[-0.0, 1.0]])
        instance = stack_arms([a, b, a], [0.5])
        d = json.loads(instance.to_json())
        assert len(d["arms"]) == 2 and d["arm_type"] == [0, 1, 0]
        back = _round_trip(instance)
        assert _same_bytes(back, instance)
        assert np.signbit(back.cost[1, 0, 0, 0])

    def test_full_form_typed_text_loads_to_the_same_arrays(self):
        instance = generate(cfg(seed=5, n=8, family=TYPED, num_types=2))
        full = {key: v for key, v in json.loads(instance.to_json()).items()
                if key != "arm_type"}
        full["arms"] = [{"P": p, "r": r, "c": c} for p, r, c in zip(
            instance.transition.tolist(), instance.reward.tolist(),
            instance.cost.tolist())]
        back = WcmdpInstance.from_json(json.dumps(full))
        assert _same_bytes(back, instance)
        assert _same_bytes(back, _round_trip(instance))

    def test_save_and_load_heap_peaks_stay_within_file_size_multiples(
            self, tmp_path):
        """Streaming holds one arm's lists at a time: writing all N arms'
        lists at once peaked at 4.5x the file size, parsing them all at
        once at 3.4x."""
        instance = generate(cfg(seed=3, n=200, s=10, a=4, k=4))
        path = tmp_path / "inst.json"
        digests = []
        save_peak = _heap_peak(lambda: digests.append(instance.save(path)))
        size = path.stat().st_size
        assert digests == [hashlib.sha256(path.read_bytes()).hexdigest()]
        assert save_peak <= 1.0 * size
        assert _heap_peak(lambda: WcmdpInstance.load(path)) <= 2.5 * size


class TestInstance:
    def test_arrays_are_immutable(self):
        instance = generate(cfg())
        with pytest.raises(ValueError):
            instance.reward[0, 0, 0] = 5.0

    def test_maxima_are_computed_from_the_arrays(self):
        instance = generate(cfg(seed=4, n=9, s=3, a=3, k=2))
        assert instance.r_max == float(np.abs(instance.reward).max())
        assert instance.c_max == float(instance.cost.max())

    def test_wrong_dimension_count_raises(self):
        instance = generate(cfg())
        with pytest.raises(ValueError, match="reward: expected 3 dimensions"):
            dataclasses.replace(instance, reward=instance.reward[0])
