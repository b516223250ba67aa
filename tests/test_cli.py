import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wcmdp
from wcmdp.cli import main, ratio_chart_svg
from wcmdp.lp_relax import LpSolveError
from wcmdp.model import WcmdpInstance
from wcmdp.simulator import CSV_COLUMNS, PolicyBundle

from oracles import (absorbing_pair_arm, iid_pair_arm, single_state_arm,
                     slow_mixing_instance, stack_arms, tiny_instance,
                     two_cycle_arm)


def run(argv):
    return main(argv)


class TestGenerate:
    def test_fully_het_happy_path(self, tmp_path):
        out = tmp_path / "inst.json"
        code = run(["generate", "--family", "fully-het", "--n", "12",
                    "--states", "4", "--actions", "3", "--k", "2",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        instance = WcmdpInstance.load(out)
        assert instance.num_arms == 12
        manifest = json.loads((tmp_path / "inst.json.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["flags"]["seed"] == 0
        assert manifest["instance_hash"] == hashlib.sha256(
            out.read_bytes()).hexdigest()

    def test_typed_action_only(self, tmp_path):
        out = tmp_path / "typed.json"
        code = run(["generate", "--family", "typed", "--n", "20", "--types",
                    "10", "--k", "1", "--cost-mode", "action-only",
                    "--states", "3", "--actions", "2", "--out", str(out)])
        assert code == 0
        instance = WcmdpInstance.load(out)
        assert np.all(instance.cost == instance.cost[:, :, :1, :])

    def test_missing_required_flag_exits_2(self, capsys):
        assert run(["generate", "--out", "x.json"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_divisibility_exits_2(self, tmp_path):
        code = run(["generate", "--family", "typed", "--n", "15", "--types",
                    "10", "--states", "3", "--actions", "2",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_invalid_instance_file_exits_3(self, tmp_path, capsys):
        arm = single_state_arm([0.0, 1.0], [[0.4, 1.0]])  # costed free action
        instance = stack_arms([arm], [0.5])
        path = tmp_path / "bad.json"
        instance.save(path)
        code = run(["solve", "--instance", str(path),
                    "--out", str(tmp_path / "sol.json")])
        assert code == 3
        assert "cost" in capsys.readouterr().err


def _instance_text(edit) -> str:
    d = stack_arms([single_state_arm([0.0, 1.0], [[0.0, 1.0]])] * 2,
                   [0.5]).to_json_dict()
    edit(d)
    return json.dumps(d)


def _ragged(d):
    d["arms"][1] = {"P": [[[1.0, 0.0]], [[0.0, 1.0]]], "r": [[0.0], [0.0]],
                    "c": [[[0.0], [0.0]]]}


def _true_reward(d):
    d["arms"][0]["r"][0][1] = True


def _wrong_header(d):
    d["N"] = 999


def _run_cli(argv):
    """Run `python -m wcmdp.cli argv` in a fresh process."""
    src = str(Path(wcmdp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "wcmdp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("text, field", [
    ("{\"N\": 1, \"alpha\": [0.5", "Expecting"),
    (_instance_text(lambda d: d.pop("alpha")), "alpha"),
    (_instance_text(lambda d: d.update(arms=[])), "arms"),
    (_instance_text(_ragged), "arms[].P"),
    (None, "No such file"),
    (_instance_text(lambda d: d.update(alpha=["0.5"])), "alpha"),
    (_instance_text(_true_reward), "arms[].r"),
    (_instance_text(_wrong_header), "N: header says 999"),
    ("[" * 100000 + "]" * 100000, "recursion"),
], ids=["malformed-json", "missing-alpha", "no-arms", "ragged-arms",
        "missing-path", "string-alpha", "boolean-reward", "header-mismatch",
        "deep-nesting"])
def test_bad_instance_file_exits_3_without_traceback(tmp_path, text, field):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text)
    proc = _run_cli(["solve", "--instance", str(path),
                     "--out", str(tmp_path / "sol.json")])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid instance: ")


def test_huge_reward_exits_3_before_the_solver(tmp_path):
    path = tmp_path / "huge.json"
    assert run(["generate", "--n", "3", "--states", "3", "--actions", "2",
                "--k", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["arms"][0]["r"][0][1] = 1e300
    path.write_text(json.dumps(doc))
    proc = _run_cli(["solve", "--instance", str(path),
                     "--out", str(tmp_path / "sol.json")])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "invalid instance: arm 0: reward entry 1e+300 exceeds 1e+06 in magnitude"]
    assert "HiGHS" not in proc.stdout + proc.stderr


_SIM_FLAGS = ["--horizon", "200", "--reps", "1", "--batch-size", "100"]
_SWEEP = ["sweep", "--states", "3", "--actions", "2", "--k", "1"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--instance", "{inst}", "--horizon", "0", "--out", "{out}"],
    ["simulate", "--instance", "{inst}", "--horizon", "200",
     "--batch-size", "150", "--out", "{out}"],
    ["simulate", "--instance", "{inst}", *_SIM_FLAGS, "--sim-seed", "-1",
     "--out", "{out}"],
    ["simulate", "--instance", "{inst}", "--policies", "id,whittle",
     *_SIM_FLAGS, "--out", "{out}"],
    [*_SWEEP, "--n-list", "8,4", *_SIM_FLAGS, "--out", "{out}"],
    [*_SWEEP, "--n-list", "0", *_SIM_FLAGS, "--out", "{out}"],
    [*_SWEEP, "--n-list", "4,8", "--policies", "id,whittle", *_SIM_FLAGS,
     "--out", "{out}"],
    [*_SWEEP, "--family", "typed", "--types", "4", "--n-list", "8,10",
     *_SIM_FLAGS, "--out", "{out}"],
    ["oracle-check", "--n", "0"],
    ["oracle-check", "--seeds", "0"],
    ["diagnose", "--instance", "{inst}", "--probe-drift", "--samples", "-1",
     "--out", "{out}"],
    ["diagnose", "--instance", "{inst}", "--t-cap", "-1", "--out", "{out}"],
    ["generate", "--n", "4", "--out", "{missing}"],
    ["generate", "--n", "4", "--out", "{dir}"],
    ["solve", "--instance", "{inst}", "--out", "{missing}"],
    ["simulate", "--instance", "{inst}", *_SIM_FLAGS, "--out", "{missing}"],
    [*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", "{missing}"],
    [*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", "{out}",
     "--svg", "{missing}"],
    ["diagnose", "--instance", "{inst}", "--out", "{missing}"],
], ids=["simulate-horizon-0", "simulate-batch-size", "simulate-seed",
        "simulate-unknown-policy",
        "sweep-descending", "sweep-zero-size", "sweep-unknown-policy",
        "sweep-types-divide", "oracle-check-zero-arms",
        "oracle-check-zero-seeds", "diagnose-negative-samples",
        "diagnose-negative-t-cap", "generate-missing-dir",
        "generate-out-is-directory", "solve-missing-dir",
        "simulate-missing-dir", "sweep-missing-dir", "sweep-svg-missing-dir",
        "diagnose-missing-dir"])
def test_bad_flag_value_exits_2_without_traceback(tmp_path, argv):
    inst = tmp_path / "inst.json"
    tiny_instance(seed=0).save(inst)
    out = tmp_path / "out"
    missing = tmp_path / "no-such-dir" / "out"
    proc = _run_cli([a.format(inst=inst, out=out, missing=missing,
                              dir=tmp_path) for a in argv])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines()
            if line.startswith("error:")], proc.stderr
    assert not out.exists() and not missing.parent.exists()


# 10^12 arms at S=10, A=4 need a 2.84 PiB transition table, beyond any
# 48-bit address space, so the allocation fails at once
@pytest.mark.pins
@pytest.mark.parametrize("argv, message", [
    (["generate", "--n", "1000000000000", "--out", "{out}"],
     "Unable to allocate 2.84 PiB"),
    (["sweep", "--n-list", "1000000000000", *_SIM_FLAGS, "--out", "{out}"],
     "Unable to allocate 2.84 PiB"),
    (["generate", "--n", "1", "--states", "40000", "--out", "{out}"],
     "num_states=40000 exceeds 32767"),
], ids=["generate-huge-n", "sweep-huge-n", "generate-too-many-states"])
def test_unallocatable_size_exits_2_without_traceback(tmp_path, argv, message):
    out = tmp_path / "out"
    proc = _run_cli([a.format(out=out) for a in argv])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert message in lines[0]
    assert not out.exists()


@pytest.mark.pins
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_oracle_check_tol_must_be_finite_and_non_negative(capsys, tol):
    assert run(["oracle-check", "--n", "2", "--states", "2", "--actions", "2",
                "--k", "1", "--seeds", "3", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""       # no instance was solved
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --tol "), lines


_ODD_VALUES =[float("nan"), float("inf"), float("-inf"), -1.0, -1e-3, 0.0,
               2.0, 1e300, "x", "0.5", None, True, [], {}, [[1.0]]]


def _swap_type(node):
    if isinstance(node, list):
        return {str(i): v for i, v in enumerate(node)}
    if isinstance(node, dict):
        return list(node.values())
    if isinstance(node, str):
        return 0.0
    return str(node)


@st.composite
def mutated_instance_json(draw):
    """A valid small instance document with one to three mutations: a field
    or element deleted, a value replaced (NaN, inf, negative, huge, wrong
    type), a list made ragged, or a node swapped for another JSON type."""
    doc = tiny_instance(seed=draw(st.integers(0, 3)), n=draw(st.integers(1, 4)),
                        s=draw(st.integers(1, 3)), a=draw(st.integers(1, 3)),
                        k=draw(st.integers(1, 2))).to_json_dict()
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while (isinstance(node, (dict, list)) and node
               and (parent is None or draw(st.booleans()))):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(list(keys)))
            parent, node = node, node[key]
        if parent is None:
            return json.dumps(draw(st.sampled_from(_ODD_VALUES)))
        kind = draw(st.sampled_from(["delete", "value", "ragged", "swap"]))
        if kind == "delete":
            del parent[key]
        elif kind == "value":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        elif kind == "ragged" and isinstance(node, list) and node:
            node.append(node[0]) if draw(st.booleans()) else node.pop()
        else:
            parent[key] = _swap_type(node)
    return json.dumps(doc)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=mutated_instance_json())
def test_mutated_instance_exits_with_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(text)
        code = main(["solve", "--instance", str(path),
                     "--out", str(Path(tmp) / "sol.json")])
    assert code in {0, 2, 3, 4, 5}


class TestPipelineCommands:
    @pytest.fixture()
    def instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "--n", "10", "--states", "3", "--actions",
                    "2", "--k", "1", "--seed", "1", "--out", str(out)]) == 0
        return out

    def test_solve_writes_solution(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert run(["solve", "--instance", str(instance_file),
                    "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        assert set(sol) == {"R_rel", "y", "duals"}
        assert "R_rel" in capsys.readouterr().out

    def test_solve_manifest_records_solver_statistics(self, instance_file,
                                                      tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve", "--instance", str(instance_file),
                    "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "sol.json.manifest.json").read_text())
        solver = manifest["solver"]
        assert set(solver) == {"master_rounds", "columns",
                               "pricing_iterations", "fallback_arms",
                               "lagrangian_gap", "simplex_iterations",
                               "distinct_arms", "audit"}
        assert solver["master_rounds"] >= 1
        assert solver["distinct_arms"] == 10
        assert solver["simplex_iterations"] > 0
        assert 0.0 <= solver["lagrangian_gap"] <= 1e-9
        assert solver["audit"]["tol"] == 1e-8
        assert max(v for k, v in solver["audit"].items() if k != "tol") <= 1e-8
        assert manifest["instance_hash"] == hashlib.sha256(
            instance_file.read_bytes()).hexdigest()

    def test_simulate_writes_csv_row(self, instance_file, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--instance", str(instance_file),
                    "--policies", "id", "--horizon", "400", "--reps", "1",
                    "--batch-size", "200", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        assert len(lines) == 2

    def test_sweep_csv_and_svg(self, tmp_path):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        code = run(["sweep", "--states", "3", "--actions", "2",
                    "--k", "1", "--seed", "0", "--n-list", "8,16",
                    "--policies", "id,erc", "--horizon", "200", "--reps", "1",
                    "--batch-size", "100", "--out", str(out),
                    "--svg", str(svg)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        assert len(lines) == 1 + 4
        assert svg.read_text().startswith("<svg")
        assert (tmp_path / "sweep.csv.manifest.json").exists()

    def test_sweep_rerun_reproduces_csv(self, tmp_path):
        args = ["sweep", "--states", "3", "--actions", "2",
                "--k", "1", "--seed", "0", "--n-list", "8", "--horizon",
                "200", "--reps", "1", "--batch-size", "100"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_simulate_runs_policies_in_order(self, instance_file, tmp_path,
                                             capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--instance", str(instance_file),
                    "--policies", "id,erc", "--horizon", "200", "--reps", "1",
                    "--batch-size", "100", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[CSV_COLUMNS.index("policy")] for row in rows] == [
            "id", "erc"]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == ["id", "erc"]
        assert sorted(p.name for p in tmp_path.glob("sim*")) == [
            "sim.csv", "sim.csv.manifest.json"]

    def test_oracle_check_small(self, capsys):
        assert run(["oracle-check", "--n", "2", "--states", "2", "--actions",
                    "2", "--k", "1", "--seeds", "3"]) == 0
        assert "upper bound holds" in capsys.readouterr().out


class TestDiagnose:
    def test_healthy_instance_emits_json(self, tmp_path):
        inst = tmp_path / "inst.json"
        run(["generate", "--n", "6", "--states", "3", "--actions", "2",
             "--k", "1", "--seed", "2", "--out", str(inst)])
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--instance", str(inst),
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["assumption_ok"] is True
        assert all(isinstance(t, int) for t in payload["tau"])
        assert 0 < payload["gamma"] < 1

    def test_probe_drift_outputs_bound(self, tmp_path):
        inst = tmp_path / "inst.json"
        run(["generate", "--n", "6", "--states", "3", "--actions", "2",
             "--k", "1", "--seed", "2", "--out", str(inst)])
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--instance", str(inst), "--probe-drift",
                    "--samples", "20", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["probes"][0]["within_bound"] is True

    def test_strict_exits_5_on_periodic_chain(self, tmp_path):
        # a single-action two-cycle arm induces a periodic chain
        instance = stack_arms([two_cycle_arm(0.2, 0.8)], [0.3])
        inst = tmp_path / "periodic.json"
        instance.save(inst)
        out = tmp_path / "diag.json"
        code = run(["diagnose", "--instance", str(inst), "--strict",
                    "--out", str(out)])
        assert code == 5

    def test_t_cap_zero_reports_null_constants(self, tmp_path):
        inst = tmp_path / "inst.json"
        run(["generate", "--n", "6", "--states", "3", "--actions", "2",
             "--k", "1", "--seed", "2", "--out", str(inst)])
        out = tmp_path / "diag.json"
        argv = ["diagnose", "--instance", str(inst), "--t-cap", "0",
                "--probe-drift", "--out", str(out)]
        assert run(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["tau"] == [None] * 6
        assert payload["gamma"] is None and payload["C_h"] is None
        assert payload["unichain"] == [True] * 6
        assert payload["assumption_ok"] is False
        assert "probes" not in payload
        assert run(argv + ["--strict"]) == 5

    @pytest.mark.pins
    def test_slowly_mixing_chain_gets_a_probe(self, tmp_path):
        # tau = 500 is well inside --t-cap; the series needs ~30 tau terms
        inst = tmp_path / "slow.json"
        slow_mixing_instance().save(inst)
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--instance", str(inst), "--probe-drift",
                    "--samples", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tau"] == [500, 500, 500]
        assert payload["probes"][0]["num_samples"] == 5

    def test_non_strict_still_reports(self, tmp_path):
        instance = stack_arms([two_cycle_arm(0.2, 0.8)], [0.3])
        inst = tmp_path / "periodic.json"
        instance.save(inst)
        out = tmp_path / "diag.json"
        assert run(["diagnose", "--instance", str(inst),
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["assumption_ok"] is False
        assert payload["tau"][0] is None


_NULL_CONSTANTS = {"gamma": None, "C_tau": None, "L_h": None, "C_h": None}


@pytest.mark.parametrize("arms, payload", [
    ([two_cycle_arm(0.2, 0.8), iid_pair_arm(0.1, 0.6), iid_pair_arm(0.5, 0.3)],
     {"tau": [None, 1, 1], **_NULL_CONSTANTS,
      "unichain": [True, True, True], "aperiodic": [False, True, True],
      "assumption_ok": False}),
    ([iid_pair_arm(0.1, 0.6), absorbing_pair_arm(0.2, 0.9),
      iid_pair_arm(0.5, 0.3)],
     {"tau": [1, None, 1], **_NULL_CONSTANTS,
      "unichain": [True, False, True], "aperiodic": [True, True, True],
      "assumption_ok": False}),
    ([two_cycle_arm(0.2, 0.8)],
     {"tau": [None], **_NULL_CONSTANTS, "unichain": [True],
      "aperiodic": [False], "assumption_ok": False}),
    ([iid_pair_arm(0.1, 0.6), iid_pair_arm(0.5, 0.3)],
     {"tau": [1, 1], "gamma": 0.6065306597126334,
      "C_tau": 27.633988726783887, "L_h": 33.160786472140664,
      "C_h": 33.160786472140664, "unichain": [True, True],
      "aperiodic": [True, True], "assumption_ok": True}),
], ids=["periodic-among-healthy", "multichain", "lone-two-cycle", "healthy"])
def test_diagnose_payload_is_pinned(tmp_path, arms, payload):
    inst = tmp_path / "inst.json"
    stack_arms(arms, [0.3]).save(inst)
    out = tmp_path / "diag.json"
    assert run(["diagnose", "--instance", str(inst), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == payload


class TestSvgChart:
    def test_polylines_per_policy(self):
        rows = [{"N": 100, "policy": "id", "ratio": 0.95},
                {"N": 200, "policy": "id", "ratio": 0.97},
                {"N": 100, "policy": "erc", "ratio": 0.94},
                {"N": 200, "policy": "erc", "ratio": 0.95}]
        svg = ratio_chart_svg(rows)
        assert svg.count("<polyline") == 2
        assert "id" in svg and "erc" in svg


class TestZeroRelaxationValue:
    """A single-action instance has R_rel = 0: the ratio is NaN in the CSV,
    the chart skips it, and solve reports +0."""

    @pytest.fixture()
    def instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "--n", "6", "--states", "3", "--actions", "1",
                    "--k", "1", "--out", str(out)]) == 0
        return out

    def test_solve_prints_positive_zero(self, instance_file, tmp_path, capsys):
        assert run(["solve", "--instance", str(instance_file),
                    "--out", str(tmp_path / "sol.json")]) == 0
        assert "R_rel = 0.0000000000" in capsys.readouterr().out.splitlines()

    def test_simulate_writes_nan_ratio(self, instance_file, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--instance", str(instance_file),
                    "--policies", "id,erc", *_SIM_FLAGS, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[CSV_COLUMNS.index("ratio")] for row in rows] == ["nan"] * 2

    def test_sweep_svg_skips_nan_ratio(self, tmp_path):
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        assert run(["sweep", "--states", "3", "--actions", "1", "--k", "1",
                    "--n-list", "4,8", "--policies", "id,erc", *_SIM_FLAGS,
                    "--out", str(out), "--svg", str(svg)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[CSV_COLUMNS.index("ratio")] for row in rows] == ["nan"] * 4
        assert svg.read_text().startswith("<svg")
        assert "nan" not in svg.read_text()


@pytest.mark.pins
class TestAuditOnEveryPlan:
    """Every command that plans through PolicyBundle.prepare audits the
    relaxation: a solution whose y is scaled by 1 + 1e-6 fails
    normalization, and the command exits 3 without writing an output."""

    @pytest.fixture()
    def broken_solve(self, monkeypatch):
        from wcmdp import simulator
        real = simulator.solve_lp

        def scaled(problem):
            solution = real(problem)
            return dataclasses.replace(solution, y=solution.y * (1.0 + 1e-6))

        monkeypatch.setattr(simulator, "solve_lp", scaled)

    @pytest.fixture()
    def instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "--n", "6", "--states", "3", "--actions", "2",
                    "--k", "1", "--out", str(out)]) == 0
        return out

    def test_prepare_raises(self, broken_solve):
        instance = tiny_instance(seed=0, n=6, s=3, a=2, k=1)
        with pytest.raises(LpSolveError, match="max_normalization_residual"):
            PolicyBundle.prepare(instance)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--instance", "{inst}", "--policies", "id,erc",
         *_SIM_FLAGS, "--out", "{out}"],
        [*_SWEEP, "--n-list", "4,8", "--policies", "id,erc", *_SIM_FLAGS,
         "--out", "{out}", "--svg", "{out}.svg"],
        ["diagnose", "--instance", "{inst}", "--probe-drift", "--out", "{out}"],
        ["oracle-check", "--n", "2", "--states", "2", "--actions", "2",
         "--k", "1", "--seeds", "2"],
    ], ids=["simulate", "sweep", "diagnose", "oracle-check"])
    def test_command_exits_3(self, broken_solve, instance_file, tmp_path,
                             capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(inst=instance_file, out=out) for a in argv]
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("relaxation solve failed:")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "inst.json", "inst.json.manifest.json"]
