import copy
import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wcmdp
from wcmdp import cli
from wcmdp.cli import _load_instance, main, ratio_chart_svg
from wcmdp.lp_relax import LpSolveError, check_solution
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
        manifest = json.loads((tmp_path / "typed.json.manifest.json").read_text())
        assert manifest["instance_hash"] == hashlib.sha256(
            out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("existing", [None, "old text"])
    def test_failed_write_leaves_out_as_it_was(self, tmp_path, monkeypatch,
                                               capsys, existing):
        chunks = WcmdpInstance.json_chunks

        def fail_after_first_arm(instance):
            it = chunks(instance)
            yield next(it)  # the header
            yield next(it)  # arm 0
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(WcmdpInstance, "json_chunks", fail_after_first_arm)
        out = tmp_path / "inst.json"
        if existing is not None:
            out.write_text(existing)
        code = run(["generate", "--n", "3", "--states", "3", "--actions", "2",
                    "--k", "1", "--out", str(out)])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if existing is None else ["inst.json"])
        if existing is not None:
            assert out.read_text() == existing

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
    """A full-form file of two distinct arms, edited by `edit`."""
    d = json.loads(stack_arms([single_state_arm([0.0, 1.0], [[0.0, 1.0]]),
                               single_state_arm([0.0, 0.5], [[0.0, 1.0]])],
                              [0.5]).to_json())
    edit(d)
    return json.dumps(d)


def _typed_text(edit) -> str:
    """An arm_type-form file, arms A A B stored as A B, edited by `edit`."""
    a = single_state_arm([0.0, 1.0], [[0.0, 1.0]])
    b = single_state_arm([0.0, 0.5], [[0.0, 1.0]])
    d = json.loads(stack_arms([a, a, b], [0.5]).to_json())
    edit(d)
    return json.dumps(d)


def _set_type(value):
    def edit(d):
        d["arm_type"][0] = value
    return edit


def _ragged(d):
    d["arms"][1] = {"P": [[[1.0, 0.0]], [[0.0, 1.0]]], "r": [[0.0], [0.0]],
                    "c": [[[0.0], [0.0]]]}


def _true_reward(d):
    d["arms"][0]["r"][0][1] = True


def _boolean_in_second_arm(d):
    d["arms"][1]["P"][0][1][0] = True


def _second_cost_flattened(d):
    d["arms"][1]["c"] = d["arms"][1]["c"][0]


def _string_in_stored_reward(d):
    d["arms"][0]["r"][0][1] = "0.5"


def _wrong_header(d):
    d["N"] = 999


def _run_cli(argv, **kwargs):
    """Run `python -m wcmdp.cli argv` in a fresh process; `kwargs` go to
    subprocess.run."""
    src = str(Path(wcmdp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "wcmdp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          **kwargs)


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
    (_typed_text(_set_type(2)), "arm_type[0] = 2"),
    (_typed_text(_set_type(-1)), "arm_type[0] = -1"),
    (_typed_text(_set_type(True)), "arm_type[0] = True"),
    (_typed_text(_set_type(0.0)), "arm_type[0] = 0.0"),
    (_typed_text(lambda d: d.update(arm_type={"0": 0})), "arm_type"),
    (_typed_text(lambda d: d.update(arm_type=[])), "arm_type"),
    (_typed_text(lambda d: d["arm_type"].append(0)), "N: header says 3"),
    (_typed_text(lambda d: d.update(arm_type=[0, 0, 0])),
     "arm_type: stored arm 1 is never referenced"),
    (_instance_text(_boolean_in_second_arm), "arms[].P"),
    (_instance_text(_second_cost_flattened), "arms[].c"),
    (_typed_text(_string_in_stored_reward), "arms[].r"),
    (b'{"N": \xff}', "can't decode byte 0xff"),
], ids=["malformed-json", "missing-alpha", "no-arms", "ragged-arms",
        "missing-path", "string-alpha", "boolean-reward", "header-mismatch",
        "deep-nesting", "arm-type-out-of-range", "arm-type-negative",
        "arm-type-boolean", "arm-type-float", "arm-type-not-a-list",
        "arm-type-empty", "arm-type-length", "arm-type-unreferenced",
        "boolean-in-second-arm", "second-cost-one-dim-fewer",
        "typed-string-reward", "not-utf-8"])
def test_bad_instance_file_exits_3_without_traceback(tmp_path, text, field):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    proc = _run_cli(["solve", "--instance", str(path),
                     "--out", str(tmp_path / "sol.json")])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid instance: ")
    with pytest.raises((OSError, ValueError, RecursionError)) as exc:
        WcmdpInstance.load(path)
    assert lines[0] == f"invalid instance: {exc.value}"


def test_load_heap_peak_stays_within_file_size_multiple(tmp_path):
    """The CLI hashes the file's bytes and drops them before parsing; with
    the bytes held while json.loads decoded them, the heap peaked at 2.46x
    the file size, against 2.0x for WcmdpInstance.load."""
    path = tmp_path / "inst.json"
    tiny_instance(seed=3, n=200, s=10, a=4, k=4).save(path)
    tracemalloc.start()
    try:
        _, digest = _load_instance(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak <= 2.2 * path.stat().st_size


@pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32",
                                      "utf-8-sig"])
def test_instance_file_reads_in_every_json_encoding(tmp_path, encoding):
    """WcmdpInstance.load and the CLI decode a file as json.loads decodes
    bytes, whatever the locale: the encoding is read from the first bytes,
    and a byte order mark is dropped."""
    utf8 = tmp_path / "utf8.json"
    tiny_instance(seed=1, n=5, s=3, a=2, k=2).save(utf8)
    other = tmp_path / "other.json"
    other.write_bytes(utf8.read_bytes().decode("utf-8").encode(encoding))
    reference = WcmdpInstance.load(utf8)
    for instance in (WcmdpInstance.load(other), _load_instance(str(other))[0]):
        for name in ("transition", "reward", "cost", "alpha"):
            assert (getattr(instance, name).tobytes()
                    == getattr(reference, name).tobytes())
    r_rel = []
    for path in (utf8, other):
        out = tmp_path / f"{path.stem}-sol.json"
        assert run(["solve", "--instance", str(path), "--out", str(out)]) == 0
        r_rel.append(json.loads(out.read_text())["R_rel"])
    assert r_rel[0] == r_rel[1]


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
    ["oracle-check", "--n", "10", "--states", "10", "--actions", "4"],
    ["diagnose", "--instance", "{inst}", "--probe-drift", "--samples", "-1",
     "--out", "{out}"],
    ["diagnose", "--instance", "{inst}", "--t-cap", "-1", "--out", "{out}"],
    [*_SWEEP, "--n-list", "4", "--seed", "-1", *_SIM_FLAGS, "--out", "{out}"],
    ["diagnose", "--instance", "{inst}", "--probe-drift", "--sim-seed", "-1",
     "--out", "{out}"],
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
        "oracle-check-zero-seeds", "oracle-check-too-many-pairs",
        "diagnose-negative-samples",
        "diagnose-negative-t-cap", "sweep-negative-seed",
        "diagnose-negative-sim-seed", "generate-missing-dir",
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


@pytest.mark.parametrize("argv, limit", [
    (["--n", "6", "--states", "10", "--actions", "1", "--seeds", "1"], None),
    # seeds 0 and 1 hold 48 and 24 entries, seed 2 holds 56
    (["--n", "2", "--states", "2", "--actions", "2", "--seeds", "3"], 50),
], ids=["too-many-entries", "third-seed-too-many-entries"])
def test_oracle_check_size_error_comes_before_any_solve(monkeypatch, capsys,
                                                        argv, limit):
    import wcmdp.policies as policies

    def no_solve(instance, seed=0):
        raise AssertionError("the relaxation was solved")

    monkeypatch.setattr(PolicyBundle, "prepare", no_solve)
    if limit is not None:
        monkeypatch.setattr(policies, "ORACLE_MAX_DENSE", limit)
    assert run(["oracle-check", *argv, "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "transition entries exceed the guard" in lines[0]


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command generates, loads or plans anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran before checking its outputs")

    for name in ("generate", "_load_instance", "sweep"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(PolicyBundle, "prepare", refuse)


def _rejected_before_any_work(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write "), lines
    assert message in lines[0]


_INSTANCE_COMMANDS = {
    "solve": ["solve"],
    "simulate": ["simulate", *_SIM_FLAGS],
    "diagnose": ["diagnose"],
}


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "4", "--out", "{dir}"],
    ["solve", "--instance", "{inst}", "--out", "{dir}"],
    ["simulate", "--instance", "{inst}", *_SIM_FLAGS, "--out", "{dir}"],
    ["diagnose", "--instance", "{inst}", "--out", "{dir}"],
    [*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", "{dir}"],
    [*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", "{dir}/s.csv",
     "--svg", "{dir}"],
], ids=["generate", "solve", "simulate", "diagnose", "sweep", "sweep-svg"])
def test_output_that_is_a_directory_exits_2_before_any_work(
        tmp_path, capsys, no_work, argv):
    inst = tmp_path / "inst.json"
    tiny_instance(seed=0).save(inst)
    _rejected_before_any_work(
        capsys, [a.format(inst=inst, dir=tmp_path) for a in argv],
        "it is a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


@pytest.mark.parametrize("spelling", ["same", "dot-dot", "symlink",
                                      "manifest"])
@pytest.mark.parametrize("command", sorted(_INSTANCE_COMMANDS))
def test_out_that_is_the_instance_exits_2_before_any_work(
        tmp_path, capsys, no_work, command, spelling):
    # "manifest": the instance is the file that --out's manifest would be
    name = "run.manifest.json" if spelling == "manifest" else "inst.json"
    inst = tmp_path / name
    tiny_instance(seed=0).save(inst)
    before = inst.read_bytes()
    (tmp_path / "sub").mkdir()
    out = {"same": str(inst),
           "dot-dot": os.path.join(tmp_path, "sub", "..", name),
           "symlink": str(tmp_path / "sub" / "link.json"),
           "manifest": str(tmp_path / "run")}[spelling]
    if spelling == "symlink":
        os.symlink(inst, out)
    _rejected_before_any_work(
        capsys, [*_INSTANCE_COMMANDS[command], "--instance", str(inst),
                 "--out", out], "it is the --instance file")
    assert inst.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name, "sub"]


@pytest.mark.parametrize("spelling", ["same", "dot", "out-manifest"])
def test_svg_that_is_the_out_file_exits_2_before_any_work(
        tmp_path, capsys, no_work, spelling):
    out = str(tmp_path / "s.csv")
    svg = {"same": out, "dot": os.path.join(tmp_path, ".", "s.csv"),
           "out-manifest": f"{out}.manifest.json"}[spelling]
    _rejected_before_any_work(
        capsys, [*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", out,
                 "--svg", svg], "it is already written for --out")
    assert list(tmp_path.iterdir()) == []


# relative paths keep each manifest's size independent of the temporary
# directory: the sweep's CSV (about 270 bytes) and its manifest (about 550)
# fit under 1024 bytes, so its failing write is the SVG (about 1400)
@pytest.mark.skipif(sys.platform == "win32", reason="POSIX resource limits")
@pytest.mark.parametrize("existing", [None, "old text"])
@pytest.mark.parametrize("argv, target, max_file_bytes", [
    (["solve", "--instance", "inst.json", "--out", "sol.json"],
     "sol.json", 128),
    (["simulate", "--instance", "inst.json", *_SIM_FLAGS, "--out", "sim.csv"],
     "sim.csv", 128),
    ([*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", "sweep.csv",
      "--svg", "sweep.svg"], "sweep.svg", 1024),
    (["diagnose", "--instance", "inst.json", "--out", "diag.json"],
     "diag.json", 128),
], ids=["solve", "simulate", "sweep-svg", "diagnose"])
def test_failed_output_write_leaves_nothing_behind(
        tmp_path, argv, target, max_file_bytes, existing):
    import resource

    tiny_instance(seed=0, n=40).save(tmp_path / "inst.json")
    if existing is not None:
        (tmp_path / target).write_text(existing)

    def cap():
        # in the child only: a write past the limit fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (max_file_bytes, max_file_bytes))

    proc = _run_cli(argv, cwd=tmp_path, preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "File too large" in lines[0]
    if existing is None:
        assert not (tmp_path / target).exists()
    else:
        assert (tmp_path / target).read_text() == existing
    assert not (tmp_path / f"{target}.manifest.json").exists()
    assert list(tmp_path.glob("*.tmp")) == []
    # nor any other output of the command, such as the sweep's CSV
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {"inst.json", target} if existing is not None else {"inst.json"})


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX resource limits")
def test_failed_manifest_write_leaves_the_previous_run_as_it_was(
        tmp_path, monkeypatch):
    import resource

    argv = ["simulate", "--instance", "inst.json", *_SIM_FLAGS,
            "--out", "st.csv", "--sim-seed"]
    for name in ("free", "run"):
        (tmp_path / name).mkdir()
        tiny_instance(seed=0, n=40).save(tmp_path / name / "inst.json")
    # the seed-2 CSV fits under the cap, its manifest does not
    monkeypatch.chdir(tmp_path / "free")
    assert run([*argv, "2"]) == 0
    assert Path("st.csv").stat().st_size < 300
    assert Path("st.csv.manifest.json").stat().st_size > 300
    monkeypatch.chdir(tmp_path / "run")
    assert run([*argv, "1"]) == 0
    before = {p.name: p.read_bytes() for p in Path(".").iterdir()}

    def cap():
        resource.setrlimit(resource.RLIMIT_FSIZE, (300, 300))

    proc = _run_cli([*argv, "2"], cwd=tmp_path / "run", preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    # the seed-1 CSV and manifest, byte for byte, and no temporary file
    assert {p.name: p.read_bytes() for p in Path(".").iterdir()} == before


@pytest.mark.parametrize("argv, outputs", [
    (["simulate", "--instance", "inst.json", *_SIM_FLAGS, "--out", "sim.csv"],
     ["sim.csv"]),
    (["diagnose", "--instance", "inst.json", "--probe-drift", "--samples",
      "5", "--out", "diag.json"], ["diag.json"]),
    ([*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", "sweep.csv",
      "--svg", "sweep.svg"], ["sweep.csv", "sweep.svg"]),
], ids=["simulate", "diagnose", "sweep-svg"])
def test_every_manifest_describes_its_run(tmp_path, monkeypatch, argv,
                                          outputs):
    tiny_instance(seed=0, n=40).save(tmp_path / "inst.json")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    manifests = [json.loads(Path(f"{out}.manifest.json").read_text())
                 for out in outputs]
    instance_hash = None if argv[0] == "sweep" else hashlib.sha256(
        Path("inst.json").read_bytes()).hexdigest()
    for manifest in manifests:
        assert manifest["command"] == argv[0]
        assert manifest["flags"]["out"] == outputs[0]
        assert manifest["instance_hash"] == instance_hash
    untimed = [{k: v for k, v in m.items() if k != "timestamp"}
               for m in manifests]
    assert all(m == untimed[0] for m in untimed)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--instance", "inst.json", "--policies", "id,erc",
      *_SIM_FLAGS, "--out", "sim.csv"], "budget violation detected"),
    ([*_SWEEP, "--n-list", "4", *_SIM_FLAGS, "--out", "sweep.csv",
      "--svg", "sweep.svg"], "budget violation detected during sweep"),
], ids=["simulate", "sweep-svg"])
def test_budget_violation_exits_4_and_writes_nothing(tmp_path, monkeypatch,
                                                     capsys, argv, message):
    from wcmdp import simulator
    tiny_instance(seed=0, n=40).save(tmp_path / "inst.json")
    monkeypatch.chdir(tmp_path)
    # every simulated step then exceeds the budget audit's limit
    monkeypatch.setattr(simulator, "FEASIBILITY_SLACK", -math.inf)
    assert run(argv) == 4
    assert capsys.readouterr().err.splitlines() == [message]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_oracle_check_exits_3_when_r_star_exceeds_r_rel(monkeypatch, capsys):
    monkeypatch.setattr(cli, "exact_oracle", lambda instance: 10.0)
    assert run(["oracle-check", "--n", "2", "--states", "2", "--actions",
                "2", "--k", "1", "--seeds", "2"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("upper bound violated by ")


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
    doc = json.loads(tiny_instance(
        seed=draw(st.integers(0, 3)), n=draw(st.integers(1, 4)),
        s=draw(st.integers(1, 3)), a=draw(st.integers(1, 3)),
        k=draw(st.integers(1, 2))).to_json())
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
                               "distinct_arms", "warm_start", "audit"}
        assert solver["warm_start"] is None     # N=10 is not warm-started
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

    def test_oracle_check_prints_a_zero_optimum_unsigned(self, capsys):
        assert run(["oracle-check", "--n", "2", "--states", "2", "--actions",
                    "1", "--k", "1", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert out.splitlines()[0] == (
            "seed=0: R*=0.00000000 R_rel=0.00000000 margin=+0.00e+00")


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
    """Every command that solves the relaxation plans through
    PolicyBundle.prepare, which audits it: a solution whose y is scaled by
    1 + 1e-6 fails normalization, and the command, solve included, exits 3
    without writing an output."""

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

    def test_prepare_keeps_the_audit_report(self):
        instance = tiny_instance(seed=0, n=6, s=3, a=2, k=1)
        bundle = PolicyBundle.prepare(instance)
        assert bundle.audit.ok
        assert bundle.audit == check_solution(instance, bundle.solution)

    @pytest.mark.parametrize("argv", [
        ["solve", "--instance", "{inst}", "--out", "{out}"],
        ["simulate", "--instance", "{inst}", "--policies", "id,erc",
         *_SIM_FLAGS, "--out", "{out}"],
        [*_SWEEP, "--n-list", "4,8", "--policies", "id,erc", *_SIM_FLAGS,
         "--out", "{out}", "--svg", "{out}.svg"],
        ["diagnose", "--instance", "{inst}", "--probe-drift", "--out", "{out}"],
        ["oracle-check", "--n", "2", "--states", "2", "--actions", "2",
         "--k", "1", "--seeds", "2"],
    ], ids=["solve", "simulate", "sweep", "diagnose", "oracle-check"])
    def test_command_exits_3(self, broken_solve, instance_file, tmp_path,
                             capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(inst=instance_file, out=out) for a in argv]
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("relaxation solve failed:")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "inst.json", "inst.json.manifest.json"]
