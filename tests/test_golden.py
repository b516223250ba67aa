"""Golden data outputs: sha256 digests of five CLI outputs, and of the
instances the benchmark workloads generate.

The digests pin the RNG and serialization contract: the same flags must
reproduce every data output byte for byte, through any refactor of the
model, the relaxation or the simulation layer. Manifests carry timestamps
and are not data outputs, so they are not pinned.

A digest change is a change of a data output. Record new digests only when
that change is intended, and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from wcmdp.cli import main
from wcmdp.model import WcmdpInstance

pytestmark = pytest.mark.pins

GENERATE = ["generate", "--family", "fully-het", "--n", "12", "--states", "4",
            "--actions", "3", "--k", "2", "--seed", "7"]
# a typed file: each of the 4 distinct arms stored once, plus arm_type
TYPED_GENERATE = ["generate", "--family", "typed", "--types", "4", "--n", "12",
                  "--states", "4", "--actions", "3", "--k", "2", "--seed", "7"]
SWEEP = ["sweep", "--family", "typed", "--types", "4", "--states", "3",
         "--actions", "3", "--k", "2", "--seed", "3", "--n-list", "8,16",
         "--policies", "id,erc", "--horizon", "400", "--reps", "2",
         "--batch-size", "100", "--sim-seed", "5"]

DIGESTS = {
    "instance": "432900a5f2378f7d2fb942ab0ec1175549511c24766249848c6b12051d224bd3",
    "solve": "28705a139e28735cf37f5d0c4e5e3d5fdacb8ef6f844f6ea5bf78e43ff77f7c3",
    "diagnose": "9ac6e384cf0ad1008d33bccbe873213798de34f2f8a133c37511bec76bccfa37",
    "sweep": "aa05f23289f0e9b7b5af4666b8050cfe3d096b2abc2181637d97ba425dc10d59",
    "typed-instance": "759a029b8ddf951e573a8fa2694c55eef1dd36b65459e289784bc2570adb09b5",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    inst, sol, diag, csv, typed = (tmp / "inst.json", tmp / "sol.json",
                                   tmp / "diag.json", tmp / "sweep.csv",
                                   tmp / "typed.json")
    assert main(GENERATE + ["--out", str(inst)]) == 0
    assert main(TYPED_GENERATE + ["--out", str(typed)]) == 0
    assert main(["solve", "--instance", str(inst), "--out", str(sol)]) == 0
    assert main(["diagnose", "--instance", str(inst), "--probe-drift",
                 "--samples", "50", "--sim-seed", "2", "--out", str(diag)]) == 0
    assert main(SWEEP + ["--out", str(csv)]) == 0
    return {"instance": inst, "solve": sol, "diagnose": diag, "sweep": csv,
            "typed-instance": typed}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_data_output_digest(outputs, name):
    assert _sha256(outputs[name]) == DIGESTS[name]


# the typed-k1-sweep instances: (N, sha256 of the loaded arrays' bytes)
TYPED_K1 = ["--family", "typed", "--types", "10", "--states", "10",
            "--actions", "4", "--k", "1", "--cost-mode", "action-only",
            "--seed", "1"]
TYPED_K1_ARRAYS = {
    100: "51bac7e375fab34a60bce10c4b3f72f7d41687bee04667964a78c7ced13bd8d3",
    200: "968063be2138e404aba89eb29c53232bdc800f2ccb956bf946a2be0fdd660314",
    400: "3f900b144987b903f7cedad6b603395ca9ccd4cc8cfbf789895f60c6ba70269a",
}
# the plan-het-n800 instance file's text
HET_N800 = ["--family", "fully-het", "--n", "800", "--states", "10",
            "--actions", "4", "--k", "4", "--seed", "0"]
HET_N800_TEXT = "d2e6561e959eeb28699c78e2c0a086b3fc33475f32510da8b844330efae7f36c"


def _generate(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", *argv, "--out", str(path)]) == 0


@pytest.mark.parametrize("n", sorted(TYPED_K1_ARRAYS))
def test_typed_instance_loads_to_pinned_arrays(tmp_path, n):
    path = tmp_path / "inst.json"
    _generate(TYPED_K1 + ["--n", str(n)], path)
    instance = WcmdpInstance.load(path)
    digest = hashlib.sha256()
    for field in ("transition", "reward", "cost", "alpha"):
        digest.update(getattr(instance, field).tobytes())
    assert digest.hexdigest() == TYPED_K1_ARRAYS[n]


def test_het_n800_file_text(tmp_path):
    path = tmp_path / "inst.json"
    _generate(HET_N800, path)
    assert _sha256(path) == HET_N800_TEXT
