"""Golden data outputs: sha256 digests of four CLI outputs.

The digests pin the RNG and serialization contract: the same flags must
reproduce every data output byte for byte, through any refactor of the
model, the relaxation or the simulation layer. Manifests carry timestamps
and are not data outputs, so they are not pinned.

A digest change is a change of a data output. Record new digests only when
that change is intended, and say why in CHANGES.md.
"""

import hashlib

import pytest

from wcmdp.cli import main

GENERATE = ["generate", "--family", "fully-het", "--n", "12", "--states", "4",
            "--actions", "3", "--k", "2", "--seed", "7"]
SWEEP = ["sweep", "--family", "typed", "--types", "4", "--states", "3",
         "--actions", "3", "--k", "2", "--seed", "3", "--n-list", "8,16",
         "--policies", "id,erc", "--horizon", "400", "--reps", "2",
         "--batch-size", "100", "--sim-seed", "5"]

DIGESTS = {
    "instance": "432900a5f2378f7d2fb942ab0ec1175549511c24766249848c6b12051d224bd3",
    "solve": "28705a139e28735cf37f5d0c4e5e3d5fdacb8ef6f844f6ea5bf78e43ff77f7c3",
    "diagnose": "9ac6e384cf0ad1008d33bccbe873213798de34f2f8a133c37511bec76bccfa37",
    "sweep": "aa05f23289f0e9b7b5af4666b8050cfe3d096b2abc2181637d97ba425dc10d59",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    inst, sol, diag, csv = (tmp / "inst.json", tmp / "sol.json",
                            tmp / "diag.json", tmp / "sweep.csv")
    assert main(GENERATE + ["--out", str(inst)]) == 0
    assert main(["solve", "--instance", str(inst), "--out", str(sol)]) == 0
    assert main(["diagnose", "--instance", str(inst), "--probe-drift",
                 "--samples", "50", "--sim-seed", "2", "--out", str(diag)]) == 0
    assert main(SWEEP + ["--out", str(csv)]) == 0
    return {"instance": inst, "solve": sol, "diagnose": diag, "sweep": csv}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_data_output_digest(outputs, name):
    assert _sha256(outputs[name]) == DIGESTS[name]
