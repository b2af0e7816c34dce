"""Artifact bytes pinned across commits.

Runs ``stats``, ``stats --jitter`` (4 and 64 trials), ``match`` (plain
and ``--jitter``) and ``optimize`` on a small fixed listing
(tests/data/golden_faces.txt: three images with faces, one empty image,
sides from 6 to 300 px, one degenerate line, one face sitting exactly on
an anchor), the closed-form ``emo`` table, and ``emo --mc`` at 1 and 2
workers with 70,000 samples per cell (one full 65,536-sample chunk plus a
remainder chunk) on two tables: one with no two cells equal up to a
power-of-two scale, and the bench's table, whose cells (8, 8) and (16, 16),
and (16, 8) and (32, 16), are such twins; and ``grid`` on a 1023.5x767 plane (98,304 anchors, so
the table spans several render chunks), in both output formats, and
compares the sha256 of every artifact with digests frozen from an earlier
build.  A refactor that claims identical output must leave every digest
alone; a deliberate output change must update the digest and say which
rows moved.

The ``parameters`` and ``seed`` each of those runs records in its manifest
(``grid`` on a 64x48 plane) are pinned as well: they are what ``replay``
reads back, so an old manifest replays only while the schema stays put.

The committed ``golden_*.manifest.json`` files were written by that earlier
build with paths relative to the repository root; replaying them checks
that old manifests stay readable and reproduce their recorded outputs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from anchorlap import AnchorSpec, build_layout
from anchorlap.cli import main
from anchorlap.emo import emo_monte_carlo

ROOT = Path(__file__).resolve().parents[1]
DATA = "tests/data"
FACES = f"{DATA}/golden_faces.txt"
SPEC = f"{DATA}/golden_spec.json"
SPACE = f"{DATA}/golden_space.json"

RUNS = {
    "stats": ["stats", "--annotations", FACES, "--spec", SPEC],
    "stats-jitter": ["stats", "--annotations", FACES, "--spec", SPEC,
                     "--jitter", "--trials", "4", "--seed", "3"],
    # 64 trials of seed 3 draw all four offsets of the golden spec; the
    # 4-trial run above draws only two of them.
    "stats-jitter64": ["stats", "--annotations", FACES, "--spec", SPEC,
                       "--jitter", "--trials", "64", "--seed", "3"],
    "match": ["match", "--annotations", FACES, "--spec", SPEC, "--hc", "5"],
    # Seed 3 shifts the faces by (1, 1) on the golden spec; 3 of the 11
    # faces are hard, so compensation runs on the shifted faces.
    "match-jitter": ["match", "--annotations", FACES, "--spec", SPEC, "--hc", "5",
                     "--jitter", "--seed", "3"],
    "emo": ["emo", "--scales", "6,16,40", "--strides", "4,8"],
    "optimize": ["optimize", "--annotations", FACES, "--space", SPACE],
}
EMO_MC = ["emo", "--mc", "--scales", "6,16,40", "--strides", "4,16",
          "--samples", "70000", "--seed", "11"]
RUNS["emo-mc"] = EMO_MC + ["--workers", "1"]
RUNS["emo-mc-2workers"] = EMO_MC + ["--workers", "2"]
EMO_MC_TWINS = ["emo", "--mc", "--scales", "8,16,32", "--strides", "8,16",
                "--samples", "70000", "--seed", "11"]
RUNS["emo-mc-twins"] = EMO_MC_TWINS + ["--workers", "1"]
RUNS["emo-mc-twins-2workers"] = EMO_MC_TWINS + ["--workers", "2"]
RUNS["grid"] = ["grid", "--spec", SPEC, "--plane", "1023.5x767"]

BUCKETS = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
EMO_MC_PARAMETERS = {"mode": "monte_carlo", "scales": [6.0, 16.0, 40.0], "strides": [4.0, 16.0],
                     "cells": 512, "samples": 70000, "seed": 11}
EMO_MC_TWINS_PARAMETERS = {**EMO_MC_PARAMETERS, "scales": [8.0, 16.0, 32.0], "strides": [8.0, 16.0]}
# The manifest ``parameters`` of each run, less ``format``; ``seed`` is also
# the manifest's top-level ``seed`` (null where absent).
PARAMETERS = {
    "emo": {"mode": "closed_form", "scales": [6.0, 16.0, 40.0], "strides": [4.0, 8.0],
            "cells": 512, "samples": 100000},
    "emo-mc": EMO_MC_PARAMETERS,
    "emo-mc-2workers": EMO_MC_PARAMETERS,
    "emo-mc-twins": EMO_MC_TWINS_PARAMETERS,
    "emo-mc-twins-2workers": EMO_MC_TWINS_PARAMETERS,
    "grid": {"plane_w": 64.0, "plane_h": 48.0},
    "match": {"t_high": 0.5, "t_low": 0.3, "hc_n": 5, "jitter": False},
    "match-jitter": {"t_high": 0.5, "t_low": 0.3, "hc_n": 5, "jitter": True, "seed": 3},
    "optimize": {"tau": 0.5},
    "stats": {"buckets": BUCKETS, "tau": 0.5, "jitter": False, "trials": 16},
    "stats-jitter": {"buckets": BUCKETS, "tau": 0.5, "jitter": True, "trials": 4, "seed": 3},
    "stats-jitter64": {"buckets": BUCKETS, "tau": 0.5, "jitter": True, "trials": 64, "seed": 3},
}
# The manifest pins only parameters, so its ``grid`` run takes a small plane.
MANIFEST_RUNS = {**RUNS, "grid": ["grid", "--spec", SPEC, "--plane", "64x48"]}

DIGESTS = {
    "emo.csv": "5df34e860026ac243fcd89cd7da59567739390fe3f88bf8caf6788f601afb5ae",
    "emo.json": "4e03b31bb69ed12cbb6143a9d5ed7334c7dbb052723900150d1170e4af123e3c",
    "emo-mc.csv": "e19f294308bcf64aaff8aed3039985774227c7660c4f83079553f0fe56877a5f",
    "emo-mc.json": "f4192f0672707fec13718f043086527c51d9fbf6bc6898466fcf38fc268204a2",
    "emo-mc-2workers.csv": "e19f294308bcf64aaff8aed3039985774227c7660c4f83079553f0fe56877a5f",
    "emo-mc-2workers.json": "f4192f0672707fec13718f043086527c51d9fbf6bc6898466fcf38fc268204a2",
    "emo-mc-twins.csv": "a3b32e7c147a14a8c58196833d69d526bdb6f5b07afe83fd3e155298f179b567",
    "emo-mc-twins.json": "a0bb58d0ce1f8ca149c2aba6118ad034439e22b22f40083ef6f4521a0e34df9d",
    "emo-mc-twins-2workers.csv": "a3b32e7c147a14a8c58196833d69d526bdb6f5b07afe83fd3e155298f179b567",
    "emo-mc-twins-2workers.json": "a0bb58d0ce1f8ca149c2aba6118ad034439e22b22f40083ef6f4521a0e34df9d",
    "grid.csv": "5460b731655b91a07be4c6ea13ae0de9d822b812e50db64ae61fbe7ecff0aeab",
    "grid.json": "042152e3461ddaa8d3b06cbf6ae00aa58b70216f1652f51e1193a4d438a43ced",
    "match.csv": "7272e4f38f1d39a8a6e98f3035418d971b6be604ea62de0cc41c8a1577281596",
    "match.csv.anchors.csv": "8ea5c205c577e598732455c48fe85b2658da466532cb24b087826ce3699e43b1",
    "match.json": "8d3a700b2f04b27e9c7564e89dcff1476c66f0806123f0e72b03ea1968eac766",
    "match.json.anchors.json": "a42afbdcf2b5250058d847a40a6aa7a2a00ca65a57b76c627d0b3d7490ba6a05",
    "match-jitter.csv": "ec17c6cc51a51596a2a894ffc4e9184a444082418bc6a71b5ea99e4634e9bfcd",
    "match-jitter.csv.anchors.csv": "352cf98f47b2a8b93fc8030cb201e1d240e88e69e5f5dd69f79f5d5312e5cba3",
    "match-jitter.json": "869865de6d62de9f73afee0978931ce116d6ba2f9b93f57a6b259b7a32558142",
    "match-jitter.json.anchors.json": "02766e4a633c37edc40396c549bc1308f788c791cf1f3743606ddfa768aee63b",
    "optimize.csv": "c100343a4fa7abea2dd9de3830a621205d50958c2039684755c64b6882c95694",
    "optimize.json": "2f3a5f84fd32efb2e58ecdb6f77d9ee98f2f46585f895b69bd27afbc1e7d8681",
    "stats-jitter.csv": "235d6a80d15f07d5c3254a81ebbf6a70d5f393f7aa3b7df6419d93b333fc628d",
    "stats-jitter.json": "4e96155712fd2f665650cfebb901b8f68097ca2ddabfcbad41403c8326bdbc5d",
    "stats-jitter64.csv": "dedf996de50bcc49ce0fb1b38c6d68cbbf507f4cda78351e5120036528a83dbe",
    "stats-jitter64.json": "f25a5445518079077cfb803e10934b0b0bcf408b53c898f71c25a7f5f48c7b7a",
    "stats.csv": "0846eb656914e283eacb81f3d1104b82de54630353b3c355d411924db7baec66",
    "stats.json": "7946256aeb83cd4cf7974ef6e230fb3e67a0dcd270bee27418d41753c3100811",
}


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_artifact_digests_are_frozen(run, fmt, tmp_path, at_root):
    out = tmp_path / f"{run}.{fmt}"
    assert main(RUNS[run] + ["--format", fmt, "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    got = {
        f"{run}.{fmt}" + entry["path"][len(str(out)):]: _sha256(entry["path"])
        for entry in manifest["outputs"]
    }
    want = {k: v for k, v in DIGESTS.items() if k.startswith(f"{run}.{fmt}")}
    assert got == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("run", sorted(MANIFEST_RUNS))
def test_manifest_parameters_are_frozen(run, fmt, tmp_path, at_root):
    out = tmp_path / f"{run}.{fmt}"
    assert main(MANIFEST_RUNS[run] + ["--format", fmt, "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    want = {**PARAMETERS[run], "format": fmt}
    # Compared as JSON text, so 64 for 64.0 or 1 for true also fails.
    assert json.dumps(manifest["parameters"], sort_keys=True) == json.dumps(want, sort_keys=True)
    assert manifest["seed"] == want.get("seed")


@pytest.mark.parametrize("name", ["golden_match_json", "golden_stats_jitter_csv"])
def test_old_manifest_replays(name, tmp_path, at_root):
    manifest = f"{DATA}/{name}.manifest.json"
    assert main(["replay", "--manifest", manifest, "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_emo_mc_estimate_is_frozen_to_the_bit(workers):
    # The CLI prints 9 significant digits; the estimate itself, a sum of
    # per-chunk sums over every sample, is pinned here in full, on a layout
    # of several ratios and shifted sub-lattices.
    spec = AnchorSpec(scales=(8.0, 16.0, 32.0), ratios=(0.8, 1.25), stride_divisor=2,
                      shifts_per_scale={8.0: 3, 16.0: 1})
    est = emo_monte_carlo([(build_layout(spec, 256.0, 192.0), 13.0, 17.0)], 70000, 11, workers)[0]
    assert est.value.hex() == "0x1.67f1098588894p-1"
    assert est.std_error.hex() == "0x1.309b8cb89e1dfp-12"
