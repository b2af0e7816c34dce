"""End-to-end CLI behavior: schemas, exit codes, manifests, replay."""

import collections
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorlap
from anchorlap import cli
from anchorlap.cli import main
from anchorlap.dataset import MAX_TRIALS, parse_annotations
from anchorlap.emo import MAX_MC_SAMPLES, MAX_QUADRATURE_CELLS, EmoQuery
from anchorlap.layout import MAX_ANCHORS
from anchorlap.matching import LABEL_IGNORE, LABEL_NEGATIVE, LABEL_POSITIVE, MatchConfig

from helpers import render_reference

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DATA = Path(__file__).parent / "data"

ANNOTATIONS = """\
img/a.jpg
3
0 0 16 16
8 8 16 16
40 40 100 100
"""

SPEC16 = {"scales": [16], "base_stride": 16}


@pytest.fixture
def files(tmp_path):
    ann = tmp_path / "faces.txt"
    ann.write_text(ANNOTATIONS)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC16))
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "stride_divisors": [1, 2], "shift_choices": [0, 3],
        "scale_sets": [[16]], "budget": 9,
    }))
    return {"ann": str(ann), "spec": str(spec), "space": str(space), "dir": tmp_path}


def rows_of(text):
    return list(csv.DictReader(text.splitlines()))


def run_stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestEmo:
    def test_closed_form_table(self, capsys):
        code, out = run_stdout(capsys, ["emo", "--scales", "32,16", "--strides", "16,8"])
        assert code == 0
        rows = rows_of(out)
        assert [r["scale"] for r in rows] == ["16", "16", "32", "32"]
        assert [r["stride"] for r in rows] == ["8", "16", "8", "16"]
        assert all(r["method"] == "closed_form" for r in rows)
        assert all(r["std_error"] == "0" for r in rows)
        assert float(rows[1]["emo"]) == pytest.approx(0.40860086612464824, abs=1e-5)
        # same ratio, same value: EMO(16, 8) == EMO(32, 16)
        assert rows[0]["emo"] == rows[3]["emo"]

    def test_json_mirrors_csv(self, capsys):
        code, as_csv = run_stdout(capsys, ["emo", "--scale", "16", "--stride", "16"])
        assert code == 0
        code, as_json = run_stdout(
            capsys, ["emo", "--scale", "16", "--stride", "16", "--format", "json"]
        )
        assert code == 0
        data = json.loads(as_json)
        assert len(data) == 1
        assert data[0]["emo"] == float(rows_of(as_csv)[0]["emo"])
        assert data[0]["method"] == "closed_form"

    def test_invalid_pair_exits_2(self, capsys):
        code = main(["emo", "--scale", "16", "--stride", "32"])
        assert code == 2
        err = capsys.readouterr().err
        assert "closed-form invalid" in err and "emo --mc" in err

    def test_mc_identical_across_workers(self, files):
        base = ["emo", "--scale", "16", "--stride", "16", "--mc",
                "--samples", "30000", "--seed", "7"]
        a = files["dir"] / "a.csv"
        b = files["dir"] / "b.csv"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        est = float(rows_of(a.read_text())[0]["emo"])
        assert est == pytest.approx(0.4086, abs=0.01)

    @pytest.mark.parametrize("argv, cap", [
        (["--mc", "--samples", "100000000000000000000"], MAX_MC_SAMPLES),
        (["--cells", "1000000000000"], MAX_QUADRATURE_CELLS),
    ])
    def test_oversized_request_exits_2_without_traceback(self, argv, cap):
        proc = run_console_script("emo", "--scales", "16", "--strides", "8", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and f"cap of {cap}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode, named", [([], "face_side"), (["--mc"], "each scales entry")],
                             ids=["closed-form", "mc"])
    def test_face_side_from_2_to_500_exits_2_naming_it(self, mode, named):
        proc = run_console_script("emo", "--scales", "1e300", "--strides", "16", *mode)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {named} must be in (3.05494e-151, 3.27339e+150), got 1e+300\n"

    def test_mc_stride_from_2_to_500_exits_2_naming_the_strides(self, capsys):
        # The plane is 8 strides wide, so a larger stride would reach it as inf.
        assert main(["emo", "--mc", "--scales", "16", "--strides", "8,3e307"]) == 2
        assert capsys.readouterr().err == "error: strides must be in (0, 3.27339e+150), got 3e+307\n"
        assert main(["emo", "--scales", "16", "--strides", "3e307"]) == 2
        assert capsys.readouterr().err == (
            "error: closed-form invalid: anchor_stride/2 must stay below face_side, got stride "
            "3e+307 vs side 16; use Monte Carlo (emo --mc)\n")

    def test_mc_seed_matters(self, files):
        base = ["emo", "--scale", "16", "--stride", "16", "--mc", "--samples", "10000"]
        a = files["dir"] / "s1.csv"
        b = files["dir"] / "s2.csv"
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_mc_seed_defaults_to_0(self, files):
        base = ["emo", "--scale", "16", "--stride", "16", "--mc", "--samples", "5000"]
        a = files["dir"] / "default.csv"
        b = files["dir"] / "zero.csv"
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((files["dir"] / "default.csv.manifest.json").read_text())
        assert manifest["seed"] == 0 and manifest["parameters"]["seed"] == 0

    @pytest.mark.parametrize("method", [[], ["--mc"]], ids=["closed-form", "mc"])
    @pytest.mark.parametrize("argv, named", [(["--scales=", "--strides", "16"], "--scales"),
                                             (["--scales", "16", "--strides", " "], "--strides")])
    def test_empty_list_exits_2_naming_the_flag(self, capsys, method, argv, named):
        # No (scale, stride) pair: the table would be its header alone.
        assert main(["emo", *argv, *method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {named} lists no values; the table would have no rows\n"


class TestGrid:
    def test_plain_grid(self, capsys, files):
        code, out = run_stdout(
            capsys, ["grid", "--spec", files["spec"], "--plane", "64x64"]
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 16
        assert [int(r["id"]) for r in rows] == list(range(16))
        assert rows[0] == {"id": "0", "scale": "16", "ratio": "1", "sublattice": "0",
                           "cx": "8", "cy": "8", "w": "16", "h": "16"}

    def test_shifted_spec_quadruples_rows(self, capsys, files):
        spec = files["dir"] / "shifted.json"
        spec.write_text(json.dumps({"scales": [16], "shifts_per_scale": {"16": 3}}))
        code, out = run_stdout(capsys, ["grid", "--spec", str(spec), "--plane", "64x64"])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 64
        assert {r["sublattice"] for r in rows} == {"0", "1", "2", "3"}

    def test_zero_plane_exits_2(self, files):
        assert main(["grid", "--spec", files["spec"], "--plane", "0x64"]) == 2

    def test_oversized_plane_exits_2_without_traceback(self, files):
        proc = run_console_script("grid", "--spec", files["spec"], "--plane", "1e7x1e7")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_undecodable_spec_exits_1_naming_it(self, files, capsys):
        bad = files["dir"] / "bad_spec.json"
        bad.write_bytes(b'{"scales": [16], "base_stride": 16, "x": "\xff"}')
        assert main(["grid", "--spec", str(bad), "--plane", "64x64"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err

    def test_wrong_typed_spec_value_exits_2_naming_it(self, files, capsys):
        bad = files["dir"] / "typed_spec.json"
        bad.write_text(json.dumps({"scales": [16], "shifts_per_scale": {"16": None}}))
        assert main(["grid", "--spec", str(bad), "--plane", "64x64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "shifts_per_scale" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shifts, named", [({"abc": 3}, "key 'abc'"),
                                               ({"16": 1, "16.0": 3}, "keys '16' and '16.0'")],
                             ids=["not-a-number", "one-scale-twice"])
    def test_bad_shift_key_exits_2_naming_it(self, files, capsys, shifts, named):
        bad = files["dir"] / "shift_spec.json"
        bad.write_text(json.dumps({"scales": [16], "shifts_per_scale": shifts}))
        assert main(["grid", "--spec", str(bad), "--plane", "64x64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shifts_per_scale " + named) and err.count("\n") == 1
        assert "Traceback" not in err

    def test_malformed_plane_is_a_usage_error(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--spec", files["spec"], "--plane", "64"])
        assert exc.value.code == 2


class TestStats:
    def test_bucket_rows(self, capsys, files):
        code, out = run_stdout(
            capsys, ["stats", "--annotations", files["ann"], "--spec", files["spec"]]
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 8
        assert rows[0]["bucket_lo"] == "0" and rows[-1]["bucket_hi"] == "inf"
        by_lo = {r["bucket_lo"]: r for r in rows}
        assert by_lo["16"]["count"] == "2"
        assert by_lo["64"]["count"] == "1"
        assert by_lo["8"]["mean_max_iou"] == "nan"
        # the exact-anchor face plus the corner-pinned one: mean (1 + 1/7)/2
        assert float(by_lo["16"]["mean_max_iou"]) == pytest.approx(4.0 / 7.0, rel=1e-9)
        assert float(by_lo["16"]["recall_at_tau"]) == 0.5

    def test_single_bucket(self, capsys, files):
        code, out = run_stdout(
            capsys, ["stats", "--annotations", files["ann"], "--spec", files["spec"],
                     "--buckets", ""],
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 1
        assert rows[0]["count"] == "3"

    def test_recall_monotone_in_tau(self, capsys, files):
        values = []
        for tau in ("0.1", "0.5", "0.9"):
            _, out = run_stdout(
                capsys, ["stats", "--annotations", files["ann"], "--spec", files["spec"],
                         "--buckets", "", "--tau", tau],
            )
            values.append(float(rows_of(out)[0]["recall_at_tau"]))
        assert values[0] >= values[1] >= values[2]

    def test_jitter_trials_over_the_cap_exit_2_naming_it(self, files):
        proc = run_console_script("stats", "--annotations", files["ann"], "--spec", files["spec"],
                                  "--jitter", "--trials", str(MAX_TRIALS + 1))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {MAX_TRIALS + 1} trials are over the cap of {MAX_TRIALS}\n"

    def test_jitter_schema_and_determinism(self, files):
        base = ["stats", "--annotations", files["ann"], "--spec", files["spec"],
                "--jitter", "--trials", "4", "--seed", "3"]
        a = files["dir"] / "j1.csv"
        b = files["dir"] / "j2.csv"
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = rows_of(a.read_text())
        assert set(rows[0]) == {"bucket_lo", "bucket_hi", "count", "mean_max_iou",
                                "min_mean_max_iou", "max_mean_max_iou"}

    def test_missing_annotations_exits_1(self, files, capsys):
        code = main(["stats", "--annotations", str(files["dir"] / "nope.txt"),
                     "--spec", files["spec"]])
        assert code == 1

    def test_bad_annotation_structure_exits_1(self, files, capsys):
        bad = files["dir"] / "bad.txt"
        bad.write_text("a.jpg\n2\n1 1 4 4\n")
        code = main(["stats", "--annotations", str(bad), "--spec", files["spec"]])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_undecodable_listing_exits_1(self, files, capsys):
        bad = files["dir"] / "bad.txt"
        bad.write_bytes(b"a.jpg\n1\n1 1 4 4 \xff\n")
        assert main(["stats", "--annotations", str(bad), "--spec", files["spec"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_face_with_overflowing_extent_is_skipped(self, files, capsys):
        listing = files["dir"] / "huge.txt"
        listing.write_text("a.jpg\n2\n1e308 1e308 1e308 1e308\n10 10 20 20\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_stdout(capsys, ["stats", "--annotations", str(listing), "--spec", files["spec"],
                                            "--buckets", ""])
        assert code == 0
        assert rows_of(out)[0]["count"] == "1"
        with open(listing) as fh:
            parsed = parse_annotations(fh)
        assert (len(parsed.records), parsed.skipped) == (1, 1)

    def test_bad_spec_json_exits_2(self, files, capsys):
        bad = files["dir"] / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", "--annotations", files["ann"], "--spec", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: anchor spec {bad} is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n")


class TestMatch:
    def run_match(self, files, out_name, extra):
        out = files["dir"] / out_name
        argv = ["match", "--annotations", files["ann"], "--spec", files["spec"],
                "--out", str(out)] + extra
        assert main(argv) == 0
        faces = rows_of(out.read_text())
        anchors = rows_of((files["dir"] / (out_name + ".anchors.csv")).read_text())
        return faces, anchors, out

    def test_face_and_anchor_tables(self, files):
        faces, anchors, out = self.run_match(files, "m.csv", [])
        assert [r["face"] for r in faces] == ["0", "1", "2"]
        assert faces[0]["image_id"] == "img/a.jpg"
        assert float(faces[0]["max_iou"]) == 1.0
        assert faces[0]["argmax_anchor"] == "0"
        assert {r["label"] for r in anchors} <= {"positive", "negative", "ignore"}
        # the manifest records both artifacts
        manifest = json.loads((files["dir"] / "m.csv.manifest.json").read_text())
        assert [o["path"] for o in manifest["outputs"]] == [
            str(out), str(out) + ".anchors.csv"
        ]

    def test_compensation_adds_positives(self, files):
        _, anchors_off, _ = self.run_match(files, "hc0.csv", ["--hc", "0"])
        faces_on, anchors_on, _ = self.run_match(files, "hc5.csv", ["--hc", "5"])
        pos_off = sum(r["label"] == "positive" for r in anchors_off)
        pos_on = sum(r["label"] == "positive" for r in anchors_on)
        assert pos_on > pos_off
        hard = [r for r in faces_on if float(r["max_iou"]) < 0.5]
        assert all(int(r["assigned_count"]) >= 1 for r in hard)

    def test_positive_sources_are_faces(self, files):
        _, anchors, _ = self.run_match(files, "src.csv", [])
        for r in anchors:
            if r["label"] == "positive":
                assert 0 <= int(r["source_face"]) <= 2
            if r["label"] == "negative":
                assert r["source_face"] == "-1"

    def test_inverted_thresholds_exit_2(self, files):
        code = main(["match", "--annotations", files["ann"], "--spec", files["spec"],
                     "--tl", "0.6", "--th", "0.5"])
        assert code == 2

    def test_negative_jitter_seed_exits_2(self, files, capsys):
        code = main(["match", "--annotations", files["ann"], "--spec", files["spec"],
                     "--jitter", "--seed", "-1"])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_image_id_keeps_a_trailing_nul(self, files, fmt):
        ann = files["dir"] / "nul.txt"
        ann.write_text("a.jpg\x00\n1\n0 0 16 16\n")
        out = files["dir"] / f"nul.{fmt}"
        argv = ["match", "--annotations", str(ann), "--spec", files["spec"], "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        if fmt == "csv":
            assert text.splitlines()[1].split(",")[1] == "a.jpg\x00"
        else:
            assert json.loads(text)[0]["image_id"] == "a.jpg\x00"


class TestOptimize:
    def test_ranked_output(self, capsys, files):
        code, out = run_stdout(
            capsys, ["optimize", "--annotations", files["ann"], "--space", files["space"]]
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 4
        assert [r["rank"] for r in rows] == ["1", "2", "3", "4"]
        objectives = [float(r["objective"]) for r in rows]
        assert objectives == sorted(objectives, reverse=True)
        # spec_json cells survive CSV quoting and parse back
        spec = json.loads(rows[0]["spec_json"])
        assert spec["scales"] == [16.0]

    def test_unsatisfiable_budget_exits_2(self, files, capsys):
        space = files["dir"] / "tight.json"
        space.write_text(json.dumps({
            "stride_divisors": [1], "shift_choices": [3], "scale_sets": [[16, 32]],
            "budget": 2,
        }))
        code = main(["optimize", "--annotations", files["ann"], "--space", str(space)])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_config_over_the_anchor_cap_exits_2_without_traceback(self, files):
        # A 4096 x 4096 bounding plane fits divisor 1; divisor 4 with a
        # shifted scale needs 5 anchors at each of 1024 x 1024 locations.
        ann = files["dir"] / "wide.txt"
        ann.write_text("img/a.jpg\n2\n0 0 16 16\n4080 4080 16 16\n")
        space = files["dir"] / "fine.json"
        space.write_text(json.dumps({"stride_divisors": [1, 4], "shift_choices": [0, 3],
                                     "scale_sets": [[16, 32]], "budget": 8}))
        proc = run_console_script("optimize", "--annotations", str(ann), "--space", str(space))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and f"cap of {MAX_ANCHORS}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("tau", ["0", "1"])
    def test_tau_outside_unit_interval_exits_2(self, files, capsys, tau):
        code = main(["optimize", "--annotations", files["ann"], "--space", files["space"],
                     "--tau", tau])
        assert code == 2
        assert "tau" in capsys.readouterr().err


    def test_fractional_space_value_exits_2_naming_it(self, files, capsys):
        bad = files["dir"] / "typed_space.json"
        bad.write_text(json.dumps({"stride_divisors": [1, 2.5], "shift_choices": [0],
                                   "scale_sets": [[16]], "budget": 9}))
        assert main(["optimize", "--annotations", files["ann"], "--space", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stride_divisors" in err
        assert "Traceback" not in err

    def test_bad_space_json_exits_2_naming_it(self, files, capsys):
        # An annotation listing given as the space, as a swapped flag would.
        assert main(["optimize", "--annotations", files["ann"], "--space", files["ann"]]) == 2
        assert capsys.readouterr().err == (
            f"error: search space {files['ann']} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n")

    def test_undecodable_space_exits_1_naming_it(self, files, capsys):
        bad = files["dir"] / "bad_space.json"
        bad.write_bytes(b'{"budget": 9, "x": "\xff"}')
        assert main(["optimize", "--annotations", files["ann"], "--space", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("listing", ["a.jpg\n0\n", "a.jpg\n1\n5 5 0 16\n"],
                         ids=["no-faces", "zero-width-face"])
@pytest.mark.parametrize("argv", [["stats", "--spec", "{spec}"], ["match", "--spec", "{spec}"],
                                  ["optimize", "--space", "{space}"]], ids=lambda argv: argv[0])
def test_listing_without_usable_faces_exits_1(files, capsys, listing, argv):
    path = files["dir"] / "empty.txt"
    path.write_text(listing)
    assert main([a.format(**files) for a in argv] + ["--annotations", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: annotation listing contains no usable faces\n"


HUGE = 10**400  # an integer too large for a float


@pytest.mark.parametrize("argv, doc, field", [
    (["grid", "--plane", "64x64", "--spec"], {"scales": [16], "base_stride": HUGE}, "base_stride"),
    (["grid", "--plane", "64x64", "--spec"], {"scales": [16, HUGE]}, "scales"),
    (["optimize", "--annotations", "{ann}", "--space"],
     {"stride_divisors": [1], "shift_choices": [0], "scale_sets": [[16]], "budget": 1, "base_stride": HUGE},
     "base_stride"),
    (["optimize", "--annotations", "{ann}", "--space"],
     {"stride_divisors": [1], "shift_choices": [0], "scale_sets": [[HUGE]], "budget": 1}, "scale_sets"),
], ids=["spec-base_stride", "spec-scale", "space-base_stride", "space-scale"])
def test_number_too_large_for_a_float_exits_2_naming_it(files, capsys, argv, doc, field):
    path = files["dir"] / "huge.json"
    path.write_text(json.dumps(doc))
    assert main([a.format(**files) for a in argv] + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert err.count("\n") == 1 and "Traceback" not in err


TINY_FACE = "a.jpg\n1\n8 8 1e-300 1e-300\n"  # its area underflows to 0
NO_FACES = "error: annotation listing contains no usable faces\n"
OUT_OF_RANGE = "error: each {} entry must be in (3.05494e-151, 3.27339e+150), got {}\n"
TINY_SCALE = OUT_OF_RANGE.format("{}", "1e-300")


@pytest.mark.parametrize("argv, doc, listing, code, err", [
    (["stats", "--spec"], {"scales": [1e-300]}, TINY_FACE, 1, NO_FACES),
    (["match", "--spec"], {"scales": [1e-300]}, TINY_FACE, 1, NO_FACES),
    (["stats", "--spec"], {"scales": [1e-300]}, ANNOTATIONS, 2, TINY_SCALE.format("scales")),
    (["optimize", "--space"], {"stride_divisors": [1], "shift_choices": [0], "scale_sets": [[1e-300]],
                               "budget": 1}, ANNOTATIONS, 2, TINY_SCALE.format("scale_sets")),
    (["emo", "--mc", "--scales", "1e-310", "--strides", "16"], None, None, 2,
     OUT_OF_RANGE.format("scales", "1e-310")),
    (["emo", "--scales", "1e-310", "--strides", "16"], None, None, 2,
     "error: face_side must be in (3.05494e-151, 3.27339e+150), got 1e-310\n"),
], ids=["stats-tiny-face", "match-tiny-face", "stats-tiny-scale", "optimize-tiny-scale", "emo-mc", "emo"])
def test_area_underflowing_to_zero_is_refused_on_one_line(tmp_path, argv, doc, listing, code, err):
    # Each used to reach a 0/0 IoU: a nan row or a numpy warning on stderr.
    proc = run_with_files(tmp_path, argv, doc, listing)
    assert (proc.returncode, proc.stderr) == (code, err)


def run_with_files(tmp_path, argv, doc, listing):
    """The console script on ``argv``, then ``doc`` as a JSON file and ``listing``
    as ``--annotations`` where given, with every warning an error."""
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        argv = [*argv, str(tmp_path / "doc.json")]
    if listing is not None:
        (tmp_path / "faces.txt").write_text(listing)
        argv = [*argv, "--annotations", str(tmp_path / "faces.txt")]
    with mock.patch.dict(os.environ, {"PYTHONWARNINGS": "error"}):
        return run_console_script(*argv)


def huge_spec(side):
    return {"scales": [side], "base_stride": side}


def huge_space(side):
    return {"stride_divisors": [1], "shift_choices": [0], "scale_sets": [[side]], "budget": 1, "base_stride": side}


HUGE_FACE = "a.jpg\n1\n0 0 1e200 1e200\n"  # its area overflows to inf
FACE_16 = "a.jpg\n1\n0 0 16 16\n"


@pytest.mark.parametrize("argv, doc, listing, code, err", [
    (["stats", "--spec"], huge_spec(1e200), HUGE_FACE, 1, NO_FACES),
    (["match", "--spec"], huge_spec(1e200), HUGE_FACE, 1, NO_FACES),
    (["optimize", "--space"], huge_space(1e200), HUGE_FACE, 1, NO_FACES),
    (["stats", "--spec"], huge_spec(1e200), FACE_16, 2, OUT_OF_RANGE.format("scales", "1e+200")),
    (["match", "--spec"], huge_spec(1e160), FACE_16, 2, OUT_OF_RANGE.format("scales", "1e+160")),
    (["optimize", "--space"], huge_space(1e200), FACE_16, 2, OUT_OF_RANGE.format("scale_sets", "1e+200")),
    (["optimize", "--space"], huge_space(1e160), FACE_16, 2, OUT_OF_RANGE.format("scale_sets", "1e+160")),
], ids=["stats-huge-face", "match-huge-face", "optimize-huge-face", "stats-huge-scale", "match-1e160-scale",
        "optimize-huge-scale", "optimize-1e160-scale"])
def test_scale_from_2_to_500_is_refused_on_one_line(tmp_path, argv, doc, listing, code, err):
    # Each used to end in numpy warnings and a wrong result: a nan bucket
    # mean, a negative anchor for its own face, or an objective of nan.
    proc = run_with_files(tmp_path, argv, doc, listing)
    assert (proc.returncode, proc.stderr) == (code, err)


def test_scale_just_below_2_to_500_still_matches_its_own_anchor(tmp_path):
    proc = run_with_files(tmp_path, ["match", "--spec"], huge_spec(1e150), "a.jpg\n1\n0 0 1e150 1e150\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("face,image_id,scale,max_iou,argmax_anchor,assigned_count\n0,a.jpg,1e+150,1,0,1\n"
                           "anchor,label,source_face\n0,positive,0\n")


@pytest.mark.parametrize("argv, spec", [
    (["stats", "--annotations", str(DATA / "golden_faces.txt")], {"scales": [16], "base_stride": 1e-310}),
    (["grid", "--plane", "1e308x1e308"], {"scales": [16], "base_stride": 1e-300}),
    (["grid", "--plane", "1e308x1e308"], None),
], ids=["stats-subnormal-stride", "grid-huge-plane-tiny-stride", "grid-huge-plane"])
def test_extreme_plane_or_stride_exits_2_on_one_line(tmp_path, argv, spec):
    # Each quotient plane / stride is over the anchor cap or infinite.
    spec_path = DATA / "golden_spec.json"
    if spec is not None:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
    proc = run_console_script(*argv, "--spec", str(spec_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(f" plane needs a layout over the cap of {MAX_ANCHORS} anchors\n")


@pytest.mark.parametrize("argv", [
    ["match", "--spec", str(DATA / "golden_spec.json")],
    ["stats", "--spec", str(DATA / "golden_spec.json")],
    ["stats", "--jitter", "--spec", str(DATA / "golden_spec.json")],
    ["optimize", "--space", str(DATA / "golden_space.json")],
], ids=["match", "stats", "stats-jitter", "optimize"])
def test_far_face_is_a_data_error_on_one_line(tmp_path, argv):
    # The spec (each config of the space) fits the least 64 x 64 plane, so
    # only the listing's plane is over the anchor cap.
    ann = tmp_path / "far.txt"
    ann.write_text("img/a.jpg\n1\n1e300 1e300 16 16\n")
    proc = run_console_script(*argv, "--annotations", str(ann))
    assert (proc.returncode, proc.stderr) == (1, "error: the annotation listing's 1e+300 x 1e+300 bounding plane "
                                                 f"needs a layout over the cap of {MAX_ANCHORS} anchors\n")


class TestReplay:
    def test_stats_replay_is_byte_exact(self, files):
        out = files["dir"] / "stats.csv"
        assert main(["stats", "--annotations", files["ann"], "--spec", files["spec"],
                     "--out", str(out)]) == 0
        replayed = files["dir"] / "replayed.csv"
        assert main(["replay", "--manifest", str(out) + ".manifest.json",
                     "--out", str(replayed)]) == 0
        assert replayed.read_bytes() == out.read_bytes()
        fresh = json.loads((files["dir"] / "replayed.csv.manifest.json").read_text())
        assert fresh["subcommand"] == "stats"

    def test_match_replay_covers_both_artifacts(self, files):
        out = files["dir"] / "m.csv"
        assert main(["match", "--annotations", files["ann"], "--spec", files["spec"],
                     "--out", str(out)]) == 0
        replayed = files["dir"] / "m2.csv"
        assert main(["replay", "--manifest", str(out) + ".manifest.json",
                     "--out", str(replayed)]) == 0
        assert replayed.read_bytes() == out.read_bytes()
        assert (files["dir"] / "m2.csv.anchors.csv").read_bytes() == \
            (files["dir"] / "m.csv.anchors.csv").read_bytes()

    def test_mc_replay_with_more_workers(self, files):
        out = files["dir"] / "mc.csv"
        assert main(["emo", "--scale", "16", "--stride", "16", "--mc",
                     "--samples", "30000", "--seed", "5", "--out", str(out)]) == 0
        replayed = files["dir"] / "mc2.csv"
        assert main(["replay", "--manifest", str(out) + ".manifest.json",
                     "--out", str(replayed), "--workers", "3"]) == 0
        assert replayed.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["emo", "--scales", "40,16", "--strides", "16,8"],
            ["grid", "--spec", "{spec}", "--plane", "64x48", "--format", "json"],
            ["stats", "--annotations", "{ann}", "--spec", "{spec}", "--jitter", "--trials", "3",
             "--seed", "2"],
            ["optimize", "--annotations", "{ann}", "--space", "{space}"],
        ],
        ids=["emo", "grid", "stats-jitter", "optimize"],
    )
    def test_every_subcommand_replays(self, files, argv):
        out = files["dir"] / "run.out"
        assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == 0
        replayed = files["dir"] / "replayed.out"
        assert main(["replay", "--manifest", str(out) + ".manifest.json",
                     "--out", str(replayed)]) == 0
        assert replayed.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("command", ["match", "stats"])
    def test_jitter_manifest_without_seed_exits_1(self, files, capsys, command):
        out = files["dir"] / "jitter.csv"
        assert main([command, "--annotations", files["ann"], "--spec", files["spec"], "--jitter",
                     "--seed", "5", "--out", str(out)]) == 0
        mpath = files["dir"] / "jitter.csv.manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["parameters"]["seed"], manifest["seed"]
        mpath.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(mpath), "--out", str(files["dir"] / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: manifest lacks parameter or input 'seed'\n"

    def test_changed_input_fails(self, files, capsys):
        out = files["dir"] / "stats.csv"
        assert main(["stats", "--annotations", files["ann"], "--spec", files["spec"],
                     "--out", str(out)]) == 0
        with open(files["ann"], "a") as fh:
            fh.write("img/new.jpg\n1\n1 1 8 8\n")
        code = main(["replay", "--manifest", str(out) + ".manifest.json",
                     "--out", str(files["dir"] / "r.csv")])
        assert code == 1
        assert "changed since" in capsys.readouterr().err

    def test_tampered_output_digest_fails(self, files, capsys):
        out = files["dir"] / "stats.csv"
        assert main(["stats", "--annotations", files["ann"], "--spec", files["spec"],
                     "--out", str(out)]) == 0
        mpath = files["dir"] / "stats.csv.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["outputs"][0]["sha256"] = "0" * 64
        mpath.write_text(json.dumps(manifest))
        code = main(["replay", "--manifest", str(mpath),
                     "--out", str(files["dir"] / "r.csv")])
        assert code == 1
        assert "diverged" in capsys.readouterr().err

    def test_fractional_cells_in_manifest_exits_2_naming_them(self, files, capsys):
        out = files["dir"] / "emo.csv"
        assert main(["emo", "--scales", "16", "--strides", "16", "--cells", "100", "--out", str(out)]) == 0
        mpath = files["dir"] / "emo.csv.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["parameters"]["cells"] = 100.5
        mpath.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(mpath), "--out", str(files["dir"] / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: quadrature_cells must be an integer")

    @pytest.mark.parametrize("mode", [[], ["--mc", "--samples", "1000"]], ids=["closed-form", "mc"])
    @pytest.mark.parametrize("key", ["scales", "strides"])
    def test_empty_list_in_manifest_exits_2_naming_it(self, files, capsys, mode, key):
        out = files["dir"] / "emo.csv"
        assert main(["emo", "--scales", "16", "--strides", "16", *mode, "--out", str(out)]) == 0
        mpath = files["dir"] / "emo.csv.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["parameters"][key] = []
        mpath.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(mpath), "--out", str(files["dir"] / "r.csv")]) == 2
        assert capsys.readouterr().err == f"error: --{key} lists no values; the table would have no rows\n"
        assert not (files["dir"] / "r.csv").exists()

    @pytest.mark.parametrize(
        "argv, key, named",
        [
            (["grid", "--spec", "{spec}", "--plane", "64x64"], "plane_w", "plane_w"),
            (["emo", "--scales", "16", "--strides", "16"], "scales", "face_side"),
            (["stats", "--annotations", "{ann}", "--spec", "{spec}"], "tau", "tau"),
            (["match", "--annotations", "{ann}", "--spec", "{spec}"], "t_high", "t_high"),
        ],
        ids=["grid-plane_w", "emo-scales", "stats-tau", "match-t_high"],
    )
    def test_bool_for_a_real_exits_1_naming_it(self, files, capsys, argv, key, named):
        out = files["dir"] / "run.out"
        assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == 0
        mpath = files["dir"] / "run.out.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["parameters"][key] = [True] if key == "scales" else True
        mpath.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(mpath), "--out", str(files["dir"] / "r.out")]) == 1
        assert capsys.readouterr().err == (
            f"error: manifest parameter has the wrong type: {named} must be a real number, got True\n")

    def test_every_diverged_output_is_named_on_one_line(self, files, capsys):
        out = files["dir"] / "m.csv"
        assert main(["match", "--annotations", files["ann"], "--spec", files["spec"], "--out", str(out)]) == 0
        mpath = files["dir"] / "m.csv.manifest.json"
        manifest = json.loads(mpath.read_text())
        for entry in manifest["outputs"]:
            entry["sha256"] = "0" * 64
        mpath.write_text(json.dumps(manifest))
        capsys.readouterr()
        replayed = str(files["dir"] / "r.csv")
        assert main(["replay", "--manifest", str(mpath), "--out", replayed]) == 1
        assert capsys.readouterr().err == (
            f"error: replay diverged: {replayed} does not match recorded {out}; "
            f"{replayed}.anchors.csv does not match recorded {out}.anchors.csv\n")

    def test_unknown_emo_mode_in_manifest_exits_2_naming_it(self, files, capsys):
        out = files["dir"] / "emo.csv"
        assert main(["emo", "--scales", "16", "--strides", "16", "--out", str(out)]) == 0
        mpath = files["dir"] / "emo.csv.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["parameters"]["mode"] = "other"
        mpath.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(mpath), "--out", str(files["dir"] / "r.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: mode must be 'closed_form' or 'monte_carlo', got 'other'\n")
        assert not (files["dir"] / "r.csv").exists()

    def test_unreadable_manifest_fails(self, files, capsys):
        bad = files["dir"] / "broken.manifest.json"
        bad.write_text("{")
        assert main(["replay", "--manifest", str(bad),
                     "--out", str(files["dir"] / "r.csv")]) == 1

    def test_undecodable_manifest_exits_1(self, files, capsys):
        bad = files["dir"] / "bad.manifest.json"
        bad.write_bytes(b'{"subcommand": "\xff"}')
        assert main(["replay", "--manifest", str(bad),
                     "--out", str(files["dir"] / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda m: [m],
            lambda m: m.pop("parameters") and m,
            lambda m: m.pop("inputs") and m,
            lambda m: m.pop("outputs") and m,
            lambda m: {**m, "subcommand": "frobnicate"},
            lambda m: {**m, "subcommand": ["stats"]},
            lambda m: {**m, "parameters": []},
            lambda m: {**m, "outputs": {}},
            lambda m: m["inputs"]["spec"].pop("sha256") and m,
            lambda m: {**m, "outputs": ["stats.csv"]},
            lambda m: {**m, "parameters": {}},
            lambda m: {**m, "parameters": {**m["parameters"], "tau": "high"}},
            lambda m: {**m, "parameters": {**m["parameters"], "tau": True}},
            lambda m: {**m, "parameters": {**m["parameters"], "buckets": 5}},
            lambda m: {**m, "parameters": {**m["parameters"], "format": 3}},
        ],
        ids=["list", "no-parameters", "no-inputs", "no-outputs", "unknown-subcommand",
             "unhashable-subcommand", "parameters-list", "outputs-object", "input-no-sha256",
             "output-not-object", "empty-parameters", "string-tau", "bool-tau", "integer-buckets",
             "integer-format"],
    )
    def test_malformed_manifest_exits_1(self, files, capsys, mangle, request):
        out = files["dir"] / "stats.csv"
        assert main(["stats", "--annotations", files["ann"], "--spec", files["spec"],
                     "--out", str(out)]) == 0
        mpath = files["dir"] / "stats.csv.manifest.json"
        mpath.write_text(json.dumps(mangle(json.loads(mpath.read_text()))))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(mpath),
                     "--out", str(files["dir"] / "r.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: manifest")


@pytest.mark.parametrize("argv, flag", [
    (["emo", "--scales", "16", "--strides", "8", "--workers", "-3"], "--workers"),
    (["emo", "--scales", "16", "--strides", "8", "--mc", "--workers", "0"], "--workers"),
    (["replay", "--manifest", "{manifest}", "--out", "{dir}/r.csv", "--workers", "0"], "--workers"),
    (["stats", "--annotations", "{ann}", "--spec", "{spec}", "--seed", "-1"], "--seed"),
    (["match", "--annotations", "{ann}", "--spec", "{spec}", "--seed", "-1"], "--seed"),
    (["emo", "--scales", "16", "--strides", "8", "--seed", "-1"], "--seed"),
], ids=["emo-workers", "emo-mc-workers", "replay-workers", "stats-seed", "match-seed", "emo-seed"])
def test_workers_and_seed_are_checked_where_they_enter(files, capsys, argv, flag):
    # Checked whether or not a random mode reads them.
    stats = files["dir"] / "stats.csv"
    assert main(["stats", "--annotations", files["ann"], "--spec", files["spec"], "--out", str(stats)]) == 0
    capsys.readouterr()
    assert main([a.format(manifest=f"{stats}.manifest.json", **files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1
    assert not (files["dir"] / "r.csv").exists()


class TestManifest:
    def test_structure(self, files):
        out = files["dir"] / "g.csv"
        assert main(["grid", "--spec", files["spec"], "--plane", "64x64",
                     "--out", str(out)]) == 0
        manifest = json.loads((files["dir"] / "g.csv.manifest.json").read_text())
        assert manifest["tool"] == "anchorlap"
        assert manifest["subcommand"] == "grid"
        assert manifest["seed"] is None
        assert set(manifest["inputs"]) == {"spec"}
        entry = manifest["inputs"]["spec"]
        assert entry["path"] == files["spec"]
        assert len(entry["sha256"]) == 64
        assert len(manifest["outputs"]) == 1
        assert manifest["parameters"]["plane_w"] == 64.0

    def test_stdout_mode_writes_nothing(self, capsys, files, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        code, out = run_stdout(capsys, ["grid", "--spec", files["spec"], "--plane", "64x64"])
        assert code == 0 and out
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["stats", "--annotations", "{ann}", "--spec", "{spec}", "--jitter", "--trials", "2"],
        ["match", "--annotations", "{ann}", "--spec", "{spec}"],
        ["grid", "--spec", "{spec}", "--plane", "64x64"],
        ["optimize", "--annotations", "{ann}", "--space", "{space}"],
    ], ids=lambda argv: argv[0])
    def test_stdout_run_hashes_no_input(self, capsys, files, monkeypatch, argv):
        argv = [a.format(**files) for a in argv]
        code, streamed = run_stdout(capsys, argv)
        assert code == 0

        def refuse(path):
            raise OSError(f"hashed {path}")

        monkeypatch.setattr(cli, "_sha256_file", refuse)
        assert run_stdout(capsys, argv) == (0, streamed)

    def test_inputs_are_hashed_before_the_artifact_is_written(self, files, monkeypatch):
        out = files["dir"] / "m.csv"
        hashed = []
        sha256_file = cli._sha256_file
        monkeypatch.setattr(cli, "_sha256_file", lambda path: hashed.append(out.exists()) or sha256_file(path))
        assert main(["match", "--annotations", files["ann"], "--spec", files["spec"], "--out", str(out)]) == 0
        assert hashed == [False, False]

    @pytest.mark.parametrize("out", [[], ["--out", "{dir}/r.csv"]], ids=["stdout", "out"])
    @pytest.mark.parametrize("argv, missing", [
        (["stats", "--annotations", "{dir}/nope.txt", "--spec", "{spec}"], "nope.txt"),
        (["match", "--annotations", "{ann}", "--spec", "{dir}/nope.json"], "nope.json"),
        (["optimize", "--annotations", "{ann}", "--space", "{dir}/nope.json"], "nope.json"),
    ], ids=["annotations", "spec", "space"])
    def test_missing_input_exits_1_naming_it(self, files, capsys, argv, missing, out):
        assert main([a.format(**files) for a in argv + out]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{files['dir'] / missing}'\n")


class TestJsonFormat:
    def test_nan_becomes_null(self, capsys, files):
        code, out = run_stdout(
            capsys, ["stats", "--annotations", files["ann"], "--spec", files["spec"],
                     "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 8
        empty = [r for r in data if r["count"] == 0]
        assert empty and all(r["mean_max_iou"] is None for r in empty)
        top = [r for r in data if r["bucket_hi"] is None]
        assert len(top) == 1  # the open-ended bucket: inf is not a JSON float

    def test_csv_and_json_agree(self, capsys, files):
        _, as_csv = run_stdout(
            capsys, ["grid", "--spec", files["spec"], "--plane", "64x64"]
        )
        _, as_json = run_stdout(
            capsys, ["grid", "--spec", files["spec"], "--plane", "64x64",
                     "--format", "json"],
        )
        got = json.loads(as_json)
        for row, ref in zip(rows_of(as_csv), got):
            assert float(row["cx"]) == ref["cx"]
            assert int(row["id"]) == ref["id"]


def digit_boundaries(dtype):
    """The ints of ``dtype`` at each end of its range and next to every
    power of ten (9/10, 9999/10000, 10**k +- 1), of both signs."""
    info = np.iinfo(dtype)
    near = {info.min, info.max, *(sign * (10**k + d) for k in range(20) for d in (-1, 0, 1) for sign in (1, -1))}
    return np.array(sorted(v for v in near if info.min <= v <= info.max), dtype=dtype)


def coded(names):
    """A ``_Coded`` column holding each of ``names`` once, in order."""
    return cli._Coded(np.arange(len(names)), names)


def materialized(columns):
    """``columns`` with each ``_Coded`` column written out as the list of its rows' names."""
    return {name: [col.names[i] for i in col.codes.tolist()] if isinstance(col, cli._Coded) else col
            for name, col in columns.items()}


class TestRender:
    """``_render`` writes columns exactly as ``csv.writer`` and one ``json.dumps``
    of row dicts would, however the rows are chunked."""

    COLUMNS = {
        "id": np.arange(10),
        "name": coded(["plain", "a,b", 'say "hi"', "two\nlines", "", " pad", "x", "cr\rlf",
                       "é 日本", "back\\slash\ttab\x01"]),
        "value": np.array([0.1, 1.0 / 3.0, 2.0, math.nan, math.inf, -0.0, 1e-12, 7.5, 1e16, -1e-300]),
        "byte": np.array([0, 1, 7, 127, 128, 200, 254, 255, 3, 9], dtype=np.uint8),
        "single": np.array([math.nan, math.inf, -math.inf, 0.1, 1e16, -1e-30, 0.0, 2.5, 1e-7, 3.0],
                           dtype=np.float32),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 16])
    def test_chunked_columns_match_row_rendering(self, monkeypatch, fmt, chunk):
        monkeypatch.setattr(cli, "_RENDER_ROWS", chunk)
        assert b"".join(cli._render(self.COLUMNS, fmt)).decode() == render_reference(materialized(self.COLUMNS), fmt)

    # Few values each, so that chunks repeat them: 0.0 beside -0.0, nans of
    # both signs, ints at the ends of int64 and uint64, and text, which is
    # always coded, as are grid's per-group floats and ints.
    POOLS = [
        np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, 1e16, 5e-324]),
        np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1e16, 2.5], dtype=np.float32),
        np.array([-2**63, -2**63 + 1, -2**63 + 3], dtype=np.int64),
        np.array([-3, 0, 5, 2**63 - 1], dtype=np.int64),
        np.array([2**64 - 1, 2**64 - 2, 2**64 - 4], dtype=np.uint64),
        np.array([0, 1, 255], dtype=np.uint8),
        *map(digit_boundaries, [np.int8, np.int16, np.int32, np.uint32, np.int64, np.uint64]),
        coded(["a", "a,b", 'say "hi"', "two\nlines", "", "é 日本"]),
        # ASCII names of up to 8 code points; Latin-1 ones with separators,
        # quotes, backslashes, control characters and an inner NUL; longer
        # names; short names beyond Latin-1.
        coded(["positive", "negative", "ignore", "", "a b", "~"]),
        coded([",", '"', "\\", "\x01\x7f", "é", 'a\\,"b', "\t\r", "a\x00b"]),
        coded(["a_longer_name", "img/0001.jpg", "x"]),
        coded(["\u0100", "", "\u0101", "\x01", "日本"]),
        np.array([True, False]),
        coded(["img/a.jpg", "b,c.jpg", "d\x00"]),
        coded(["in\x00ner", "trail\x00", "trail", "\x00", ""]),
        coded([16.0, 0.5, -0.0, 1.0 / 3.0, 22.627416997969522, 1e16, math.nan, math.inf]),
        coded([0, 1, 2, 3]),
    ]

    @staticmethod
    @st.composite
    def tables(draw):
        n_rows = draw(st.integers(0, 24))
        columns = {}
        for name in range(draw(st.integers(2, 4))):  # csv.writer quotes a lone "" cell
            pool = draw(st.sampled_from(TestRender.POOLS))
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows, max_size=n_rows))
            columns[f"c{name}"] = pool[np.array(picks, np.intp)]
        return columns

    @settings(max_examples=300, deadline=None)
    @given(columns=tables(), fmt=st.sampled_from(["csv", "json"]),
           chunk=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 1 << 16]))
    def test_duplicate_heavy_columns_match_row_rendering(self, columns, fmt, chunk):
        with mock.patch.object(cli, "_RENDER_ROWS", chunk):
            assert b"".join(cli._render(columns, fmt)).decode() == render_reference(materialized(columns), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("pool", range(len(POOLS)))
    @pytest.mark.parametrize("chunk", [3, 1 << 16])
    def test_every_pool_value_matches_row_rendering(self, monkeypatch, fmt, pool, chunk):
        monkeypatch.setattr(cli, "_RENDER_ROWS", chunk)
        values = self.POOLS[pool]
        columns = {"a": values, "b": values[::-1]}
        assert b"".join(cli._render(columns, fmt)).decode() == render_reference(materialized(columns), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_coded_numbers_match_the_materialized_array(self, monkeypatch, fmt):
        # grid's per-group columns: float scales and box sides, int sub-lattices.
        monkeypatch.setattr(cli, "_RENDER_ROWS", 3)
        group = np.array([0, 0, 1, 2, 2, 2, 3, 1, 0, 3, 3])
        scales, sublattices = [16.0, 0.5, 22.627416997969522, 1e16], [0, 1, 2, 3]
        arrays = {"scale": np.array(scales)[group], "sublattice": np.array(sublattices)[group]}
        table = {"scale": cli._Coded(group, scales), "sublattice": cli._Coded(group, sublattices)}
        rendered = b"".join(cli._render(table, fmt)).decode()
        assert rendered == b"".join(cli._render(arrays, fmt)).decode() == render_reference(arrays, fmt)

    @pytest.mark.parametrize("fmt, formatter", [("csv", "_csv_text"), ("json", "_json_text")])
    def test_each_distinct_value_is_formatted_once_per_chunk(self, monkeypatch, fmt, formatter):
        n_rows = 200_000  # four chunks
        pick = np.arange(n_rows) % 3
        # match's label and image_id columns are both coded.
        columns = {"value": np.array([0.5, 2.0, 1e16])[pick], "name": cli._Coded(pick, ["a", "b,c", "d"]),
                   "image": cli._Coded(pick, ["i/0.jpg", "i/1.jpg", "i/2.jpg"])}
        calls = collections.Counter()
        real = getattr(cli, formatter)
        monkeypatch.setattr(cli, formatter, lambda v: calls.update([v]) or real(v))
        text = b"".join(cli._render(columns, fmt)).decode()
        assert text.count("1e+16") == n_rows // 3
        chunks = -(-n_rows // cli._RENDER_ROWS)
        header = {"value": 1, "name": 1, "image": 1} if fmt == "csv" else {}
        assert calls == {0.5: chunks, 2.0: chunks, 1e16: chunks, "a": chunks, "b,c": chunks, "d": chunks,
                         "i/0.jpg": chunks, "i/1.jpg": chunks, "i/2.jpg": chunks, **header}

    @pytest.mark.parametrize("fmt, formatter", [("csv", "_csv_text"), ("json", "_json_text")])
    def test_coded_column_formats_only_the_names_each_chunk_uses(self, monkeypatch, fmt, formatter):
        # match's image_id on a listing of one-face images: a chunk's rows use
        # only a few of the column's names.
        n_rows = 200_000
        names = [f"img/{i}.jpg" for i in range(n_rows)]
        columns = {"face": np.arange(n_rows),
                   "image_id": cli._Coded(np.random.default_rng(34).permutation(n_rows), names)}
        calls = collections.Counter()
        real = getattr(cli, formatter)
        monkeypatch.setattr(cli, formatter, lambda v: calls.update([v]) or real(v))
        text = b"".join(cli._render(columns, fmt)).decode()
        header = {"face": 1, "image_id": 1} if fmt == "csv" else {}
        assert calls == {**dict.fromkeys(names, 1), **header}
        assert text == render_reference(materialized(columns), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sequences_that_make_their_items_match_row_rendering(self, fmt):
        # Runners may give numbers as Python sequences; each becomes one array.
        columns = {"a": range(300, 310), "b": tuple(x / 4 for x in range(10))}
        assert b"".join(cli._render(columns, fmt)).decode() == render_reference(columns, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_anchor_shaped_table_matches_row_rendering(self, fmt):
        # match's .anchors table: every ID, three label names, sources from -1.
        n_rows = 70_000
        assert n_rows > cli._RENDER_ROWS
        rng = np.random.default_rng(25)
        columns = {"anchor": np.arange(n_rows),
                   "label": cli._Coded(rng.integers(0, 3, n_rows), ["positive", "negative", "ignore"]),
                   "source_face": rng.integers(-1, 2000, n_rows)}
        assert b"".join(cli._render(columns, fmt)).decode() == render_reference(materialized(columns), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_coded_labels_match_the_string_column(self, fmt):
        # match renders its .anchors labels from their int8 codes.
        n_rows = cli._RENDER_ROWS + 4_000
        codes = np.random.default_rng(27).choice(
            np.array([LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_IGNORE], np.int8), n_rows)
        for chunk in (codes[: cli._RENDER_ROWS], codes[cli._RENDER_ROWS :]):
            assert len(set(chunk.tolist())) == 3
        names = {LABEL_POSITIVE: "positive", LABEL_NEGATIVE: "negative", LABEL_IGNORE: "ignore"}
        table = {"anchor": np.arange(n_rows), "label": cli._Coded(codes, cli._LABEL_NAMES),
                 "source_face": np.arange(n_rows) % 7 - 1}
        strings = [names[c] for c in codes.tolist()]
        assert b"".join(cli._render(table, fmt)).decode() == render_reference({**table, "label": strings}, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, fmt):
        columns = {"a": [], "b": np.array([], dtype=np.float64)}
        assert b"".join(cli._render(columns, fmt)).decode() == render_reference(columns, fmt)

    def test_json_grid_memory_is_bounded_by_the_chunk(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_RENDER_ROWS", 4096)
        out = tmp_path / "grid.json"
        tracemalloc.start()
        try:
            code = main(["grid", "--spec", str(DATA / "golden_spec.json"), "--plane", "1024x768",
                         "--format", "json", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > 13_000_000  # 98,304 anchors
        # Rendering the whole text before writing it peaked at about 52 MB
        # here; streamed chunks peak near 12 MB.
        assert peak < 25_000_000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_peak_is_under_64_bytes_per_anchor(self, monkeypatch, tmp_path, fmt):
        # Whole-plane columns are id, cx, cy and the group codes of the five
        # coded per-group columns; the rest lives for one chunk.
        monkeypatch.setattr(cli, "_RENDER_ROWS", 4096)
        out = tmp_path / f"grid.{fmt}"
        tracemalloc.start()
        try:
            code = main(["grid", "--spec", str(DATA / "golden_spec.json"), "--plane", "2048x1536",
                         "--format", fmt, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        n_anchors = 393_216
        assert out.read_text().count("\n") == (n_anchors + 1 if fmt == "csv" else 10 * n_anchors + 2)
        assert peak < 64 * n_anchors

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_peak_does_not_grow_with_the_plane(self, monkeypatch, tmp_path, fmt):
        # Every column is built a chunk at a time, so a plane 16 times larger
        # (1,572,864 anchors) peaks within 2 MB of 1024x768; one whole-plane
        # int64 column would add about 12 MB.
        monkeypatch.setattr(cli, "_RENDER_ROWS", 4096)
        out = tmp_path / f"grid.{fmt}"
        peaks = []
        for plane in ("1024x768", "4096x3072"):
            tracemalloc.start()
            try:
                code = main(["grid", "--spec", str(DATA / "golden_spec.json"), "--plane", plane,
                             "--format", fmt, "--out", str(out)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            out.unlink()  # the 4096x3072 JSON is about 237 MB
        assert peaks[1] - peaks[0] < 2_000_000

    NON_ASCII_LISTING = ("café/ü.jpg\n2\n10 10 16 16\n40 20 24 24\n"
                         "Å/日本 1.jpg\n1\n5 5 20 20\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["match", "--annotations", str(DATA / "golden_faces.txt"),
             "--spec", str(DATA / "golden_spec.json"), "--format", "json"],
            ["match", "--annotations", str(DATA / "golden_faces.txt"),
             "--spec", str(DATA / "golden_spec.json")],
            ["grid", "--spec", str(DATA / "golden_spec.json"), "--plane", "64x48"],
            ["grid", "--spec", str(DATA / "golden_spec.json"), "--plane", "64x48", "--format", "json"],
            ["match", "--annotations", "NON_ASCII_LISTING", "--spec", str(DATA / "golden_spec.json")],
        ],
        ids=["match-json", "match-csv", "grid-csv", "grid-json", "match-non-ascii"],
    )
    def test_stdout_streams_the_written_artifacts(self, monkeypatch, capsys, tmp_path, argv):
        # Chunks are bytes; stdout decodes them, so an image path beyond
        # ASCII reaches the console as the text of the written CSV.
        monkeypatch.setattr(cli, "_RENDER_ROWS", 3)
        listing = tmp_path / "faces.txt"
        listing.write_text(self.NON_ASCII_LISTING, encoding="utf-8")
        argv = [str(listing) if arg == "NON_ASCII_LISTING" else arg for arg in argv]
        code, streamed = run_stdout(capsys, argv)
        assert code == 0
        if str(listing) in argv:
            assert "café/ü.jpg" in streamed and "Å/日本 1.jpg" in streamed
        out = str(tmp_path / "run")
        assert main([*argv, "--out", out]) == 0
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
        assert len(outputs) == (2 if argv[0] == "match" else 1)
        assert "".join(Path(o["path"]).read_bytes().decode("utf-8") for o in outputs) == streamed
        for entry in outputs:
            assert entry["sha256"] == cli._sha256_file(entry["path"])


def _project_metadata():
    """The ``[project]`` table of this checkout's ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def run_console_script(*argv):
    """Run the declared ``anchorlap`` console script as its generated wrapper would.

    The script target comes from ``[project.scripts]``; the subprocess imports
    the same ``anchorlap`` package as this test process, so the run needs no
    installation and cannot pick up another copy from ``PATH``.
    """
    module, attr = _project_metadata()["scripts"]["anchorlap"].split(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'anchorlap'; sys.exit({attr}())"
    )
    import_root = str(Path(anchorlap.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (import_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv], capture_output=True, text=True, env=env,
    )


def test_installed_entry_point_reports_version():
    project = _project_metadata()
    proc = run_console_script("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"anchorlap {project['version']}"


@pytest.mark.skipif(
    shutil.which("anchorlap") is None, reason="no anchorlap console script on PATH"
)
def test_path_console_script_reports_version():
    project = _project_metadata()
    proc = subprocess.run(["anchorlap", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"anchorlap {project['version']}"


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["match", "--annotations", "a", "--spec", "s"])
    assert (args.t_high, args.t_low, args.hc_n) == dataclasses.astuple(MatchConfig())
    args = parser.parse_args(["emo", "--scales", "16", "--strides", "16"])
    assert args.cells == EmoQuery(16.0, 16.0).quadrature_cells


# One minimal argv per run subcommand.
RUN_ARGVS = [
    ["emo", "--scales", "16", "--strides", "16"], ["grid", "--spec", "s", "--plane", "8x8"],
    ["stats", "--annotations", "a", "--spec", "s"], ["match", "--annotations", "a", "--spec", "s"],
    ["optimize", "--annotations", "a", "--space", "s"],
]


@pytest.mark.parametrize("argv", RUN_ARGVS, ids=lambda argv: argv[0])
def test_the_parser_holds_what_the_command_table_declares(argv):
    _, names, input_names = cli._COMMANDS[argv[0]]
    args = vars(cli.build_parser().parse_args(argv))
    assert set(names) | set(input_names) | {"out", "format"} <= set(args)
    assert ("seed" in args) == (argv[0] in ("emo", "stats", "match"))
    assert args["func"] is cli.cmd_run


@pytest.mark.parametrize("argv", [*RUN_ARGVS, ["replay", "--manifest", "m", "--out", "o"]],
                         ids=lambda argv: argv[0])
def test_the_one_parser_has_only_immutable_defaults(argv):
    # ``main`` reuses one parser, so a run that mutated a default would leak
    # into every later run of the process.
    assert cli._parser() is cli._parser()
    args = vars(cli._parser().parse_args(argv))
    for name, value in args.items():
        if name not in ("scales", "strides"):  # given, so parsed afresh
            hash(value)


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
