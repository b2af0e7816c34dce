"""Annotation parsing and scale-bucket coverage analytics."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from anchorlap import dataset
from anchorlap.dataset import (
    AnnotationError,
    JitterReport,
    ParsedAnnotations,
    bounding_plane,
    bucket_bounds,
    bucket_stats,
    jitter_experiment,
    parse_annotations,
)
from anchorlap.emo import EmoQuery, emo_closed_form
from anchorlap.geometry import FaceTable, RectBox
from anchorlap.layout import AnchorSpec, build_layout
from anchorlap.matching import jitter_offset_bound
from anchorlap.specfile import load_spec
from helpers import brute_jitter, face_lines

DATA = Path(__file__).parent / "data"

LISTING = """\
events/a.jpg
2
10 20 30 40
5 5 8 8
events/b.jpg
1
0 0 16 16
"""


class TestParsing:
    def test_basic_listing(self):
        parsed = parse_annotations(LISTING)
        assert isinstance(parsed, ParsedAnnotations)
        assert parsed.skipped == 0
        table = parsed.records
        assert [table.image_ids[k] for k in table.image] == [
            "events/a.jpg", "events/a.jpg", "events/b.jpg"
        ]
        assert table.image_ids == ("events/a.jpg", "events/b.jpg")
        first = table[0]
        assert (first.x, first.y, first.w, first.h) == (10, 20, 30, 40)

    def test_accepts_line_iterables(self, tmp_path):
        path = tmp_path / "faces.txt"
        path.write_text(LISTING)
        with open(path) as fh:
            parsed = parse_annotations(fh)
        assert len(parsed.records) == 3

    def test_crlf_lines(self):
        parsed = parse_annotations(LISTING.replace("\n", "\r\n").splitlines(True))
        assert len(parsed.records) == 3

    def test_extra_columns_ignored(self):
        parsed = parse_annotations("a.jpg\n1\n1 2 3 4 0 0 1 0 2 0\n")
        box = parsed.records[0]
        assert (box.x, box.y, box.w, box.h) == (1.0, 2.0, 3.0, 4.0)

    def test_blank_lines_between_groups(self):
        parsed = parse_annotations("a.jpg\n1\n1 1 4 4\n\n\nb.jpg\n1\n2 2 4 4\n")
        assert len(parsed.records) == 2

    def test_zero_count_placeholder_consumed(self):
        text = "empty.jpg\n0\n0 0 0 0 0 0 0 0 0 0\nnext.jpg\n1\n3 3 9 9\n"
        parsed = parse_annotations(text)
        assert len(parsed.records) == 1
        assert parsed.records.image_ids[parsed.records.image[0]] == "next.jpg"
        assert parsed.skipped == 1

    def test_image_index_follows_first_appearance(self):
        table = parse_annotations("a.jpg\n0\nb.jpg\n1\n1 1 4 4\na.jpg\n1\n2 2 4 4\n").records
        assert table.image_ids == ("a.jpg", "b.jpg")
        assert table.image.tolist() == [1, 0]

    def test_zero_count_without_placeholder(self):
        parsed = parse_annotations("empty.jpg\n0\nnext.jpg\n1\n3 3 9 9\n")
        assert len(parsed.records) == 1
        assert parsed.skipped == 0

    def test_degenerate_box_skipped(self):
        parsed = parse_annotations("b.jpg\n1\n0 0 0 0\n")
        assert len(parsed.records) == 0
        assert parsed.skipped == 1
        assert face_lines(parsed) == 1

    def test_negative_width_skipped(self):
        parsed = parse_annotations("c.jpg\n2\n5 5 -3 10\n5 5 3 10\n")
        assert len(parsed.records) == 1
        assert parsed.skipped == 1

    def test_counts_are_conserved(self):
        parsed = parse_annotations(LISTING + "d.jpg\n1\n0 0 0 0\n")
        assert face_lines(parsed) == len(parsed.records) + parsed.skipped == 4

    @pytest.mark.parametrize(
        "text,line",
        [
            ("a.jpg\n3\n1 1 5 5\n", 3),          # declared 3, listing ends after 1
            ("a.jpg\nxx\n", 2),                   # count is not an integer
            ("a.jpg\n-1\n", 2),                   # negative count
            ("a.jpg\n", 1),                       # no count line at all
            ("a.jpg\n1\n1 2 three 4\n", 3),       # non-numeric coordinate
            ("a.jpg\n1\n1 2 3\n", 3),             # too few numbers
        ],
    )
    def test_structural_errors_carry_line(self, text, line):
        with pytest.raises(AnnotationError) as err:
            parse_annotations(text)
        assert err.value.line == line
        assert f"line {line}:" in str(err.value)

    def test_empty_source(self):
        parsed = parse_annotations("")
        assert len(parsed.records) == 0 and parsed.skipped == 0


def l16_layout(plane=256.0, divisor=1):
    spec = AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=divisor)
    return build_layout(spec, plane, plane)


class TestBucketStats:
    def test_perfect_faces(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0.0, 0.0, 16.0, 16.0)], layout)
        b = 2  # scale 16 lands in [16, 32)
        assert report.counts[b] == 1
        assert report.mean_max_iou[b] == 1.0
        assert report.recall[b] == 1.0
        lo, hi = bucket_bounds(report.edges)
        assert (lo[b], hi[b]) == (16.0, 32.0)
        assert sum(report.counts) == 1

    def test_boundary_scale_goes_to_upper_bucket(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0.0, 0.0, 8.0, 8.0)], layout)
        assert report.counts[1] == 1  # [8, 16), not [0, 8)
        assert report.counts[0] == 0

    def test_empty_buckets_are_nan(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0.0, 0.0, 16.0, 16.0)], layout)
        assert math.isnan(report.mean_max_iou[0])
        assert math.isnan(report.recall[0])
        assert report.counts[0] == 0

    def test_records_and_boxes_agree(self):
        layout = l16_layout(64.0)
        boxes = [RectBox(3.0, 5.0, 16.0, 16.0), RectBox(20.0, 9.0, 40.0, 40.0)]
        table = parse_annotations("x.jpg\n2\n3 5 16 16\n20 9 40 40\n").records
        assert bucket_stats(boxes, layout) == bucket_stats(table, layout)

    def test_recall_never_rises_with_tau(self):
        layout = l16_layout(128.0)
        rng = np.random.default_rng(3)
        boxes = [
            RectBox(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 16.0, 16.0)
            for _ in range(200)
        ]
        taus = [0.2, 0.4, 0.6, 0.8]
        recalls = [bucket_stats(boxes, layout, tau=t).recall[2] for t in taus]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_single_bucket_mode(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0, 0, 16, 16), RectBox(0, 0, 100, 100)], layout, edges=())
        assert report.counts == (2,)
        assert bucket_bounds(report.edges) == ((0.0,), (math.inf,))

    def test_more_anchors_never_hurt(self):
        """Adding a shifted sub-lattice keeps every anchor of the base grid."""
        rng = np.random.default_rng(14)
        plain = build_layout(AnchorSpec(scales=(16.0,), base_stride=16.0), 128.0, 128.0)
        dense = build_layout(
            AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 1}),
            128.0, 128.0,
        )
        boxes = [
            RectBox(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 16.0, 16.0)
            for _ in range(300)
        ]
        a = bucket_stats(boxes, plain, edges=())
        b = bucket_stats(boxes, dense, edges=())
        assert b.mean_max_iou[0] > a.mean_max_iou[0]

    def test_validation(self):
        layout = l16_layout(64.0)
        with pytest.raises(ValueError):
            bucket_stats([], layout)
        with pytest.raises(ValueError):
            bucket_stats([RectBox(0, 0, 4, 4)], layout, tau=0.0)
        with pytest.raises(ValueError):
            bucket_stats([RectBox(0, 0, 4, 4)], layout, edges=(16.0, 8.0))
        with pytest.raises(ValueError):
            bucket_stats([RectBox(0, 0, 4, 4)], layout, edges=(-4.0,))


def uniform_small_faces(n, seed):
    """l=16 faces with centers uniform over whole periods of strides 16 and 8."""
    rng = np.random.default_rng(seed)
    cx = rng.uniform(64.0, 192.0, size=n)
    cy = rng.uniform(64.0, 192.0, size=n)
    return [RectBox(float(a - 8.0), float(b - 8.0), 16.0, 16.0) for a, b in zip(cx, cy)]


class TestAgainstTheory:
    def test_uniform_small_faces_hit_the_predicted_mean(self):
        faces = uniform_small_faces(10_000, seed=60)
        report = bucket_stats(faces, l16_layout(), edges=())
        predicted = emo_closed_form(EmoQuery(face_side=16.0, anchor_stride=16.0)).value
        x, y, w, h = np.array([[b.x, b.y, b.w, b.h] for b in faces]).T
        from anchorlap.matching import max_overlap_values

        vals = max_overlap_values(l16_layout(), x, y, w, h)
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(faces))
        assert abs(report.mean_max_iou[0] - predicted) <= 3.0 * se

    def test_halving_the_stride_raises_small_face_means(self):
        faces = uniform_small_faces(4_000, seed=61)
        a = bucket_stats(faces, l16_layout(divisor=1), edges=())
        b = bucket_stats(faces, l16_layout(divisor=2), edges=())
        assert b.mean_max_iou[0] > a.mean_max_iou[0]
        assert b.recall[0] > a.recall[0]


class TestJitterExperiment:
    def test_unit_offset_layout_reduces_to_bucket_stats(self):
        # effective stride 2 forces the offset to (0, 0) in every trial
        layout = build_layout(AnchorSpec(scales=(2.0,), base_stride=2.0), 16.0, 16.0)
        faces = [RectBox(3.0, 3.0, 2.0, 2.0), RectBox(7.5, 4.0, 2.0, 2.0)]
        report = jitter_experiment(faces, layout, trials=5, seed=0, edges=())
        plain = bucket_stats(faces, layout, edges=())
        assert report.trials == 5
        assert report.counts == plain.counts
        assert report.mean_of_means[0] == plain.mean_max_iou[0]
        assert report.min_mean[0] == report.max_mean[0] == plain.mean_max_iou[0]

    def test_corner_pinned_faces_improve_under_jitter(self):
        layout = l16_layout(128.0)
        # centers on lattice cell corners: the unjittered worst case
        faces = [
            RectBox(cx - 8.0, cy - 8.0, 16.0, 16.0)
            for cx in (16.0, 32.0, 48.0) for cy in (16.0, 32.0, 48.0)
        ]
        plain = bucket_stats(faces, layout, edges=())
        report = jitter_experiment(faces, layout, trials=16, seed=2, edges=())
        assert plain.mean_max_iou[0] == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert report.mean_of_means[0] > plain.mean_max_iou[0]
        assert report.min_mean[0] >= plain.mean_max_iou[0]

    def test_deterministic_in_seed(self):
        layout = l16_layout(128.0)
        faces = uniform_small_faces(50, seed=64)
        a = jitter_experiment(faces, layout, trials=4, seed=9)
        b = jitter_experiment(faces, layout, trials=4, seed=9)
        c = jitter_experiment(faces, layout, trials=4, seed=10)
        assert a == b
        assert a != c

    def test_validation(self):
        layout = l16_layout(64.0)
        with pytest.raises(ValueError):
            jitter_experiment([RectBox(0, 0, 4, 4)], layout, trials=0, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            jitter_experiment([RectBox(0, 0, 4, 4)], l16_layout(64.0), trials=trials, seed=0)


# Specs over scales 16-64 whose smallest effective stride b gives
# floor(b/2)**2 distinct jitter offsets, keyed by that count.
OFFSET_SPECS = {
    1: dict(stride_divisor=4, shifts_per_scale={16.0: 3}),
    4: dict(stride_divisor=2, shifts_per_scale={16.0: 3}),
    16: dict(stride_divisor=2),
    25: dict(shifts_per_scale={16.0: 1}),
    64: dict(),
}


def offset_layout(distinct):
    spec = AnchorSpec(scales=(16.0, 32.0, 64.0), base_stride=16.0, **OFFSET_SPECS[distinct])
    return build_layout(spec, 256.0, 192.0)


def mixed_faces(n, seed):
    """Faces of sides 6-90 px (so the buckets above 128 stay empty),
    heights 0.9-1.3 times the width, on a 256x192 plane."""
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(math.log(6.0), math.log(90.0), size=n))
    h = w * rng.uniform(0.9, 1.3, size=n)
    x = rng.uniform(0.0, 256.0 - w)
    y = rng.uniform(0.0, 192.0 - h)
    return FaceTable(x, y, w, h, np.zeros(n, dtype=np.int64), ("",))


def golden_jitter_inputs():
    faces = parse_annotations((DATA / "golden_faces.txt").read_text()).records
    layout = build_layout(load_spec(str(DATA / "golden_spec.json")), *bounding_plane(faces))
    return faces, layout


@pytest.fixture
def kernel_passes(monkeypatch):
    """Records every ``dataset.bucket_stats`` call made through the module."""
    calls = []
    real = dataset.bucket_stats

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dataset, "bucket_stats", counting)
    return calls


class TestJitterOnePassPerOffset:
    """``jitter_experiment`` runs the kernel once per distinct offset, and its
    report equals one full ``bucket_stats`` per trial (``brute_jitter``)."""

    @pytest.mark.parametrize("trials", [1, 3, 16, 100])
    @pytest.mark.parametrize("distinct", sorted(OFFSET_SPECS))
    def test_equals_a_pass_per_trial(self, distinct, trials):
        layout = offset_layout(distinct)
        assert math.floor(jitter_offset_bound(layout) / 2.0) ** 2 == distinct
        faces = mixed_faces(120, seed=distinct)
        got = jitter_experiment(faces, layout, trials, seed=trials)
        want = brute_jitter(faces, layout, trials, seed=trials)
        for field in dataclasses.fields(JitterReport):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert 1 <= got.distinct_offsets <= min(trials, distinct)

    def test_golden_spec_draws_each_of_its_four_offsets_once(self, kernel_passes):
        faces, layout = golden_jitter_inputs()
        report = jitter_experiment(faces, layout, trials=64, seed=3)
        assert len(kernel_passes) == report.distinct_offsets == 4

    def test_single_offset_spec_makes_one_pass_of_unshifted_faces(self, kernel_passes):
        faces = mixed_faces(60, seed=7)
        layout = offset_layout(1)
        report = jitter_experiment(faces, layout, trials=16, seed=5)
        assert len(kernel_passes) == report.distinct_offsets == 1
        shifted = kernel_passes[0][0]
        assert all(np.array_equal(getattr(shifted, c), getattr(faces, c)) for c in "xywh")
        plain = bucket_stats(faces, layout)
        assert report.min_mean == report.max_mean == plain.mean_max_iou


class TestBoundingPlane:
    def test_covers_all_faces(self):
        faces = [RectBox(10.0, 5.0, 30.5, 60.0), RectBox(80.0, 2.0, 20.4, 10.0)]
        assert bounding_plane(faces) == (101.0, 65.0)

    def test_minimum_side(self):
        assert bounding_plane([RectBox(0, 0, 4, 4)]) == (64.0, 64.0)
        assert bounding_plane([]) == (64.0, 64.0)
        assert bounding_plane([RectBox(0, 0, 4, 4)], min_side=32.0) == (32.0, 32.0)
