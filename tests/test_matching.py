"""Matching pipeline: max-IoU assignment, thresholds, jitter, compensation."""

import csv
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlap import matching
from anchorlap.cli import main
from anchorlap.dataset import bounding_plane, parse_annotations
from anchorlap.geometry import FaceTable, RectBox, iou_xywh
from anchorlap.layout import AnchorSpec, build_layout
from anchorlap.matching import (
    LABEL_IGNORE,
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    MatchConfig,
    apply_jitter,
    compensate_hard_faces,
    match_faces,
    max_overlap_values,
    overlapping_anchors,
)
from anchorlap.specfile import load_spec

from helpers import (
    all_pair_ious,
    assert_same_match,
    brute_labels,
    brute_match,
    brute_max_overlap,
    brute_top_n,
    corner_max_overlap,
    corner_nth_iou,
    hard_faces,
    iou_offset_square,
    label_counts,
    max_overlap,
    random_spec,
)


def grid16(plane=64.0):
    """Plain scale-16 lattice: anchors at (8+16c, 8+16r)."""
    return build_layout(AnchorSpec(scales=(16.0,), base_stride=16.0), plane, plane)


def stride_grid(base_stride, **spec):
    """A scale-16 lattice of the given base stride on a 64 x 64 plane."""
    return build_layout(AnchorSpec(scales=(16.0,), base_stride=base_stride, **spec), 64.0, 64.0)


def offsets(layout, draws, seed=5):
    """The offsets ``apply_jitter`` draws from streams 0 to ``draws - 1``."""
    return [apply_jitter([], layout, seed, stream_index=t)[1] for t in range(draws)]


CFG = MatchConfig()
DATA = Path(__file__).parent / "data"


class TestMatchConfig:
    def test_defaults(self):
        assert CFG.t_high == 0.5 and CFG.t_low == 0.3 and CFG.hc_n == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_high": 0.5, "t_low": 0.6},
            {"t_low": 0.0},
            {"t_high": 1.0},
            {"t_high": -0.2, "t_low": -0.3},
            {"hc_n": -1},
            {"t_low": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MatchConfig(**kwargs)

    @pytest.mark.parametrize("hc_n", [2.5, True, "5"])
    def test_hc_n_must_be_an_integer(self, hc_n):
        with pytest.raises(ValueError, match="hc_n must be an integer"):
            MatchConfig(hc_n=hc_n)

    def test_equal_thresholds_allowed(self):
        MatchConfig(t_high=0.4, t_low=0.4)


class TestMaxOverlap:
    def test_face_on_anchor_is_perfect(self):
        layout = grid16()
        values, ids = max_overlap(layout, 0.0, 0.0, 16.0, 16.0)
        assert values[0] == 1.0
        assert ids[0] == 0

    def test_far_face_gets_zero_and_minus_one(self):
        layout = grid16()
        values, ids = max_overlap(layout, 500.0, 500.0, 16.0, 16.0)
        assert values[0] == 0.0
        assert ids[0] == -1

    def test_corner_pinned_value(self):
        # centered on a lattice cell corner: worst case of the scale-16 grid
        layout = grid16()
        values = max_overlap_values(layout, 8.0, 8.0, 16.0, 16.0)
        assert values[0] == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            spec = random_spec(rng)
            side = float(rng.integers(48, 129))
            layout = build_layout(spec, side, side)
            n = int(rng.integers(1, 13))
            w = rng.uniform(2.0, 40.0, size=n)
            h = rng.uniform(2.0, 40.0, size=n)
            x = rng.uniform(-10.0, side - 5.0, size=n)
            y = rng.uniform(-10.0, side - 5.0, size=n)
            boxes = [RectBox(*t) for t in zip(x, y, w, h)]
            want_val, want_id = brute_max_overlap(layout, boxes)
            got_val, got_id = max_overlap(layout, x, y, w, h)
            assert np.array_equal(got_val, want_val)
            assert np.array_equal(got_id, want_id)

    def test_scalar_size_broadcasts_over_centers(self):
        layout = grid16()
        x = np.array([0.0, 8.0, 16.0])
        values = max_overlap_values(layout, x, 0.0, 16.0, 16.0)
        assert values.shape == (3,)
        assert values[0] == 1.0

    def test_2d_coordinates_keep_their_shape(self):
        layout = grid16()
        values = max_overlap_values(layout, np.zeros((2, 3)), 0.0, 16.0, 16.0)
        assert values.shape == (2, 3)
        assert np.array_equal(values, max_overlap_values(layout, np.zeros(6), 0.0, 16.0, 16.0).reshape(2, 3))

    def test_max_overlap_broadcasts_like_the_values(self):
        layout = grid16()
        x = np.array([[0.0, 3.0, 8.0], [40.0, 500.0, -9.0]])
        w = np.array([[16.0], [5.0]])
        values, ids = max_overlap(layout, x, 2.0, w, 16.0)
        assert values.shape == ids.shape == (2, 3)
        flat_x, flat_w = (v.ravel() for v in np.broadcast_arrays(x, w))
        flat_values, flat_ids = max_overlap(layout, flat_x, 2.0, flat_w, 16.0)
        assert np.array_equal(values, flat_values.reshape(2, 3))
        assert np.array_equal(ids, flat_ids.reshape(2, 3))
        assert ids[1, 1] == -1 and values[1, 1] == 0.0

    def test_overlapping_anchors_sorted_positive(self):
        layout = grid16()
        ids, ious = overlapping_anchors(layout, RectBox(8.0, 8.0, 16.0, 16.0))
        assert ids.tolist() == [0, 1, 4, 5]
        assert np.all(ious > 0.0)
        assert np.allclose(ious, 1.0 / 7.0)

    def test_overlapping_anchors_come_in_id_order_across_groups(self):
        # On the half-stride lattice this box's windows are 3 x 3 in groups
        # 0 and 2 and 3 x 2 in groups 1 and 3.  The scan goes group by group
        # and each window row by row, so its pairs ascend by ID unsorted.
        layout = stride_grid(16.0, shifts_per_scale={16.0: 3})
        box = RectBox(0.0, 8.0, 16.0, 16.0)
        one = [np.array([v]) for v in (box.x, box.y, box.w, box.h, 0.0)]
        blocks = list(matching._scan(layout, *one))
        assert [set(layout.locate(ids)[0].tolist()) for _, ids, _ in blocks] == [{0}, {1}, {2}, {3}]
        ids, ious = overlapping_anchors(layout, box)
        dense = all_pair_ious(layout, [box])[0]
        assert ids.tolist() == np.flatnonzero(dense > 0.0).tolist() == [0, 4, 16, 20, 32, 48]
        assert ious.tobytes() == dense[ids].tobytes()


def tie_spec(rng, ratios=(0.5, 1.0, 2.0)):
    """A random spec with shifted sub-lattices and anchors large enough to
    hold the small boxes of :func:`tie_boxes` whole."""
    scales = sorted(rng.choice([4.0, 8.0, 16.0, 24.0, 48.0], size=int(rng.integers(1, 4)),
                               replace=False).tolist())
    ratios = sorted(rng.choice(ratios, size=int(rng.integers(1, len(ratios) + 1)),
                               replace=False).tolist())
    shifts = {s: int(rng.choice([0, 1, 3])) for s in scales}
    return AnchorSpec(scales=tuple(scales), ratios=tuple(ratios), base_stride=16.0,
                      stride_divisor=int(rng.choice([1, 2, 4])),
                      shifts_per_scale={k: v for k, v in shifts.items() if v})


def tie_boxes(rng, layout, n):
    """Boxes that provoke exact ties: centers on the quarter-stride grid
    (every anchor center and cell midpoint) for 40% of them, integer sides
    for 40%, sides down to 1 px so that large anchors hold them whole, and
    centers up to 24 px past the plane edges, where the bracket clamps to
    one grid line."""
    quarter = layout.spec.sliding_stride / 4.0
    w = rng.uniform(1.0, 40.0, n)
    h = np.where(rng.random(n) < 0.5, w, rng.uniform(1.0, 40.0, n))
    whole = rng.random(n) < 0.4
    w[whole], h[whole] = np.ceil(w[whole]), np.ceil(h[whole])
    cx = rng.uniform(-24.0, layout.plane_w + 24.0, n)
    cy = rng.uniform(-24.0, layout.plane_h + 24.0, n)
    aligned = rng.random(n) < 0.4
    cx[aligned] = np.round(cx[aligned] / quarter) * quarter
    cy[aligned] = np.round(cy[aligned] / quarter) * quarter
    return cx - w / 2.0, cy - h / 2.0, w, h


class TestSeparableKernel:
    """The per-axis kernel against the four-corner kernel it replaced and
    the exhaustive scan, with ``==``."""

    def test_equals_corner_kernel_and_brute_force(self):
        rng = np.random.default_rng(2024)
        tied = clamped = 0
        for _ in range(40):
            layout = build_layout(tie_spec(rng, ratios=(1.0,)), float(rng.integers(24, 97)),
                                  float(rng.integers(24, 97)))
            x, y, w, h = tie_boxes(rng, layout, 60)
            got = max_overlap_values(layout, x, y, w, h)
            assert np.array_equal(got, corner_max_overlap(layout, x, y, w, h))
            boxes = [RectBox(*map(float, b)) for b in zip(x, y, w, h)]
            want, _ = brute_max_overlap(layout, boxes)
            assert np.array_equal(got, want)
            at_max = all_pair_ious(layout, boxes) == want[:, None]
            tied += int(np.count_nonzero((at_max.sum(axis=1) > 1) & (want > 0.0)))
            clamped += int(np.count_nonzero((x + w / 2.0 > layout.plane_w) & (want > 0.0)))
        assert tied > 100 and clamped > 100

    def test_non_unit_ratios_stay_a_few_ulps_below_brute_force(self):
        # An anchor whose side is not a dyadic number has an x overlap
        # (ax + aw) - ax that rounds differently at each column while the
        # box holds it whole, so a column off the enclosing cell's corners
        # can score a few ulps higher.  The corner kernel never saw those
        # columns either; this pins the size of that divergence.
        rng = np.random.default_rng(2024)
        for _ in range(40):
            layout = build_layout(tie_spec(rng), float(rng.integers(24, 97)),
                                  float(rng.integers(24, 97)))
            x, y, w, h = tie_boxes(rng, layout, 60)
            got = max_overlap_values(layout, x, y, w, h)
            assert np.array_equal(got, corner_max_overlap(layout, x, y, w, h))
            want, _ = brute_max_overlap(layout, [RectBox(*map(float, b)) for b in zip(x, y, w, h)])
            assert np.all(got <= want)
            assert np.all(want - got <= 32 * np.spacing(want))

    def test_equals_corner_kernel_on_many_boxes(self):
        rng = np.random.default_rng(5150)
        ties = 0
        for _ in range(60):
            layout = build_layout(tie_spec(rng), float(rng.integers(24, 257)),
                                  float(rng.integers(24, 257)))
            x, y, w, h = tie_boxes(rng, layout, 4000)
            got = max_overlap_values(layout, x, y, w, h)
            assert np.array_equal(got, corner_max_overlap(layout, x, y, w, h))
            ties += int(np.count_nonzero(got == 1.0))
        assert ties > 0  # some boxes sit exactly on an anchor

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_nth_corner_iou_equals_four_corner_version(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            layout = build_layout(tie_spec(rng), float(rng.integers(24, 161)),
                                  float(rng.integers(24, 161)))
            x, y, w, h = tie_boxes(rng, layout, 2000)
            got = matching._nth_corner_iou(layout, x, y, w, h, n)
            assert np.array_equal(got, corner_nth_iou(layout, x, y, w, h, n))


class TestKernelEdges:
    """The bracketing-line kernel where its clamps matter: centers far past
    the plane, grids of one row or column, boxes touching anchor edges,
    signed zeros, and block boundaries.  Every value equals the four-corner
    kernel and the exhaustive scan with ``==`` and is never a negative
    zero."""

    SPEC = AnchorSpec(scales=(8.0, 16.0, 48.0), base_stride=16.0, stride_divisor=2,
                      shifts_per_scale={8.0: 3, 48.0: 1})

    def check(self, layout, x, y, w, h):
        x, y, w, h = (np.asarray(v, dtype=np.float64) for v in np.broadcast_arrays(x, y, w, h))
        got = max_overlap_values(layout, x, y, w, h)
        assert np.array_equal(got, corner_max_overlap(layout, x, y, w, h))
        want, _ = brute_max_overlap(layout, [RectBox(*map(float, b)) for b in zip(x, y, w, h)])
        assert np.array_equal(got, want)
        assert not np.signbit(got).any()
        for n in (1, 4, 7):
            nth = matching._nth_corner_iou(layout, x, y, w, h, n)
            assert np.array_equal(nth, corner_nth_iou(layout, x, y, w, h, n))
            assert not np.signbit(nth).any()
        return got

    def test_centers_past_both_plane_edges(self):
        # 8x8, 8x48 and 64x8 have one column, one row or both at sliding
        # stride 8: there both bracketing lines clamp to the same line.
        for plane_w, plane_h in ((64.0, 48.0), (8.0, 8.0), (8.0, 48.0), (64.0, 8.0)):
            layout = build_layout(self.SPEC, plane_w, plane_h)
            past = np.array([-200.0, -40.0, -16.5, -8.0, -0.5])
            cx = np.concatenate([past, plane_w - past])
            cy = np.concatenate([past, plane_h - past])
            cx, cy, side = (v.ravel() for v in np.meshgrid(cx, cy, [1.0, 6.0, 20.0, 90.0]))
            got = self.check(layout, cx - side / 2.0, cy - side / 2.0, side, side)
            assert (got == 0.0).any() and (got > 0.0).any()

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # 2^22 columns by one row, exactly at the anchor cap: the kernel holds
        # per-box scratch only, never one entry per grid line.
        layout = build_layout(AnchorSpec(scales=(16.0,), base_stride=8.0), 8.0 * 2**22, 8.0)
        assert layout.groups[0].cols == 2**22
        rng = np.random.default_rng(35)
        x = rng.uniform(-100.0, 8.0 * 2**22 + 100.0, 100)
        y, w, h = rng.uniform(-8.0, 8.0, 100), rng.uniform(4.0, 40.0, 100), rng.uniform(4.0, 40.0, 100)
        for kernel in (lambda: max_overlap_values(layout, x, y, w, h),
                       lambda: matching._nth_corner_iou(layout, x, y, w, h, 5)):
            kernel()  # numpy's lazy imports on first use are not counted
            tracemalloc.start()
            try:
                kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_boxes_touching_anchor_edges(self):
        layout = grid16()  # anchors span [16c, 16c + 16] on both axes
        edge = np.arange(-2.0, 6.0) * 16.0
        side = np.array([16.0, 8.0, 32.0])
        x, y, w = (v.ravel() for v in np.meshgrid(edge, edge, side))
        for dx in (0.0, -w):  # left edge, then right edge, on an anchor edge
            got = self.check(layout, x + dx, y, w, w)
            assert (got == 0.0).any() and (got == 1.0).any()

    def test_negative_zero_coordinates(self):
        layout = grid16()
        w = np.array([1.0, 8.0, 16.0, 24.0, 16.0, 16.0])
        x = np.array([-0.0, -0.0, -0.0, -0.0, -16.0, 64.0])
        got = self.check(layout, x, -0.0, w, 16.0)
        assert got[2] == 1.0 and got[4] == 0.0 and got[5] == 0.0
        self.check(layout, 0.0 * -w, -0.0, w, w)

    def test_out_buffer_is_filled_and_returned(self):
        layout = build_layout(self.SPEC, 64.0, 48.0)
        x, y, w, h = tie_boxes(np.random.default_rng(11), layout, 300)
        x[:10] = 1000.0  # boxes overlapping no anchor: 0, whatever the buffer held
        want = max_overlap_values(layout, x, y, w, h)
        assert (want == 0.0).any()
        for stale in (np.nan, 2.0, -1.0):
            buf = np.full(want.shape, stale)
            assert max_overlap_values(layout, x, y, w, h, out=buf) is buf
            assert buf.tobytes() == want.tobytes()
        column = np.full((len(x), 1), 2.0)
        got = max_overlap_values(layout, x[:, None], y[:, None], w[:, None], h[:, None], out=column)
        assert got is column and column.ravel().tobytes() == want.tobytes()
        for bad in (np.empty(len(x) + 1), np.empty(2 * len(x))[::2], np.empty(len(x), np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                max_overlap_values(layout, x, y, w, h, out=bad)
        # With no group to write the maxima, the result is still all 0.
        empty = dataclasses.replace(layout, groups=())
        buf = np.full(len(x), np.nan)
        assert max_overlap_values(empty, x, y, w, h, out=buf).tobytes() == np.zeros(len(x)).tobytes()

    @pytest.mark.parametrize("block", [1, 7, matching._KERNEL_BLOCK])
    def test_block_size_never_moves_a_byte(self, monkeypatch, block):
        layout = build_layout(self.SPEC, 64.0, 48.0)
        rng = np.random.default_rng(block)
        x, y, w, h = tie_boxes(rng, layout, block + 1)
        want = max_overlap_values(layout, x, y, w, h)
        assert np.array_equal(want, corner_max_overlap(layout, x, y, w, h))
        monkeypatch.setattr(matching, "_KERNEL_BLOCK", block)
        for n in (block - 1, block, block + 1):
            got = max_overlap_values(layout, x[:n], y[:n], w[:n], h[:n])
            assert got.tobytes() == want[:n].tobytes()
            assert not np.signbit(got).any()


class TestOneSizeForEveryBox:
    """A 0-d ``w`` or ``h``, as ``emo_monte_carlo`` passes, stays one float
    in the overlap kernel.  Every value equals the call with ``np.full``
    size arrays byte for byte, the four-corner kernel and the exhaustive
    scan with ``==``, and is never a negative zero."""

    # Non-unit ratios on the non-dyadic sliding stride 6.3.  Faces stay
    # narrower and lower than every anchor, so no column or row off the
    # corners can score a few ulps higher (see
    # ``test_non_unit_ratios_stay_a_few_ulps_below_brute_force``).
    SPEC = AnchorSpec(scales=(16.0, 24.0), ratios=(0.7, 1.3), base_stride=12.6, stride_divisor=2,
                      shifts_per_scale={16.0: 1})
    SIZES = ((9.3, 7.1), (1.0, 13.0), (13.3, 0.4))

    def check(self, layout, x, y, w, h):
        shape = np.broadcast(np.atleast_1d(x), y).shape
        full_w, full_h = np.full(shape, w), np.full(shape, h)
        got = max_overlap_values(layout, x, y, w, h)
        assert got.shape == shape
        for sizes in ((full_w, full_h), (w, full_h), (full_w, h)):
            assert max_overlap_values(layout, x, y, *sizes).tobytes() == got.tobytes()
        flat = [np.broadcast_to(v, shape).ravel() for v in (x, y, full_w, full_h)]
        assert np.array_equal(got.ravel(), corner_max_overlap(layout, *flat))
        want, _ = brute_max_overlap(layout, [RectBox(*map(float, b)) for b in zip(*flat)])
        assert np.array_equal(got.ravel(), want)
        assert not np.signbit(got).any()
        return got

    def test_groups_of_non_unit_ratios_on_a_non_dyadic_stride(self):
        layout = build_layout(self.SPEC, 61.0, 47.0)
        assert len(layout.groups) == 6 and layout.spec.sliding_stride == 6.3
        rng = np.random.default_rng(37)
        for w, h in self.SIZES:
            got = self.check(layout, rng.uniform(-5.0, 61.0, 500), rng.uniform(-5.0, 47.0, 500), w, h)
            assert (got > 0.0).all()

    def test_centers_past_both_plane_edges(self):
        layout = build_layout(self.SPEC, 40.0, 30.0)
        past = np.array([-300.0, -30.0, -12.0, -6.3, -0.5, 0.0])
        cx, cy = np.meshgrid(np.concatenate([past, 40.0 - past]), np.concatenate([past, 30.0 - past]))
        for w, h in self.SIZES:
            got = self.check(layout, cx.ravel() - w / 2.0, cy.ravel() - h / 2.0, w, h)
            assert (got == 0.0).any() and (got > 0.0).any()

    def test_a_block_boundary(self):
        layout = build_layout(self.SPEC, 20.0, 20.0)
        block = matching._KERNEL_BLOCK
        rng = np.random.default_rng(73)
        x, y = rng.uniform(-20.0, 30.0, block + 1), rng.uniform(-20.0, 30.0, block + 1)
        w, h = self.SIZES[0]
        want = self.check(layout, x, y, w, h)
        for n in (block - 1, block):
            assert self.check(layout, x[:n], y[:n], w, h).tobytes() == want[:n].tobytes()

    def test_one_box_and_a_2d_coordinate_shape(self):
        layout = build_layout(self.SPEC, 40.0, 30.0)
        w, h = self.SIZES[0]
        one = self.check(layout, 3.5, 4.25, w, h)
        assert one.shape == (1,) and one[0] > 0.0
        assert self.check(layout, np.array([3.5]), 4.25, w, h).tobytes() == one.tobytes()
        x = np.linspace(-10.0, 45.0, 12).reshape(3, 4)
        got = self.check(layout, x, np.array([[2.0], [15.0], [33.0]]), w, h)
        assert got.shape == (3, 4)


def scan_boxes(rng, layout, side, n=40):
    """Boxes of 1-200 px, some centered past the plane edges, some exactly
    on anchors."""
    w = np.exp(rng.uniform(0.0, math.log(200.0), n))
    h = np.clip(w * rng.uniform(0.5, 2.0, n), 1.0, 200.0)
    cx = rng.uniform(-0.25 * side, 1.25 * side, n)
    cy = rng.uniform(-0.25 * side, 1.25 * side, n)
    x, y = cx - w / 2.0, cy - h / 2.0
    on = rng.choice(n, size=n // 8, replace=False)
    x[on], y[on], w[on], h[on] = layout.all_boxes()[rng.integers(0, layout.anchor_count, on.size)].T
    return x, y, w, h


def assert_scan_is_dense(layout, x, y, w, h, floor, dense):
    """The blocks of ``_scan``, kept alive together, hold what each block
    held as it came (no block aliases another's arrays), their
    concatenation is ``_pairs``, and the pairs are the dense pairs of
    positive IoU at or above each box's floor, once each, bit for bit."""
    blocks = list(matching._scan(layout, x, y, w, h, floor))
    fresh = [tuple(part.copy() for part in block) for block in matching._scan(layout, x, y, w, h, floor)]
    assert len(blocks) == len(fresh)
    for block, copy in zip(blocks, fresh):
        assert all(np.array_equal(a, b) for a, b in zip(block, copy))
    boxes, ids, ious = matching._pairs(layout, x, y, w, h, floor)
    for part, joined in zip((boxes, ids, ious), zip(*blocks)):
        assert np.array_equal(part, np.concatenate(joined))
    keys = boxes * layout.anchor_count + ids
    assert np.unique(keys).size == keys.size
    want = np.flatnonzero((dense > 0.0) & (dense >= floor[:, None]))
    assert np.array_equal(np.sort(keys), want)
    assert np.array_equal(ious, dense[boxes, ids])
    return blocks, boxes, ids


class TestScan:
    """``_scan`` streams exactly the pairs of positive IoU at or above each
    box's floor, each once, with the dense IoUs bit for bit."""

    @pytest.mark.parametrize("block_pairs", [None, 1, 64])
    def test_pairs_are_the_dense_pairs_at_or_above_the_floor(self, monkeypatch, block_pairs):
        if block_pairs is not None:
            monkeypatch.setattr(matching, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(2024)
        for _ in range(30):
            side = float(rng.integers(32, 160))
            layout = build_layout(random_spec(rng), side, side)
            x, y, w, h = scan_boxes(rng, layout, side)
            dense = all_pair_ious(layout, [RectBox(*map(float, b)) for b in zip(x, y, w, h)])
            # Floors of 0, random floors, and floors equal to one of the box's IoUs.
            kind = rng.integers(0, 3, len(x))
            floor = np.where(kind == 1, rng.uniform(0.0, 1.0, len(x)), 0.0)
            for i in np.flatnonzero(kind == 2):
                positive = dense[i][dense[i] > 0.0]
                floor[i] = rng.choice(positive) if positive.size else 0.0
            _, boxes, ids = assert_scan_is_dense(layout, x, y, w, h, floor, dense)
            # Each box's IDs ascend across the whole stream.
            order = np.argsort(boxes, kind="stable")
            same = boxes[order][1:] == boxes[order][:-1]
            assert np.all(ids[order][1:][same] > ids[order][:-1][same])

    def test_a_window_larger_than_a_block(self):
        # 200 px square anchors at stride 2: the first box overlaps over
        # 200 x 200 of them, so its window alone outgrows the default block;
        # the second group, of 1:2 anchors, follows in blocks of its own.
        layout = build_layout(AnchorSpec(scales=(200.0,), ratios=(1.0, 2.0), base_stride=2.0), 512.0, 512.0)
        x, y, w, h = (np.array(v) for v in ([150.0, 10.0, 300.5, 0.0], [150.0, 400.0, 3.0, 0.0],
                                            [200.0, 16.0, 150.0, 40.0], [210.0, 16.0, 170.0, 24.0]))
        dense = all_pair_ious(layout, [RectBox(*map(float, b)) for b in zip(x, y, w, h)])
        floor = np.array([0.0, 0.0, 0.3, 0.0])
        _, boxes, ids = assert_scan_is_dense(layout, x, y, w, h, floor, dense)
        square = ids < layout.groups[1].id_start
        assert layout.groups[0].ratio == 1.0
        assert np.count_nonzero(square & (boxes == 0)) > matching._BLOCK_PAIRS
        assert np.count_nonzero(~square) > 0

    def test_groups_on_different_grids(self):
        # A hand-built layout whose groups differ in stride and column
        # count: each window's IDs and positions are read off its own grid.
        parts = [build_layout(AnchorSpec(scales=(16.0,), base_stride=stride), side, side)
                 for stride, side in ((16.0, 64.0), (8.0, 64.0), (16.0, 96.0), (16.0, 64.0))]
        groups, start = [], 0
        for part in parts:
            for g in part.groups:
                groups.append(dataclasses.replace(g, id_start=start))
                start += g.count
        layout = dataclasses.replace(parts[0], plane_w=96.0, plane_h=96.0, groups=tuple(groups), anchor_count=start)
        rng = np.random.default_rng(7)
        x, y, w, h = scan_boxes(rng, layout, 96.0, n=60)
        dense = all_pair_ious(layout, [RectBox(*map(float, b)) for b in zip(x, y, w, h)])
        assert_scan_is_dense(layout, x, y, w, h, np.zeros(len(x)), dense)


def dense_owners(layout, ids, faces):
    """Each anchor's lowest-index face of max IoU over every face, from the
    dense anchors-by-faces matrix."""
    ax, ay, aw, ah = (v[:, None] for v in layout.boxes(ids))
    return iou_xywh(ax, ay, aw, ah, faces.x, faces.y, faces.w, faces.h).argmax(axis=1)


class TestBestFaces:
    """The owner search, which evaluates only the faces whose x extent can
    meet each anchor's, is the dense lowest-index-at-max over every face,
    for anchors of positive IoU with some face."""

    @staticmethod
    def assert_owners(layout, ids, faces):
        got = matching._best_faces(layout, ids, faces)
        assert got.dtype == np.int64
        assert np.array_equal(got, dense_owners(layout, ids, faces))
        return got

    @pytest.mark.parametrize("owner_pairs", [None, 1, 7])
    def test_random_layouts(self, monkeypatch, owner_pairs):
        if owner_pairs is not None:
            monkeypatch.setattr(matching, "_OWNER_PAIRS", owner_pairs)
        rng = np.random.default_rng(29)
        for _ in range(30):
            ratios = [(1.0,), (0.5, 1.0, 2.0), (0.7, 1.3)][int(rng.integers(3))]
            spec = dataclasses.replace(random_spec(rng), ratios=ratios)
            side = float(rng.integers(32, 160))
            layout = build_layout(spec, side, side)
            x, y, w, h = scan_boxes(rng, layout, side)
            # Faces wider than the plane, exact copies (ties at the max) and
            # signed zeros.
            wide = rng.choice(len(x), size=3, replace=False)
            x[wide], w[wide] = -side / 2.0, 2.0 * side
            x[::9], y[::11] = -0.0, -0.0
            copies = rng.integers(0, len(x), 8)
            faces = FaceTable(*(np.concatenate((v, v[copies])) for v in (x, y, w, h)),
                              np.zeros(len(x) + len(copies), dtype=np.int64), ("",))
            reached = np.flatnonzero(all_pair_ious(layout, list(faces)).max(axis=0) > 0.0)
            ids = rng.permutation(reached)[: int(rng.integers(1, 60))]
            self.assert_owners(layout, ids, faces)

    def test_edges_ties_and_signed_zeros(self):
        # Scale-16 anchors at stride 16 on a 60 x 60 plane: anchor 0 spans
        # [0, 16] x [0, 16] and the last column and row reach past the plane.
        layout = grid16(plane=60.0)
        faces = FaceTable.of([
            RectBox(-16.0, 0.0, 16.0, 16.0),       # 0: right edge on anchor 0's left edge
            RectBox(20.0, 0.0, 16.0, 16.0),        # 1: 12 px into anchor 1 from the right
            RectBox(12.0, 0.0, 16.0, 16.0),        # 2: 12 px into anchor 1 from the left
            RectBox(-0.0, -0.0, 4.0, 4.0),         # 3: signed-zero corner in anchor 0
            RectBox(-100.0, -100.0, 300.0, 300.0),  # 4: wider than every anchor
            RectBox(50.0, 52.0, 20.0, 20.0),       # 5: past the plane's far corner
        ])
        reached = np.flatnonzero(all_pair_ious(layout, list(faces)).max(axis=0) > 0.0)
        assert reached.tolist() == list(range(layout.anchor_count))
        owners = self.assert_owners(layout, reached, faces)
        # Faces 1 and 2 tie on anchor 1; the lower index wins though face 2
        # comes first by left edge.  Face 0 only touches anchor 0.
        assert owners[:2].tolist() == [2, 1]
        # Anchors only the wide face reaches, and the far corner.
        assert owners[[8, 12]].tolist() == [4, 4]
        assert owners[15] == 5
        empty = matching._best_faces(layout, np.empty(0, dtype=np.int64), faces)
        assert empty.dtype == np.int64 and empty.shape == (0,)


class TestMatchFaces:
    def test_perfect_face_positive(self):
        layout = grid16()
        res = match_faces([RectBox(0.0, 0.0, 16.0, 16.0)], layout, CFG)
        assert res.face_max_iou[0] == 1.0
        assert res.face_argmax[0] == 0
        assert res.anchor_labels[0] == LABEL_POSITIVE
        assert res.anchor_source[0] == 0
        assert res.assigned_count.tolist() == [1]
        # everything out of reach of the face stays negative
        assert res.anchor_labels[10] == LABEL_NEGATIVE
        assert res.anchor_source[10] == -1

    def test_hard_face_still_owns_its_argmax(self):
        layout = grid16()
        res = match_faces([RectBox(8.0, 8.0, 16.0, 16.0)], layout, CFG)
        assert res.face_max_iou[0] < CFG.t_high
        assert res.face_argmax[0] == 0  # four-way tie resolved to lowest ID
        assert res.anchor_labels[0] == LABEL_POSITIVE
        assert hard_faces(res, CFG.t_high).tolist() == [0]

    def test_ignore_band(self):
        """A face halfway between two anchors puts the runner-up in the band.

        Center (16, 8) sits 8 px from both anchor 0 and anchor 1, giving
        each IoU 1/3: argmax promotes anchor 0, anchor 1 is ignored.
        """
        layout = grid16()
        res = match_faces([RectBox(8.0, 0.0, 16.0, 16.0)], layout, CFG)
        assert res.face_max_iou[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert res.anchor_labels[0] == LABEL_POSITIVE
        assert res.anchor_labels[1] == LABEL_IGNORE
        counts = label_counts(res)
        assert counts == {"positive": 1, "ignore": 1, "negative": 14}

    def test_empty_faces_all_negative(self):
        layout = grid16()
        res = match_faces([], layout, CFG)
        assert res.num_faces == 0
        assert res.assigned_count.dtype == np.int64 and res.assigned_count.size == 0
        assert np.all(res.anchor_labels == LABEL_NEGATIVE)
        assert label_counts(res)["negative"] == layout.anchor_count

    def test_labels_match_brute_force(self):
        rng = np.random.default_rng(401)
        for _ in range(40):
            spec = random_spec(rng)
            side = float(rng.integers(48, 129))
            layout = build_layout(spec, side, side)
            n = int(rng.integers(0, 10))
            boxes = [
                RectBox(
                    float(rng.uniform(-8.0, side - 4.0)),
                    float(rng.uniform(-8.0, side - 4.0)),
                    float(rng.uniform(3.0, 36.0)),
                    float(rng.uniform(3.0, 36.0)),
                )
                for _ in range(n)
            ]
            res = match_faces(boxes, layout, CFG)
            assert np.array_equal(
                res.anchor_labels, brute_labels(layout, boxes, CFG.t_high, CFG.t_low)
            )
            want_val, want_id = brute_max_overlap(layout, boxes)
            assert np.array_equal(res.face_max_iou, want_val)
            assert np.array_equal(res.face_argmax, want_id)

    def test_assigned_holds_threshold_and_argmax(self):
        layout = grid16()
        # offset 4 from anchor 0: IoU 0.6 with it, nothing else reaches 0.5
        face = [RectBox(4.0, 0.0, 16.0, 16.0)]
        res = match_faces(face, layout, CFG)
        assert res.face_max_iou[0] == pytest.approx(0.6, rel=1e-12)
        assert res.assigned_count.tolist() == [1]
        # At t_high equal to the max, the argmax is also a threshold pair
        # and counts once; a hair above it, the face is hard and its top 1
        # is that same argmax.
        m = float(res.face_max_iou[0])
        for cfg in (MatchConfig(t_high=m, t_low=m, hc_n=0), MatchConfig(t_high=m, t_low=m, hc_n=5),
                    MatchConfig(t_high=float(np.nextafter(m, 1.0)), hc_n=1)):
            got = compensate_hard_faces(match_faces(face, layout, cfg), face, layout, cfg)
            assert got.assigned_count.tolist() == [1]
            want, want_comp = brute_match(layout, face, cfg)
            assert_same_match(got, want if want_comp is None else want_comp)

    def test_source_is_the_better_face(self):
        layout = grid16()
        near = RectBox(2.0, 0.0, 16.0, 16.0)   # IoU with anchor 0: offset 2
        exact = RectBox(0.0, 0.0, 16.0, 16.0)  # IoU 1.0
        res = match_faces([near, exact], layout, CFG)
        assert res.anchor_source[0] == 1
        assert res.anchor_labels[0] == LABEL_POSITIVE


class TestCompensation:
    def test_corner_pinned_face_gets_all_four(self):
        layout = grid16(128.0)
        face = RectBox(8.0, 8.0, 16.0, 16.0)
        base = match_faces([face], layout, CFG)
        res = compensate_hard_faces(base, [face], layout, CFG)
        assert res.assigned_count.tolist() == [4]
        assert brute_top_n(layout, face, 5) == [0, 1, 8, 9]
        owned = np.flatnonzero(res.anchor_source == 0)
        assert owned.tolist() == [0, 1, 8, 9]
        assert np.all(res.anchor_labels[owned] == LABEL_POSITIVE)

    def test_top_n_cap_applies(self):
        # a 33 px face centered on an anchor overlaps a 3x3 block of anchors
        layout = grid16(128.0)
        face = RectBox(23.5, 23.5, 33.0, 33.0)
        ids, _ = overlapping_anchors(layout, face)
        assert len(ids) == 9
        base = match_faces([face], layout, MatchConfig(t_high=0.9, hc_n=5))
        assert base.face_max_iou[0] < 0.9
        res = compensate_hard_faces(base, [face], layout, MatchConfig(t_high=0.9, hc_n=5))
        assert res.assigned_count.tolist() == [5]
        # no anchor reaches t_high, so the positives are the top 5 alone
        assert np.flatnonzero(res.anchor_source == 0).tolist() == sorted(brute_top_n(layout, face, 5))

    def test_never_resteals_a_positive(self):
        layout = grid16(128.0)
        owner = RectBox(0.0, 0.0, 16.0, 16.0)   # exactly anchor 0
        hard = RectBox(8.0, 4.0, 8.0, 8.0)      # inside anchor 0 only, IoU 0.25
        base = match_faces([owner, hard], layout, CFG)
        assert base.face_max_iou[1] == pytest.approx(0.25, rel=1e-12)
        res = compensate_hard_faces(base, [owner, hard], layout, CFG)
        assert res.anchor_labels[0] == LABEL_POSITIVE
        assert res.anchor_source[0] == 0  # still owned by the exact face
        assert brute_top_n(layout, hard, 5) == [0]
        assert res.assigned_count.tolist() == [1, 1]

    def test_non_hard_faces_untouched(self):
        layout = grid16(128.0)
        easy = RectBox(32.0, 32.0, 16.0, 16.0)  # exactly anchor 10
        hard = RectBox(8.0, 72.0, 16.0, 16.0)
        base = match_faces([easy, hard], layout, CFG)
        res = compensate_hard_faces(base, [easy, hard], layout, CFG)
        assert res.assigned_count[0] == base.assigned_count[0] == 1
        assert res.anchor_source[base.face_argmax[0]] == 0
        assert res.assigned_count[1] > base.assigned_count[1]

    def test_face_overlapping_nothing_is_skipped(self):
        layout = grid16()
        lost = RectBox(900.0, 900.0, 16.0, 16.0)
        base = match_faces([lost], layout, CFG)
        res = compensate_hard_faces(base, [lost], layout, CFG)
        assert res.assigned_count.tolist() == [0]
        assert np.all(res.anchor_labels == LABEL_NEGATIVE)

    def test_validation(self):
        layout = grid16()
        face = RectBox(8.0, 8.0, 16.0, 16.0)
        base = match_faces([face], layout, CFG)
        assert compensate_hard_faces(base, [face], layout, MatchConfig(hc_n=0)) is base
        with pytest.raises(ValueError):
            compensate_hard_faces(base, [face, face], layout, CFG)

    @pytest.mark.parametrize("matched, given", [(0, 1), (1, 0)], ids=["16-on-128", "128-on-16"])
    def test_result_of_another_layout_is_refused_naming_both_counts(self, matched, given):
        layouts = [build_layout(AnchorSpec(scales=(16.0,)), 64.0, 64.0),
                   build_layout(AnchorSpec(scales=(16.0, 32.0)), 128.0, 128.0)]
        counts = [layout.anchor_count for layout in layouts]
        assert counts == [16, 128]
        face = RectBox(8.0, 8.0, 12.0, 12.0)
        base = match_faces([face], layouts[matched], CFG)
        assert base.face_max_iou[0] < CFG.t_high  # hard, so compensation would index the anchors
        with pytest.raises(ValueError, match=f"^result covers {counts[matched]} anchors but layout has {counts[given]}$"):
            compensate_hard_faces(base, [face], layouts[given], CFG)


class TestJitter:
    def test_offsets_stay_in_half_stride_range(self):
        seen = set(offsets(stride_grid(8.0), 400, seed=3))
        assert seen == {(a, b) for a in range(4) for b in range(4)}

    def test_stride_two_is_identity(self):
        face = RectBox(5.0, 6.0, 7.0, 8.0)
        for t in range(20):
            moved, off = apply_jitter([face], stride_grid(2.0), seed=1, stream_index=t)
            assert off == (0, 0)
            assert moved[0] == face

    def test_translation_preserves_shape(self):
        faces = [RectBox(0.0, 0.0, 16.0, 16.0), RectBox(30.0, 40.0, 8.0, 12.0)]
        moved, (dx, dy) = apply_jitter(faces, stride_grid(8.0), seed=9)
        for before, after in zip(faces, moved):
            assert after.x == before.x + dx and after.y == before.y + dy
            assert after.w == before.w and after.h == before.h
        # relative positions survive
        def center_x(b):
            return b.x + b.w / 2.0

        assert center_x(moved[1]) - center_x(moved[0]) == center_x(faces[1]) - center_x(faces[0])

    def test_deterministic_per_seed_and_stream(self):
        layout = stride_grid(8.0)
        a = apply_jitter([], layout, seed=5, stream_index=2)[1]
        b = apply_jitter([], layout, seed=5, stream_index=2)[1]
        assert a == b
        assert len(set(offsets(grid16(), 32))) > 1

    def test_small_stride_rejected(self):
        # b = 1, and b = 2/sqrt(2) for one shifted anchor at base stride 2.
        for layout in (stride_grid(1.0), stride_grid(2.0, shifts_per_scale={16.0: 1})):
            with pytest.raises(ValueError, match="smallest effective anchor stride must be >= 2"):
                apply_jitter([], layout, seed=0)

    def test_offset_bound_follows_effective_stride(self):
        # Each component stays below floor(b/2) for b the smallest
        # effective stride over the scales: 16, 16/2 and, for the scale
        # with three shifts, 16/2 again.
        div2 = build_layout(
            AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=2), 64.0, 64.0
        )
        quad = build_layout(
            AnchorSpec(scales=(16.0, 32.0), base_stride=16.0, shifts_per_scale={16.0: 3}),
            64.0, 64.0,
        )
        for layout, half in ((grid16(), 8), (div2, 4), (quad, 4)):
            drawn = offsets(layout, 200)
            assert {dx for dx, _ in drawn} == {dy for _, dy in drawn} == set(range(half))

    def test_match_with_jitter_equals_manual_translation(self, tmp_path):
        # ``match --jitter`` matches and compensates the faces apply_jitter
        # returns for the layout's offset bound and the run's seed.
        faces = parse_annotations(DATA.joinpath("golden_faces.txt").read_text().splitlines()).records
        layout = build_layout(load_spec(DATA / "golden_spec.json"), *bounding_plane(faces))
        moved, offset = apply_jitter(faces, layout, 21)
        assert offset != (0, 0)
        want = compensate_hard_faces(match_faces(moved, layout, CFG), moved, layout, CFG)
        out = tmp_path / "m.csv"
        assert main(["match", "--annotations", str(DATA / "golden_faces.txt"),
                     "--spec", str(DATA / "golden_spec.json"), "--jitter", "--seed", "21",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [float(r["max_iou"]) for r in rows] == pytest.approx(want.face_max_iou.tolist(), abs=1e-9)
        assert [int(r["argmax_anchor"]) for r in rows] == want.face_argmax.tolist()
        assert [int(r["assigned_count"]) for r in rows] == want.assigned_count.tolist()
        anchors = list(csv.DictReader((tmp_path / "m.csv.anchors.csv").read_text().splitlines()))
        assert [int(r["source_face"]) for r in anchors] == want.anchor_source.tolist()

    def test_compensation_tops_up_the_jittered_face(self):
        layout = grid16(128.0)
        faces, offset = apply_jitter([RectBox(8.0, 8.0, 16.0, 16.0)], layout, 4)
        assert offset != (0, 0)
        base = match_faces(faces, layout, CFG)
        res = compensate_hard_faces(base, faces, layout, CFG)
        # the compensated anchors overlap the face where it was matched
        ids, _ = overlapping_anchors(layout, faces[0])
        top = brute_top_n(layout, faces[0], CFG.hc_n)
        assert set(top) <= set(ids.tolist())
        assert res.assigned_count.tolist() == [len(top)]
        assert set(np.flatnonzero(res.anchor_source == 0)) == set(top)


def test_jittered_corpus_still_matches_brute_force():
    rng = np.random.default_rng(88)
    layout = build_layout(
        AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=2), 96.0, 96.0
    )
    for trial in range(10):
        faces = [
            RectBox(
                float(rng.uniform(0.0, 72.0)),
                float(rng.uniform(0.0, 72.0)),
                16.0,
                16.0,
            )
            for _ in range(5)
        ]
        moved, _ = apply_jitter(faces, layout, trial)
        got = match_faces(moved, layout, CFG)
        want, want_comp = brute_match(layout, moved, CFG)
        assert_same_match(got, want)
        assert_same_match(compensate_hard_faces(got, moved, layout, CFG), want_comp)


def test_worst_case_offset_matches_closed_form():
    # max IoU at the cell corner equals the single-period worst case
    layout = grid16()
    corner = max_overlap_values(layout, 8.0, 8.0, 16.0, 16.0)[0]
    assert corner == iou_offset_square(16.0, 8.0, 8.0)


# (config, jitter seed): a seeded run matches the faces apply_jitter returns.
SWEEP_CONFIGS = (
    (MatchConfig(), None),
    (MatchConfig(t_low=0.1, t_high=0.7), None),
    (MatchConfig(t_low=0.4, t_high=0.4, hc_n=1), None),
    (MatchConfig(t_low=0.1, t_high=0.5, hc_n=1), 3),
    (MatchConfig(t_low=0.3, t_high=0.3), 8),
    (MatchConfig(t_low=0.2, t_high=0.6, hc_n=0), None),
)


def sweep_faces(rng, layout, side):
    """Faces of 4-600 px, some duplicated, some small ones inside the largest anchors."""
    n = int(rng.integers(0, 10))
    w = np.exp(rng.uniform(math.log(4.0), math.log(600.0), n))
    h = np.clip(w * rng.uniform(0.5, 2.0, n), 4.0, 600.0)
    x = rng.uniform(-w / 2.0, side - w / 2.0)
    y = rng.uniform(-h / 2.0, side - h / 2.0)
    boxes = [RectBox(*map(float, t)) for t in zip(x, y, w, h)]
    if boxes:
        boxes += [boxes[i] for i in rng.integers(0, len(boxes), int(rng.integers(0, 3)))]
    big = max(layout.groups, key=lambda g: g.box_w * g.box_h)
    for _ in range(int(rng.integers(0, 3))):
        s = float(rng.uniform(4.0, max(4.0, big.box_w / 3.0)))
        cx = big.origin_x + int(rng.integers(big.cols)) * big.stride + float(rng.uniform(-2.0, 2.0))
        cy = big.origin_y + int(rng.integers(big.rows)) * big.stride + float(rng.uniform(-2.0, 2.0))
        boxes.append(RectBox(cx - s / 2.0, cy - s / 2.0, s, s))
    return [boxes[i] for i in rng.permutation(len(boxes))]


class TestBruteMatchSweep:
    """``match_faces`` + ``compensate_hard_faces`` equal the dense oracle exactly."""

    def test_argmax_below_t_low_is_sourced_by_the_better_face(self):
        layout = grid16()
        tiny = RectBox(6.0, 6.0, 4.0, 4.0)      # inside anchor 0 only: IoU 1/16
        wide = RectBox(10.0, 0.0, 16.0, 16.0)   # IoU 96/416 with anchor 0, argmax anchor 1
        res = match_faces([tiny, wide], layout, CFG)
        assert res.face_argmax.tolist() == [0, 1]
        assert res.anchor_labels[0] == LABEL_POSITIVE
        assert res.anchor_source[0] == 1
        assert_same_match(res, brute_match(layout, [tiny, wide], CFG)[0])

    @pytest.mark.parametrize("boxes", [[], [RectBox(900.0, 900.0, 16.0, 16.0), RectBox(8.0, 8.0, 16.0, 16.0)]])
    def test_no_faces_and_a_face_overlapping_nothing(self, boxes):
        layout = grid16()
        want, want_comp = brute_match(layout, boxes, CFG)
        got = match_faces(boxes, layout, CFG)
        assert_same_match(got, want)
        assert_same_match(compensate_hard_faces(got, boxes, layout, CFG), want_comp)
        assert want_comp.assigned_count.tolist() == ([] if not boxes else [0, 4])

    def test_seeded_sweep(self):
        rng = np.random.default_rng(5150)
        low_argmax_elsewhere = 0
        for trial in range(150):
            cfg, jitter_seed = SWEEP_CONFIGS[trial % len(SWEEP_CONFIGS)]
            spec = random_spec(rng, scale_pool=(8.0, 16.0, 24.0, 32.0, 64.0, 128.0))
            side = float(rng.integers(48, 200))
            layout = build_layout(spec, side, side)
            boxes = sweep_faces(rng, layout, side)
            if jitter_seed is not None:
                boxes, _ = apply_jitter(boxes, layout, jitter_seed)
            want, want_comp = brute_match(layout, boxes, cfg)
            got = match_faces(boxes, layout, cfg)
            assert_same_match(got, want)
            if cfg.hc_n:
                assert_same_match(compensate_hard_faces(got, boxes, layout, cfg), want_comp)
            for f in np.flatnonzero((want.face_max_iou > 0.0) & (want.face_max_iou < cfg.t_low)):
                a = want.face_argmax[f]
                low_argmax_elsewhere += bool(want.anchor_source[a] != f and want.anchor_labels[a] == LABEL_POSITIVE)
        # The exact fallback for argmax anchors no pair at or above t_low reaches ran.
        assert low_argmax_elsewhere > 0


    @pytest.mark.parametrize("hc_n", [0, 5])
    @pytest.mark.parametrize("shifts", [{12.0: 3}, {12.0: 1, 24.0: 3}], ids=["quad12", "quincunx12-quad24"])
    def test_non_square_anchors(self, shifts, hc_n):
        # Anchor sides that are not dyadic, where the cell-corner kernel can
        # fall a few ulps short of a face's max: the maxima, argmaxes,
        # labels and sources are still the dense oracle's, bit for bit.
        cfg = MatchConfig(hc_n=hc_n)
        spec = AnchorSpec(scales=(12.0, 24.0), ratios=(0.5, 1.0, 2.0), base_stride=8.0,
                          shifts_per_scale=shifts)
        layout = build_layout(spec, 96.0, 96.0)
        rng = np.random.default_rng(hc_n)
        for _ in range(6):
            w = np.exp(rng.uniform(math.log(4.0), math.log(40.0), 150))
            h = w * np.exp(rng.uniform(math.log(0.5), math.log(2.0), 150))
            x = rng.uniform(-w / 2.0, 96.0 - w / 2.0)
            y = rng.uniform(-h / 2.0, 96.0 - h / 2.0)
            boxes = [RectBox(*map(float, t)) for t in zip(x, y, w, h)]
            want, want_comp = brute_match(layout, boxes, cfg)
            got = match_faces(boxes, layout, cfg)
            assert_same_match(got, want)
            if hc_n:
                assert_same_match(compensate_hard_faces(got, boxes, layout, cfg), want_comp)


@pytest.fixture(params=[0, None, 10**9], ids=["runs", "default", "streamed"])
def run_strides(request, monkeypatch):
    """Every face's ignore band by runs, the default choice by face width,
    or every face's band pairs streamed."""
    if request.param is not None:
        monkeypatch.setattr(matching, "_RUN_STRIDES", request.param)


def check_match(layout, boxes, cfg):
    """``match_faces`` and compensation, asserted ``==`` the dense oracle."""
    want, want_comp = brute_match(layout, boxes, cfg)
    got = match_faces(boxes, layout, cfg)
    assert_same_match(got, want)
    if cfg.hc_n:
        assert_same_match(compensate_hard_faces(got, boxes, layout, cfg), want_comp)
    return got


@pytest.mark.usefixtures("run_strides")
class TestIgnoreBandEdges:
    """The ignore band at its edges, by runs and by streamed pairs, equals
    the dense oracle bit for bit."""

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_anchor_at_exactly_t_low(self, end):
        # t_low is set to the IoU of one run end: that anchor is ignored, its
        # outer neighbour, of lower IoU, is not.
        layout = build_layout(AnchorSpec(scales=(32.0,), base_stride=8.0), 160.0, 160.0)
        g = layout.groups[0]
        face = RectBox(41.3, 52.6, 57.0, 35.0)
        ious = all_pair_ious(layout, [face])[0].reshape(g.rows, g.cols)
        row = int(np.argmax(ious.max(axis=1)))
        near = np.flatnonzero(ious[row] >= ious[row].max() / 2.0)
        col, out = (near[0], near[0] - 1) if end == "first" else (near[-1], near[-1] + 1)
        assert 0.0 < ious[row, out] < ious[row, col] < ious[row].max()
        got = check_match(layout, [face], MatchConfig(t_low=float(ious[row, col]), t_high=0.9, hc_n=0))
        assert got.anchor_labels[row * g.cols + col] == LABEL_IGNORE
        assert got.anchor_labels[row * g.cols + out] == LABEL_NEGATIVE

    @pytest.mark.parametrize("equal", [False, True], ids=["next-below", "equal"])
    def test_t_low_at_or_next_below_t_high(self, equal):
        rng = np.random.default_rng(31)
        for _ in range(12):
            layout = build_layout(random_spec(rng), 160.0, 128.0)
            t_high = float(rng.uniform(0.2, 0.7))
            t_low = t_high if equal else float(np.nextafter(t_high, 0.0))
            boxes = sweep_faces(rng, layout, 128.0)
            # Half the time t_high is a pair's IoU, so a band of one ulp holds it.
            if boxes and rng.random() < 0.5:
                ious = all_pair_ious(layout, boxes)
                t_high = float(rng.choice(ious[(ious > 0.0) & (ious < 1.0)]))
                t_low = t_high if equal else float(np.nextafter(t_high, 0.0))
            check_match(layout, boxes, MatchConfig(t_low=t_low, t_high=t_high, hc_n=int(rng.integers(0, 3))))

    def test_non_dyadic_ratios_and_scales(self):
        spec = AnchorSpec(scales=(12.0, 20.0, 44.0), ratios=(0.7, 1.0, 1.3), base_stride=8.0,
                          shifts_per_scale={12.0: 1, 20.0: 3})
        layout = build_layout(spec, 144.0, 112.0)
        rng = np.random.default_rng(13)
        for cfg in (MatchConfig(), MatchConfig(t_low=0.1, t_high=0.7), MatchConfig(t_low=0.25, t_high=0.6, hc_n=0)):
            w = np.exp(rng.uniform(math.log(4.0), math.log(90.0), 60))
            h = w * np.exp(rng.uniform(math.log(0.6), math.log(1.6), 60))
            x = rng.uniform(-w / 2.0, 144.0 - w / 2.0)
            y = rng.uniform(-h / 2.0, 112.0 - h / 2.0)
            check_match(layout, [RectBox(*map(float, b)) for b in zip(x, y, w, h)], cfg)

    def test_row_whose_plateau_straddles_t_low(self):
        # Anchors of side 12 / sqrt(0.7) inside a 70 px face along x: their
        # computed x overlaps (ax + aw) - ax differ by ulps from column to
        # column.  t_low is the lower of the two end columns' IoUs, and some
        # columns between fall short of it: that row's band is no interval.
        layout = build_layout(AnchorSpec(scales=(12.0,), ratios=(0.7,), base_stride=4.0), 128.0, 64.0)
        g = layout.groups[0]
        left = (g.origin_x + np.arange(g.cols) * g.stride) - g.box_w / 2.0
        for x in np.arange(10.0, 30.0, 0.75):
            face = RectBox(float(x), 20.5, 70.0, g.box_h)
            ious = all_pair_ious(layout, [face])[0].reshape(g.rows, g.cols)
            inside = slice(np.searchsorted(left, face.x), np.searchsorted(left + g.box_w, face.x2, side="right"))
            row = int(np.argmax(ious.max(axis=1)))
            plateau = ious[row, inside]
            t_low = min(plateau[0], plateau[-1])
            if (plateau < t_low).any():
                break
        else:
            pytest.fail("no straddling row found")
        got = check_match(layout, [face], MatchConfig(t_low=float(t_low), t_high=0.95, hc_n=0))
        labels = got.anchor_labels.reshape(g.rows, g.cols)[row, inside]
        assert np.array_equal(labels[plateau < t_low], np.full(np.count_nonzero(plateau < t_low), LABEL_NEGATIVE))

    def test_argmax_in_the_band_owned_by_another_face(self):
        # Anchor 0 is the argmax of the tiny face (IoU 1/16) and of no
        # other.  The wide face reaches it at 160/512, inside [t_low,
        # t_high), below its own best (anchor 1, 256/416): no pair at or
        # above t_high reaches anchor 0, and the wide face owns it.
        layout = grid16()
        tiny, wide = RectBox(6.0, 6.0, 4.0, 4.0), RectBox(6.0, 0.0, 26.0, 16.0)
        got = check_match(layout, [tiny, wide], CFG)
        assert got.face_argmax.tolist() == [0, 1]
        assert CFG.t_low <= iou_xywh(0.0, 0.0, 16.0, 16.0, 6.0, 0.0, 26.0, 16.0) < CFG.t_high
        assert got.anchor_labels[0] == LABEL_POSITIVE and got.anchor_source[0] == 1


def scaled(spec, k):
    """``spec`` with every length times ``2**k``."""
    f = 2.0**k
    return dataclasses.replace(spec, scales=tuple(s * f for s in spec.scales), base_stride=spec.base_stride * f,
                               shifts_per_scale={s * f: n for s, n in spec.shifts_per_scale.items()})


@st.composite
def scale_free_cases(draw):
    """A spec, a plane wider than 64 x 64, faces on it and thresholds."""
    spec = AnchorSpec(scales=tuple(sorted(draw(st.sets(st.sampled_from((8.0, 12.0, 16.0, 24.0, 32.0, 64.0)),
                                                        min_size=1, max_size=3)))),
                      ratios=draw(st.sampled_from([(1.0,), (0.7, 1.0, 1.3)])),
                      base_stride=draw(st.sampled_from([8.0, 16.0])), stride_divisor=draw(st.sampled_from([1, 2])))
    spec = dataclasses.replace(spec, shifts_per_scale={s: draw(st.sampled_from([0, 1, 3])) for s in spec.scales})
    plane = (draw(st.floats(65.0, 200.0)), draw(st.floats(65.0, 200.0)))
    n = draw(st.integers(0, 8))
    w = draw(st.lists(st.floats(3.0, 150.0), min_size=n, max_size=n))
    h = draw(st.lists(st.floats(3.0, 150.0), min_size=n, max_size=n))
    x = [draw(st.floats(-v / 2.0, plane[0] - v / 2.0)) for v in w]
    y = [draw(st.floats(-v / 2.0, plane[1] - v / 2.0)) for v in h]
    t_low = draw(st.floats(0.05, 0.6))
    cfg = MatchConfig(t_low=t_low, t_high=draw(st.floats(t_low, 0.9)), hc_n=draw(st.integers(0, 4)))
    return spec, plane, FaceTable(x, y, w, h, np.zeros(n, dtype=np.int64), ("",)), cfg


class TestScaleFree:
    """Properties that need no dense oracle, so they hold on any corpus."""

    @settings(max_examples=40, deadline=None)
    @given(case=scale_free_cases(), k=st.integers(-6, 6))
    def test_power_of_two_scaling_keeps_every_bit(self, case, k):
        spec, plane, faces, cfg = case
        f = 2.0**k
        big = FaceTable(faces.x * f, faces.y * f, faces.w * f, faces.h * f, faces.image, faces.image_ids)
        results = []
        for table, layout in ((faces, build_layout(spec, *plane)),
                              (big, build_layout(scaled(spec, k), plane[0] * f, plane[1] * f))):
            results.append(compensate_hard_faces(match_faces(table, layout, cfg), table, layout, cfg))
        assert_same_match(*results)

    @settings(max_examples=40, deadline=None)
    @given(case=scale_free_cases())
    def test_nested_shift_counts_never_lower_a_face_max(self, case):
        spec, plane, faces, cfg = case
        maxima = []
        for n in (0, 1, 3):
            layout = build_layout(dataclasses.replace(spec, shifts_per_scale=dict.fromkeys(spec.scales, n)), *plane)
            maxima.append(match_faces(faces, layout, cfg).face_max_iou)
        assert np.all(maxima[0] <= maxima[1]) and np.all(maxima[1] <= maxima[2])


def mixed_corpus(n=1000, seed=5, sides=(8.0, 400.0)):
    """Faces log-uniform over ``sides`` px (by default 8-400), h/w in [0.9,
    1.3], whole pixels on 1024x768."""
    rng = np.random.default_rng(seed)
    w = np.rint(np.exp(rng.uniform(math.log(sides[0]), math.log(sides[1]), n)))
    h = np.rint(w * rng.uniform(0.9, 1.3, n))
    x = np.floor(rng.uniform(0.0, 1.0, n) * (1024 - w + 1))
    y = np.floor(rng.uniform(0.0, 1.0, n) * (768 - h + 1))
    return FaceTable(x, y, w, h, np.zeros(n, dtype=np.int64), ("",))


def mixed_layout(faces):
    """The bench spec's layout on the faces' bounding plane."""
    spec = AnchorSpec(scales=(16.0, 32.0, 64.0, 128.0, 256.0, 512.0), stride_divisor=2,
                      shifts_per_scale={16.0: 3})
    return build_layout(spec, *bounding_plane(faces))


def full_window_pairs(layout, x, y, w, h):
    """Pairs a per-face scan of every anchor that can overlap each box evaluates."""
    total = 0
    for g in layout.groups:
        half_w = (w + g.box_w) / 2.0
        half_h = (h + g.box_h) / 2.0
        c0 = np.maximum(0, np.floor((x + w / 2.0 - half_w - g.origin_x) / g.stride))
        c1 = np.minimum(g.cols - 1, np.ceil((x + w / 2.0 + half_w - g.origin_x) / g.stride))
        r0 = np.maximum(0, np.floor((y + h / 2.0 - half_h - g.origin_y) / g.stride))
        r1 = np.minimum(g.rows - 1, np.ceil((y + h / 2.0 + half_h - g.origin_y) / g.stride))
        total += int(np.sum(np.maximum(c1 - c0 + 1, 0) * np.maximum(r1 - r0 + 1, 0)))
    return total


def counted_ious(monkeypatch):
    """The sizes of the results of ``matching``'s two IoU functions, called
    from here on, in a list that grows with each call."""
    pairs = []
    for name in ("iou_xywh", "iou_from_overlaps"):
        def counting(*args, iou=getattr(matching, name)):
            out = iou(*args)
            pairs.append(np.size(out))
            return out
        monkeypatch.setattr(matching, name, counting)
    return pairs


class TestMatchWork:
    """Bounds on the work of matching a fixed 1,000-face mixed corpus."""

    def test_pairs_evaluated_are_a_fraction_of_full_windows(self, monkeypatch):
        faces = mixed_corpus()
        layout = mixed_layout(faces)
        pairs = counted_ious(monkeypatch)
        res = compensate_hard_faces(match_faces(faces, layout, CFG), faces, layout, CFG)
        hard = hard_faces(res, CFG.t_high)
        # The per-face scan evaluated every face's full window, then every
        # hard face's again for compensation.
        full = full_window_pairs(layout, faces.x, faces.y, faces.w, faces.h) + full_window_pairs(
            layout, faces.x[hard], faces.y[hard], faces.w[hard], faces.h[hard]
        )
        assert len(hard) > 0
        assert sum(pairs) < 0.025 * full
        # Pinned, so that a scan evaluating its IoUs under another name
        # counts nothing and fails here.  The windows fix the count, with
        # the ignore-band rows and runs' end checks, the corner IoUs of
        # compensation and the owner search's candidates; a change to any
        # of them moves it on purpose.
        assert sum(pairs) == 247_469

    def test_scan_blocks_follow_the_pairs(self, monkeypatch):
        # The small-face regime of the crowd-small bench corpus: 2,000 faces
        # of 6-48 px.  A group's windows are cut into blocks by their pair
        # count alone, so beyond one block per ``_BLOCK_PAIRS`` pairs
        # evaluated there is at most one per group.
        faces = mixed_corpus(2000, sides=(6.0, 48.0))
        layout = mixed_layout(faces)
        calls = []
        scan = matching._scan

        def recording(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(matching, "_scan", recording)
        match_faces(faces, layout, CFG)
        (args,) = calls
        pairs = counted_ious(monkeypatch)
        blocks = sum(1 for _ in scan(*args))
        assert sum(pairs) > 0
        assert blocks <= len(layout.groups) + sum(pairs) // matching._BLOCK_PAIRS + 1

    def test_peak_traced_memory(self):
        faces = mixed_corpus()
        layout = mixed_layout(faces)
        # One untraced call first, so numpy's lazy imports on first use are
        # not counted.
        compensate_hard_faces(match_faces(faces, layout, CFG), faces, layout, CFG)
        tracemalloc.start()
        try:
            compensate_hard_faces(match_faces(faces, layout, CFG), faces, layout, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The per-face scan peaked at 5.19 MB here; the streamed blocks stay
        # under 1.6x that.
        assert peak < 8_000_000

    def test_peak_traced_memory_does_not_grow_with_the_pairs(self):
        # At t_low = t_high = 0.05 large faces reach tens of thousands of
        # anchors each.  Matching holds arrays per face and per anchor and
        # the arrays of one scan block, never one entry per pair.
        faces = mixed_corpus(200, sides=(100.0, 400.0))
        layout = mixed_layout(faces)
        cfg = MatchConfig(t_low=0.05, t_high=0.05)
        match_faces(faces, layout, cfg)
        tracemalloc.start()
        try:
            res = match_faces(faces, layout, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 48 * layout.anchor_count + 1024 * len(faces) + 64 * matching._BLOCK_PAIRS
        assert peak < bound
        # One int64 per assigned pair alone would not fit.
        assert 8 * int(res.assigned_count.sum()) > bound
