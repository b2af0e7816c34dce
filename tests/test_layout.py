"""Anchor lattice construction, shifted sub-lattices, and nearest queries."""

import math

import numpy as np
import pytest

from anchorlap.geometry import iou, RectBox
from anchorlap.layout import (
    MAX_ANCHORS,
    AnchorSpec,
    build_layout,
    covering_radius,
    effective_anchor_stride,
)

from helpers import (
    all_pair_ious,
    anchor_box,
    anchor_center,
    candidate_ids,
    group_of,
    groups_for_scale,
    nearest_centers,
    random_spec,
)

SQRT2 = math.sqrt(2.0)


def plain16():
    return AnchorSpec(scales=(16.0,), base_stride=16.0)


class TestAnchorSpec:
    def test_defaults(self):
        spec = plain16()
        assert spec.ratios == (1.0,)
        assert spec.stride_divisor == 1
        assert spec.sliding_stride == 16.0
        assert spec.anchors_per_location == 1

    def test_anchors_per_location_counts_shifts(self):
        spec = AnchorSpec(
            scales=(16.0, 32.0), base_stride=16.0, shifts_per_scale={16.0: 3, 32.0: 1}
        )
        assert spec.anchors_per_location == 2 + 3 + 1

    def test_stride_divisor_halves_sliding_stride(self):
        assert AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=2).sliding_stride == 8.0
        assert AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=4).sliding_stride == 4.0

    @pytest.mark.parametrize("divisor", [0, 3, 8, -1])
    def test_rejects_bad_divisor(self, divisor):
        with pytest.raises(ValueError):
            AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=divisor)

    def test_rejects_unsorted_or_duplicate_scales(self):
        with pytest.raises(ValueError):
            AnchorSpec(scales=(32.0, 16.0), base_stride=16.0)
        with pytest.raises(ValueError):
            AnchorSpec(scales=(16.0, 16.0), base_stride=16.0)

    def test_rejects_shift_for_unknown_scale(self):
        with pytest.raises(ValueError):
            AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={32.0: 1})

    def test_rejects_bad_shift_count(self):
        with pytest.raises(ValueError):
            AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 2})

    def test_shift_count_unknown_scale(self):
        with pytest.raises(ValueError):
            plain16().shift_count(64.0)


class TestBuildLayout:
    def test_single_scale_16_centers(self):
        layout = build_layout(plain16(), 64.0, 64.0)
        assert layout.anchor_count == 16
        centers = sorted(anchor_center(layout, a) for a in range(16))
        expected = sorted((x, y) for x in (8.0, 24.0, 40.0, 56.0) for y in (8.0, 24.0, 40.0, 56.0))
        assert centers == expected

    def test_three_shifts_quadruple_the_anchors(self):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 3})
        layout = build_layout(spec, 64.0, 64.0)
        assert layout.anchor_count == 64
        assert len(layout.groups) == 4

    def test_divisor_two_doubles_the_grid(self):
        spec = AnchorSpec(scales=(16.0, 32.0), base_stride=16.0, stride_divisor=2)
        layout = build_layout(spec, 64.0, 64.0)
        assert layout.anchor_count == 128
        for g in layout.groups:
            assert g.stride == 8.0
            assert g.rows == g.cols == 8

    def test_shift_sublattice_origins(self):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 3})
        layout = build_layout(spec, 64.0, 64.0)
        origins = [(g.origin_x, g.origin_y) for g in layout.groups]
        assert origins == [(8.0, 8.0), (16.0, 8.0), (8.0, 16.0), (16.0, 16.0)]

    def test_quincunx_origin(self):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 1})
        layout = build_layout(spec, 64.0, 64.0)
        origins = [(g.origin_x, g.origin_y) for g in layout.groups]
        assert origins == [(8.0, 8.0), (16.0, 16.0)]

    def test_anchors_never_clipped(self):
        spec = AnchorSpec(scales=(64.0,), base_stride=16.0)
        layout = build_layout(spec, 32.0, 32.0)
        boxes = layout.all_boxes()
        assert boxes[:, 0].min() < 0.0
        assert (boxes[:, 2] == 64.0).all()

    def test_ratio_shapes_preserve_area(self):
        spec = AnchorSpec(scales=(16.0,), ratios=(0.5, 1.0, 2.0), base_stride=16.0)
        layout = build_layout(spec, 64.0, 64.0)
        for g in layout.groups:
            assert g.box_w * g.box_h == pytest.approx(256.0, rel=1e-12)
            assert g.box_h / g.box_w == pytest.approx(g.ratio, rel=1e-12)

    def test_id_determinism(self):
        spec = AnchorSpec(
            scales=(8.0, 16.0), base_stride=16.0, stride_divisor=2, shifts_per_scale={8.0: 3}
        )
        a = build_layout(spec, 96.0, 80.0)
        b = build_layout(spec, 96.0, 80.0)
        assert a.anchor_count == b.anchor_count
        np.testing.assert_array_equal(a.all_boxes(), b.all_boxes())

    def test_ids_are_dense_and_grouped(self):
        spec = AnchorSpec(scales=(16.0, 32.0), base_stride=16.0, shifts_per_scale={16.0: 1})
        layout = build_layout(spec, 64.0, 64.0)
        next_id = 0
        for g in layout.groups:
            assert g.id_start == next_id
            next_id += g.count
        assert next_id == layout.anchor_count

    def test_lattice_regularity(self):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 3})
        layout = build_layout(spec, 128.0, 128.0)
        for g in layout.groups:
            xs = np.array([anchor_center(layout, g.id_start + c)[0] for c in range(g.cols)])
            np.testing.assert_allclose(np.diff(xs), g.stride, rtol=0, atol=0)

    def test_rejects_bad_plane(self):
        with pytest.raises(ValueError):
            build_layout(plain16(), 0.0, 64.0)
        with pytest.raises(ValueError):
            build_layout(plain16(), 64.0, -1.0)

    def test_anchor_cap(self):
        # 2 ratios x (1 + 3 shifted) = 8 anchors per 16 px location.
        spec = AnchorSpec(scales=(16.0,), ratios=(0.5, 1.0), shifts_per_scale={16.0: 3})
        cols = 1024
        rows = MAX_ANCHORS // (8 * cols)
        layout = build_layout(spec, 16.0 * cols, 16.0 * rows)
        assert layout.anchor_count == MAX_ANCHORS
        with pytest.raises(ValueError, match="cap"):
            build_layout(spec, 16.0 * cols, 16.0 * rows + 1.0)

    def test_all_boxes_matches_anchor_box(self):
        spec = AnchorSpec(
            scales=(12.0, 16.0), ratios=(0.5, 1.0), base_stride=16.0,
            shifts_per_scale={12.0: 3},
        )
        layout = build_layout(spec, 48.0, 80.0)
        boxes = layout.all_boxes()
        for a in range(layout.anchor_count):
            b = anchor_box(layout, a)
            assert (boxes[a] == (b.x, b.y, b.w, b.h)).all()

    def test_group_of_bounds(self):
        layout = build_layout(plain16(), 64.0, 64.0)
        with pytest.raises(ValueError):
            group_of(layout, -1)
        with pytest.raises(ValueError):
            group_of(layout, layout.anchor_count)


class TestLocate:
    """``locate`` and ``boxes`` against each group's own grid arithmetic."""

    @staticmethod
    def random_layout(seed):
        rng = np.random.default_rng(seed)
        scales = sorted(rng.choice([8.0, 12.0, 16.0, 24.0, 32.0], int(rng.integers(1, 4)), replace=False))
        ratios = sorted(rng.choice([0.5, 0.8, 1.0, 1.25, 2.0], int(rng.integers(1, 3)), replace=False))
        spec = AnchorSpec(
            scales=tuple(scales), ratios=tuple(ratios), base_stride=16.0,
            stride_divisor=int(rng.choice([1, 2, 4])),
            shifts_per_scale={s: int(rng.choice([0, 1, 3])) for s in scales},
        )
        return build_layout(spec, float(rng.uniform(20.0, 90.0)), float(rng.uniform(20.0, 90.0))), rng

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_group_arithmetic(self, seed):
        layout, rng = self.random_layout(seed)
        want = []  # group, cx, cy, x, y, w, h per anchor, in ID order
        for i, g in enumerate(layout.groups):
            for row in range(g.rows):
                for col in range(g.cols):
                    cx, cy = g.origin_x + col * g.stride, g.origin_y + row * g.stride
                    want.append((i, cx, cy, cx - g.box_w / 2.0, cy - g.box_h / 2.0, g.box_w, g.box_h))
        want = np.array(want)
        assert len(want) == layout.anchor_count
        ids = rng.permutation(layout.anchor_count)[None, :]  # any order, shape kept
        got = (*layout.locate(ids), *layout.boxes(ids))
        assert all(v.shape == ids.shape for v in got)
        for column, v in zip(want.T, got):
            assert np.array_equal(v, column[ids])
        assert np.array_equal(layout.all_boxes(), want[:, 3:])

    @pytest.mark.parametrize(
        "bad", [lambda n: -1, lambda n: n, lambda n: [0, -3], lambda n: [[0], [n]], lambda n: [0.5],
                lambda n: np.array([True])],
        ids=["minus-one", "count", "negative-in-list", "count-in-2d", "fraction", "bool"])
    def test_bad_ids_raise(self, bad):
        layout, _ = self.random_layout(0)
        for query in (layout.locate, layout.boxes):
            with pytest.raises(ValueError, match="anchor IDs"):
                query(bad(layout.anchor_count))

    def test_no_ids(self):
        layout, _ = self.random_layout(1)
        assert all(v.shape == (0,) for v in (*layout.locate([]), *layout.boxes([])))


class TestEffectiveStride:
    def test_no_shift(self):
        assert effective_anchor_stride(plain16(), 16.0) == 16.0

    def test_one_shift_is_quincunx_spacing(self):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 1})
        assert effective_anchor_stride(spec, 16.0) == pytest.approx(16.0 / SQRT2, rel=1e-15)

    def test_three_shifts_with_divisor(self):
        spec = AnchorSpec(
            scales=(16.0,), base_stride=16.0, stride_divisor=2, shifts_per_scale={16.0: 3}
        )
        assert effective_anchor_stride(spec, 16.0) == 4.0

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            effective_anchor_stride(plain16(), 99.0)

    def test_shifts_never_increase_spacing(self):
        for n_before, n_after in [(0, 1), (0, 3), (1, 3)]:
            before = AnchorSpec(
                scales=(16.0,), base_stride=16.0,
                shifts_per_scale={16.0: n_before} if n_before else {},
            )
            after = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: n_after})
            assert effective_anchor_stride(after, 16.0) < effective_anchor_stride(before, 16.0)

    def test_three_shifts_exactly_halve(self):
        spec0 = plain16()
        spec3 = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 3})
        assert effective_anchor_stride(spec3, 16.0) == effective_anchor_stride(spec0, 16.0) / 2.0


def measured_covering_radius(layout, scale, step=0.0625):
    """Fine-grid search over one interior period cell of the sliding lattice."""
    s = layout.spec.sliding_stride
    x0 = y0 = 2.0 * s  # stay clear of the finite-plane corners
    grid = np.arange(x0, x0 + s + step / 2, step)
    centers = []
    for g in groups_for_scale(layout, scale):
        cx = g.origin_x + np.arange(g.cols) * g.stride
        cy = g.origin_y + np.arange(g.rows) * g.stride
        centers.append(np.stack(np.meshgrid(cx, cy), axis=-1).reshape(-1, 2))
    centers = np.concatenate(centers)
    px, py = np.meshgrid(grid, grid)
    d2 = (px.ravel()[:, None] - centers[None, :, 0]) ** 2 + (
        py.ravel()[:, None] - centers[None, :, 1]
    ) ** 2
    return float(np.sqrt(d2.min(axis=1)).max())


class TestCoveringRadius:
    @pytest.mark.parametrize(
        "shifts,expected",
        [({}, 8.0 * SQRT2), ({16.0: 1}, 8.0), ({16.0: 3}, 4.0 * SQRT2)],
    )
    def test_analytic_values(self, shifts, expected):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale=shifts)
        layout = build_layout(spec, 96.0, 96.0)
        assert covering_radius(layout, 16.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shifts", [{}, {16.0: 1}, {16.0: 3}])
    def test_matches_fine_grid_search(self, shifts):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale=shifts)
        layout = build_layout(spec, 96.0, 96.0)
        measured = measured_covering_radius(layout, 16.0)
        # the sampled maximum can miss the true deep hole by up to one grid cell
        assert abs(measured - covering_radius(layout, 16.0)) <= 0.0625 * SQRT2

    def test_unknown_scale(self):
        layout = build_layout(plain16(), 64.0, 64.0)
        with pytest.raises(ValueError):
            covering_radius(layout, 32.0)


class TestNearestCenters:
    def test_point_on_center(self):
        layout = build_layout(plain16(), 64.0, 64.0)
        ids = nearest_centers(layout, 24.0, 40.0, 16.0)
        centers = [anchor_center(layout, int(a)) for a in ids]
        assert (24.0, 40.0) in centers

    def test_cell_corner_has_four_equidistant(self):
        layout = build_layout(plain16(), 64.0, 64.0)
        ids = nearest_centers(layout, 16.0, 16.0, 16.0)
        assert len(ids) == 4
        dists = {
            round(math.hypot(cx - 16.0, cy - 16.0), 9)
            for cx, cy in (anchor_center(layout, int(a)) for a in ids)
        }
        assert dists == {round(8.0 * SQRT2, 9)}

    def test_candidate_count_bounded_with_shifts(self):
        spec = AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 3})
        layout = build_layout(spec, 128.0, 128.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            px, py = rng.uniform(0, 128, 2)
            ids = nearest_centers(layout, float(px), float(py), 16.0)
            assert len(ids) <= 16

    def test_contains_max_iou_anchor_per_scale(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            spec = random_spec(rng)
            plane_w = float(rng.integers(32, 257))
            plane_h = float(rng.integers(32, 257))
            layout = build_layout(spec, plane_w, plane_h)
            fw, fh = rng.uniform(3, 48, 2)
            fx = float(rng.uniform(-5, plane_w))
            fy = float(rng.uniform(-5, plane_h))
            face = RectBox(fx, fy, float(fw), float(fh))
            for scale in spec.scales:
                scale_groups = groups_for_scale(layout, scale)
                scale_ids = np.concatenate(
                    [np.arange(g.id_start, g.id_start + g.count) for g in scale_groups]
                )
                ious = all_pair_ious(layout, [face])[0]
                best = ious[scale_ids].max()
                cand = nearest_centers(layout, face.cx, face.cy, scale)
                assert ious[cand].max() == best


class TestCandidateIds:
    def test_interior_point_gets_enclosing_cell_corners(self):
        layout = build_layout(plain16(), 96.0, 96.0)
        g = layout.groups[0]
        ids = candidate_ids(g, 30.0, 50.0)  # cell spanned by centers 24/40 x 40/56
        corners = {anchor_center(layout, int(a)) for a in ids[0]}
        assert corners == {(24.0, 40.0), (40.0, 40.0), (24.0, 56.0), (40.0, 56.0)}

    def test_edge_points_clamp_into_grid(self):
        layout = build_layout(plain16(), 64.0, 64.0)
        g = layout.groups[0]
        ids = candidate_ids(g, np.array([-50.0, 500.0]), np.array([-50.0, 500.0]))
        assert ids.min() >= g.id_start
        assert ids.max() < g.id_start + g.count
