"""Rectangle arithmetic: intersection, IoU, and the offset-square closed form."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorlap.geometry import FaceTable, RectBox, intersect_area, iou, iou_from_overlaps, iou_xywh

from helpers import iou_offset_square


class TestRectBox:
    def test_fields_and_derived(self):
        b = RectBox(2.0, 3.0, 10.0, 4.0)
        assert (b.x2, b.y2) == (12.0, 7.0)
        assert b.area == 40.0

    @pytest.mark.parametrize("w,h", [(0.0, 16.0), (16.0, 0.0), (-1.0, 16.0), (16.0, -0.5)])
    def test_rejects_degenerate_sizes(self, w, h):
        with pytest.raises(ValueError):
            RectBox(0.0, 0.0, w, h)

    @pytest.mark.parametrize("field", range(4))
    def test_rejects_bools(self, field):
        values = [0.0, 0.0, 1.0, 1.0]
        values[field] = True
        with pytest.raises(ValueError, match="must be a finite real, got True"):
            RectBox(*values)

    @pytest.mark.parametrize("box", [(1e308, 0.0, 1e308, 1.0), (0.0, 1e308, 1.0, 1e308), (10**308, 0, 10**308, 1)],
                             ids=["x2", "y2", "int-x2"])
    def test_rejects_overflowing_far_edge(self, box):
        with pytest.raises(ValueError, match="finite extents"):
            RectBox(*box)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                             ids=["nan", "inf", "-inf", "10**400", "-10**400"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            RectBox(bad, 0.0, 16.0, 16.0)
        with pytest.raises(ValueError):
            RectBox(0.0, 0.0, bad, 16.0)


class TestIntersectArea:
    def test_identity(self):
        a = RectBox(0, 0, 16, 16)
        assert intersect_area(a, a) == 256.0

    def test_disjoint(self):
        assert intersect_area(RectBox(0, 0, 16, 16), RectBox(100, 100, 16, 16)) == 0.0

    def test_half_offset(self):
        assert intersect_area(RectBox(0, 0, 16, 16), RectBox(8, 8, 16, 16)) == 64.0

    def test_commutative(self):
        a = RectBox(1.5, 2.5, 7.0, 3.0)
        b = RectBox(4.0, 1.0, 2.0, 9.0)
        assert intersect_area(a, b) == intersect_area(b, a)


class TestIou:
    def test_identity(self):
        a = RectBox(0, 0, 16, 16)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(RectBox(0, 0, 16, 16), RectBox(32, 0, 16, 16)) == 0.0

    def test_half_offset_is_one_seventh(self):
        # intersection 64, union 512 - 64
        got = iou(RectBox(0, 0, 16, 16), RectBox(8, 8, 16, 16))
        assert got == pytest.approx(1.0 / 7.0, rel=1e-15)

    @given(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(0.1, 50), st.floats(0.1, 50),
        st.floats(-100, 100), st.floats(-100, 100), st.floats(0.1, 50), st.floats(0.1, 50),
    )
    @example(1.0, 0.1, 0.1, 1.0, 1.0, 0.1, 0.1, 1.0)  # identical: union rounds below inter
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, ax, ay, aw, ah, bx, by, bw, bh):
        a = RectBox(ax, ay, aw, ah)
        b = RectBox(bx, by, bw, bh)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 20), st.floats(0.5, 20),
        st.floats(-30, 30), st.floats(-30, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, x, y, w, h, dx, dy):
        a = RectBox(x, y, w, h)
        b = RectBox(x + w / 4, y + h / 4, w, h)
        base = iou(a, b)
        moved = iou(RectBox(a.x + dx, a.y + dy, w, h), RectBox(b.x + dx, b.y + dy, w, h))
        assert moved == pytest.approx(base, rel=1e-12, abs=0)

    def test_one_iff_identical(self):
        a = RectBox(0, 0, 10, 10)
        assert iou(a, RectBox(0, 0, 10, 10)) == 1.0
        assert iou(a, RectBox(0, 0, 10, 10.00001)) < 1.0
        thin = RectBox(1.0, 0.1, 0.1, 1.0)
        assert iou(thin, thin) == 1.0
        assert iou_xywh(1.0, 0.1, 0.1, 1.0, 1.0, 0.1, 0.1, 1.0) == 1.0


class TestIouOffsetSquare:
    def test_coincident(self):
        assert iou_offset_square(16.0, 0.0, 0.0) == 1.0

    def test_half_offset(self):
        assert iou_offset_square(16.0, 8.0, 8.0) == pytest.approx(1.0 / 7.0, rel=1e-15)

    def test_single_axis_offset(self):
        # (24 * 32) / (2048 - 768)
        assert iou_offset_square(32.0, 8.0, 0.0) == pytest.approx(0.6, rel=1e-15)

    @pytest.mark.parametrize("dx,dy", [(-0.1, 0.0), (0.0, 16.0), (17.0, 0.0), (0.0, -1.0)])
    def test_rejects_out_of_range_offsets(self, dx, dy):
        with pytest.raises(ValueError):
            iou_offset_square(16.0, dx, dy)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            iou_offset_square(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            iou_offset_square(math.inf, 0.0, 0.0)

    def test_arrays_match_scalars_bitwise(self):
        dx = np.array([0.0, 3.25, 8.0, 15.5])
        got = iou_offset_square(16.0, dx, 5.0)
        assert got.tolist() == [iou_offset_square(16.0, float(d), 5.0) for d in dx]
        with pytest.raises(ValueError):
            iou_offset_square(16.0, np.array([0.0, 16.0]), 5.0)

    def test_matches_generic_iou_on_random_offsets(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            side = float(rng.uniform(0.001, 1024.0))
            dx = float(rng.uniform(0.0, side))
            dy = float(rng.uniform(0.0, side))
            if dx >= side or dy >= side:
                continue
            closed = iou_offset_square(side, dx, dy)
            generic = iou(RectBox(0.0, 0.0, side, side), RectBox(dx, dy, side, side))
            assert closed == pytest.approx(generic, rel=1e-12, abs=0)

    @given(st.floats(0.5, 1024), st.floats(0, 0.999), st.floats(0, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_matches_generic_iou_property(self, side, fx, fy):
        dx, dy = side * fx, side * fy
        closed = iou_offset_square(side, dx, dy)
        generic = iou(RectBox(0.0, 0.0, side, side), RectBox(dx, dy, side, side))
        assert closed == pytest.approx(generic, rel=1e-12, abs=0)


class TestIouXywh:
    def test_matches_scalar_iou_bitwise(self):
        rng = np.random.default_rng(5)
        ax, ay = rng.uniform(-20, 20, 500), rng.uniform(-20, 20, 500)
        aw, ah = rng.uniform(0.5, 30, 500), rng.uniform(0.5, 30, 500)
        bx, by = rng.uniform(-20, 20, 500), rng.uniform(-20, 20, 500)
        bw, bh = rng.uniform(0.5, 30, 500), rng.uniform(0.5, 30, 500)
        vec = iou_xywh(ax, ay, aw, ah, bx, by, bw, bh)
        for i in range(500):
            scalar = iou(
                RectBox(ax[i], ay[i], aw[i], ah[i]), RectBox(bx[i], by[i], bw[i], bh[i])
            )
            assert vec[i] == scalar

    def test_broadcasting(self):
        got = iou_xywh(0.0, 0.0, 16.0, 16.0, np.array([0.0, 8.0, 32.0]), 0.0, 16.0, 16.0)
        assert got.shape == (3,)
        assert got[0] == 1.0
        assert got[2] == 0.0

    def test_scalar_inputs(self):
        assert float(iou_xywh(0.0, 0.0, 16.0, 16.0, 8.0, 8.0, 16.0, 16.0)) == pytest.approx(
            1.0 / 7.0, rel=1e-15
        )


# Overlaps and area sums at the edges of the rule: nan, signed zeros,
# subnormals, zero and negative overlaps, zero area sums.
EDGE_OVERLAPS = np.array([math.nan, -3.0, -0.0, 0.0, 5e-324, 2e-310, 1e-200, 0.5, 3.0, 16.0])
EDGE_AREAS = np.array([0.0, -0.0, 5e-324, 1e-300, 0.25, 1.0, 512.0])


def where_rule(iw, ih, areas):
    """The IoU rule written with a positive-intersection mask: where the
    intersection is positive, ``inter / max(areas - inter, inter)``, else +0."""
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = np.maximum(areas - inter, inter)
    return np.divide(inter, union, out=np.zeros(np.shape(union)), where=inter > 0.0)


class TestOutBuffer:
    """``iou_from_overlaps`` and ``iou_xywh`` give the bits of
    :func:`where_rule` on the rule's edge inputs, at every broadcast shape,
    and scalar inputs give a Python float."""

    SHAPES = [((10, 1), (1, 10), (10, 1)), ((10, 1), (1, 10), ()), ((1, 10), (10, 1), (1, 1)),
              ((7, 1, 10), (7, 10, 1), (7, 1, 1)), ((10,), (10,), (10,))]

    def edge_inputs(self, rng, shapes):
        iw, ih, areas = (rng.choice(pool, size=shape) for pool, shape in
                         zip((EDGE_OVERLAPS, EDGE_OVERLAPS, EDGE_AREAS), shapes))
        return iw, ih, areas

    @pytest.mark.parametrize("shapes", SHAPES, ids=["column-row", "scalar-areas", "row-column", "scan-block", "flat"])
    def test_overlaps_out_is_the_allocating_form_bitwise(self, shapes):
        rng = np.random.default_rng(len(shapes[0]) * 10 + len(shapes[2]))
        for _ in range(20):
            iw, ih, areas = self.edge_inputs(rng, shapes)
            got = iou_from_overlaps(iw, ih, areas)
            assert got.shape == np.broadcast(iw, ih, areas).shape
            assert got.tobytes() == where_rule(iw, ih, areas).tobytes()

    def test_scalars_into_a_zero_dim_buffer(self):
        cases = [(math.nan, 1.0, 2.0), (-0.0, 1.0, 2.0), (5e-324, 5e-324, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 2.0)]
        for iw, ih, areas in cases:
            got = iou_from_overlaps(iw, ih, areas)
            assert type(got) is float
            assert np.float64(got).tobytes() == where_rule(iw, ih, areas).tobytes()

    def test_xywh_out_is_the_allocating_form_bitwise(self):
        rng = np.random.default_rng(9)
        # Anchors along a row, boxes down a column; zero, subnormal and
        # negative-zero sizes and coordinates among them.
        ax = rng.choice([-0.0, 0.0, 5e-324, 3.5, 8.0], size=(1, 40))
        aw = rng.choice([0.0, 5e-324, 1.0, 16.0], size=(1, 40))
        bx = rng.choice([-0.0, 0.0, 2.0, 7.5, 40.0], size=(30, 1))
        bw = rng.choice([0.0, 2e-310, 4.0, 16.0], size=(30, 1))
        ay, ah, by, bh = ax.T.copy().reshape(1, 40), aw, bx[::-1].copy(), bw[::-1].copy()
        got = iou_xywh(ax, ay, aw, ah, bx, by, bw, bh)
        assert got.shape == (30, 40)
        iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        assert got.tobytes() == where_rule(iw, ih, aw * ah + bw * bh).tobytes()


@pytest.mark.parametrize("call", [
    lambda: iou_xywh(0.0, 0.0, 16.0, 16.0, 8.0, 8.0, 16.0, 16.0),
    lambda: iou_xywh(0.0, 0.0, 16.0, 16.0, 40.0, 8.0, 16.0, 16.0),
    lambda: iou_offset_square(16.0, 8.0, 8.0),
    lambda: iou_offset_square(np.float64(16.0), 0.0, 0.0),
], ids=["xywh", "xywh-disjoint", "offset-square", "offset-square-numpy"])
def test_scalar_inputs_give_a_python_float(call):
    assert type(call()) is float


class TestFaceTable:
    BOXES = [RectBox(1.0, 2.0, 3.0, 4.0), RectBox(-5.5, 6.0, 7.0, 8.25)]

    def test_of_boxes_round_trips(self):
        table = FaceTable.of(self.BOXES)
        assert len(table) == 2
        assert [table[i] for i in range(len(table))] == self.BOXES
        assert table[-1] == self.BOXES[-1]
        assert table.image.tolist() == [0, 0] and table.image_ids == ("",)
        assert FaceTable.of(table) is table
        assert len(FaceTable.of([])) == 0

    def test_columns_are_read_only(self):
        table = FaceTable.of(self.BOXES)
        assert table.x.dtype == np.float64 and table.image.dtype == np.int64
        with pytest.raises(ValueError):
            table.x[0] = 9.0

    def test_scale_and_translation(self):
        table = FaceTable.of([RectBox(0.0, 0.0, 9.0, 16.0)])
        assert table.scale.tolist() == [12.0]
        moved = table.translated(3, 1)
        assert moved[0] == RectBox(3.0, 1.0, 9.0, 16.0)
        assert table.x[0] == 0.0

    @pytest.mark.parametrize(
        "columns",
        [
            ([0.0], [0.0], [0.0], [4.0], [0]),       # zero width
            ([0.0], [0.0], [4.0], [-1.0], [0]),      # negative height
            ([math.nan], [0.0], [4.0], [4.0], [0]),  # non-finite coordinate
            ([0.0], [0.0], [math.inf], [4.0], [0]),  # non-finite size
            ([0.0, 1.0], [0.0], [4.0], [4.0], [0]),  # ragged columns
            ([0.0], [0.0], [4.0], [4.0], [1]),       # image index past image_ids
            ([0.0], [0.0], [4.0], [4.0], [-1]),      # negative image index
            ([1e308], [0.0], [1e308], [4.0], [0]),   # x + w overflows
        ],
    )
    def test_rejects_invalid_rows(self, columns):
        with pytest.raises(ValueError):
            FaceTable(*columns, ("a.jpg",))
