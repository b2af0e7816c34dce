"""Expected-max-overlap estimators: quadrature and Monte Carlo."""

import json
import math
import pathlib

import pytest

from anchorlap import emo
from anchorlap.emo import (
    MAX_MC_SAMPLES,
    MAX_QUADRATURE_CELLS,
    EmoEstimate,
    EmoQuery,
    emo_closed_form,
    emo_monte_carlo,
)
from anchorlap.geometry import iou_offset_square
from anchorlap.layout import AnchorSpec, build_layout

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "emo_golden.json").read_text()
)["values"]


def closed(side, stride, cells=512):
    return emo_closed_form(
        EmoQuery(face_side=side, anchor_stride=stride, quadrature_cells=cells)
    ).value


def single_scale_layout(side, stride, periods=8):
    spec = AnchorSpec(scales=(side,), base_stride=stride)
    return build_layout(spec, periods * stride, periods * stride)


class TestEmoQuery:
    def test_defaults(self):
        q = EmoQuery(face_side=16.0, anchor_stride=16.0)
        assert q.quadrature_cells == 512

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"face_side": 0.0, "anchor_stride": 16.0},
            {"face_side": 16.0, "anchor_stride": -1.0},
            {"face_side": 16.0, "anchor_stride": 16.0, "quadrature_cells": 8},
            {"face_side": 16.0, "anchor_stride": 16.0, "quadrature_cells": MAX_QUADRATURE_CELLS + 1},
            {"face_side": math.inf, "anchor_stride": 16.0},
            {"face_side": 16.0, "anchor_stride": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EmoQuery(**kwargs)

    @pytest.mark.parametrize("cells", [100.5, True, "512"])
    def test_quadrature_cells_must_be_an_integer(self, cells):
        with pytest.raises(ValueError, match="quadrature_cells must be an integer"):
            EmoQuery(16.0, 16.0, quadrature_cells=cells)

    def test_estimate_range_checked(self):
        with pytest.raises(ValueError):
            EmoEstimate(value=1.5, std_error=0.0, method="closed_form")
        with pytest.raises(ValueError):
            EmoEstimate(value=0.5, std_error=-1.0, method="closed_form")


class TestClosedForm:
    def test_golden_values(self):
        for key, want in GOLDEN.items():
            side, stride = (float(tok) for tok in key.split("x"))
            assert closed(side, stride) == pytest.approx(want, abs=1e-5)

    def test_tiny_stride_limit(self):
        # exact value at ratio 1/256 is about 0.9961
        assert closed(16.0, 16.0 / 256.0) > 0.99

    def test_quadrature_convergence(self):
        a = closed(16.0, 16.0, cells=512)
        b = closed(16.0, 16.0, cells=1024)
        assert abs(a - b) < 1e-6

    def test_larger_faces_score_higher(self):
        assert closed(32.0, 16.0) > closed(16.0, 16.0)

    def test_strictly_decreasing_in_stride(self):
        values = [closed(16.0, s) for s in (4.0, 8.0, 16.0)]
        assert values[0] > values[1] > values[2]

    def test_strictly_increasing_in_side(self):
        values = [closed(l, 16.0) for l in (16.0, 32.0, 64.0, 128.0, 256.0, 512.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bounded_by_worst_single_period_overlap(self):
        eps = 1e-9
        for side, stride in ((16.0, 16.0), (64.0, 8.0)):
            value = closed(side, stride)
            worst = iou_offset_square(side, stride / 2 - eps, stride / 2 - eps)
            assert worst < value < 1.0

    def test_rejects_stride_too_large(self):
        with pytest.raises(ValueError, match="closed-form invalid"):
            closed(16.0, 32.0)
        # the boundary case (worst offset exactly the face side) is also out
        with pytest.raises(ValueError, match="closed-form invalid"):
            closed(8.0, 16.0)

    def test_scale_invariance(self):
        # EMO depends only on the side/stride ratio
        assert closed(16.0, 8.0) == pytest.approx(closed(32.0, 16.0), rel=1e-12)


def test_both_estimators_return_a_float_value():
    query = EmoQuery(face_side=16.0, anchor_stride=16.0, quadrature_cells=64)
    layout = single_scale_layout(16.0, 16.0)
    mc = emo_monte_carlo([(layout, 16.0, 16.0)], samples=1000, seed=3)[0]
    assert type(emo_closed_form(query).value) is float
    assert type(mc.value) is float


class TestMonteCarlo:
    def test_agrees_with_quadrature(self):
        layout = single_scale_layout(16.0, 16.0)
        est = emo_monte_carlo([(layout, 16.0, 16.0)], samples=300_000, seed=11)[0]
        assert est.method == "monte_carlo"
        assert est.std_error > 0.0
        assert abs(est.value - closed(16.0, 16.0)) <= 3.0 * est.std_error

    def test_near_one_for_tiny_stride(self):
        layout = single_scale_layout(16.0, 16.0 / 256.0, periods=16)
        est = emo_monte_carlo([(layout, 16.0, 16.0)], samples=20_000, seed=1)[0]
        assert est.value > 0.99

    def test_shifted_lattice_raises_small_face_emo(self):
        base = single_scale_layout(16.0, 16.0)
        shifted = build_layout(
            AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 3}),
            128.0, 128.0,
        )
        a = emo_monte_carlo([(base, 16.0, 16.0)], samples=200_000, seed=5)[0]
        b = emo_monte_carlo([(shifted, 16.0, 16.0)], samples=200_000, seed=5)[0]
        sigma = math.hypot(a.std_error, b.std_error)
        assert b.value - a.value >= 3.0 * sigma

    def test_bit_identical_across_worker_counts(self):
        layout = single_scale_layout(16.0, 16.0)
        one = emo_monte_carlo([(layout, 16.0, 16.0)], samples=150_000, seed=9, workers=1)[0]
        four = emo_monte_carlo([(layout, 16.0, 16.0)], samples=150_000, seed=9, workers=4)[0]
        assert one.value == four.value
        assert one.std_error == four.std_error

    def test_seed_changes_the_estimate(self):
        layout = single_scale_layout(16.0, 16.0)
        a = emo_monte_carlo([(layout, 16.0, 16.0)], samples=10_000, seed=0)[0]
        b = emo_monte_carlo([(layout, 16.0, 16.0)], samples=10_000, seed=1)[0]
        assert a.value != b.value

    def test_rectangular_faces_accepted(self):
        layout = single_scale_layout(16.0, 16.0)
        est = emo_monte_carlo([(layout, 12.0, 20.0)], samples=10_000, seed=2)[0]
        assert 0.0 < est.value < 1.0

    def test_validation(self):
        layout = single_scale_layout(16.0, 16.0)
        with pytest.raises(ValueError):
            emo_monte_carlo([(layout, -1.0, 16.0)], samples=10_000, seed=0)
        with pytest.raises(ValueError):
            emo_monte_carlo([(layout, 16.0, 16.0)], samples=10, seed=0)
        with pytest.raises(ValueError):
            emo_monte_carlo([(layout, 16.0, 16.0)], samples=10_000, seed=-1)
        with pytest.raises(ValueError):
            emo_monte_carlo([(layout, 16.0, 16.0)], samples=10_000, seed=0, workers=0)

    @pytest.mark.parametrize("kwargs", [{"samples": 1000.5}, {"samples": True}, {"samples": "1000"},
                                        {"workers": 1.5}, {"workers": True},
                                        {"seed": "7"}, {"seed": 1.5}, {"seed": True}])
    def test_integer_arguments_must_be_integers(self, kwargs):
        layout = single_scale_layout(16.0, 16.0)
        (field,) = kwargs
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            emo_monte_carlo([(layout, 16.0, 16.0)], **{"samples": 1000, "seed": 0, **kwargs})

    def test_plane_must_cover_two_periods(self):
        tiny = build_layout(AnchorSpec(scales=(16.0,), base_stride=16.0), 16.0, 16.0)
        with pytest.raises(ValueError, match="2x2"):
            emo_monte_carlo([(tiny, 16.0, 16.0)], samples=10_000, seed=0)


def mixed_cells():
    """Cells of periods 16, 8 and 5, square and oblong faces, and a layout of
    several ratios and shifted sub-lattices."""
    mixed = AnchorSpec(scales=(8.0, 16.0), ratios=(0.8, 1.25), stride_divisor=2,
                       shifts_per_scale={8.0: 3, 16.0: 1})
    return [
        (single_scale_layout(16.0, 16.0), 16.0, 16.0),
        (build_layout(mixed, 128.0, 96.0), 13.0, 17.0),
        (single_scale_layout(8.0, 16.0), 12.0, 20.0),
        (single_scale_layout(32.0, 5.0), 32.0, 32.0),
        (build_layout(mixed, 128.0, 96.0), 9.0, 9.0),
    ]


def bits(estimates):
    return [(e.value.hex(), e.std_error.hex()) for e in estimates]


class TestSharedStream:
    """A table of cells estimated from one shared stream, against one call
    per cell, to the bit."""

    @pytest.mark.parametrize("samples", [70_000, 131_072])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_table_equals_one_call_per_cell(self, monkeypatch, samples, workers):
        monkeypatch.setattr(emo.os, "cpu_count", lambda: 4)  # let 3 workers run
        cells = mixed_cells()
        singles = [emo_monte_carlo([cell], samples, seed=17)[0] for cell in cells]
        table = emo_monte_carlo(cells, samples, seed=17, workers=workers)
        assert bits(table) == bits(singles)
        assert len({e.value for e in table}) == len(cells)

    def test_every_cell_is_validated_before_the_first_draw(self, monkeypatch):
        def no_draws(seed, index):
            raise AssertionError("drew before validating every cell")

        monkeypatch.setattr(emo, "stream", no_draws)
        tiny = build_layout(AnchorSpec(scales=(16.0,), base_stride=16.0), 16.0, 16.0)
        good = (single_scale_layout(16.0, 16.0), 16.0, 16.0)
        with pytest.raises(ValueError, match="2x2"):
            emo_monte_carlo([good, (tiny, 16.0, 16.0)], samples=10_000, seed=0)
        with pytest.raises(ValueError, match="face size"):
            emo_monte_carlo([good, (good[0], 16.0, math.nan)], samples=10_000, seed=0)
        with pytest.raises(ValueError, match=f"cap of {MAX_MC_SAMPLES}"):
            emo_monte_carlo([good], samples=MAX_MC_SAMPLES + 1, seed=0)

    def test_thread_pool_is_bounded_by_cpus_and_chunks(self, monkeypatch):
        real = emo.ThreadPoolExecutor
        requested = []

        def recorder(max_workers):
            requested.append(max_workers)
            assert max_workers <= 4
            return real(max_workers=max_workers)

        monkeypatch.setattr(emo, "ThreadPoolExecutor", recorder)
        cells = [(single_scale_layout(16.0, 16.0), 16.0, 16.0)]
        want = bits(emo_monte_carlo(cells, 200_000, seed=3))
        for cpus, samples, threads in ((2, 200_000, 2), (4, 131_072, 2), (None, 200_000, None),
                                       (4, 65_536, None)):
            monkeypatch.setattr(emo.os, "cpu_count", lambda: cpus)
            requested.clear()
            got = emo_monte_carlo(cells, samples, seed=3, workers=100_000)
            assert requested == ([] if threads is None else [threads])
            if samples == 200_000:
                assert bits(got) == want


class TestEmoTable:
    """A scales-by-strides table of closed-form cells, as ``emo`` prints it."""

    def test_column_increases_with_scale(self):
        values = [closed(scale, 16.0) for scale in (16.0, 32.0, 64.0, 128.0, 256.0, 512.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_row_decreases_with_stride(self):
        values = [closed(16.0, stride) for stride in (4.0, 8.0, 16.0)]
        assert values[0] > values[1] > values[2]

    def test_invalid_pair_gets_reason(self):
        with pytest.raises(ValueError, match=r"closed-form invalid.*emo --mc"):
            closed(16.0, 32.0)
