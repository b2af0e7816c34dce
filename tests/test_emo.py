"""Expected-max-overlap estimators: quadrature and Monte Carlo."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlap import emo
from anchorlap.emo import (
    MAX_MC_SAMPLES,
    MC_CHUNK,
    MAX_QUADRATURE_CELLS,
    EmoEstimate,
    EmoQuery,
    emo_closed_form,
    emo_monte_carlo,
)
from anchorlap.layout import AnchorSpec, build_layout

from helpers import iou_offset_square

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

    # 2,000 cells go in blocks of 32 rows, the last of them partial.
    @pytest.mark.parametrize("cells", [16, 17, 2000])
    @pytest.mark.parametrize("side", [9.0, 16.0, 64.0])
    def test_blocks_equal_the_per_row_sum(self, cells, side):
        half = 8.0
        mids = (np.arange(cells) + 0.5) * (half / cells)
        total = 0.0
        for dy in mids:
            total += iou_offset_square(side, mids, dy).sum()
        assert closed(side, 2.0 * half, cells) == float(total / (cells * cells))


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


def scaled_cell(spec, plane, face, k):
    """The cell of ``spec`` (AnchorSpec keywords) on a ``plane`` for a
    ``face``, with every length scaled by ``2**k``."""
    def scale(v):
        return math.ldexp(v, k)

    layout = build_layout(AnchorSpec(**{
        **spec, "scales": tuple(map(scale, spec["scales"])), "base_stride": scale(16.0),
        "shifts_per_scale": {scale(s): n for s, n in spec["shifts_per_scale"].items()}}),
        *map(scale, plane))
    return (layout, *map(scale, face))


@st.composite
def twin_tables(draw):
    """Cells of one or two random layouts (ratios other than 1, 1- and
    3-shift sub-lattices, divisors 1, 2 and 4) and square or oblong faces
    from small pools, so that some cells differ in one length only (scale 8
    at ratio 1/2 and scale 16 at ratio 2 share the box width); each
    beside a twin scaled by ``2**k``, some twins just outside ``[2**-400,
    2**400]``, and some cells repeated exactly."""
    specs = []
    for _ in range(draw(st.integers(1, 2))):
        scales = sorted(draw(st.sets(st.sampled_from((8.0, 12.0, 16.0, 32.0)), min_size=1, max_size=2)))
        specs.append({"scales": tuple(scales), "ratios": draw(st.sampled_from([(1.0,), (0.5,), (2.0,), (0.5, 2.0)])),
                      "stride_divisor": draw(st.sampled_from([1, 2, 4])),
                      "shifts_per_scale": {s: n for s in scales if (n := draw(st.sampled_from([0, 1, 3])))}})
    sides, planes = st.sampled_from((9.0, 12.0, 16.0)), st.sampled_from(((96.0, 128.0), (128.0, 128.0)))
    twin = st.one_of(st.integers(-3, 3), st.integers(-403, -396), st.integers(392, 401))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        spec, plane, face = draw(st.sampled_from(specs)), draw(planes), (draw(sides), draw(sides))
        cells += [scaled_cell(spec, plane, face, 0), scaled_cell(spec, plane, face, draw(twin))]
    cells += draw(st.lists(st.sampled_from(cells), max_size=2))
    return draw(st.permutations(cells))


class TestScaleClasses:
    """Cells equal up to a power-of-two scale share one kernel pass per chunk."""

    @settings(max_examples=50, deadline=None)
    @given(cells=twin_tables())
    def test_table_equals_one_call_per_cell(self, cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emo, "MC_CHUNK", 512)  # 1,200 samples: chunks of 512, 512 and 176
            mp.setattr(emo.os, "cpu_count", lambda: 2)
            singles = bits(emo_monte_carlo([cell], 1200, seed=5)[0] for cell in cells)
            for workers in (1, 2):
                assert bits(emo_monte_carlo(cells, 1200, seed=5, workers=workers)) == singles

    def test_cells_one_length_apart_run_apart(self):
        # Scale 8 at ratio 1/2 and scale 16 at ratio 2 share the box width only.
        wide, tall = ({"scales": (scale,), "ratios": (ratio,), "stride_divisor": 1, "shifts_per_scale": {}}
                      for scale, ratio in ((8.0, 0.5), (16.0, 2.0)))
        cells = [scaled_cell(wide, (128.0, 128.0), (12.0, 12.0), 0),
                 scaled_cell(tall, (128.0, 128.0), (12.0, 12.0), 0),
                 scaled_cell(wide, (128.0, 128.0), (12.0, 16.0), 0),
                 scaled_cell(wide, (128.0, 128.0), (16.0, 12.0), 0)]
        singles = bits(emo_monte_carlo([cell], 1000, seed=3)[0] for cell in cells)
        assert bits(emo_monte_carlo(cells, 1000, seed=3)) == singles
        assert len(set(singles)) == len(cells)

    def test_kernel_runs_once_per_class_and_chunk(self, monkeypatch):
        calls, kernel = [], emo.max_overlap_values

        def counting(*args, **kwargs):
            calls.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(emo, "max_overlap_values", counting)
        # The bench's table: (8, 8) and (16, 16), and (16, 8) and (32, 16), are twins.
        bench = [(single_scale_layout(scale, stride), scale, scale)
                 for scale in (8.0, 16.0, 32.0) for stride in (8.0, 16.0)]
        table = emo_monte_carlo(bench, MC_CHUNK + 1000, seed=1, workers=2)
        assert len(calls) == 4 * 2
        assert bits(table[i] for i in (0, 2)) == bits(table[i] for i in (3, 5))
        calls.clear()
        emo_monte_carlo(mixed_cells(), MC_CHUNK + 1000, seed=1)
        assert len(calls) == len(mixed_cells()) * 2


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
