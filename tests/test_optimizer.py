"""Exact anchor-design search under a per-location budget."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlap import optimizer
from anchorlap.dataset import ListingPlaneError, parse_annotations
from anchorlap.geometry import FaceTable, RectBox
from anchorlap.layout import ALLOWED_DIVISORS, ALLOWED_SHIFT_COUNTS, MAX_ANCHORS, AnchorSpec
from anchorlap.optimizer import (
    ConfigScore,
    SearchSpace,
    enumerate_configs,
    evaluate_config,
    optimize,
)
from anchorlap.specfile import load_space
from helpers import brute_optimize

DATA = Path(__file__).resolve().parent / "data"


def small_faces(n, seed, side=16.0, lo=0.0, hi=96.0):
    rng = np.random.default_rng(seed)
    return [
        RectBox(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)), side, side)
        for _ in range(n)
    ]


class TestSearchSpace:
    def test_normalizes_types(self):
        space = SearchSpace(
            stride_divisors=[1, 2], shift_choices=[0, 3], scale_sets=[[16], [16, 32]],
            budget=9,
        )
        assert space.stride_divisors == (1, 2)
        assert space.scale_sets == ((16.0,), (16.0, 32.0))
        assert space.ratios == (1.0,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stride_divisors": (), "shift_choices": (0,), "scale_sets": ((16.0,),), "budget": 1},
            {"stride_divisors": (3,), "shift_choices": (0,), "scale_sets": ((16.0,),), "budget": 1},
            {"stride_divisors": (1, 1), "shift_choices": (0,), "scale_sets": ((16.0,),), "budget": 1},
            {"stride_divisors": (1,), "shift_choices": (2,), "scale_sets": ((16.0,),), "budget": 1},
            {"stride_divisors": (1,), "shift_choices": (), "scale_sets": ((16.0,),), "budget": 1},
            {"stride_divisors": (1,), "shift_choices": (0,), "scale_sets": (), "budget": 1},
            {"stride_divisors": (1,), "shift_choices": (0,), "scale_sets": ((16.0,),), "budget": 0},
            {"stride_divisors": (1,), "shift_choices": (0,), "scale_sets": ((16.0,),), "budget": 1,
             "ratios": ()},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchSpace(**kwargs)


class TestEnumeration:
    def test_singleton_space(self):
        space = SearchSpace(
            stride_divisors=(1,), shift_choices=(0,), scale_sets=((16.0,),), budget=1
        )
        configs = enumerate_configs(space)
        assert configs == [AnchorSpec(scales=(16.0,))]

    def test_two_by_two_grid(self):
        space = SearchSpace(
            stride_divisors=(2, 1), shift_choices=(3, 0), scale_sets=((16.0,),), budget=9
        )
        configs = enumerate_configs(space)
        assert len(configs) == 4
        assert [c.stride_divisor for c in configs] == [1, 1, 2, 2]
        assert [c.shifts_per_scale for c in configs] == [{}, {16.0: 3}, {}, {16.0: 3}]

    def test_budget_prunes(self):
        # two scales, both shifted by 3 -> 8 anchors per location
        space = SearchSpace(
            stride_divisors=(1,), shift_choices=(0, 3), scale_sets=((16.0, 32.0),), budget=5
        )
        configs = enumerate_configs(space)
        counts = [c.anchors_per_location for c in configs]
        assert all(c <= 5 for c in counts)
        # (3, 3) costs 8 and must be gone; the other three assignments stay
        assert len(configs) == 3

    def test_everything_over_budget(self):
        space = SearchSpace(
            stride_divisors=(1,), shift_choices=(3,), scale_sets=((16.0, 32.0),), budget=2
        )
        assert enumerate_configs(space) == []
        with pytest.raises(ValueError, match="budget"):
            optimize(space, small_faces(5, 0))

    def test_ratios_multiply_the_cost(self):
        space = SearchSpace(
            stride_divisors=(1,), shift_choices=(0,), scale_sets=((16.0, 32.0),),
            budget=3, ratios=(1.0, 1.5),
        )
        # 2 scales x 2 ratios = 4 anchors per location > 3
        assert enumerate_configs(space) == []


class TestEvaluate:
    def test_perfect_score_on_anchor_aligned_faces(self):
        spec = AnchorSpec(scales=(16.0,))
        faces = [RectBox(0.0, 0.0, 16.0, 16.0), RectBox(16.0, 32.0, 16.0, 16.0)]
        score = evaluate_config(spec, faces)
        assert score.objective == 1.0
        assert score.recall == 1.0
        assert score.spec == spec

    def test_needs_faces(self):
        with pytest.raises(ValueError):
            evaluate_config(AnchorSpec(scales=(16.0,)), [])

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5])
    def test_tau_must_lie_in_unit_interval(self, tau):
        with pytest.raises(ValueError, match="tau"):
            evaluate_config(AnchorSpec(scales=(16.0,)), small_faces(5, 0), tau=tau)

    def test_score_bounds_checked(self):
        with pytest.raises(ValueError):
            ConfigScore(AnchorSpec(scales=(16.0,)), objective=1.2, recall=0.5)


class TestOptimize:
    def test_denser_lattices_win_on_small_faces(self):
        faces = small_faces(400, seed=7)
        space = SearchSpace(
            stride_divisors=(1, 2), shift_choices=(0, 3), scale_sets=((16.0,),), budget=9
        )
        scores = optimize(space, faces)
        assert len(scores) == 4
        objectives = [s.objective for s in scores]
        assert objectives == sorted(objectives, reverse=True)
        # the densest design (div 2 + shifts) beats the plain grid
        assert scores[0].spec.stride_divisor == 2
        assert scores[-1].spec == AnchorSpec(scales=(16.0,))

    def test_shifts_raise_the_objective(self):
        faces = small_faces(400, seed=8)
        space = SearchSpace(
            stride_divisors=(1,), shift_choices=(0, 1, 3), scale_sets=((16.0,),), budget=9
        )
        by_shifts = {
            (s.spec.shifts_per_scale.get(16.0, 0)): s.objective
            for s in optimize(space, faces)
        }
        assert by_shifts[3] > by_shifts[1] > by_shifts[0]

    def test_ties_prefer_cheaper_configs(self):
        # faces sitting exactly on base-grid anchors: every design scores 1.0
        faces = [RectBox(0.0, 0.0, 16.0, 16.0), RectBox(32.0, 16.0, 16.0, 16.0)]
        space = SearchSpace(
            stride_divisors=(1,), shift_choices=(0, 1, 3), scale_sets=((16.0,),), budget=9
        )
        scores = optimize(space, faces)
        assert all(s.objective == 1.0 for s in scores)
        assert [s.spec.anchors_per_location for s in scores] == [1, 2, 4]

    def test_needs_faces(self):
        space = SearchSpace(stride_divisors=(1,), shift_choices=(0,), scale_sets=((16.0,),), budget=1)
        with pytest.raises(ValueError, match="non-empty"):
            optimize(space, [])

    def test_deterministic(self):
        faces = small_faces(100, seed=9)
        space = SearchSpace(
            stride_divisors=(1, 2, 4), shift_choices=(0, 1), scale_sets=((16.0,), (16.0, 32.0)),
            budget=8,
        )
        a = optimize(space, faces)
        b = optimize(space, faces)
        assert a == b

    def test_recall_objective_disagreement_is_possible(self):
        """Objective ranks by mean IoU; recall is reported, not optimized."""
        faces = small_faces(300, seed=10)
        space = SearchSpace(
            stride_divisors=(1, 2), shift_choices=(0,), scale_sets=((16.0,),), budget=4
        )
        scores = optimize(space, faces, tau=0.2)
        assert all(0.0 <= s.recall <= 1.0 for s in scores)


class TestAnchorCap:
    def test_every_config_is_held_to_the_cap(self):
        # A 4096 x 4096 bounding plane: 256 x 256 locations at divisor 1,
        # 1024 x 1024 at divisor 4, where two scales, one shifted by 3,
        # need 5 anchors at each.
        faces = [RectBox(0.0, 0.0, 16.0, 16.0), RectBox(4080.0, 4080.0, 16.0, 16.0)]
        space = SearchSpace(stride_divisors=(1,), shift_choices=(0, 3),
                            scale_sets=((16.0, 32.0),), budget=8)
        assert len(optimize(space, faces)) == 4
        with pytest.raises(ValueError, match=f"^4096 x 4096 plane needs a layout over the cap of {MAX_ANCHORS} anchors$"):
            optimize(replace(space, stride_divisors=(1, 4)), faces)

    def test_a_plane_no_config_fits_is_the_listing_fault(self):
        # Both configs fit the least 64 x 64 plane, so the far face is at
        # fault; above, divisor 1 fits the plane and divisor 4 is at fault.
        faces = [RectBox(1e300, 1e300, 16.0, 16.0)]
        space = SearchSpace(stride_divisors=(1, 4), shift_choices=(0,), scale_sets=((16.0,),), budget=8)
        with pytest.raises(ListingPlaneError, match="^the annotation listing's 1e[+]300 x 1e[+]300 bounding plane"):
            optimize(space, faces)


def mixed_faces(n, seed, plane=300.0):
    """Faces of 6-200 px with h/w in [0.7, 1.6] inside a ``plane`` square."""
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(np.log(6.0), np.log(200.0), n))
    h = w * rng.uniform(0.7, 1.6, n)
    x = rng.uniform(0.0, plane - w)
    y = rng.uniform(0.0, np.maximum(plane - h, 1.0))
    return one_image(x, y, w, h)


def one_image(x, y, w, h):
    return FaceTable(x, y, w, h, np.zeros(len(x), dtype=np.int64), ("",))


def assert_same_ranking(fast, slow):
    assert len(fast) == len(slow) > 0
    assert [sc.spec for sc in fast] == [sc.spec for sc in slow]
    assert [sc.objective for sc in fast] == [sc.objective for sc in slow]
    assert [sc.recall for sc in fast] == [sc.recall for sc in slow]


class TestExactness:
    """``optimize`` equals a full layout scan per config, bit for bit."""

    def test_golden_space(self):
        faces = parse_annotations((DATA / "golden_faces.txt").read_text()).records
        space = load_space(str(DATA / "golden_space.json"))
        assert_same_ranking(optimize(space, faces), brute_optimize(space, faces))

    @pytest.mark.parametrize("tau", [0.35, 0.5])
    def test_ratios_and_shared_scales(self, tau):
        # Two scale sets share 16 and 64, and two ratios double every
        # scale's groups, so cached vectors are reused across both.
        faces = mixed_faces(150, seed=11)
        space = SearchSpace(
            stride_divisors=(1, 2, 4), shift_choices=(0, 1, 3),
            scale_sets=((16.0, 32.0, 64.0), (16.0, 64.0, 128.0)), budget=12,
            ratios=(1.0, 1.5),
        )
        assert_same_ranking(optimize(space, faces, tau), brute_optimize(space, faces, tau))

    def test_recall_counts_faces_exactly_at_tau(self):
        # The top half of a base-grid anchor (IoU exactly 0.5 in every
        # config) and a face on a base-grid anchor (IoU 1).
        faces = [RectBox(0.0, 0.0, 16.0, 8.0), RectBox(32.0, 48.0, 16.0, 16.0)]
        space = SearchSpace(stride_divisors=(1,), shift_choices=(0, 1, 3),
                            scale_sets=((16.0, 32.0),), budget=8)
        scores = optimize(space, faces)
        assert_same_ranking(scores, brute_optimize(space, faces))
        assert [(sc.objective, sc.recall) for sc in scores] == [(0.75, 1.0)] * len(scores)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_spaces(self, data):
        def subset(values, max_size=None):
            return st.sets(st.sampled_from(values), min_size=1, max_size=max_size).map(sorted)

        scale_sets = data.draw(st.lists(subset((8.0, 16.0, 24.0, 32.0, 64.0), 3), min_size=1,
                                        max_size=3))
        shifts = data.draw(subset(ALLOWED_SHIFT_COUNTS))
        ratios = data.draw(subset((0.5, 1.0, 1.5, 2.0), 2).filter(lambda r: r != [1.0]))
        # Between the cheapest and the dearest config's cost, so budgets prune.
        costs = [len(ratios) * len(ss) * (1 + n) for ss in scale_sets for n in (shifts[0], shifts[-1])]
        space = SearchSpace(
            stride_divisors=data.draw(subset(ALLOWED_DIVISORS)), shift_choices=shifts,
            scale_sets=scale_sets, ratios=ratios,
            budget=data.draw(st.integers(min(costs), max(costs))),
        )
        faces = mixed_faces(data.draw(st.integers(1, 40)), seed=data.draw(st.integers(0, 2**32 - 1)),
                            plane=data.draw(st.floats(200.0, 600.0)))
        tau = data.draw(st.floats(0.05, 0.95))
        assert_same_ranking(optimize(space, faces, tau), brute_optimize(space, faces, tau))

    def test_evaluate_config_is_the_one_config_case(self):
        faces = mixed_faces(60, seed=12)
        space = SearchSpace(
            stride_divisors=(2,), shift_choices=(0, 3), scale_sets=((16.0, 64.0),), budget=8,
            ratios=(1.0, 1.5),
        )
        ranked = optimize(space, faces)
        assert sorted(ranked, key=lambda sc: sc.spec.sort_key()) == sorted(
            (evaluate_config(spec, faces) for spec in enumerate_configs(space)),
            key=lambda sc: sc.spec.sort_key(),
        )


class TestKernelCount:
    """One overlap kernel per distinct lattice group and at most one layout per
    (scale, divisor, shift count), however many configs share them."""

    SCALES = ((16.0, 32.0, 64.0, 128.0, 256.0, 512.0),)

    def count_kernels(self, monkeypatch, space):
        calls, layouts = [], []
        kernel, build = optimizer.max_overlap_values, optimizer.build_layout

        def counting(layout, *boxes):
            calls.append(layout.groups)
            return kernel(layout, *boxes)

        def building(spec, *plane):
            layouts.append(spec)
            return build(spec, *plane)

        monkeypatch.setattr(optimizer, "max_overlap_values", counting)
        monkeypatch.setattr(optimizer, "build_layout", building)
        rng = np.random.default_rng(13)
        faces = one_image(rng.uniform(0, 900, 40), rng.uniform(0, 650, 40),
                          np.full(40, 24.0), np.full(40, 30.0))
        scores = optimize(space, faces)
        assert all(len(groups) == 1 for groups in calls)
        keys = {(g.box_w, g.box_h, g.stride, g.origin_x, g.origin_y) for (g,) in calls}
        assert len(keys) == len(calls)
        vectors = {(s, sc.spec.stride_divisor, sc.spec.shift_count(s))
                   for sc in scores for s in sc.spec.scales}
        assert len(layouts) <= len(vectors)
        return len(scores), len(calls), len(vectors)

    def test_wide_space(self, monkeypatch):
        space = SearchSpace(stride_divisors=(1, 2, 4), shift_choices=(0, 1, 3),
                            scale_sets=self.SCALES, budget=12)
        # 6 scales x 3 divisors x 4 sub-lattice origins, for 7,470 groups in
        # total, and 6 x 3 x 3 shift counts against 705 layouts of whole configs.
        assert self.count_kernels(monkeypatch, space) == (705, 72, 54)

    def test_narrow_space(self, monkeypatch):
        space = SearchSpace(stride_divisors=(1, 2), shift_choices=(0, 1, 3),
                            scale_sets=self.SCALES, budget=9)
        assert self.count_kernels(monkeypatch, space) == (96, 48, 36)
