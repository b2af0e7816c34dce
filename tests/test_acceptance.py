"""Acceptance gate: ten executable guarantees for the anchor-overlap library.

Each test pins one end-to-end claim at a fixed tolerance and prints a
single pass line on success; a failing assertion means the corresponding
guarantee is broken.  Tolerances and corpus sizes are deliberate and
should not be loosened to make a red test green.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from anchorlap.cli import main as cli_main
from anchorlap.emo import EmoQuery, emo_closed_form, emo_monte_carlo
from anchorlap.geometry import RectBox, iou
from anchorlap.layout import (
    AnchorSpec,
    build_layout,
    covering_radius,
    effective_anchor_stride,
)
from anchorlap.matching import (
    LABEL_POSITIVE,
    MatchConfig,
    apply_jitter,
    compensate_hard_faces,
    match_faces,
    max_overlap_values,
    overlapping_anchors,
)
from anchorlap.dataset import bucket_bounds, bucket_stats

from helpers import (
    assigned_of,
    brute_labels,
    brute_max_overlap,
    brute_top_n,
    dilog,
    emo_exact,
    groups_for_scale,
    hard_faces,
    iou_offset_square,
    random_spec,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "emo_golden.json").read_text()
)["values"]

SCALES = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0)
STRIDES = (4.0, 8.0, 16.0)


def _pass(num: int, title: str) -> None:
    print(f"acceptance criterion {num:02d} [{title}]: PASS")


def closed(side, stride, cells=512):
    return emo_closed_form(
        EmoQuery(face_side=side, anchor_stride=stride, quadrature_cells=cells)
    ).value


def single_scale(side, stride, plane):
    return build_layout(AnchorSpec(scales=(side,), base_stride=stride), plane, plane)


def test_criterion_01_offset_iou_matches_generic_rectangle_iou():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        side = float(rng.uniform(1.0, 512.0))
        dx = float(rng.uniform(0.0, side))
        dy = float(rng.uniform(0.0, side))
        fast = iou_offset_square(side, dx, dy)
        ref = iou(RectBox(0.0, 0.0, side, side), RectBox(dx, dy, side, side))
        worst = max(worst, abs(fast - ref) / ref)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"relative error {worst:.3e} exceeds 1e-12"
    assert elapsed < 1.0, f"10^4 comparisons took {elapsed:.2f}s (budget 1s)"
    _pass(1, "single-period IoU equals generic rectangle IoU to 1e-12")


def test_criterion_02_quadrature_agrees_with_monte_carlo_and_goldens():
    start = time.perf_counter()
    for side in SCALES:
        for stride in STRIDES:
            value = closed(side, stride)
            layout = single_scale(side, stride, 8.0 * stride)
            est = emo_monte_carlo([(layout, side, side)], samples=1_000_000, seed=991)[0]
            gap = abs(value - est.value)
            assert gap <= 3.0 * est.std_error, (
                f"EMO({side:g},{stride:g}): quadrature {value:.8f} vs MC "
                f"{est.value:.8f} differ by {gap:.2e} > 3se={3 * est.std_error:.2e}"
            )
            golden = GOLDEN[f"{side:g}x{stride:g}"]
            assert abs(value - golden) <= 1e-5, (
                f"EMO({side:g},{stride:g}): {value!r} vs frozen oracle {golden!r}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"18-cell sweep took {elapsed:.1f}s (budget 30s)"
    _pass(2, "512^2-cell quadrature matches 10^6-sample MC and frozen oracle values")


def test_criterion_02_dilogarithm_oracle_agrees_with_goldens_and_quadrature():
    # An oracle that is not itself a quadrature: the EMO integral in closed form.
    assert abs(dilog(0.5) - (math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0)) <= 1e-15
    for side in SCALES:
        for stride in STRIDES:
            exact = emo_exact(side, stride)
            golden = GOLDEN[f"{side:g}x{stride:g}"]
            assert abs(exact - golden) <= 2e-9, f"EMO({side:g},{stride:g}): {exact!r} vs {golden!r}"
            value = closed(side, stride)
            assert abs(exact - value) <= 1e-7, f"EMO({side:g},{stride:g}): {exact!r} vs {value!r}"
    _pass(2, "dilogarithm closed form matches frozen oracle values and the quadrature")


def test_criterion_03_emo_monotone_in_scale_and_stride():
    by_scale = [closed(side, 16.0) for side in SCALES]
    assert all(a < b for a, b in zip(by_scale, by_scale[1:])), by_scale
    by_stride = [closed(16.0, s) for s in STRIDES]
    assert by_stride[0] > by_stride[1] > by_stride[2], by_stride
    for side in SCALES:
        tiny = closed(side, side / 256.0)
        assert tiny > 0.99, f"EMO({side:g}, {side / 256:g}) = {tiny!r}"
    _pass(3, "EMO rises with face scale, falls with stride, nears 1 as stride shrinks")


def test_criterion_04_stride_halving_lifts_small_faces_only():
    n = 100_000
    rng = np.random.default_rng(2718)
    cx = rng.uniform(64.0, 192.0, size=n)
    cy = rng.uniform(64.0, 192.0, size=n)
    x, y = cx - 8.0, cy - 8.0

    full = single_scale(16.0, 16.0, 256.0)
    halved = build_layout(
        AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=2), 256.0, 256.0
    )
    vals_full = max_overlap_values(full, x, y, 16.0, 16.0)
    vals_half = max_overlap_values(halved, x, y, 16.0, 16.0)

    se_full = float(np.std(vals_full, ddof=1)) / math.sqrt(n)
    se_half = float(np.std(vals_half, ddof=1)) / math.sqrt(n)
    emo_16 = closed(16.0, 16.0)
    emo_8 = closed(16.0, 8.0)
    assert abs(vals_full.mean() - emo_16) <= 3.0 * se_full
    assert abs(vals_half.mean() - emo_8) <= 3.0 * se_half
    separation = (vals_half.mean() - vals_full.mean()) / math.hypot(se_full, se_half)
    assert separation >= 10.0, f"means separated by only {separation:.1f} sigma"

    # large faces ride along to show the halving leaves their buckets alone
    faces = [RectBox(float(a), float(b), 16.0, 16.0) for a, b in zip(x[:500], y[:500])]
    big_rng = np.random.default_rng(577)
    for side in (64.0, 128.0, 256.0, 512.0):
        bcx = big_rng.uniform(64.0, 192.0, size=1000)
        bcy = big_rng.uniform(64.0, 192.0, size=1000)
        faces += [
            RectBox(float(a - side / 2), float(b - side / 2), side, side)
            for a, b in zip(bcx, bcy)
        ]
    report_full = bucket_stats(faces, full)
    report_half = bucket_stats(faces, halved)
    for b, lo in enumerate(bucket_bounds(report_full.edges)[0]):
        if lo >= 64.0 and report_full.counts[b] > 0:
            drift = abs(report_half.mean_max_iou[b] - report_full.mean_max_iou[b])
            assert drift < 0.01, f"bucket at {lo:g}px moved by {drift!r}"
    _pass(4, "halving the stride moves small faces to EMO(16,8), large buckets stay put")


def _measured_covering_radius(layout, scale: float, step: float) -> float:
    """Largest nearest-center distance over one interior period, sampled."""
    centers = []
    for g in groups_for_scale(layout, scale):
        idx = np.arange(g.count)
        gx = g.origin_x + (idx % g.cols) * g.stride
        gy = g.origin_y + (idx // g.cols) * g.stride
        centers.append(np.stack([gx, gy], axis=1))
    pts = np.concatenate(centers)
    s = layout.spec.base_stride / layout.spec.stride_divisor
    axis = np.arange(2.0 * s, 3.0 * s + step / 2, step)
    qx, qy = np.meshgrid(axis, axis)
    d2 = (qx.ravel()[:, None] - pts[None, :, 0]) ** 2 + (
        qy.ravel()[:, None] - pts[None, :, 1]
    ) ** 2
    return float(np.sqrt(d2.min(axis=1).max()))


def test_criterion_05_effective_strides_and_covering_radii():
    base = 16.0
    step = 0.0625
    for shifts, factor in ((0, 1.0), (1, 1.0 / math.sqrt(2.0)), (3, 0.5)):
        spec = AnchorSpec(
            scales=(16.0,), base_stride=base,
            shifts_per_scale={16.0: shifts} if shifts else {},
        )
        eff = effective_anchor_stride(spec, 16.0)
        assert eff == pytest.approx(base * factor, rel=1e-12)
        layout = build_layout(spec, 6.0 * base, 6.0 * base)
        analytic = covering_radius(layout, 16.0)
        assert analytic == pytest.approx(eff * math.sqrt(2.0) / 2.0, rel=1e-12)
        measured = _measured_covering_radius(layout, 16.0, step)
        assert abs(measured - analytic) <= step * math.sqrt(2.0), (
            f"shifts={shifts}: measured {measured!r} vs analytic {analytic!r}"
        )
    _pass(5, "effective strides follow s, s/sqrt(2), s/2 and covering radii check out")


def test_criterion_06_matcher_equals_exhaustive_scan():
    rng = np.random.default_rng(31415)
    cfg = MatchConfig()
    for _ in range(200):
        spec = random_spec(rng)
        side = float(rng.integers(40, 129))
        layout = build_layout(spec, side, side)
        n = int(rng.integers(1, 21))
        boxes = [
            RectBox(
                float(rng.uniform(-10.0, side - 4.0)),
                float(rng.uniform(-10.0, side - 4.0)),
                float(rng.uniform(2.0, 40.0)),
                float(rng.uniform(2.0, 40.0)),
            )
            for _ in range(n)
        ]
        res = match_faces(boxes, layout, cfg)
        want_val, want_id = brute_max_overlap(layout, boxes)
        assert np.array_equal(res.face_max_iou, want_val)
        assert np.array_equal(res.face_argmax, want_id)
        assert np.array_equal(
            res.anchor_labels, brute_labels(layout, boxes, cfg.t_high, cfg.t_low)
        )
    _pass(6, "accelerated matcher is bit-identical to the exhaustive scan, 200 instances")


def test_criterion_07_compensation_tops_up_hard_faces():
    layout = single_scale(16.0, 16.0, 256.0)
    cfg = MatchConfig()
    corners = [(16.0 + 32.0 * i, 16.0 + 32.0 * j) for i in range(3) for j in range(3)]
    faces = [RectBox(cx - 8.0, cy - 8.0, 16.0, 16.0) for cx, cy in corners]
    easy_index = len(faces)
    faces.append(RectBox(192.0, 192.0, 16.0, 16.0))  # exactly on an anchor

    base = match_faces(faces, layout, cfg)
    assert hard_faces(base, cfg.t_high).tolist() == list(range(len(corners)))
    res = compensate_hard_faces(base, faces, layout, cfg)

    for f in range(len(corners)):
        ids, _ = overlapping_anchors(layout, faces[f])
        want = min(cfg.hc_n, len(ids))
        owned = np.flatnonzero(
            (res.anchor_source == f) & (res.anchor_labels == LABEL_POSITIVE)
        )
        assert len(owned) == want == 4
        assert sorted(assigned_of(res, f).tolist()) == brute_top_n(layout, faces[f], cfg.hc_n)

    assert np.array_equal(assigned_of(res, easy_index), assigned_of(base, easy_index))
    anchor_of_easy = base.face_argmax[easy_index]
    assert res.anchor_labels[anchor_of_easy] == base.anchor_labels[anchor_of_easy]
    assert res.anchor_source[anchor_of_easy] == easy_index
    touched = np.concatenate([assigned_of(res, f) for f in range(len(corners))])
    untouched = np.setdiff1d(np.arange(layout.anchor_count), touched)
    assert np.array_equal(res.anchor_labels[untouched], base.anchor_labels[untouched])
    _pass(7, "hard faces gain exactly min(5, overlapping) anchors, others untouched")


def test_criterion_08_jitter_uniform_and_beneficial():
    # effective stride 8
    layout = build_layout(AnchorSpec(scales=(16.0,), base_stride=8.0), 64.0, 64.0)
    draws_x = np.empty(100_000, dtype=np.int64)
    draws_y = np.empty(100_000, dtype=np.int64)
    for t in range(draws_x.size):
        _, (dx, dy) = apply_jitter([], layout, seed=6, stream_index=t)
        draws_x[t], draws_y[t] = dx, dy
    for draws in (draws_x, draws_y):
        freq = np.bincount(draws, minlength=4) / draws.size
        assert freq.shape == (4,)
        assert np.all(np.abs(freq - 0.25) <= 0.01), freq

    # exhaustive offsets on corner-pinned faces
    faces = [
        RectBox(8.0 * i - 8.0, 8.0 * j - 8.0, 16.0, 16.0)
        for i in (2, 4) for j in (2, 4)
    ]

    def mean_max(shift_x, shift_y):
        xs = np.array([b.x + shift_x for b in faces])
        ys = np.array([b.y + shift_y for b in faces])
        return float(np.mean(max_overlap_values(layout, xs, ys, 16.0, 16.0)))

    unjittered = mean_max(0, 0)
    assert unjittered == pytest.approx(iou_offset_square(16.0, 4.0, 4.0), rel=1e-12)
    averaged = float(np.mean([mean_max(a, b) for a in range(4) for b in range(4)]))
    assert averaged > unjittered
    _pass(8, "jitter offsets are uniform on {0..3} and raise the corner-pinned mean")


def test_criterion_09_recall_trend_across_scales():
    n = 10_000
    rng = np.random.default_rng(1618)
    cx = rng.uniform(64.0, 192.0, size=n)
    cy = rng.uniform(64.0, 192.0, size=n)
    wide = AnchorSpec(scales=SCALES, base_stride=16.0)
    dense = AnchorSpec(
        scales=SCALES, base_stride=16.0, stride_divisor=2, shifts_per_scale={16.0: 3}
    )
    layout_wide = build_layout(wide, 256.0, 256.0)
    layout_dense = build_layout(dense, 256.0, 256.0)

    def recall(layout, side):
        vals = max_overlap_values(layout, cx - side / 2, cy - side / 2, side, side)
        return float(np.mean(vals >= 0.5))

    huge = recall(layout_wide, 512.0)
    small = recall(layout_wide, 16.0)
    small_dense = recall(layout_dense, 16.0)
    assert huge > 0.999, f"scale-512 recall {huge!r}"
    assert small < huge, f"scale-16 recall {small!r} not below scale-512"
    assert small_dense > small, (
        f"densified recall {small_dense!r} does not improve on {small!r}"
    )
    _pass(9, "recall@0.5 is ~1 at scale 512, lower at 16, and densifying lifts it")


def test_criterion_10_seeded_runs_replay_byte_exact(tmp_path):
    ann = tmp_path / "faces.txt"
    ann.write_text(
        "img/a.jpg\n3\n0 0 16 16\n8 8 16 16\n40 40 100 100\n"
        "img/b.jpg\n1\n24 24 16 16\n"
    )
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scales": [16], "base_stride": 16}))

    runs = [
        ("mc", ["emo", "--scale", "16", "--stride", "16", "--mc",
                "--samples", "50000", "--seed", "11", "--workers", "1"], 3),
        ("stats", ["stats", "--annotations", str(ann), "--spec", str(spec),
                   "--jitter", "--trials", "8", "--seed", "7"], 2),
        ("match", ["match", "--annotations", str(ann), "--spec", str(spec),
                   "--jitter", "--seed", "9"], 2),
    ]
    for name, argv, replay_workers in runs:
        out = tmp_path / f"{name}.csv"
        assert cli_main(argv + ["--out", str(out)]) == 0
        again = tmp_path / f"{name}.again.csv"
        assert cli_main(argv + ["--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes(), f"{name}: rerun differs"

        replayed = tmp_path / f"{name}.replayed.csv"
        code = cli_main([
            "replay", "--manifest", str(out) + ".manifest.json",
            "--out", str(replayed), "--workers", str(replay_workers),
        ])
        assert code == 0, f"{name}: replay exited {code}"
        assert replayed.read_bytes() == out.read_bytes(), f"{name}: replay differs"
    _pass(10, "seeded CLI runs replay byte-for-byte under varying parallelism")
