"""Brute-force oracles shared across the test modules.

These deliberately avoid the library's accelerated paths: every quantity
is recomputed from the full anchor enumeration with plain numpy, using the
same elementwise IoU expression, so "identical" comparisons are meaningful
at the bit level.
"""

import numpy as np

from anchorlap.geometry import iou_xywh
from anchorlap.layout import AnchorLayout


def face_arrays(boxes):
    arr = np.array([[b.x, b.y, b.w, b.h] for b in boxes], dtype=np.float64)
    arr = arr.reshape(-1, 4)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def all_pair_ious(layout: AnchorLayout, boxes) -> np.ndarray:
    """(faces, anchors) IoU matrix from the dense anchor dump."""
    anchors = layout.all_boxes()
    fx, fy, fw, fh = face_arrays(boxes)
    return iou_xywh(
        anchors[None, :, 0], anchors[None, :, 1], anchors[None, :, 2], anchors[None, :, 3],
        fx[:, None], fy[:, None], fw[:, None], fh[:, None],
    )


def brute_max_overlap(layout: AnchorLayout, boxes):
    """Exhaustive per-face (max IoU, argmax ID); ID -1 when nothing overlaps."""
    ious = all_pair_ious(layout, boxes)
    best = ious.max(axis=1)
    best_id = np.where(best > 0.0, ious.argmax(axis=1), -1)
    return best, best_id


def brute_labels(layout: AnchorLayout, boxes, t_high: float, t_low: float):
    """Exhaustive anchor labeling: 1 positive, 0 negative, -1 ignore."""
    labels = np.zeros(layout.anchor_count, dtype=np.int8)
    if not boxes:
        return labels
    ious = all_pair_ious(layout, boxes)
    per_anchor = ious.max(axis=0)
    labels[per_anchor >= t_low] = -1
    labels[per_anchor >= t_high] = 1
    best = ious.max(axis=1)
    for f in range(len(boxes)):
        if best[f] > 0.0:
            labels[int(ious[f].argmax())] = 1
    return labels


def brute_top_n(layout: AnchorLayout, box, n: int):
    """Top-n anchor IDs for one face by IoU, ties to the lower ID, IoU > 0 only."""
    ious = all_pair_ious(layout, [box])[0]
    order = np.lexsort((np.arange(len(ious)), -ious))
    top = [int(a) for a in order if ious[a] > 0.0][:n]
    return top


def brute_match(layout: AnchorLayout, boxes, cfg):
    """Exhaustive ``match_faces`` and ``compensate_hard_faces`` from the dense
    IoU matrix: ``(matched, compensated)``, compensated None when hc_n is 0.

    Every rule is read straight off the matrix: a face's argmax is the lowest
    ID at its max, an anchor's source the lowest face index at its max.
    """
    from anchorlap.matching import MatchResult, apply_jitter, jitter_offset_bound

    boxes = [boxes[i] for i in range(len(boxes))]
    offset = (0, 0)
    if cfg.jitter and boxes:
        moved, offset = apply_jitter(boxes, jitter_offset_bound(layout), cfg.jitter_seed)
        boxes = [moved[i] for i in range(len(moved))]
    ious = all_pair_ious(layout, boxes) if boxes else np.zeros((0, layout.anchor_count))
    face_max = ious.max(axis=1)
    face_argmax = np.where(face_max > 0.0, ious.argmax(axis=1), -1)
    anchor_best = ious.max(axis=0) if boxes else np.zeros(layout.anchor_count)
    anchor_face = np.where(anchor_best > 0.0, ious.argmax(axis=0) if boxes else -1, -1)
    labels = np.zeros(layout.anchor_count, dtype=np.int8)
    labels[anchor_best >= cfg.t_low] = -1
    labels[anchor_best >= cfg.t_high] = 1
    labels[face_argmax[face_max > 0.0]] = 1
    source = np.where(labels == 1, anchor_face, -1)
    assigned = [
        np.union1d(np.flatnonzero(ious[f] >= cfg.t_high), face_argmax[f : f + 1][face_max[f : f + 1] > 0.0])
        for f in range(len(boxes))
    ]
    matched = MatchResult(face_max, face_argmax, tuple(assigned), labels, source, offset)
    if cfg.hc_n == 0:
        return matched, None

    labels, source = labels.copy(), source.copy()
    for f in np.flatnonzero(face_max < cfg.t_high):
        overlap = np.flatnonzero(ious[f] > 0.0)
        top = overlap[np.lexsort((overlap, -ious[f, overlap]))][: cfg.hc_n]
        fresh = top[labels[top] != 1]
        labels[fresh] = 1
        source[fresh] = f
        assigned[f] = np.union1d(assigned[f], top)
    return matched, MatchResult(face_max, face_argmax, tuple(assigned), labels, source, offset)


def assert_same_match(got, want):
    """Field-by-field ``==`` (values and dtypes) of two MatchResults."""
    for name in ("face_max_iou", "face_argmax", "anchor_labels", "anchor_source"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(got.face_assigned) == len(want.face_assigned)
    for f, (a, b) in enumerate(zip(got.face_assigned, want.face_assigned)):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"face_assigned[{f}]"
    assert got.jitter_offset == want.jitter_offset


def random_spec(rng, scale_pool=(8.0, 12.0, 16.0, 24.0, 32.0)):
    """A random small AnchorSpec for equivalence sweeps."""
    from anchorlap.layout import AnchorSpec

    k = int(rng.integers(1, 3))
    scales = sorted(rng.choice(scale_pool, size=k, replace=False).tolist())
    shifts = {}
    for s in scales:
        n = int(rng.choice([0, 1, 3]))
        if n:
            shifts[s] = n
    return AnchorSpec(
        scales=tuple(scales),
        base_stride=16.0,
        stride_divisor=int(rng.choice([1, 2, 4])),
        shifts_per_scale=shifts,
    )


def brute_optimize(space, faces, tau=0.5):
    """Rank every config by a full ``build_layout`` + ``bucket_stats`` scan each."""
    from anchorlap.dataset import bounding_plane, bucket_stats
    from anchorlap.layout import build_layout
    from anchorlap.optimizer import ConfigScore, enumerate_configs

    plane_w, plane_h = bounding_plane(faces)
    scores = []
    for spec in enumerate_configs(space):
        report = bucket_stats(faces, build_layout(spec, plane_w, plane_h), edges=(), tau=tau)
        scores.append(ConfigScore(spec, report.mean_max_iou[0], report.recall[0],
                                  spec.anchors_per_location))
    scores.sort(key=lambda sc: (-sc.objective, sc.anchors_per_location, sc.spec.sort_key()))
    return scores
