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
