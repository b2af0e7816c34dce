"""Anchor-face matching: max-IoU assignment, thresholds, jitter, compensation.

The assignment rules: an anchor is positive when it is some face's
argmax-IoU anchor or its IoU with any face reaches ``t_high``; negative
when its IoU with every face stays below ``t_low``; ignored in between.
Faces whose best IoU falls short of ``t_high`` are "hard" and can be
compensated by force-assigning their top-N overlapping anchors.

All heavy paths here are exact accelerations: results are defined to be
identical to an exhaustive faces-by-anchors scan, and the test suite holds
them to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import FaceTable, RectBox, iou_xywh
from .layout import AnchorLayout, LatticeGroup, candidate_ids, effective_anchor_stride
from .rng import stream

__all__ = [
    "LABEL_POSITIVE",
    "LABEL_NEGATIVE",
    "LABEL_IGNORE",
    "MatchConfig",
    "MatchResult",
    "match_faces",
    "compensate_hard_faces",
    "apply_jitter",
    "max_overlap",
    "max_overlap_values",
    "overlapping_anchors",
    "jitter_offset_bound",
]

LABEL_POSITIVE = 1
LABEL_NEGATIVE = 0
LABEL_IGNORE = -1


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds and knobs for the matching pipeline.

    ``t_low`` has no canonical value in the anchor-matching lineage this
    follows; 0.3 is the customary region-proposal default and is settable.
    ``hc_n = 0`` disables hard-face compensation.
    """

    t_high: float = 0.5
    t_low: float = 0.3
    hc_n: int = 5
    jitter: bool = False
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.t_low <= self.t_high < 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 < t_low <= t_high < 1, got t_low={self.t_low!r} t_high={self.t_high!r}"
            )
        if self.hc_n < 0:
            raise ValueError(f"hc_n must be >= 0, got {self.hc_n!r}")
        if self.jitter_seed < 0:
            raise ValueError(f"jitter_seed must be non-negative, got {self.jitter_seed!r}")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching a set of faces against one anchor layout.

    Per face: the max IoU over every anchor, the argmax anchor ID (-1 for a
    face overlapping no anchor at all), and the sorted IDs of its assigned
    anchors.  Per anchor: a label (1 positive, 0 negative, -1 ignore) and,
    for positives, the index of the face that owns the assignment: the
    max-IoU face for threshold/argmax positives, the compensated face for
    anchors promoted by hard-face compensation.  ``jitter_offset`` is the
    translation applied to the faces before matching, (0, 0) when jitter
    was off.
    """

    face_max_iou: np.ndarray
    face_argmax: np.ndarray
    face_assigned: tuple[np.ndarray, ...]
    anchor_labels: np.ndarray
    anchor_source: np.ndarray
    jitter_offset: tuple[int, int]

    @property
    def num_faces(self) -> int:
        return len(self.face_max_iou)

    def label_counts(self) -> dict[str, int]:
        labels = self.anchor_labels
        return {
            "positive": int(np.count_nonzero(labels == LABEL_POSITIVE)),
            "negative": int(np.count_nonzero(labels == LABEL_NEGATIVE)),
            "ignore": int(np.count_nonzero(labels == LABEL_IGNORE)),
        }

    def hard_faces(self, t_high: float) -> np.ndarray:
        """Indices of faces whose max IoU is below ``t_high``."""
        return np.flatnonzero(self.face_max_iou < t_high)


def _group_candidate_iou(group: LatticeGroup, ids: np.ndarray, x, y, w, h):
    """IoU of each face with its row of candidate anchors in ``ids`` (faces x candidates)."""
    offset = ids - group.id_start
    col = offset % group.cols
    row = offset // group.cols
    acx = group.origin_x + col * group.stride
    acy = group.origin_y + row * group.stride
    ax = acx - group.box_w / 2.0
    ay = acy - group.box_h / 2.0
    return iou_xywh(ax, ay, group.box_w, group.box_h, x[:, None], y[:, None], w[:, None], h[:, None])


def _broadcast_boxes(x, y, w, h):
    return np.broadcast_arrays(
        np.atleast_1d(np.asarray(x, dtype=np.float64)),
        np.asarray(y, dtype=np.float64),
        np.asarray(w, dtype=np.float64),
        np.asarray(h, dtype=np.float64),
    )


def max_overlap_values(layout: AnchorLayout, x, y, w, h) -> np.ndarray:
    """Per-box max IoU over *all* anchors of the layout.

    ``x, y, w, h`` are box coordinates, broadcast together.  For each
    lattice group only the anchors on the corners of the cell enclosing
    the box center are evaluated.  Per-axis overlap never grows with
    center distance, so a corner anchor always attains the group maximum
    and the result equals an exhaustive scan bit for bit.  Boxes
    overlapping no anchor get 0.
    """
    x, y, w, h = _broadcast_boxes(x, y, w, h)
    cx = x + w / 2.0
    cy = y + h / 2.0
    best = np.zeros(x.shape, dtype=np.float64)
    for group in layout.groups:
        ids = candidate_ids(group, cx, cy)
        ious = _group_candidate_iou(group, ids, x, y, w, h)
        np.maximum(best, ious.max(axis=-1), out=best)
    return best


def max_overlap(layout: AnchorLayout, x, y, w, h):
    """Like :func:`max_overlap_values`, plus lowest-ID argmax anchor IDs.

    A corner anchor attains the max value, but when several anchors tie
    (commonly: a large anchor fully containing a small box keeps the same
    IoU across a run of lattice positions) the lowest-ID maximizer may sit
    outside the corner set.  This scans each box's full overlap window for
    anchors whose IoU equals the max, so the returned ID is exactly the
    first maximizer an exhaustive ascending-ID scan would keep.  Boxes
    overlapping no anchor get ID -1.
    """
    x, y, w, h = _broadcast_boxes(x, y, w, h)
    best = max_overlap_values(layout, x, y, w, h)
    best_id = np.full(best.shape, -1, dtype=np.int64)
    for i in np.flatnonzero(best > 0.0):
        ids, ious = overlapping_anchors(layout, RectBox(x[i], y[i], w[i], h[i]))
        best_id[i] = _argmax_id(ids, ious, best[i])
    return best, best_id


def _argmax_id(ids: np.ndarray, ious: np.ndarray, best: float) -> int:
    """Lowest ID whose IoU equals ``best``, as an ascending-ID scan keeps; -1 if 0."""
    return int(ids[ious == best].min()) if best > 0.0 else -1


def _overlap_window(group: LatticeGroup, box: RectBox):
    """IDs and IoUs of every anchor in ``group`` that can overlap ``box``.

    The window is conservative (it may include zero-IoU anchors on its rim)
    but never misses an overlapping anchor.
    """
    half_w = (box.w + group.box_w) / 2.0
    half_h = (box.h + group.box_h) / 2.0
    c_lo = max(0, int(math.floor((box.cx - half_w - group.origin_x) / group.stride)))
    c_hi = min(group.cols - 1, int(math.ceil((box.cx + half_w - group.origin_x) / group.stride)))
    r_lo = max(0, int(math.floor((box.cy - half_h - group.origin_y) / group.stride)))
    r_hi = min(group.rows - 1, int(math.ceil((box.cy + half_h - group.origin_y) / group.stride)))
    if c_lo > c_hi or r_lo > r_hi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    cols = np.arange(c_lo, c_hi + 1, dtype=np.int64)
    rows = np.arange(r_lo, r_hi + 1, dtype=np.int64)
    ids = (group.id_start + rows[:, None] * group.cols + cols[None, :]).ravel()
    acx = group.origin_x + cols * group.stride
    acy = group.origin_y + rows * group.stride
    ax = (acx - group.box_w / 2.0)[None, :]
    ay = (acy - group.box_h / 2.0)[:, None]
    ious = iou_xywh(ax, ay, group.box_w, group.box_h, box.x, box.y, box.w, box.h)
    return ids, ious.ravel()


def overlapping_anchors(layout: AnchorLayout, box: RectBox):
    """All anchors with positive IoU against ``box``: (ids, ious), ID-sorted."""
    id_parts = []
    iou_parts = []
    for group in layout.groups:
        ids, ious = _overlap_window(group, box)
        keep = ious > 0.0
        if keep.any():
            id_parts.append(ids[keep])
            iou_parts.append(ious[keep])
    if not id_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return np.concatenate(id_parts), np.concatenate(iou_parts)


def jitter_offset_bound(layout: AnchorLayout) -> float:
    """Stride governing the jitter offset range: the smallest effective
    anchor stride across the layout's scales."""
    return min(effective_anchor_stride(layout.spec, s) for s in layout.spec.scales)


def apply_jitter(
    faces: FaceTable | Sequence[RectBox],
    anchor_stride: float,
    seed: int,
    stream_index: int = 0,
) -> tuple[FaceTable, tuple[int, int]]:
    """Translate every face by one shared random integer offset.

    The offset components are drawn independently and uniformly from
    ``{0, 1, ..., floor(anchor_stride/2) - 1}`` (x first, then y), which
    spans one period of the overlap pattern.  Face sizes and relative
    positions are untouched.  Deterministic for a given (seed,
    stream_index).
    """
    if anchor_stride < 2:
        raise ValueError(f"anchor_stride must be >= 2 to jitter, got {anchor_stride!r}")
    bound = int(math.floor(anchor_stride / 2.0))
    rng = stream(seed, stream_index)
    dx = int(rng.integers(0, bound))
    dy = int(rng.integers(0, bound))
    return FaceTable.of(faces).translated(dx, dy), (dx, dy)


def match_faces(
    faces: FaceTable | Sequence[RectBox], layout: AnchorLayout, cfg: MatchConfig
) -> MatchResult:
    """Assign faces to anchors and label every anchor.

    Per-face max IoU and argmax come from the accelerated candidate path
    and equal an exhaustive scan exactly.  An empty face list labels all
    anchors negative.  When ``cfg.jitter`` is set, faces are first shifted
    by a shared random offset whose range follows the smallest effective
    anchor stride in the layout.
    """
    if layout.anchor_count == 0:
        raise ValueError("layout holds no anchors")
    offset = (0, 0)
    faces = FaceTable.of(faces)
    if cfg.jitter and faces:
        faces, offset = apply_jitter(faces, jitter_offset_bound(layout), cfg.jitter_seed)

    n_faces = len(faces)
    labels = np.full(layout.anchor_count, LABEL_NEGATIVE, dtype=np.int8)
    source = np.full(layout.anchor_count, -1, dtype=np.int64)
    face_max = max_overlap_values(layout, faces.x, faces.y, faces.w, faces.h)
    face_argmax = np.full(n_faces, -1, dtype=np.int64)

    anchor_best = np.zeros(layout.anchor_count, dtype=np.float64)
    anchor_best_face = np.full(layout.anchor_count, -1, dtype=np.int64)
    assigned: list[np.ndarray] = []
    for f in range(n_faces):
        ids, ious = overlapping_anchors(layout, faces[f])
        face_argmax[f] = _argmax_id(ids, ious, face_max[f])
        better = ious > anchor_best[ids]
        anchor_best[ids[better]] = ious[better]
        anchor_best_face[ids[better]] = f
        assigned.append(ids[ious >= cfg.t_high])

    labels[anchor_best >= cfg.t_low] = LABEL_IGNORE
    labels[anchor_best >= cfg.t_high] = LABEL_POSITIVE
    for f in range(n_faces):
        if face_max[f] > 0.0:
            labels[face_argmax[f]] = LABEL_POSITIVE
            if face_argmax[f] not in assigned[f]:
                assigned[f] = np.append(assigned[f], face_argmax[f])
        assigned[f] = np.unique(assigned[f])
    source[labels == LABEL_POSITIVE] = anchor_best_face[labels == LABEL_POSITIVE]

    return MatchResult(
        face_max_iou=face_max,
        face_argmax=face_argmax,
        face_assigned=tuple(assigned),
        anchor_labels=labels,
        anchor_source=source,
        jitter_offset=offset,
    )


def compensate_hard_faces(
    result: MatchResult,
    faces: FaceTable | Sequence[RectBox],
    layout: AnchorLayout,
    cfg: MatchConfig,
) -> MatchResult:
    """Force-assign each hard face its top-N overlapping anchors.

    A face is hard when its max IoU is below ``cfg.t_high``.  Its anchors
    are ranked by IoU (ties to the lower ID) and the best ``cfg.hc_n`` with
    positive IoU become positive for it.  Existing positives are never
    demoted or re-sourced, and non-hard faces are untouched.  ``faces``
    must be the same faces that produced ``result``; the recorded jitter
    offset is re-applied internally.
    """
    if cfg.hc_n < 1:
        raise ValueError(f"compensation needs hc_n >= 1, got {cfg.hc_n!r}")
    faces = FaceTable.of(faces)
    if result.num_faces != len(faces):
        raise ValueError(
            f"result covers {result.num_faces} faces but {len(faces)} were given"
        )
    dx, dy = result.jitter_offset
    if dx or dy:
        faces = faces.translated(dx, dy)

    labels = result.anchor_labels.copy()
    source = result.anchor_source.copy()
    assigned = list(result.face_assigned)
    for f in np.flatnonzero(result.face_max_iou < cfg.t_high):
        ids, ious = overlapping_anchors(layout, faces[f])
        if len(ids) == 0:
            continue
        order = np.lexsort((ids, -ious))
        top = ids[order[: cfg.hc_n]]
        fresh = top[labels[top] != LABEL_POSITIVE]
        labels[fresh] = LABEL_POSITIVE
        source[fresh] = f
        assigned[f] = np.unique(np.concatenate([assigned[f], top]))
    return MatchResult(
        face_max_iou=result.face_max_iou,
        face_argmax=result.face_argmax,
        face_assigned=tuple(assigned),
        anchor_labels=labels,
        anchor_source=source,
        jitter_offset=result.jitter_offset,
    )
