"""Anchor-face matching: max-IoU assignment, thresholds, jitter, compensation.

The assignment rules: an anchor is positive when it is some face's
argmax-IoU anchor or its IoU with any face reaches ``t_high``; negative
when its IoU with every face stays below ``t_low``; ignored in between.
Faces whose best IoU falls short of ``t_high`` are "hard" and can be
compensated by force-assigning their top-N overlapping anchors.

All heavy paths here are exact accelerations: results are defined to be
identical to an exhaustive faces-by-anchors scan, and the test suite holds
them to that.  The per-axis cell-corner kernel (:func:`max_overlap_values`)
can fall a few ulps short of the exhaustive maximum for anchors of
non-dyadic sides (see there); ``match_faces`` only takes its floor from
it.  Its results come from one stream of flat ``(boxes, ids, ious)``
pairs (:func:`_scan`): each (face, anchor) pair of positive IoU at or
above the face's floor, once, evaluated per block in buffers allocated
once per scan and emitted by mask compression.  ``match_faces`` streams
every face down to ``t_low``, or to its kernel value where that is lower,
for the maxima, labels, sources and assigned-anchor counts; one
lowest-index-at-max fold picks each face's max and argmax anchor and each
anchor's max and owner face.  An argmax anchor that no pair at or above
``t_low`` reaches gets its source from all faces.
``compensate_hard_faces`` ranks the hard faces' pairs down to a lower
bound on their N-th best IoU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import FaceTable, RectBox, iou_from_overlaps, iou_xywh
from .layout import AnchorLayout, _integer, _real, effective_anchor_stride
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
    "max_overlap_values",
    "overlapping_anchors",
]

LABEL_POSITIVE = 1
LABEL_NEGATIVE = 0
LABEL_IGNORE = -1


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds and knobs for the matching pipeline.

    ``t_low`` has no canonical value in the anchor-matching lineage this
    follows; 0.3 is the customary region-proposal default and is settable.
    ``match_faces`` never compensates; ``compensate_hard_faces`` does, and
    leaves the result as it is when ``hc_n`` is 0.
    """

    t_high: float = 0.5
    t_low: float = 0.3
    hc_n: int = 5

    def __post_init__(self) -> None:
        object.__setattr__(self, "hc_n", _integer(self.hc_n, "hc_n", 0))
        for name in ("t_high", "t_low"):
            object.__setattr__(self, name, _real(getattr(self, name), name, below=1.0))
        if not self.t_low <= self.t_high:
            raise ValueError(
                f"thresholds must satisfy 0 < t_low <= t_high < 1, got t_low={self.t_low!r} t_high={self.t_high!r}"
            )


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching a set of faces against one anchor layout.

    Per face: the max IoU over every anchor, the argmax anchor ID (-1 for
    a face overlapping none) and the number of anchors assigned to it
    (int64): its anchors of IoU at or above ``t_high`` and its argmax, or,
    for a hard face after compensation, its top N.  Per anchor: a label
    (1 positive, 0 negative, -1 ignore) and, for positives, the index of
    the face that owns the assignment: the max-IoU face for
    threshold/argmax positives, the compensated face for anchors promoted
    by hard-face compensation.
    """

    face_max_iou: np.ndarray
    face_argmax: np.ndarray
    assigned_count: np.ndarray
    anchor_labels: np.ndarray
    anchor_source: np.ndarray

    @property
    def num_faces(self) -> int:
        return len(self.face_max_iou)


def _flat_boxes(x, y, w, h):
    """Box coordinates broadcast together and flattened (views where they
    can be, so a scalar size is never copied out), and their shape."""
    x, y, w, h = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (np.atleast_1d(x), y, w, h)))
    return [v.reshape(-1) for v in (x, y, w, h)], x.shape


# Boxes per pass of the overlap kernel.  Its scratch buffers, allocated
# once per call, then stay in cache and are reused from block to block.
_KERNEL_BLOCK = 16384


def _edge_table(origin: float, stride: float, n: int, side: float):
    """``(origin, stride, n - 1, lower, upper)`` for the anchors of side
    ``side`` on ``n`` grid lines: ``lower`` and ``upper`` are ``(left,
    right)`` edge tables indexed, wrapping, by a box's line index ``i``
    clipped to ``[-1, n-1]``, giving lines ``i`` and ``i + 1``.  Lines -1
    and ``n`` hold an empty anchor, left ``+inf`` and right ``-inf``."""
    left = np.full(n + 1, np.inf)
    left[:n] = (origin + np.arange(n) * stride) - side / 2.0
    right = left + side
    right[n] = -np.inf
    upper = (np.concatenate((left[1:], left[:1])), np.concatenate((right[1:], right[:1])))
    return origin, stride, n - 1.0, (left, right), upper


def _edge_tables(layout: AnchorLayout):
    """Per lattice group: its x and y edge tables and its anchor area."""
    return [(_edge_table(g.origin_x, g.stride, g.cols, g.box_w),
             _edge_table(g.origin_y, g.stride, g.rows, g.box_h), g.box_w * g.box_h)
            for g in layout.groups]


def _axis_overlaps(table, lo, hi, center, at_lo, at_hi, tmp, idx) -> None:
    """Write into ``at_lo`` and ``at_hi`` the overlaps of the box extents
    ``[lo, hi]`` with the anchors on the two grid lines (:func:`_edge_table`)
    bracketing each box ``center``, ``-inf`` for an empty anchor, so a line
    repeated by clamping at the plane edge never counts twice.  ``tmp`` and
    ``idx`` are scratch."""
    origin, stride, last, *edges = table
    np.subtract(center, origin, out=tmp)
    np.divide(tmp, stride, out=tmp)
    np.floor(tmp, out=tmp)
    np.clip(tmp, -1.0, last, out=tmp)
    idx[...] = tmp
    for out, (left, right) in zip((at_lo, at_hi), edges):
        right.take(idx, out=out, mode="wrap")
        np.minimum(out, hi, out=out)
        left.take(idx, out=tmp, mode="wrap")
        np.maximum(tmp, lo, out=tmp)
        np.subtract(out, tmp, out=out)


def max_overlap_values(layout: AnchorLayout, x, y, w, h, out=None) -> np.ndarray:
    """Per-box max IoU over *all* anchors of the layout; 0 for boxes
    overlapping none.

    ``x, y, w, h`` (finite, sizes positive) broadcast together, and the
    result keeps their shape (at least 1-D).  Per lattice group only the
    corners of the cell around the box center count, as per-axis overlap
    never grows with center distance.  A corner's x overlap depends only on
    its column and its y overlap only on its row, and IoU never decreases
    as either grows, so the best corner's IoU, bit for bit, is built from
    the larger x overlap of the two columns and the larger y overlap of the
    two rows, each clamped at 0, as ``inter / max(areas - inter, inter)``.
    Boxes go in blocks of ``_KERNEL_BLOCK`` through scratch buffers
    allocated once per call.  A C-contiguous float64 ``out`` of the
    result's shape is overwritten, whatever it held, and returned.  For an
    anchor side that is not dyadic, a column off the corners can score a
    few ulps higher: ``(ax + aw) - ax`` rounds differently per column while
    the box holds the anchor whole along x (likewise for rows).  The value
    is still the IoU of a real corner anchor, so never above the exhaustive
    maximum; ``match_faces`` reads its maxima off the scanned pairs, so the
    caveat does not reach it.
    """
    (x, y, w, h), shape = _flat_boxes(x, y, w, h)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    best = out.reshape(-1)
    best.fill(0.0)
    tables = _edge_tables(layout)
    size = max(1, min(len(best), _KERNEL_BLOCK))
    scratch = np.empty((9, size))
    index = np.empty(size, dtype=np.intp)
    for start in range(0, len(best), size):
        part = slice(start, start + size)
        bx, by, bw, bh, top = x[part], y[part], w[part], h[part], best[part]
        x2, y2, cx, cy, area, iw, ih, at_hi, tmp = scratch[:, : len(top)]
        idx = index[: len(top)]
        np.add(bx, bw, out=x2)
        np.add(by, bh, out=y2)
        np.add(bx, np.divide(bw, 2.0, out=cx), out=cx)
        np.add(by, np.divide(bh, 2.0, out=cy), out=cy)
        np.multiply(bw, bh, out=area)
        for table_x, table_y, anchor_area in tables:
            _axis_overlaps(table_x, bx, x2, cx, iw, at_hi, tmp, idx)
            np.maximum(iw, at_hi, out=iw)
            np.maximum(iw, 0.0, out=iw)
            _axis_overlaps(table_y, by, y2, cy, ih, at_hi, tmp, idx)
            np.maximum(ih, at_hi, out=ih)
            np.maximum(ih, 0.0, out=ih)
            np.multiply(iw, ih, out=iw)
            np.add(area, anchor_area, out=ih)
            np.subtract(ih, iw, out=ih)
            np.maximum(ih, iw, out=ih)
            np.divide(iw, ih, out=iw)
            np.maximum(top, iw, out=top)
    return out


# IoU pairs in one streamed block of the window scan.  Its IoUs, hit mask
# and anchor IDs go into buffers of this size, allocated once per scan; the
# IoU rule allocates one more float64 array, and the hits are copied out.
_BLOCK_PAIRS = 1 << 15

# Relative slack on the least intersection an anchor needs to reach an IoU
# floor, so that rounding in the bound never drops an anchor whose computed
# IoU sits exactly on the floor.
_SLACK = 1.0 - 1e-6

# Start value of a lowest-index fold: above every index.
_NONE = np.iinfo(np.int64).max


def _size_class(n: np.ndarray) -> np.ndarray:
    """``n`` rounded up to one of four window extents per octave, so that
    boxes with similar windows share a block."""
    step = np.left_shift(1, np.maximum(np.floor(np.log2(np.maximum(n, 1))).astype(np.int64) - 2, 0))
    return -(-n // step) * step


def _scan(layout: AnchorLayout, x, y, w, h, floor):
    """Stream the (box, anchor) pairs of positive IoU at or above each box's
    ``floor[i]`` as flat ``(boxes, ids, ious)`` blocks: box ``boxes[k]`` has
    IoU ``ious[k]`` with anchor ``ids[k]``.  Each such pair comes exactly
    once, and each box's IDs ascend within a block.  Per lattice group,
    each box's window is cut to the anchors able to reach its floor.

    The bound: an IoU of at least ``t`` needs an intersection of at least
    ``t * (A_anchor + A_box) / (1 + t)``.  The overlap along y is at most
    ``min(h_anchor, h_box)``, so the x overlap must be at least that area
    over it; and the x overlap is at most ``min(w_anchor, w_box, (w_anchor
    + w_box)/2 - |dx|)``, which bounds the center offset ``dx``.  The same
    holds with the axes swapped.  A group drops out for a box when the
    least overlap exceeds the smaller side.
    Windows are widened one cell against rounding, then padded to a size
    class (and shifted to stay inside the group) so that boxes of similar
    windows share one broadcast IoU evaluation, ``iw`` per column times
    ``ih`` per row.

    A block's IoUs, its hit mask (IoU at or above the box's floor) and the
    anchor ID of each of its window cells, each window's first ID plus a
    per-group ``row * cols + col`` offset table, are written into float,
    bool and int64 buffers allocated once per call and grown only for a
    window larger than ``_BLOCK_PAIRS``.  The hits are then emitted by mask
    compression, IDs and IoUs by ``[hit]`` and boxes by repeating each box
    by its hit count, as fresh arrays, so no block aliases the buffers.
    """
    cx = x + w / 2.0
    cy = y + h / 2.0
    gain = floor / (1.0 + floor) * _SLACK
    # A floor of 0 admits only positive IoUs: the least positive float.
    least = np.maximum(floor, np.nextafter(0.0, 1.0))
    values, hits, anchors = (np.empty(_BLOCK_PAIRS, dtype=t) for t in (np.float64, bool, np.int64))
    for g in layout.groups:
        inter = gain * (g.box_w * g.box_h + w * h)
        span_x = np.minimum(w, g.box_w)
        span_y = np.minimum(h, g.box_h)
        reach_x = (w + g.box_w) / 2.0 - inter / span_y
        reach_y = (h + g.box_h) / 2.0 - inter / span_x
        c0 = np.maximum(np.ceil((cx - reach_x - g.origin_x) / g.stride) - 1.0, 0.0)
        c1 = np.minimum(np.floor((cx + reach_x - g.origin_x) / g.stride) + 1.0, g.cols - 1.0)
        r0 = np.maximum(np.ceil((cy - reach_y - g.origin_y) / g.stride) - 1.0, 0.0)
        r1 = np.minimum(np.floor((cy + reach_y - g.origin_y) / g.stride) + 1.0, g.rows - 1.0)
        live = np.flatnonzero((inter <= span_x * span_y) & (c0 <= c1) & (r0 <= r1))
        if not live.size:
            continue
        c0, c1, r0, r1 = (v[live].astype(np.int64) for v in (c0, c1, r0, r1))
        ncols = np.minimum(_size_class(c1 - c0 + 1), g.cols)
        nrows = np.minimum(_size_class(r1 - r0 + 1), g.rows)
        c0 = np.minimum(c0, g.cols - ncols)
        r0 = np.minimum(r0, g.rows - nrows)
        id0 = g.id_start + r0 * g.cols + c0  # each window's first anchor
        # Each window anchor's ID less the window's first, by row and column.
        offsets = np.arange(nrows.max())[:, None] * g.cols + np.arange(ncols.max())
        shape = nrows * (g.cols + 1) + ncols
        # The boxes of each window shape, in ascending order: runs of a stable sort.
        order = np.argsort(shape, kind="stable")
        shape = shape[order]
        ends = [*np.flatnonzero(shape[1:] != shape[:-1]) + 1, len(order)]
        for start, end in zip([0, *ends], ends):
            run = order[start:end]
            nr, nc = divmod(int(shape[start]), g.cols + 1)
            size = nr * nc
            step = max(1, _BLOCK_PAIRS // size)
            if size > len(values):  # one window over a block
                values, hits, anchors = (np.empty(size, dtype=t) for t in (np.float64, bool, np.int64))
            offset = offsets[:nr, :nc]
            for lo in range(0, len(run), step):
                k = run[lo : lo + step]
                f = live[k]
                n = len(k) * size
                ious, hit, ids = values[:n], hits[:n], anchors[:n]
                cols = c0[k, None, None] + np.arange(nc)
                rows = r0[k, None, None] + np.arange(nr)[:, None]
                ax = (g.origin_x + cols * g.stride) - g.box_w / 2.0
                ay = (g.origin_y + rows * g.stride) - g.box_h / 2.0
                iou_xywh(
                    ax, ay, g.box_w, g.box_h,
                    x[f, None, None], y[f, None, None], w[f, None, None], h[f, None, None],
                    out=ious.reshape(len(k), nr, nc),
                )
                by_box = hit.reshape(len(k), size)
                np.greater_equal(ious.reshape(len(k), size), least[f][:, None], out=by_box)
                np.add(id0[k][:, None, None], offset, out=ids.reshape(len(k), nr, nc))
                yield f.repeat(by_box.sum(axis=1)), ids[hit], ious[hit]


def _keep_best(best, owner, keys, values, candidates) -> None:
    """The lowest-index-at-max rule: fold pairs into ``best[keys]``, the max
    of ``values``, and ``owner[keys]``, the least ``candidates`` attaining
    it, which is what a strict ``>`` over candidates in ascending order
    keeps.  It picks both a face's argmax anchor and an anchor's owner."""
    before = best[keys]
    np.maximum.at(best, keys, values)
    after = best[keys]
    owner[keys[after > before]] = _NONE
    top = values == after
    np.minimum.at(owner, keys[top], candidates[top])


def _best_faces(layout: AnchorLayout, ids: np.ndarray, faces: FaceTable) -> np.ndarray:
    """For each anchor in ``ids``: the lowest-index face of max IoU with it,
    over every face."""
    ax, ay, aw, ah = (v[:, None] for v in layout.boxes(ids))
    out = np.empty(len(ids), dtype=np.int64)
    step = max(1, _BLOCK_PAIRS // max(len(faces), 1))
    for lo in range(0, len(ids), step):
        part = slice(lo, lo + step)
        ious = iou_xywh(ax[part], ay[part], aw[part], ah[part],
                        faces.x[None, :], faces.y[None, :], faces.w[None, :], faces.h[None, :])
        out[part] = ious.argmax(axis=1)
    return out


def _nth_corner_iou(layout: AnchorLayout, x, y, w, h, n: int) -> np.ndarray:
    """A lower bound on each box's ``n``-th best IoU over distinct anchors:
    the ``n``-th best over the corner anchors of its enclosing cells, each
    corner's IoU the product of its column's and its row's per-axis
    overlap, with corners repeated by clamping at the plane edge counted
    once (as empty corners of IoU 0).  0 when fewer than ``n`` of them
    overlap the box."""
    x2, y2 = x + w, y + h
    cx, cy = x + w / 2.0, y + h / 2.0
    area = w * h
    tmp, idx = np.empty(len(x)), np.empty(len(x), dtype=np.intp)
    corners = []
    for table_x, table_y, anchor_area in _edge_tables(layout):
        iw, ih = np.empty((2, len(x))), np.empty((2, len(x)))
        _axis_overlaps(table_x, x, x2, cx, *iw, tmp, idx)
        _axis_overlaps(table_y, y, y2, cy, *ih, tmp, idx)
        # Clamped so the -inf edge sentinels never reach ``iw * ih``.
        np.maximum(iw, 0.0, out=iw)
        np.maximum(ih, 0.0, out=ih)
        areas = anchor_area + area
        for row in ih:
            corners.extend(iou_from_overlaps(iw, row, areas))
    if len(corners) < n:
        return np.zeros(len(x))
    return np.partition(np.stack(corners, axis=1), -n, axis=1)[:, -n]


def _pairs(layout: AnchorLayout, x, y, w, h, floor):
    """All of :func:`_scan`'s pairs in three flat arrays."""
    empty = np.empty(0, dtype=np.int64)
    blocks = [(empty, empty, np.empty(0)), *_scan(layout, x, y, w, h, floor)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def overlapping_anchors(layout: AnchorLayout, box: RectBox):
    """All anchors with positive IoU against ``box``: (ids, ious), ID-sorted."""
    one = [np.array([v], dtype=np.float64) for v in (box.x, box.y, box.w, box.h, 0.0)]
    return _pairs(layout, *one)[1:]


def apply_jitter(
    faces: FaceTable | Sequence[RectBox],
    layout: AnchorLayout,
    seed: int,
    stream_index: int = 0,
) -> tuple[FaceTable, tuple[int, int]]:
    """Translate every face by one shared random integer offset.

    With ``b`` the smallest effective anchor stride over the layout's
    scales, the offset components are drawn independently and uniformly
    from ``{0, 1, ..., floor(b/2) - 1}`` (x first, then y), which spans one
    period of the overlap pattern.  A ``b`` below 2 leaves no offset to
    draw and raises ``ValueError``.  Face sizes and relative positions are
    untouched.  Deterministic for a given (seed, stream_index).
    """
    (dx, dy), = _jitter_offsets(layout, seed, (stream_index,))
    return FaceTable.of(faces).translated(dx, dy), (dx, dy)


def _jitter_offsets(layout: AnchorLayout, seed: int, stream_indices: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The :func:`apply_jitter` offset of each stream index, ``b`` worked out once."""
    b = min(effective_anchor_stride(layout.spec, s) for s in layout.spec.scales)
    if b < 2:
        raise ValueError(f"the smallest effective anchor stride must be >= 2 to jitter, got {b!r}")
    bound = int(math.floor(b / 2.0))
    for index in stream_indices:
        rng = stream(seed, index)
        yield int(rng.integers(0, bound)), int(rng.integers(0, bound))


def match_faces(
    faces: FaceTable | Sequence[RectBox], layout: AnchorLayout, cfg: MatchConfig
) -> MatchResult:
    """Assign faces to anchors and label every anchor.

    Per-face max IoU and argmax, labels, sources and assigned counts come
    from one window scan of the anchors each face can lift to ``t_low``
    or, where lower, to its cell-corner kernel value (see the module
    docstring).  All equal an exhaustive scan exactly.  An empty face
    list labels all anchors negative.  Faces are matched where they are;
    to match shifted faces, pass the output of :func:`apply_jitter`.
    """
    if layout.anchor_count == 0:
        raise ValueError("layout holds no anchors")
    faces = FaceTable.of(faces)
    n_faces = len(faces)
    labels = np.full(layout.anchor_count, LABEL_NEGATIVE, dtype=np.int8)
    # The IoU of a real anchor, so a lower bound on each face's max.
    kernel = max_overlap_values(layout, faces.x, faces.y, faces.w, faces.h)
    face_max = np.zeros(n_faces, dtype=np.float64)
    face_argmax = np.full(n_faces, _NONE, dtype=np.int64)
    anchor_best = np.zeros(layout.anchor_count, dtype=np.float64)
    anchor_best_face = np.full(layout.anchor_count, -1, dtype=np.int64)
    # The faces of the pairs at or above t_high, one entry per pair.
    high_faces = [np.empty(0, dtype=np.int64)]
    floor = np.where(kernel > 0.0, np.minimum(kernel, cfg.t_low), cfg.t_low)
    for boxes, ids, ious in _scan(layout, faces.x, faces.y, faces.w, faces.h, floor):
        top = ious >= kernel[boxes]
        _keep_best(face_max, face_argmax, boxes[top], ious[top], ids[top])
        near = ious >= cfg.t_low
        boxes, ids, ious = boxes[near], ids[near], ious[near]
        _keep_best(anchor_best, anchor_best_face, ids, ious, boxes)
        high_faces.append(boxes[ious >= cfg.t_high])
    face_argmax[face_argmax == _NONE] = -1

    labels[anchor_best >= cfg.t_low] = LABEL_IGNORE
    labels[anchor_best >= cfg.t_high] = LABEL_POSITIVE
    owned = np.flatnonzero(face_argmax >= 0)
    labels[face_argmax[owned]] = LABEL_POSITIVE
    # A face's argmax is one of its pairs at or above t_high when its max
    # reaches t_high, and otherwise its one assigned anchor.
    count = np.bincount(np.concatenate(high_faces), minlength=n_faces)
    count[(face_max > 0.0) & (face_max < cfg.t_high)] += 1
    # An argmax anchor no pair at or above t_low reached: its owner may be
    # any face, so it is found over all of them.
    lost = face_argmax[owned]
    lost = np.unique(lost[anchor_best_face[lost] < 0])
    anchor_best_face[lost] = _best_faces(layout, lost, faces)
    source = np.where(labels == LABEL_POSITIVE, anchor_best_face, -1)
    return MatchResult(face_max_iou=face_max, face_argmax=face_argmax, assigned_count=count,
                       anchor_labels=labels, anchor_source=source)


def compensate_hard_faces(
    result: MatchResult,
    faces: FaceTable | Sequence[RectBox],
    layout: AnchorLayout,
    cfg: MatchConfig,
) -> MatchResult:
    """Force-assign each hard face its top-N overlapping anchors; ``result``
    itself when ``cfg.hc_n`` is 0.

    A face is hard when its max IoU is below ``cfg.t_high``.  Its anchors
    are ranked by IoU (ties to the lower ID) and the best ``cfg.hc_n`` with
    positive IoU become positive for it.  Existing positives are never
    demoted or re-sourced, and non-hard faces are untouched.  ``faces``
    must be the same faces, at the same positions, that produced
    ``result``.  Only the hard faces are scanned, each over the anchors
    that can reach the N-th best IoU of its cell corners, a set that holds
    its exact top N.
    """
    if cfg.hc_n == 0:
        return result
    faces = FaceTable.of(faces)
    if result.num_faces != len(faces):
        raise ValueError(f"result covers {result.num_faces} faces but {len(faces)} were given")
    hard = np.flatnonzero(result.face_max_iou < cfg.t_high)
    x, y, w, h = (col[hard] for col in (faces.x, faces.y, faces.w, faces.h))
    # Every anchor of a face's top N reaches its N-th best IoU, which is at
    # least the N-th best over its cell corners.
    floor = _nth_corner_iou(layout, x, y, w, h, cfg.hc_n)
    pos, ids, vals = _pairs(layout, x, y, w, h, floor)
    order = np.lexsort((ids, -vals, pos))
    pos, ids = pos[order], ids[order]
    top = np.arange(len(pos)) - np.searchsorted(pos, pos) < cfg.hc_n
    pos, ids = pos[top], ids[top]

    labels = result.anchor_labels.copy()
    source = result.anchor_source.copy()
    # Faces are promoted in ascending order and never re-source a positive,
    # so a fresh anchor goes to the first hard face listing it.
    fresh, first = np.unique(ids, return_index=True)
    keep = labels[fresh] != LABEL_POSITIVE
    labels[fresh[keep]] = LABEL_POSITIVE
    source[fresh[keep]] = hard[pos[first[keep]]]
    # A hard face's argmax leads its top N, so its top N is all it holds.
    count = result.assigned_count.copy()
    count[hard] = np.bincount(pos, minlength=len(hard))
    return replace(result, assigned_count=count, anchor_labels=labels, anchor_source=source)
