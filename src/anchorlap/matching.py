"""Anchor-face matching: max-IoU assignment, thresholds, jitter, compensation.

The assignment rules: an anchor is positive when it is some face's
argmax-IoU anchor or its IoU with any face reaches ``t_high``; negative
when its IoU with every face stays below ``t_low``; ignored in between.
Faces whose best IoU falls short of ``t_high`` are "hard" and can be
compensated by force-assigning their top-N overlapping anchors.

All heavy paths here are exact accelerations: results are defined to be
identical to an exhaustive faces-by-anchors scan, and the test suite holds
them to that.  The per-axis cell-corner kernel (:func:`max_overlap_values`)
takes the grid lines bracketing each box center from the lattice rule, so
its cost follows the boxes and groups, not the plane.  It can fall a few
ulps short of the exhaustive maximum for anchors of non-dyadic sides (see
there); ``match_faces`` only takes its floor from it.  Its pairs come
from one stream of flat ``(boxes, ids, ious)`` pairs (:func:`_scan`):
each (face, anchor) pair of positive IoU at or above the face's floor,
once, evaluated per block of whole windows as one ragged run of pairs,
one overlap per window column and row.  ``match_faces`` streams each face
down to ``t_high``, or its kernel value where lower, for the maxima,
argmaxes, counts, positives and sources, through one lowest-index-at-max
fold, and marks the ignore band by runs of anchor IDs
(:func:`_ignore_band`).  An argmax anchor below ``t_high`` takes its owner
by the same rule from the faces reaching it at ``t_low``, else from all
faces whose x extent meets its own: every other has IoU 0 with it.
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
    can be), and their shape.  A 0-d size, one value for every box, stays
    0-d."""
    x, y, w, h = (np.asarray(v, dtype=np.float64) for v in (np.atleast_1d(x), y, w, h))
    shape = np.broadcast(x, y, w, h).shape
    def flat(v):
        return (v if v.shape == shape else np.broadcast_to(v, shape)).reshape(-1)
    return [flat(x), flat(y), *(v if v.ndim == 0 else flat(v) for v in (w, h))], shape


# Boxes per pass of the overlap kernel.  Its scratch buffers, allocated
# once per call, then stay in cache and are reused from block to block.
_KERNEL_BLOCK = 16384

# Offsets of the two grid lines bracketing a box center from the one below it.
_BRACKET = np.array([[0.0], [1.0]])


def _axis_overlaps(origin: float, stride: float, n: int, side: float, lo, hi, center, out, edge, below) -> None:
    """Write into the two rows of ``out`` the overlaps of the box extents
    ``[lo, hi]`` with the anchors of side ``side`` on the lines ``k =
    clip(below + [0, 1], 0, n - 1)`` of the ``n`` grid lines ``origin + k *
    stride``, where ``below = floor((center - origin) / stride)`` is each
    box center's line below it, left in ``below``.  These are the two lines
    bracketing the center, or one line twice where the center lies past the
    plane edge.  Left edges are ``(k * stride + origin) - side / 2``, bit
    for bit the lattice rule of :class:`~anchorlap.layout.LatticeGroup`;
    right edges add ``side``.  ``edge`` is ``(2, m)`` scratch: nothing here
    grows with ``n``."""
    np.subtract(center, origin, out=below)
    np.divide(below, stride, out=below)
    np.floor(below, out=below)
    np.add(below, _BRACKET, out=out)
    np.clip(out, 0.0, n - 1.0, out=out)
    np.multiply(out, stride, out=out)
    np.add(out, origin, out=out)
    np.subtract(out, side / 2.0, out=out)
    np.add(out, side, out=edge)
    np.minimum(edge, hi, out=edge)
    np.maximum(out, lo, out=out)
    np.subtract(edge, out, out=out)


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
    Each group's origin, stride, line counts and sides are read off
    ``layout.groups`` and the two lines per axis come from the lattice rule
    (:func:`_axis_overlaps`), so the work and memory of a call grow with
    the boxes and the groups, never with the plane.  Boxes go in blocks of
    ``_KERNEL_BLOCK`` through scratch buffers allocated once per call.  A
    0-d ``w`` or ``h``, one size for every box as ``emo_monte_carlo``
    passes, stays a float: far edges ``x + w``, centers ``x + w * 0.5`` and
    each group's union term ``w * h + aw * ah`` take it, so no per-box
    size, half-size or area is built (sizes given per box make theirs per
    block).  The first group's IoUs go straight into the result, as every
    IoU is at least +0.0 for positive sides, and each later group's keep
    the larger.  A C-contiguous float64 ``out`` of the result's shape is
    overwritten, whatever it held, and returned.  For an anchor side that
    is not dyadic, a column off the corners can score a few ulps higher:
    ``(ax + aw) - ax`` rounds differently per column while the box holds
    the anchor whole along x (likewise for rows).  The value is still the
    IoU of a real corner anchor, so never above the exhaustive maximum;
    ``match_faces`` reads its maxima off the scanned pairs, so the caveat
    does not reach it.
    """
    (x, y, w, h), shape = _flat_boxes(x, y, w, h)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    best = out.reshape(-1)
    if not layout.groups:
        best.fill(0.0)
    size = max(1, min(len(best), _KERNEL_BLOCK))
    scratch, pairs = np.empty((5, size)), np.empty((3, 2, size))
    for start in range(0, len(best), size):
        part = slice(start, start + size)
        bx, by, top = x[part], y[part], best[part]
        bw, bh = (v if v.ndim == 0 else v[part] for v in (w, h))
        x2, y2, cx, cy, tmp = scratch[:, : len(top)]
        at_x, at_y, edge = pairs[:, :, : len(top)]
        iw, ih = at_x[0], at_y[0]
        np.add(bx, bw, out=x2)
        np.add(by, bh, out=y2)
        np.add(bx, bw * 0.5, out=cx)
        np.add(by, bh * 0.5, out=cy)
        area = bw * bh
        for k, g in enumerate(layout.groups):
            _axis_overlaps(g.origin_x, g.stride, g.cols, g.box_w, bx, x2, cx, at_x, edge, tmp)
            np.maximum(iw, at_x[1], out=iw)
            np.maximum(iw, 0.0, out=iw)
            _axis_overlaps(g.origin_y, g.stride, g.rows, g.box_h, by, y2, cy, at_y, edge, tmp)
            np.maximum(ih, at_y[1], out=ih)
            np.maximum(ih, 0.0, out=ih)
            np.multiply(iw, ih, out=iw)
            np.subtract(area + g.box_w * g.box_h, iw, out=ih)
            np.maximum(ih, iw, out=ih)
            if k:
                np.maximum(top, np.divide(iw, ih, out=iw), out=top)
            else:
                np.divide(iw, ih, out=top)
    return out


# IoU pairs in one streamed block of the window scan, give or take one
# window; each per-pair temporary of a block is one array of that length.
_BLOCK_PAIRS = 1 << 15

# Candidate pairs per chunk of the owner search (:func:`_best_faces`).  Its
# temporaries, a dozen arrays of this size, are then small enough for the
# allocator to reuse rather than map afresh: on the crowd-small bench
# corpus 32,768-pair chunks took about twice as long.
_OWNER_PAIRS = 1 << 13

# Relative slack on the least intersection an anchor needs to reach an IoU
# floor, so that rounding in the bound never drops an anchor whose computed
# IoU sits exactly on the floor.
_SLACK = 1.0 - 1e-6

# Start value of a lowest-index fold: above every index.
_NONE = np.iinfo(np.int64).max

# Sliding strides of face width up to which a face's band pairs are streamed,
# not marked by runs: its windows span few columns, cheaper than run checks.
_RUN_STRIDES = 8


def _ragged(starts, counts):
    """``starts[i] + arange(counts[i])`` for every ``i``, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _reach(g, cx, cy, w, h, gain):
    """The boxes that can reach their floor in group ``g`` (see :func:`_scan`),
    and the first and last column and row of each one's window there."""
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
    return (live, *(v[live].astype(np.int64) for v in (c0, c1, r0, r1)))


def _scan(layout: AnchorLayout, x, y, w, h, floor):
    """Stream the (box, anchor) pairs of positive IoU at or above each box's
    ``floor[i]`` as flat ``(boxes, ids, ious)`` blocks: box ``boxes[k]`` has
    IoU ``ious[k]`` with anchor ``ids[k]``.  Each such pair comes exactly
    once, and each box's IDs ascend across the whole stream: the groups go
    in ``layout.groups`` order, whose ID ranges ascend, and each window row
    by row.  Per lattice group, each box's window is cut to the anchors able
    to reach its floor.

    The bound: an IoU of at least ``t`` needs an intersection of at least
    ``t * (A_anchor + A_box) / (1 + t)``.  The overlap along y is at most
    ``min(h_anchor, h_box)``, so the x overlap must be at least that area
    over it; and the x overlap is at most ``min(w_anchor, w_box, (w_anchor
    + w_box)/2 - |dx|)``, which bounds the center offset ``dx``.  The same
    holds with the axes swapped.  A group drops out for a box when the
    least overlap exceeds the smaller side.  Windows are widened one cell
    against rounding.

    A group's windows go in blocks of whole windows, cut where the running
    pair count passes a multiple of ``_BLOCK_PAIRS``.  A block computes the
    x overlap once per window column and the y overlap once per window row,
    with the lattice rule's anchor edges, and each pair's IoU from its
    column's and row's overlaps, the bits of ``iou_xywh``; only the pairs
    reaching the floor get an anchor ID.
    """
    x2, y2 = x + w, y + h
    cx = x + w / 2.0
    cy = y + h / 2.0
    gain = floor / (1.0 + floor) * _SLACK
    # A floor of 0 admits only positive IoUs: the least positive float.
    least = np.maximum(floor, np.nextafter(0.0, 1.0))
    for g in layout.groups:
        live, c0, c1, r0, r1 = _reach(g, cx, cy, w, h, gain)
        ncols, nrows = c1 - c0 + 1, r1 - r0 + 1
        cuts = np.flatnonzero(np.diff(np.cumsum(ncols * nrows) // _BLOCK_PAIRS)) + 1
        areas = g.box_w * g.box_h + w * h
        for f, first_col, nc, first_row, nr in zip(*(np.split(v, cuts) for v in (live, c0, ncols, r0, nrows))):
            if not len(f):
                continue
            col, row = _ragged(first_col, nc), _ragged(first_row, nr)
            ax = (g.origin_x + col * g.stride) - g.box_w / 2.0
            ay = (g.origin_y + row * g.stride) - g.box_h / 2.0
            fc, fr = f.repeat(nc), f.repeat(nr)
            iw = np.minimum(ax + g.box_w, x2[fc]) - np.maximum(ax, x[fc])
            ih = np.minimum(ay + g.box_h, y2[fr]) - np.maximum(ay, y[fr])
            # The pairs, row by row through each window: ``pc`` indexes each
            # one's column, and each row's values repeat over its columns.
            span = nc.repeat(nr)
            pc = _ragged((np.cumsum(nc) - nc).repeat(nr), span)
            ious = iou_from_overlaps(iw[pc], ih.repeat(span), areas[fr].repeat(span))
            hit = ious >= least[fr].repeat(span)
            # Each row's box and first ID repeat over its hits.
            n = np.add.reduceat(hit, np.cumsum(span) - span, dtype=np.int64)
            yield fr.repeat(n), (g.id_start + row * g.cols).repeat(n) + col[pc[hit]], ious[hit]


def _ignore_band(layout: AnchorLayout, faces: FaceTable, t: float, which, lost, best, owner):
    """The anchors the faces ``which`` reach at IoU ``t`` or above, as a mask,
    and the owner of each anchor in ``lost`` (ascending) by the rule of
    :func:`_best_faces`, given ``best`` and ``owner`` over the other faces.

    Along a window row (:func:`_reach`) the IoU grows with the x overlap,
    which never falls over the ``before`` columns left of the face, never
    rises from ``after``, the first right of it, and between is the plateau
    ``(ax + aw) - ax``, a value of the column alone bounding every column's
    overlap.  So a row holds no column reaching ``t`` if the largest plateau
    value falls short, and one run if the least reaches it, whose estimated
    ends are checked with their neighbours; other rows whose face holds
    plateau columns, and rows failing a check, go pair by pair.  Runs are
    merged by counting; those covering a lost anchor hold its owner.
    """
    cover = np.zeros(layout.anchor_count + 1, dtype=np.int64)  # runs begun less runs ended, per anchor
    x, y, w, h = (col[which] for col in (faces.x, faces.y, faces.w, faces.h))
    cx, cy, lost_boxes = x + w / 2.0, y + h / 2.0, layout.boxes(lost)
    for g in layout.groups if len(which) else ():
        aw, ah, stride = g.box_w, g.box_h, g.stride
        left = (g.origin_x + np.arange(g.cols) * stride) - aw / 2.0
        plateau = (left + aw) - left
        window = _reach(g, cx, cy, w, h, t / (1.0 + t) * _SLACK)
        # The faces in parts of about a quarter scan block of window rows.
        parts = np.flatnonzero(np.diff(np.cumsum(window[4] - window[3] + 1) // (_BLOCK_PAIRS // 4))) + 1
        for live, c0, c1, r0, r1 in zip(*(np.split(v, parts) for v in window)) if len(window[0]) else ():
            # Per window row: its face (into ``live``) and y overlap.  The rows of a
            # face and y overlap share their columns, found on the first: ``same``.
            n = r1 - r0 + 1
            face = np.repeat(np.arange(len(live)), n)
            row = _ragged(r0, n)
            ay = (g.origin_y + row * stride) - ah / 2.0
            ih = np.minimum(ay + ah, np.repeat((y + h)[live], n)) - np.maximum(ay, np.repeat(y[live], n))
            fresh = (np.diff(face, prepend=-1) != 0) | (np.diff(ih, prepend=np.nan) != 0)
            same = np.cumsum(fresh) - 1
            f, ay, ih = face[fresh], ay[fresh], ih[fresh]
            bx, by, bw, bh = x[live][f], y[live][f], w[live][f], h[live][f]
            before = np.searchsorted(left, x[live])[f]
            after = np.searchsorted(left + aw, (x + w)[live], side="right")[f]
            areas = aw * ah + bw * bh
            rows = iou_from_overlaps(plateau.max(), ih, areas) >= t
            split = rows & (before < after) & (iou_from_overlaps(plateau.min(), ih, areas) < t)
            # Run ends from the x overlap t needs (finite in rows); none if wider than the face.
            need = t * areas / ((1.0 + t) * np.where(rows, ih, 1.0))
            short, at = ~rows | (need > bw), (bx - aw / 2.0 - g.origin_x) / stride
            first = np.where(short, before, np.clip(np.ceil(at + need / stride), 0, before))
            stop = np.where(short, after, np.clip(np.floor(at + (bw + aw - need) / stride) + 1, after, g.cols))
            first, stop = first.astype(np.int64), stop.astype(np.int64)

            def reach(c, j=slice(None)):
                return iou_xywh(left.take(c, mode="clip"), ay[j], aw, ah, bx[j], by[j], bw[j], bh[j]) >= t
            ok = reach(np.stack((first - 1, first, stop - 1, stop)))
            split |= rows & ((ok[0] & (first > 0)) | (~ok[1] & (first < before))
                             | (~ok[2] & (stop > after)) | (ok[3] & (stop < g.cols)))
            k = np.flatnonzero(split[same])
            span = (c1 - c0 + 1)[face[k]]
            col = _ragged(c0[face[k]], span)
            k = np.repeat(k, span)
            hit = reach(col, same[k])
            runs = np.flatnonzero((rows & ~split & (first < stop))[same])
            base = g.id_start + row * g.cols
            k = np.concatenate((k[hit], runs))
            first = np.concatenate((base[k[: hit.sum()]] + col[hit], base[runs] + first[same[runs]]))
            last = np.concatenate((first[: hit.sum()], base[runs] + stop[same[runs]] - 1))
            np.add.at(cover, first, 1)
            np.add.at(cover, last + 1, -1)
            lo = np.searchsorted(lost, first)
            n = np.searchsorted(lost, last, side="right") - lo
            j = _ragged(lo, n)
            fk = np.repeat(which[live[face[k]]], n)
            ious = iou_xywh(*(v[j] for v in lost_boxes), faces.x[fk], faces.y[fk], faces.w[fk], faces.h[fk])
            _keep_best(best, owner, j, ious, fk)
    if len(rest := np.flatnonzero(owner == _NONE)):
        owner[rest] = _best_faces(layout, lost[rest], faces)
    return np.cumsum(cover[:-1]) > 0, owner


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
    """For each anchor in ``ids``, each of positive IoU with some face: the
    lowest-index face of max IoU with it over every face, by
    :func:`_keep_best`.

    Only the faces whose x extent can meet the anchor's are evaluated.
    With the faces sorted by left edge, those run from the first whose
    running maximum of computed right edges ``x + w`` passes the anchor's
    left edge to the last whose left edge falls short of the anchor's
    computed right edge.  Every face outside that run has an x overlap of
    at most 0, so IoU exactly 0, and each anchor's max is above 0, so the
    owner is the one a dense pass over all faces finds.  Anchors go in
    chunks of about ``_OWNER_PAIRS`` candidate pairs.
    """
    order = np.argsort(faces.x)  # any order of ties will do
    ax, ay, aw, ah = layout.boxes(ids)
    lo = np.searchsorted(np.maximum.accumulate((faces.x + faces.w)[order]), ax, side="right")
    # Clamped at 0 for anchors and faces whose widths vanish in rounding.
    count = np.maximum(np.searchsorted(faces.x[order], ax + aw, side="left") - lo, 0)
    ends = np.cumsum(count)
    starts = ends - count
    best = np.zeros(len(ids))
    owner = np.full(len(ids), _NONE, dtype=np.int64)
    start = 0
    while start < len(ids):
        stop = max(start + 1, int(np.searchsorted(ends, starts[start] + _OWNER_PAIRS, side="right")))
        k = np.repeat(np.arange(start, stop), count[start:stop])
        face = order[_ragged(lo[start:stop], count[start:stop])]
        ious = iou_xywh(ax[k], ay[k], aw[k], ah[k], faces.x[face], faces.y[face], faces.w[face], faces.h[face])
        _keep_best(best, owner, k, ious, face)
        start = stop
    return owner


def _nth_corner_iou(layout: AnchorLayout, x, y, w, h, n: int) -> np.ndarray:
    """A lower bound on each box's ``n``-th best IoU over distinct anchors:
    the ``n``-th best over the corner anchors of its enclosing cells, each
    corner's IoU the product of its column's and its row's per-axis
    overlap (:func:`_axis_overlaps`).  A line repeated by the clamp at the
    plane edge counts once: the second row's overlap is zeroed where the
    line below the center lies outside ``[0, n - 2]``, an empty corner of
    IoU 0.  0 when fewer than ``n`` corners overlap the box."""
    x2, y2 = x + w, y + h
    cx, cy = x + w / 2.0, y + h / 2.0
    area = w * h
    below, edge = np.empty(len(x)), np.empty((2, len(x)))
    corners = []
    for g in layout.groups:
        iw, ih = np.empty((2, len(x))), np.empty((2, len(x)))
        for at, origin, lines, side, lo, hi, c in ((iw, g.origin_x, g.cols, g.box_w, x, x2, cx),
                                                    (ih, g.origin_y, g.rows, g.box_h, y, y2, cy)):
            _axis_overlaps(origin, g.stride, lines, side, lo, hi, c, at, edge, below)
            at[1][(below < 0.0) | (below > lines - 2.0)] = 0.0
        areas = g.box_w * g.box_h + area
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
    _, ids, ious = _pairs(layout, *one)
    return ids, ious


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

    Per-face max IoU and argmax, assigned counts, positives and sources
    come from one window scan of the anchors each face can lift to
    ``t_high`` or, where lower, to its cell-corner kernel value; the ignore
    band from runs, or from that scan taken down to ``t_low`` for faces at
    most ``_RUN_STRIDES`` sliding strides wide, and for all when ``t_low ==
    t_high``.  All equal an exhaustive scan exactly.  An empty face list
    labels all anchors negative.  Faces are matched where they are; to
    match shifted faces, pass the output of :func:`apply_jitter`.
    """
    if layout.anchor_count == 0:
        raise ValueError("layout holds no anchors")
    faces = FaceTable.of(faces)
    n_faces = len(faces)
    # The IoU of a real anchor, so a lower bound on each face's max.
    kernel = max_overlap_values(layout, faces.x, faces.y, faces.w, faces.h)
    face_max, anchor_best, count = np.zeros(n_faces), np.zeros(layout.anchor_count), np.zeros(n_faces, np.int64)
    face_argmax, anchor_best_face = (np.full(n, _NONE, dtype=np.int64) for n in (n_faces, layout.anchor_count))
    wide = (faces.w > _RUN_STRIDES * min(g.stride for g in layout.groups)) & (cfg.t_low < cfg.t_high)
    floor = np.minimum(np.where(kernel > 0.0, kernel, 1.0), np.where(wide, cfg.t_high, cfg.t_low))
    for boxes, ids, ious in _scan(layout, faces.x, faces.y, faces.w, faces.h, floor):
        top = ious >= kernel[boxes]
        _keep_best(face_max, face_argmax, boxes[top], ious[top], ids[top])
        near = ious >= cfg.t_low
        boxes, ids, ious = boxes[near], ids[near], ious[near]
        _keep_best(anchor_best, anchor_best_face, ids, ious, boxes)
        c = np.bincount(boxes[ious >= cfg.t_high])
        count[: len(c)] += c
    face_argmax[face_argmax == _NONE] = -1

    owned = np.flatnonzero(face_argmax >= 0)
    lost = np.unique(face_argmax[owned])  # argmax anchors, less those a pair at or above t_high owns
    lost = lost[anchor_best[lost] < cfg.t_high]
    band, anchor_best_face[lost] = _ignore_band(layout, faces, cfg.t_low, np.flatnonzero(wide), lost,
                                                anchor_best[lost], anchor_best_face[lost])
    labels = np.full(layout.anchor_count, LABEL_NEGATIVE, dtype=np.int8)
    labels[band | (anchor_best >= cfg.t_low)] = LABEL_IGNORE
    labels[anchor_best >= cfg.t_high] = LABEL_POSITIVE
    labels[face_argmax[owned]] = LABEL_POSITIVE
    # A face's argmax is one of its pairs at or above t_high when its max
    # reaches t_high, and otherwise its one assigned anchor.
    count[(face_max > 0.0) & (face_max < cfg.t_high)] += 1
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
    and ``layout`` must be those that produced ``result``, faces at the
    same positions.  Only the hard faces are scanned, each over the
    anchors that can reach the N-th best IoU of its cell corners, a set
    that holds its exact top N.
    """
    if cfg.hc_n == 0:
        return result
    faces = FaceTable.of(faces)
    if result.num_faces != len(faces):
        raise ValueError(f"result covers {result.num_faces} faces but {len(faces)} were given")
    if len(result.anchor_labels) != layout.anchor_count:
        raise ValueError(f"result covers {len(result.anchor_labels)} anchors but layout has {layout.anchor_count}")
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
