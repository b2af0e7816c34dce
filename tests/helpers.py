"""Brute-force oracles shared across the test modules.

These deliberately avoid the library's accelerated paths: every quantity
is recomputed from the full anchor enumeration with plain numpy, using the
same elementwise IoU expression, so "identical" comparisons are meaningful
at the bit level.  The ``corner_*`` functions are the four-corner overlap
kernel the library used before its per-axis one, kept as a reference, and
``emo_exact`` is the EMO integral in closed form, whose integrand is
``iou_offset_square``.  ``group_of``,
``anchor_center``, ``anchor_box``, ``groups_for_scale``, ``hard_faces``,
``label_counts``, ``face_lines``, ``max_overlap`` and
``save_spec`` are lookups and writers that only the tests need.
``per_line_parse`` is the listing parser as it was before its batch
conversion, the oracle the batch parser must reproduce.  ``render_reference`` is the
CSV and JSON text the CLI's chunked renderer must reproduce.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np

from anchorlap.dataset import (DEFAULT_BUCKET_EDGES, AnnotationError, JitterReport, ParsedAnnotations,
                               bucket_stats)
from anchorlap.geometry import FaceTable, RectBox, iou_from_overlaps, iou_xywh, valid_boxes
from anchorlap.layout import AnchorLayout, AnchorSpec, LatticeGroup
from anchorlap.matching import (
    LABEL_IGNORE,
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    MatchConfig,
    MatchResult,
    _NONE,
    _flat_boxes,
    _keep_best,
    _scan,
    apply_jitter,
    max_overlap_values,
)
from anchorlap.specfile import spec_to_dict


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


def max_overlap(layout: AnchorLayout, x, y, w, h):
    """Per-box max IoU and lowest-ID argmax anchor ID, as ``match_faces``
    finds them.

    The per-axis kernel's value is the IoU of a real anchor, so each box's
    pairs at or above it (``_scan`` with it as floor) hold the box's max.
    When several anchors tie (commonly: a large anchor fully containing a
    small box keeps the same IoU across a run of lattice positions) the
    lowest-ID maximizer may sit outside the enclosing cell's corners.  The
    pairs are folded by ``_keep_best``, the lowest-index-at-max rule.
    Boxes overlapping no anchor get max 0 and ID -1.  Both results have
    the broadcast shape of the coordinates.
    """
    (x, y, w, h), shape = _flat_boxes(x, y, w, h)
    kernel = max_overlap_values(layout, x, y, w, h)
    w, h = np.broadcast_to(w, x.shape), np.broadcast_to(h, x.shape)  # a 0-d size, per box
    live = np.flatnonzero(kernel > 0.0)
    best = np.zeros(kernel.shape)
    best_id = np.full(kernel.shape, _NONE, dtype=np.int64)
    for boxes, ids, ious in _scan(layout, x[live], y[live], w[live], h[live], kernel[live]):
        _keep_best(best, best_id, live[boxes], ious, ids)
    best_id[best_id == _NONE] = -1
    return best.reshape(shape), best_id.reshape(shape)


def face_lines(parsed) -> int:
    """Face lines a parse read: the kept faces plus the skipped ones."""
    return len(parsed.records) + parsed.skipped


def _is_zero_box_line(line: str) -> bool:
    tokens = line.split()
    if len(tokens) < 4:
        return False
    try:
        return all(float(t) == 0.0 for t in tokens[:4])
    except ValueError:
        return False


def per_line_parse(source) -> ParsedAnnotations:
    """``parse_annotations`` as it once was: one line at a time, each face
    line split and converted as it is read, the first error raised where
    it is met."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)  # lines end where a text-mode file's do
    lines = [ln.rstrip("\r\n") for ln in source]
    n = len(lines)
    rows: list[tuple[float, float, float, float]] = []
    image: list[int] = []
    image_index: dict[str, int] = {}
    skipped = 0
    i = 0
    while i < n:
        path = lines[i].strip()
        i += 1
        if not path:
            continue
        if i >= n:
            raise AnnotationError(n, f"expected a face count after {path!r}, got end of file")
        count_text = lines[i].strip()
        i += 1
        try:
            count = int(count_text)
        except ValueError:
            raise AnnotationError(i, f"expected an integer face count, got {count_text!r}") from None
        if count < 0:
            raise AnnotationError(i, f"face count must be >= 0, got {count}")
        index = image_index.setdefault(path, len(image_index))
        if count == 0:
            if i < n and _is_zero_box_line(lines[i]):
                skipped += 1
                i += 1
            continue
        for k in range(count):
            if i >= n:
                raise AnnotationError(
                    n, f"{path!r} declares {count} faces but the listing ends after {k}"
                )
            text = lines[i]
            i += 1
            tokens = text.split()
            if len(tokens) < 4:
                raise AnnotationError(i, f"face line needs at least 4 numbers, got {text!r}")
            try:
                rows.append(tuple(float(t) for t in tokens[:4]))
            except ValueError:
                raise AnnotationError(i, f"non-numeric face coordinates in {text!r}") from None
            image.append(index)
    cols = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    keep = valid_boxes(*cols)
    records = FaceTable(*cols[:, keep], np.array(image, dtype=np.int64)[keep], tuple(image_index))
    return ParsedAnnotations(records=records, skipped=skipped + len(rows) - len(records))


def save_spec(spec: AnchorSpec, path: str) -> None:
    """Write ``spec`` as sorted, indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def group_of(layout: AnchorLayout, anchor_id: int) -> LatticeGroup:
    """The lattice group holding ``anchor_id``; ValueError when out of range."""
    return layout.groups[int(layout.locate(anchor_id)[0])]


def anchor_center(layout: AnchorLayout, anchor_id: int) -> tuple[float, float]:
    _, cx, cy = layout.locate(anchor_id)
    return float(cx), float(cy)


def anchor_box(layout: AnchorLayout, anchor_id: int) -> RectBox:
    return RectBox(*map(float, layout.boxes(anchor_id)))


def groups_for_scale(layout: AnchorLayout, scale: float) -> tuple[LatticeGroup, ...]:
    if scale not in layout.spec.scales:
        raise ValueError(f"unknown scale {scale!r}; layout has {layout.spec.scales}")
    return tuple(g for g in layout.groups if g.scale == scale)


def hard_faces(result, t_high: float) -> np.ndarray:
    """Indices of the faces of a MatchResult whose max IoU is below ``t_high``."""
    return np.flatnonzero(result.face_max_iou < t_high)


def label_counts(result) -> dict[str, int]:
    """Anchors per label of a MatchResult."""
    labels = result.anchor_labels
    return {
        "positive": int(np.count_nonzero(labels == LABEL_POSITIVE)),
        "negative": int(np.count_nonzero(labels == LABEL_NEGATIVE)),
        "ignore": int(np.count_nonzero(labels == LABEL_IGNORE)),
    }


def bracket(values: np.ndarray, origin: float, stride: float, n: int):
    """Indices of the two grid lines bracketing each value, clamped to the grid."""
    raw = np.floor((values - origin) / stride).astype(np.int64)
    lo = np.clip(raw, 0, n - 1)
    hi = np.clip(raw + 1, 0, n - 1)
    return lo, hi


def candidate_ids(group: LatticeGroup, px, py) -> np.ndarray:
    """Anchor IDs at the corners of the group cell(s) enclosing each point.

    Returns an ``(n_points, 4)`` array, corners in the order (row_lo,
    col_lo), (row_lo, col_hi), (row_hi, col_lo), (row_hi, col_hi); entries
    repeat where clamping at the plane edge collapses the bracket.  For any
    box centered at the point, some corner anchor attains the group's
    maximum IoU.
    """
    px = np.atleast_1d(np.asarray(px, dtype=np.float64))
    py = np.atleast_1d(np.asarray(py, dtype=np.float64))
    col_lo, col_hi = bracket(px, group.origin_x, group.stride, group.cols)
    row_lo, row_hi = bracket(py, group.origin_y, group.stride, group.rows)
    rows = group.id_start + np.stack([row_lo, row_lo, row_hi, row_hi], axis=1) * group.cols
    return rows + np.stack([col_lo, col_hi, col_lo, col_hi], axis=1)


def nearest_centers(layout: AnchorLayout, px: float, py: float, scale: float) -> np.ndarray:
    """Sorted unique IDs of the corner anchors of ``scale`` (every ratio and
    sub-lattice) around the point ``(px, py)``."""
    groups = groups_for_scale(layout, scale)
    return np.unique(np.concatenate([candidate_ids(g, px, py).ravel() for g in groups]))


def corner_ious(layout: AnchorLayout, x, y, w, h):
    """Per group: the four full IoUs of each box (1-D arrays) with the
    corner anchors around its center, ``(ids, ious)`` both (boxes, 4)."""
    cx = x + w / 2.0
    cy = y + h / 2.0
    for g in layout.groups:
        ids = candidate_ids(g, cx, cy)
        ious = iou_xywh(*layout.boxes(ids), x[:, None], y[:, None], w[:, None], h[:, None])
        yield ids, ious


def corner_max_overlap(layout: AnchorLayout, x, y, w, h) -> np.ndarray:
    """The four-corner kernel: per-box max over every group's corner IoUs."""
    best = np.zeros(len(x))
    for _, ious in corner_ious(layout, x, y, w, h):
        np.maximum(best, ious.max(axis=1), out=best)
    return best


def corner_nth_iou(layout: AnchorLayout, x, y, w, h, n: int) -> np.ndarray:
    """The ``n``-th best corner IoU per box, each distinct corner anchor once,
    0 when fewer than ``n`` corners exist."""
    parts = []
    for ids, ious in corner_ious(layout, x, y, w, h):
        for j in range(1, 4):
            ious[(ids[:, j : j + 1] == ids[:, :j]).any(axis=1), j] = 0.0
        parts.append(ious)
    corners = np.concatenate(parts, axis=1)
    if corners.shape[1] < n:
        return np.zeros(len(x))
    return np.partition(corners, -n, axis=1)[:, -n]


def brute_labels(layout: AnchorLayout, boxes, t_high: float, t_low: float):
    """Exhaustive anchor labeling: 1 positive, 0 negative, -1 ignore."""
    return brute_match(layout, boxes, MatchConfig(t_high, t_low, 0))[0].anchor_labels


def brute_top_n(layout: AnchorLayout, box, n: int):
    """Top-n anchor IDs for one face by IoU, ties to the lower ID, IoU > 0 only."""
    ious = all_pair_ious(layout, [box])[0]
    order = np.lexsort((np.arange(len(ious)), -ious))
    return [int(a) for a in order if ious[a] > 0.0][:n]


def brute_match(layout: AnchorLayout, boxes, cfg):
    """Exhaustive ``match_faces`` and ``compensate_hard_faces`` from the dense
    IoU matrix: ``(matched, compensated)``, compensated None when hc_n is 0.

    Assigned anchors are a dense faces-by-anchors mask, counted per face.
    Every rule is read straight off the matrix: a face's argmax is the lowest
    ID at its max, an anchor's source the lowest face index at its max.
    """
    boxes = [boxes[i] for i in range(len(boxes))]
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
    assigned = ious >= cfg.t_high
    assigned[np.flatnonzero(face_max > 0.0), face_argmax[face_max > 0.0]] = True
    count = np.count_nonzero(assigned, axis=1).astype(np.int64)
    matched = MatchResult(face_max, face_argmax, count, labels, source)
    if cfg.hc_n == 0:
        return matched, None

    labels, source = labels.copy(), source.copy()
    for f in np.flatnonzero(face_max < cfg.t_high):
        overlap = np.flatnonzero(ious[f] > 0.0)
        top = overlap[np.lexsort((overlap, -ious[f, overlap]))][: cfg.hc_n]
        fresh = top[labels[top] != 1]
        labels[fresh] = 1
        source[fresh] = f
        assigned[f, top] = True
    count = np.count_nonzero(assigned, axis=1).astype(np.int64)
    return matched, MatchResult(face_max, face_argmax, count, labels, source)


def assert_same_match(got, want):
    """``==`` (values and dtypes) of two MatchResults, on every dataclass field."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


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


def brute_jitter(faces, layout: AnchorLayout, trials: int, seed: int,
                 edges=DEFAULT_BUCKET_EDGES, tau: float = 0.5) -> JitterReport:
    """``jitter_experiment`` with one full ``bucket_stats`` per trial, whether
    or not an earlier trial drew the same offset."""
    faces = FaceTable.of(faces)
    per_trial = []
    offsets = set()
    for t in range(trials):
        shifted, offset = apply_jitter(faces, layout, seed, stream_index=t)
        offsets.add(offset)
        per_trial.append(bucket_stats(shifted, layout, edges, tau))
    counts = per_trial[0].counts
    per_bucket = list(zip(*(r.mean_max_iou for r in per_trial)))

    def over_trials(reduce):
        return tuple(float(reduce(v)) if c else math.nan for c, v in zip(counts, per_bucket))

    return JitterReport(
        edges=per_trial[0].edges,
        counts=counts,
        mean_of_means=over_trials(np.mean),
        min_mean=over_trials(np.min),
        max_mean=over_trials(np.max),
        distinct_offsets=len(offsets),
    )


def iou_offset_square(side, dx, dy):
    """IoU of two ``side x side`` squares whose centers differ by ``(dx, dy)``.

    This is the closed form for one period of the overlap pattern between a
    square face and its matched same-size anchor:

        (side - dx)(side - dy) / (2*side^2 - (side - dx)(side - dy))

    computed by :func:`iou_from_overlaps` on the overlaps ``side - dx`` and
    ``side - dy``.  Arguments broadcast like any numpy expression; scalar
    inputs produce a Python float.  Offsets must satisfy ``0 <= dx, dy <
    side`` (the squares still overlap); anything else is rejected.
    """
    if not np.all((side > 0) & np.isfinite(side)):
        raise ValueError(f"side must be positive and finite, got {side!r}")
    if not np.all((0 <= dx) & (dx < side) & (0 <= dy) & (dy < side)):
        raise ValueError(
            f"offsets must lie in [0, side): got dx={dx!r} dy={dy!r} for side={side!r}"
        )
    return iou_from_overlaps(side - dx, side - dy, 2.0 * (side * side))


def brute_optimize(space, faces, tau=0.5):
    """Rank every config by a full ``build_layout`` + ``bucket_stats`` scan each."""
    from anchorlap.dataset import bounding_plane
    from anchorlap.layout import build_layout
    from anchorlap.optimizer import ConfigScore, enumerate_configs

    plane_w, plane_h = bounding_plane(faces)
    scores = []
    for spec in enumerate_configs(space):
        report = bucket_stats(faces, build_layout(spec, plane_w, plane_h), edges=(), tau=tau)
        scores.append(ConfigScore(spec, report.mean_max_iou[0], report.recall[0]))
    scores.sort(key=lambda sc: (-sc.objective, sc.spec.anchors_per_location, sc.spec.sort_key()))
    return scores


def dilog(z: float) -> float:
    """The dilogarithm Li2(z) = sum z^k / k^2 for 0 <= z <= 1/2, where 80
    terms leave an error below 2^-80."""
    return math.fsum(z**k / (k * k) for k in range(1, 81))


def emo_exact(side: float, stride: float) -> float:
    """EMO of a ``side`` square face against equal anchors on a plain
    ``stride`` lattice, in closed form, for ``stride / 2 < side``.

    The mean of the single-period IoU over the quarter period integrates
    exactly in dilogarithms: with h = stride/2 and a = side - h,
    EMO = (2 side^2 (Li2(1/2) - 2 Li2(a / 2side) + Li2(a^2 / 2side^2)) - h^2) / h^2.
    """
    h = stride / 2.0
    a = side - h
    sq = side * side
    return (2.0 * sq * (dilog(0.5) - 2.0 * dilog(a / (2.0 * side)) + dilog(a * a / (2.0 * sq)))
            - h * h) / (h * h)


def render_reference(columns, fmt):
    """A ``{name: values}`` table as ``csv.writer`` writes it (``\\n`` line
    ends, floats to 9 significant digits) or as ``json.dumps(indent=2,
    sort_keys=True)`` of one dict per row (floats rounded the same way,
    ``None`` when not finite), plus ``\\n``."""
    def cell(v):
        return f"{v:.9g}" if isinstance(v, float) else str(v)

    def value(v):
        if isinstance(v, float):
            return float(f"{v:.9g}") if math.isfinite(v) else None
        return v

    names = list(columns)
    rows = list(zip(*(list(c.tolist() if isinstance(c, np.ndarray) else c)
                      for c in columns.values())))
    if fmt == "json":
        data = [{k: value(v) for k, v in zip(names, row)} for row in rows]
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buf.getvalue()
