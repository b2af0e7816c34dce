"""Face-annotation ingestion and anchor-coverage analytics.

Reads the common face-listing format (image path line, face count line,
then one ``x y w h ...`` line per face; extra columns ignored), computes
each face's max IoU against an anchor layout, and aggregates mean max IoU
and recall@tau into scale buckets.  Face scale is sqrt(w*h), so slightly
non-square boxes land in the bucket of their equivalent square.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .geometry import FaceTable, valid_boxes
from .layout import MAX_ANCHORS, AnchorLayout, AnchorSpec, _grid_shape, _integer, _real
from .matching import _jitter_offsets, max_overlap_values

__all__ = [
    "AnnotationError",
    "ListingPlaneError",
    "ParsedAnnotations",
    "parse_annotations",
    "DEFAULT_BUCKET_EDGES",
    "bucket_bounds",
    "ScaleBucketReport",
    "bucket_stats",
    "JitterReport",
    "jitter_experiment",
    "MAX_TRIALS",
    "bounding_plane",
]

# Cap on jitter trials, checked before any is drawn: each costs a draw and a list entry.
MAX_TRIALS = 2**20

# Powers of two spanning the usual face-scale range; buckets are
# [0, 8), [8, 16), ..., [512, inf).
DEFAULT_BUCKET_EDGES = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class AnnotationError(ValueError):
    """Malformed annotation listing; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ListingPlaneError(ValueError):
    """A listing's faces span a plane over the anchor cap for every spec
    asked for, though one of them fits the least plane: the listing, not
    the parameters, is at fault."""


@dataclass(frozen=True)
class ParsedAnnotations:
    """Parse result: the kept faces plus the count of dropped face lines."""

    records: FaceTable
    skipped: int


def _is_zero_box_line(line: str) -> bool:
    tokens = line.split()[:4]
    try:
        return len(tokens) == 4 and all(float(t) == 0.0 for t in tokens)
    except ValueError:
        return False


def parse_annotations(source: str | Iterable[str]) -> ParsedAnnotations:
    """Parse a face listing into a :class:`FaceTable`.

    ``source`` is the listing text or an iterable of lines (an open file
    works).  Groups are [path, count, count face lines]; a count of zero
    may be followed by a single all-zero placeholder line, which is
    consumed and counted as skipped.  Boxes that break the RectBox rule (w
    or h <= 0, an area ``w * h`` outside ``(2**-1000, 2**1000)``, or a non-finite
    coordinate or far edge) are dropped and counted as skipped.  Each path
    gets one entry in ``image_ids``, in order of first appearance.  The
    first structural problem in file order raises :class:`AnnotationError`
    with its line number.  The face lines are converted in one batch.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)  # lines end where a text-mode file's do
    lines = list(source)
    n = len(lines)
    groups: list[tuple[int, int, int]] = []  # (first face line, face lines, image index)
    image_index: dict[str, int] = {}
    skipped = 0
    error = None  # a structural error; the face lines before it are checked first
    i = 0
    try:
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
            groups.append((i, min(count, n - i), index))
            if count > n - i:
                raise AnnotationError(n, f"{path!r} declares {count} faces but the listing ends after {n - i}")
            i += count
    except AnnotationError as exc:
        error = exc
    heads = (ln.split(None, 4)[:4] for ln in chain.from_iterable(lines[s : s + c] for s, c, _ in groups))
    try:  # one batch; a short line leaves the iterator short of 4 tokens a row
        values = np.fromiter(map(float, chain.from_iterable(heads)), np.float64, 4 * sum(c for _, c, _ in groups))
    except ValueError:
        for i in (i for s, c, _ in groups for i in range(s, s + c)):
            head, text = lines[i].split(None, 4)[:4], lines[i].rstrip("\r\n")
            if len(head) < 4:
                raise AnnotationError(i + 1, f"face line needs at least 4 numbers, got {text!r}") from None
            try:
                list(map(float, head))
            except ValueError:
                raise AnnotationError(i + 1, f"non-numeric face coordinates in {text!r}") from None
    if error is not None:
        raise error
    cols = values.reshape(-1, 4).T
    image = np.repeat(np.array([g[2] for g in groups], np.int64), [g[1] for g in groups])
    keep = valid_boxes(*cols)
    records = FaceTable(*cols[:, keep], image[keep], tuple(image_index))
    return ParsedAnnotations(records=records, skipped=skipped + len(values) // 4 - len(records))


@dataclass(frozen=True)
class ScaleBucketReport:
    """Per-scale-bucket coverage statistics.

    ``edges`` are the interior boundaries; ``bucket_bounds(edges)`` gives
    each bucket's [lo, hi).  Empty buckets carry NaN mean and recall.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean_max_iou: tuple[float, ...]
    recall: tuple[float, ...]


def _check_edges(edges: Sequence[float]) -> tuple[float, ...]:
    out = tuple(_real(e, "each bucket edge") for e in edges)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"bucket edges must be strictly increasing, got {out!r}")
    return out


def bucket_bounds(edges: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The ``lo`` and ``hi`` of each [lo, hi) bucket for interior boundaries
    ``edges``: 0 below the first edge, infinity above the last."""
    return (0.0, *edges), (*edges, math.inf)


def bucket_stats(
    faces: FaceTable | Sequence,
    layout: AnchorLayout,
    edges: Sequence[float] = DEFAULT_BUCKET_EDGES,
    tau: float = 0.5,
) -> ScaleBucketReport:
    """Bucketed mean max IoU and recall@tau for ``faces`` against ``layout``.

    An empty ``edges`` lumps everything into a single bucket.
    """
    faces = FaceTable.of(faces)
    if not faces:
        raise ValueError("faces must be non-empty")
    tau = _real(tau, "tau", below=1.0)
    edges = _check_edges(edges)
    max_iou = max_overlap_values(layout, faces.x, faces.y, faces.w, faces.h)
    # Bucket b holds the scales in [lo[b], hi[b]) of ``bucket_bounds(edges)``.
    which = np.searchsorted(np.asarray(edges), faces.scale, side="right")
    per_bucket = [max_iou[which == b] for b in range(len(edges) + 1)]

    def over_faces(stat) -> tuple[float, ...]:
        return tuple(float(stat(v)) / len(v) if len(v) else math.nan for v in per_bucket)

    return ScaleBucketReport(
        edges=edges,
        counts=tuple(len(v) for v in per_bucket),
        mean_max_iou=over_faces(np.sum),
        recall=over_faces(lambda v: np.count_nonzero(v >= tau)),
    )


@dataclass(frozen=True)
class JitterReport:
    """Distribution of per-bucket mean max IoU across jitter trials.

    ``bucket_bounds(edges)`` gives each bucket's [lo, hi).  Counts are
    constant across trials (jitter never changes face sizes); mean/min/max
    summarize the per-trial bucket means.  ``distinct_offsets`` is the
    number of different face offsets the trials drew.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean_of_means: tuple[float, ...]
    min_mean: tuple[float, ...]
    max_mean: tuple[float, ...]
    distinct_offsets: int


def jitter_experiment(
    faces: FaceTable | Sequence,
    layout: AnchorLayout,
    trials: int,
    seed: int,
    edges: Sequence[float] = DEFAULT_BUCKET_EDGES,
    tau: float = 0.5,
) -> JitterReport:
    """Repeat bucket_stats under per-trial random face shifts.

    Trial t draws :func:`apply_jitter`'s offset from the (seed, t) stream,
    so reports are reproducible and independent of evaluation order.
    Offsets take at most ``floor(b/2)**2`` values (``b`` as there), so the
    shifted table is built and the overlap kernel runs once per distinct
    offset, not once per trial; the trials are then reduced in trial order.
    """
    trials = _integer(trials, "trials", 1)
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials are over the cap of {MAX_TRIALS}")
    faces = FaceTable.of(faces)
    by_offset: dict[tuple[int, int], ScaleBucketReport] = {}
    per_trial: list[ScaleBucketReport] = []
    for offset in _jitter_offsets(layout, seed, range(trials)):
        if offset not in by_offset:
            by_offset[offset] = bucket_stats(faces.translated(*offset), layout, edges, tau)
        per_trial.append(by_offset[offset])
    counts = per_trial[0].counts
    per_bucket = list(zip(*(r.mean_max_iou for r in per_trial)))

    def over_trials(reduce) -> tuple[float, ...]:
        return tuple(float(reduce(v)) if c else math.nan for c, v in zip(counts, per_bucket))

    return JitterReport(
        edges=per_trial[0].edges,
        counts=counts,
        mean_of_means=over_trials(np.mean),
        min_mean=over_trials(np.min),
        max_mean=over_trials(np.max),
        distinct_offsets=len(by_offset),
    )


_MIN_PLANE_SIDE = 64.0


def bounding_plane(faces: FaceTable | Sequence) -> tuple[float, float]:
    """Smallest (w, h) plane containing every face, at least ``_MIN_PLANE_SIDE`` a side."""
    faces = FaceTable.of(faces)
    if not faces:
        return _MIN_PLANE_SIDE, _MIN_PLANE_SIDE
    w = max(_MIN_PLANE_SIDE, math.ceil(np.max(faces.x + faces.w)))
    h = max(_MIN_PLANE_SIDE, math.ceil(np.max(faces.y + faces.h)))
    return float(w), float(h)


def _check_plane(specs: Sequence[AnchorSpec], plane: tuple[float, float]) -> None:
    """Raise unless each of ``specs`` fits the anchor cap on ``plane``, a
    listing's bounding plane.  When none fits it but one fits the least
    plane, the listing is at fault: :class:`ListingPlaneError`.  Otherwise
    the parameters are, and the first spec over the cap raises
    ``ValueError`` as ``build_layout`` does."""
    over = []
    for spec in specs:
        try:
            _grid_shape(spec, *plane)
        except ValueError as exc:
            over.append(exc)
    if over and len(over) == len(specs):
        for spec in specs:
            try:
                _grid_shape(spec, _MIN_PLANE_SIDE, _MIN_PLANE_SIDE)
            except ValueError:
                continue
            raise ListingPlaneError(f"the annotation listing's {plane[0]:g} x {plane[1]:g} bounding plane "
                                    f"needs a layout over the cap of {MAX_ANCHORS} anchors")
    if over:
        raise over[0]
