"""Axis-aligned rectangle arithmetic on the continuous image plane.

Boxes are real-valued (no pixel snapping) and may extend beyond any image
bounds; nothing here clips.  The coordinate convention throughout the
package: ``(x, y)`` is the top-left corner, ``y`` grows downward, and the
box center sits at ``(x + w/2, y + h/2)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaceTable",
    "RectBox",
    "intersect_area",
    "iou",
    "iou_xywh",
]


@dataclass(frozen=True)
class RectBox:
    """An axis-aligned rectangle: top-left corner ``(x, y)``, size ``w x h``.

    Degenerate sizes (a side ``<= 0`` or an area that underflows to 0),
    non-finite coordinates and far edges ``x + w``, ``y + h`` that overflow are
    rejected at construction so corrupt annotations fail fast.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            # Compared exactly, so an int too large for a float never overflows.
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"RectBox.{name} must be a finite real, got {value!r}")
        if not valid_boxes(*(float(v) for v in (self.x, self.y, self.w, self.h))):
            raise ValueError(
                f"RectBox requires positive size and finite extents, got {self!r}"
            )

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h


def valid_boxes(x, y, w, h):
    """Elementwise :class:`RectBox` rule: positive sides with a nonzero product,
    and finite far edges ``x + w`` and ``y + h`` (so all four values finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite(x + w) & np.isfinite(y + h) & (w > 0) & (w * h > 0)


@dataclass(frozen=True, eq=False)
class FaceTable:
    """Faces as read-only float64 columns ``x, y, w, h`` (RectBox convention)
    plus an int64 ``image`` column indexing into ``image_ids``.

    Rows are validated once, here, with the rule RectBox applies.  The only
    sequence behaviour is ``len(table)`` and ``table[i]``, a RectBox.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    image: np.ndarray
    image_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        cols = {k: np.array(getattr(self, k), dtype=np.float64) for k in ("x", "y", "w", "h")}
        cols["image"] = image = np.array(self.image, dtype=np.int64)
        object.__setattr__(self, "image_ids", tuple(self.image_ids))
        if image.ndim != 1 or any(c.shape != image.shape for c in cols.values()):
            raise ValueError("FaceTable columns must be 1-D and of equal length")
        if not valid_boxes(cols["x"], cols["y"], cols["w"], cols["h"]).all():
            raise ValueError("FaceTable requires positive sizes and finite extents")
        if len(image) and not (image.min() >= 0 and image.max() < len(self.image_ids)):
            raise ValueError(f"image index out of range for {len(self.image_ids)} image ids")
        for name, col in cols.items():
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def of(cls, faces) -> "FaceTable":
        """``faces`` if it is a table, else a RectBox sequence as one unnamed image."""
        if isinstance(faces, cls):
            return faces
        cols = np.array([(b.x, b.y, b.w, b.h) for b in faces], dtype=np.float64).reshape(-1, 4)
        return cls(*cols.T, np.zeros(len(cols), dtype=np.int64), ("",))

    def __len__(self) -> int:
        return len(self.image)

    def __getitem__(self, i: int) -> RectBox:
        return RectBox(float(self.x[i]), float(self.y[i]), float(self.w[i]), float(self.h[i]))

    @property
    def scale(self) -> np.ndarray:
        """Per-face scale sqrt(w*h), the side of the equal-area square."""
        return np.sqrt(self.w * self.h)

    def translated(self, dx: float, dy: float) -> "FaceTable":
        """The same faces shifted by ``(dx, dy)``."""
        return FaceTable(self.x + dx, self.y + dy, self.w, self.h, self.image, self.image_ids)


def intersect_area(a: RectBox, b: RectBox) -> float:
    """Area of ``a`` intersected with ``b``; 0 when they are disjoint."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: RectBox, b: RectBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1].

    Symmetric, and exactly 1.0 only for identical boxes.
    """
    inter = intersect_area(a, b)
    if inter == 0.0:
        return 0.0
    # Rounding can leave the computed union just below the intersection
    # for identical boxes; bounding it keeps the ratio at most 1.
    return inter / max(a.area + b.area - inter, inter)


# The least positive float: the area sum's floor, so 0 / 0 never arises.
_LEAST = np.nextafter(0.0, 1.0)


def iou_xywh(ax, ay, aw, ah, bx, by, bw, bh, out=None):
    """Elementwise IoU for ``(x, y, w, h)`` coordinate arrays.

    Broadcasts like any numpy expression; scalar inputs produce a Python
    float.  Matches :func:`iou` bit-for-bit on equal inputs, which the
    accelerated matching paths rely on.  ``out`` goes to
    :func:`iou_from_overlaps`, the one step at the full broadcast shape:
    the per-axis overlaps and the area sum keep their own, smaller shapes.
    """
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    return iou_from_overlaps(iw, ih, aw * ah + bw * bh, out)


def iou_from_overlaps(iw, ih, areas, out=None):
    """IoU from the per-axis overlaps ``iw``, ``ih`` of two boxes and the sum
    of their areas, ``areas = aw*ah + bw*bh`` (in that order).

    The IoU rule of the package, called by ``iou_xywh`` (so by the matching
    window scan, ``matching._best_faces`` and the test oracles),
    ``emo.emo_closed_form`` and ``matching._nth_corner_iou``: the
    intersection is ``iw * ih`` where both overlaps are positive, else 0,
    and the union is bounded below by the intersection.  Each overlap is
    clamped at 0 before the product, and the area sum is bounded below by
    the least positive float, so a zero intersection gives 0 whatever the
    areas; a nan quotient (from a nan overlap or area) gives 0 too, so the
    result stays in [0, 1].  Every step is a correctly rounded monotone
    operation, so the result never decreases as ``iw`` or ``ih`` grows, in
    floating point too.  Scalar inputs give a Python float.
    ``matching.max_overlap_values`` writes the same ``inter / max(areas -
    inter, inter)`` inline into scratch buffers, on overlaps clamped at 0.

    A C-contiguous float64 ``out`` of the broadcast shape is overwritten,
    whatever it held, and returned, with the bits of the allocating form.
    It holds the intersection on the way; beside the clamped overlaps and
    the bounded area sum, at their own shapes, the union is the one array
    allocated per call.
    """
    shape = np.broadcast(iw, ih, areas).shape
    given = out is not None
    if not given:
        out = np.empty(shape, np.result_type(iw, ih, areas, 0.0))
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    inter = np.multiply(np.maximum(iw, 0.0), np.maximum(ih, 0.0), out=out)  # nan where an overlap is nan
    union = np.subtract(np.maximum(areas, _LEAST), inter, out=np.empty_like(out))
    np.maximum(union, inter, out=union)
    np.divide(inter, union, out=out)
    np.fmax(out, 0.0, out=out)  # nan to 0
    return out if given or out.ndim else float(out)
