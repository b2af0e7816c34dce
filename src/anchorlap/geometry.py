"""Axis-aligned rectangle arithmetic on the continuous image plane.

Boxes are real-valued (no pixel snapping) and may extend beyond any image
bounds; nothing here clips.  The coordinate convention throughout the
package: ``(x, y)`` is the top-left corner, ``y`` grows downward, and the
box center sits at ``(x + w/2, y + h/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaceTable",
    "RectBox",
    "intersect_area",
    "iou",
    "iou_offset_square",
    "iou_xywh",
]


@dataclass(frozen=True)
class RectBox:
    """An axis-aligned rectangle: top-left corner ``(x, y)``, size ``w x h``.

    Degenerate sizes (``w <= 0`` or ``h <= 0``) and non-finite coordinates
    are rejected at construction so corrupt annotations fail fast instead
    of silently skewing statistics.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"RectBox.{name} must be a finite real, got {value!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(
                f"RectBox requires positive size, got w={self.w!r} h={self.h!r}"
            )

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def translated(self, dx: float, dy: float) -> "RectBox":
        """The same box shifted by ``(dx, dy)``."""
        return RectBox(self.x + dx, self.y + dy, self.w, self.h)


def valid_boxes(x, y, w, h):
    """Elementwise :class:`RectBox` rule: finite coordinates, positive size."""
    finite = np.isfinite(x) & np.isfinite(y) & np.isfinite(w) & np.isfinite(h)
    return finite & (w > 0) & (h > 0)


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
            raise ValueError("FaceTable requires finite coordinates and positive sizes")
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


def iou_xywh(ax, ay, aw, ah, bx, by, bw, bh):
    """Elementwise IoU for ``(x, y, w, h)`` coordinate arrays.

    Broadcasts like any numpy expression; scalar inputs produce a Python
    float.  Matches :func:`iou` bit-for-bit on equal inputs, which the
    accelerated matching paths rely on.
    """
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    return iou_from_overlaps(iw, ih, aw * ah + bw * bh)


def iou_from_overlaps(iw, ih, areas):
    """IoU from the per-axis overlaps ``iw``, ``ih`` of two boxes and the sum
    of their areas, ``areas = aw*ah + bw*bh`` (in that order).

    The IoU rule of the package, called by ``iou_xywh``,
    ``iou_offset_square`` and ``matching._nth_corner_iou``: the
    intersection is ``iw * ih`` where both overlaps are positive, else 0,
    and the union is bounded below by the intersection.  Every step is a
    correctly rounded monotone operation, so the result never decreases as
    ``iw`` or ``ih`` grows, in floating point too.  Scalar inputs give a
    Python float.  ``matching.max_overlap_values`` writes the same ``inter
    / max(areas - inter, inter)`` inline into scratch buffers, on overlaps
    clamped at 0.
    """
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    out = np.where(inter > 0.0, inter / np.maximum(areas - inter, inter), 0.0)
    return float(out) if out.ndim == 0 else out
