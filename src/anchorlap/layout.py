"""Anchor lattices: construction from a declarative spec and periodic queries.

An anchor set is the cross product of scales, aspect ratios, and a regular
grid of center locations.  The grid spacing is the sliding stride
``base_stride / stride_divisor``; per-scale shifted sub-lattices thin the
spacing further (one extra sub-lattice gives quincunx spacing, three give a
half-stride square lattice).  Anchors reaching past the plane edges are
kept uncropped so the lattice stays translation-periodic everywhere, which
all overlap analysis in this package relies on.  This deliberately differs
from detector implementations that discard cross-boundary anchors.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .geometry import _SIDE_MAX, _SIDE_MIN

__all__ = [
    "AnchorSpec",
    "AnchorLayout",
    "LatticeGroup",
    "build_layout",
    "effective_anchor_stride",
    "covering_radius",
]

ALLOWED_DIVISORS = (1, 2, 4)
ALLOWED_SHIFT_COUNTS = (0, 1, 3)
# Largest layout build_layout accepts.  Consumers materialize up to a few
# hundred bytes per anchor (``grid`` output rows), so this bounds them.
MAX_ANCHORS = 2**22
# IDs per pass of ``AnchorLayout.all_boxes``, which bounds its scratch.
_ID_CHUNK = 1 << 14

# Sub-lattice origins in units of the sliding stride.  One extra anchor sits
# at the bottom-right half-step; three extra anchors fill right, down, and
# bottom-right, halving the spacing.
_SHIFT_PATTERNS: dict[int, tuple[tuple[float, float], ...]] = {
    0: ((0.0, 0.0),),
    1: ((0.0, 0.0), (0.5, 0.5)),
    3: ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)),
}


def _integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``: an int or an integral
    float, never a bool, a string or a fraction (those raise
    ``ValueError``, as a value below ``least`` does)."""
    if not (type(value) is int or not isinstance(value, bool) and (  # plain ints skip the ABC checks
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be {'non-negative' if least == 0 else f'>= {least}'}, got {value!r}")
    return value


def _real(value, what: str, below: float = math.inf, above: float = 0.0) -> float:
    """``value`` as a float in ``(above, below)``.  A bool, a string or any other
    non-real raises ``TypeError``; a real out of range (nan, infinities and
    ints too large for a float included) raises ``ValueError``."""
    if type(value) is not float and (  # plain floats skip the ABC checks
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise TypeError(f"{what} must be a real number, got {value!r}")
    # Compared exactly first, so that float() never overflows.
    number = float(value) if 0 < value <= sys.float_info.max else math.nan
    if not above < number < below:
        bound = "positive and finite" if (above, below) == (0.0, math.inf) else f"in ({above:g}, {below:g})"
        raise ValueError(f"{what} must be {bound}, got {value!r}")
    return number


@dataclass(frozen=True)
class AnchorSpec:
    """Declarative anchor design.

    Attributes:
        scales: anchor side lengths in px, strictly ascending, no duplicates.
        ratios: aspect ratios h/w, strictly ascending; a ratio ``r`` scale
            ``s`` anchor measures ``(s/sqrt(r)) x (s*sqrt(r))`` so its area
            stays ``s**2``.
        base_stride: distance between adjacent sliding-window locations
            before any reduction (the feature stride).
        stride_divisor: 1, 2 or 4; divides the stride, modeling a feature
            map enlarged by that factor.
        shifts_per_scale: extra shifted anchors per location for individual
            scales; each count is 0, 1 or 3.
    """

    scales: tuple[float, ...]
    ratios: tuple[float, ...] = (1.0,)
    base_stride: float = 16.0
    stride_divisor: int = 1
    shifts_per_scale: Mapping[float, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        scales = tuple(_real(s, "each scales entry", _SIDE_MAX, _SIDE_MIN) for s in self.scales)
        ratios = tuple(_real(r, "each ratios entry") for r in self.ratios)
        shifts, keys = {}, {}
        for key, count in dict(self.shifts_per_scale).items():
            if isinstance(key, str):  # as spec files give them
                try:
                    scale = float(key)
                except ValueError:
                    raise ValueError(f"shifts_per_scale key {key!r} is not a number") from None
            else:
                scale = _real(key, "shifts_per_scale key")
            if scale in keys:
                raise ValueError(f"shifts_per_scale keys {keys[scale]!r} and {key!r} name one scale")
            keys[scale], shifts[scale] = key, _integer(count, "each shifts_per_scale count")
        divisor = _integer(self.stride_divisor, "stride_divisor")
        if not scales:
            raise ValueError("at least one scale is required")
        if list(scales) != sorted(set(scales)):
            raise ValueError(f"scales must be strictly ascending without duplicates, got {scales}")
        if not ratios:
            raise ValueError("at least one ratio is required")
        if list(ratios) != sorted(set(ratios)):
            raise ValueError(f"ratios must be strictly ascending without duplicates, got {ratios}")
        if divisor not in ALLOWED_DIVISORS:
            raise ValueError(
                f"stride_divisor must be one of {ALLOWED_DIVISORS}, got {self.stride_divisor!r}"
            )
        for scale, count in shifts.items():
            if scale not in scales:
                raise ValueError(f"shift entry for unknown scale {scale!r}")
            if count not in ALLOWED_SHIFT_COUNTS:
                raise ValueError(
                    f"shift count must be one of {ALLOWED_SHIFT_COUNTS}, got {count!r} for scale {scale!r}"
                )
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "base_stride", _real(self.base_stride, "base_stride"))
        object.__setattr__(self, "stride_divisor", divisor)
        object.__setattr__(self, "shifts_per_scale", shifts)

    @property
    def sliding_stride(self) -> float:
        """Spacing of sliding-window locations after stride reduction."""
        return self.base_stride / self.stride_divisor

    def shift_count(self, scale: float) -> int:
        """Extra shifted anchors per location for ``scale`` (0 if none)."""
        if scale not in self.scales:
            raise ValueError(f"unknown scale {scale!r}; spec has {self.scales}")
        return self.shifts_per_scale.get(scale, 0)

    @property
    def anchors_per_location(self) -> int:
        """Anchor boxes hosted by one sliding-window location."""
        extra = sum(self.shifts_per_scale.values())
        return len(self.ratios) * (len(self.scales) + extra)

    def sort_key(self):
        """Deterministic total order used for optimizer tie-breaking."""
        return (
            self.scales,
            self.ratios,
            self.base_stride,
            self.stride_divisor,
            tuple(sorted(self.shifts_per_scale.items())),
        )


@dataclass(frozen=True)
class LatticeGroup:
    """One (scale, ratio, sub-lattice) slab of anchors.

    Centers form a regular grid: ``(origin_x + col*stride,
    origin_y + row*stride)`` with ``0 <= row < rows`` and ``0 <= col <
    cols``.  Anchor IDs inside the group are ``id_start + row*cols + col``.
    """

    scale: float
    ratio: float
    sublattice: int
    box_w: float
    box_h: float
    origin_x: float
    origin_y: float
    stride: float
    rows: int
    cols: int
    id_start: int

    @property
    def count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class AnchorLayout:
    """A materialized anchor set over a ``plane_w x plane_h`` plane.

    Immutable after construction; every query is read-only.  Anchor IDs are
    dense integers in ``[0, anchor_count)`` ordered by (scale, ratio,
    sub-lattice, row, col), so two builds of the same spec and plane agree
    box for box.
    """

    spec: AnchorSpec
    plane_w: float
    plane_h: float
    groups: tuple[LatticeGroup, ...]
    anchor_count: int

    def locate(self, ids):
        """Each anchor ID's lattice group index and center ``(cx, cy)``, as
        three arrays of the shape of ``ids``: the rule ``id_start + row*cols
        + col`` of :class:`LatticeGroup` read backwards.  Raises
        ``ValueError`` for an ID that is not an integer in ``[0,
        anchor_count)``."""
        ids = np.asarray(ids)
        if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= self.anchor_count):
            raise ValueError(f"anchor IDs must be integers in [0, {self.anchor_count})")
        ids = ids.astype(np.int64, copy=False)
        start, cols, stride, origin_x, origin_y = (
            np.array([getattr(g, name) for g in self.groups])
            for name in ("id_start", "cols", "stride", "origin_x", "origin_y"))
        group = np.searchsorted(start, ids, side="right") - 1
        row, col = np.divmod(ids - start[group], cols[group])
        return group, origin_x[group] + col * stride[group], origin_y[group] + row * stride[group]

    def boxes(self, ids):
        """The anchors ``ids`` as four arrays ``(x, y, w, h)`` of their shape;
        ``ValueError`` as :meth:`locate`."""
        group, cx, cy = self.locate(ids)
        w, h = (np.array([getattr(g, name) for g in self.groups])[group] for name in ("box_w", "box_h"))
        return cx - w / 2.0, cy - h / 2.0, w, h

    def all_boxes(self) -> np.ndarray:
        """All anchors as an ``(anchor_count, 4)`` array of (x, y, w, h), ID
        order, filled ``_ID_CHUNK`` IDs at a time."""
        out = np.empty((self.anchor_count, 4), dtype=np.float64)
        for lo in range(0, self.anchor_count, _ID_CHUNK):
            block = out[lo : lo + _ID_CHUNK]
            for j, column in enumerate(self.boxes(np.arange(lo, lo + len(block)))):
                block[:, j] = column
        return out


def _grid_shape(spec: AnchorSpec, plane_w: float, plane_h: float) -> tuple[int, int]:
    """Rows and columns of the spec's sliding-window grid over a plane:
    ``ceil(extent / sliding_stride)`` per axis, at least one.  Raises as
    :func:`_real` for a bad plane side, and ``ValueError`` when the layout
    would hold more than ``MAX_ANCHORS`` anchors."""
    plane_w, plane_h = _real(plane_w, "plane_w"), _real(plane_h, "plane_h")
    stride = spec.sliding_stride
    # The 1e-9 guards against float noise just above an exact multiple.  A
    # quotient over the cap (inf included, which math.ceil rejects) is too.
    cols, rows = plane_w / stride - 1e-9, plane_h / stride - 1e-9
    if max(cols, rows) <= MAX_ANCHORS:
        cols, rows = max(1, math.ceil(cols)), max(1, math.ceil(rows))
        if rows * cols * spec.anchors_per_location <= MAX_ANCHORS:
            return rows, cols
    raise ValueError(f"{plane_w:g} x {plane_h:g} plane needs a layout over the cap of {MAX_ANCHORS} anchors")


def build_layout(spec: AnchorSpec, plane_w: float, plane_h: float) -> AnchorLayout:
    """Tile the spec's anchors over a plane.

    Sliding-window locations sit at ``(s/2 + i*s, s/2 + j*s)`` for sliding
    stride ``s``, covering the plane with ``ceil(extent / s)`` locations per
    axis.  Shifted sub-lattices reuse the same grid shape at half-stride
    offsets, so a scale with ``n`` extra anchors holds ``(1+n) * rows *
    cols`` boxes.  Boxes are never clipped to the plane.  A layout of more
    than ``MAX_ANCHORS`` anchors raises ``ValueError`` before anything is
    built.
    """
    rows, cols = _grid_shape(spec, plane_w, plane_h)
    stride = spec.sliding_stride
    groups: list[LatticeGroup] = []
    next_id = 0
    for scale in spec.scales:
        pattern = _SHIFT_PATTERNS[spec.shift_count(scale)]
        for ratio in spec.ratios:
            root = math.sqrt(ratio)
            box_w = scale / root
            box_h = scale * root
            for sub_index, (fx, fy) in enumerate(pattern):
                group = LatticeGroup(
                    scale=scale,
                    ratio=ratio,
                    sublattice=sub_index,
                    box_w=box_w,
                    box_h=box_h,
                    origin_x=stride / 2.0 + fx * stride,
                    origin_y=stride / 2.0 + fy * stride,
                    stride=stride,
                    rows=rows,
                    cols=cols,
                    id_start=next_id,
                )
                groups.append(group)
                next_id += group.count
    return AnchorLayout(
        spec=spec,
        plane_w=float(plane_w),
        plane_h=float(plane_h),
        groups=tuple(groups),
        anchor_count=next_id,
    )


def effective_anchor_stride(spec: AnchorSpec, scale: float) -> float:
    """Nearest-neighbor spacing of one scale's center set.

    The sliding stride ``s`` for no shifts, ``s/sqrt(2)`` with one shifted
    anchor (quincunx), ``s/2`` with three (half-stride square lattice).
    """
    count = spec.shift_count(scale)
    stride = spec.sliding_stride
    if count == 0:
        return stride
    if count == 1:
        return stride / math.sqrt(2.0)
    return stride / 2.0


def covering_radius(layout: AnchorLayout, scale: float) -> float:
    """Farthest any point lies from the nearest center of ``scale``.

    Computed for the periodic tiling (anchors extend uncropped, so finite-
    plane corner effects are excluded): ``effective_anchor_stride *
    sqrt(2)/2``, exact for the square and quincunx lattices built here.
    """
    if scale not in layout.spec.scales:
        raise ValueError(f"unknown scale {scale!r}; layout has {layout.spec.scales}")
    return effective_anchor_stride(layout.spec, scale) * (math.sqrt(2.0) / 2.0)

