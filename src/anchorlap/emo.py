"""Expected max overlap (EMO) of a randomly placed box against an anchor set.

Two estimators:

* a closed-form midpoint quadrature for an l-by-l square face matched to an
  equal-size anchor on a plain lattice of stride ``s_A``; the face center is
  uniform over one period, so the expectation reduces to an integral of the
  single-period overlap ratio over the quarter-period ``[0, s_A/2]^2``;
* a Monte Carlo estimate against an arbitrary full layout, maximizing IoU
  over every anchor (all scales, ratios and shifted sub-lattices).  Every
  cell of a table is estimated from one shared sample stream, drawn once
  per chunk, and each estimate is to the bit the one a call for that cell
  alone gives.  Cells equal up to a power-of-two scale, every nonzero
  length in ``[2**-400, 2**400]``, share one pass.

The quadrature is only valid while the worst-offset face still overlaps its
matched anchor, i.e. ``s_A/2 < l``; at or beyond that use the Monte Carlo
path.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import _SIDE_MAX, _SIDE_MIN, iou_from_overlaps
from .layout import AnchorLayout, _integer, _real
from .matching import max_overlap_values
from .rng import stream

__all__ = [
    "EmoQuery",
    "EmoEstimate",
    "emo_closed_form",
    "emo_monte_carlo",
    "MC_CHUNK",
    "MAX_MC_SAMPLES",
    "MAX_QUADRATURE_CELLS",
]

# Fixed Monte Carlo chunk size.  Chunk i always draws from stream(seed, i),
# so the sample sequence (and therefore the estimate, bit for bit) depends
# only on (seed, samples), never on how chunks are spread over workers.
MC_CHUNK = 65536

# Caps checked before anything is allocated: 65,536 Monte Carlo chunks, and
# a quadrature grid of 2^16 cells per axis.
MAX_MC_SAMPLES = 2**32
MAX_QUADRATURE_CELLS = 2**16


@dataclass(frozen=True)
class EmoQuery:
    """One (face side, anchor stride) evaluation request."""

    face_side: float
    anchor_stride: float
    quadrature_cells: int = 512

    def __post_init__(self) -> None:
        object.__setattr__(self, "face_side", _real(self.face_side, "face_side", _SIDE_MAX, _SIDE_MIN))
        object.__setattr__(self, "anchor_stride", _real(self.anchor_stride, "anchor_stride"))
        cells = _integer(self.quadrature_cells, "quadrature_cells", 16)
        object.__setattr__(self, "quadrature_cells", cells)
        if cells > MAX_QUADRATURE_CELLS:
            raise ValueError(f"{cells} quadrature cells are over the cap of {MAX_QUADRATURE_CELLS}")


@dataclass(frozen=True)
class EmoEstimate:
    value: float
    std_error: float
    method: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"EMO value out of [0, 1]: {self.value!r}")
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")


def emo_closed_form(query: EmoQuery) -> EmoEstimate:
    """Midpoint quadrature of the expected single-period overlap.

    Averages the offset-square overlap ratio over a ``cells`` by ``cells``
    midpoint grid on ``[0, s_A/2]^2``.  The 1/(s_A/2)^2 density and the cell
    area cancel, leaving a plain mean.  Deterministic; doubling the grid at
    the default resolution moves the result by well under 1e-6.
    """
    side = query.face_side
    half = query.anchor_stride / 2.0
    if half >= side:
        raise ValueError(
            f"closed-form invalid: anchor_stride/2 must stay below face_side, got "
            f"stride {query.anchor_stride:g} vs side {side:g}; use Monte Carlo (emo --mc)"
        )
    cells = query.quadrature_cells
    overlaps = side - (np.arange(cells) + 0.5) * (half / cells)
    rows = max(1, 2**16 // cells)  # rows per block, which keeps memory flat at high resolutions
    total = 0.0
    for lo in range(0, cells, rows):
        block = iou_from_overlaps(overlaps, overlaps[lo : lo + rows, None], 2.0 * (side * side))
        for row_sum in block.sum(axis=1):  # in row order, so no block size moves a bit
            total += row_sum
    return EmoEstimate(value=float(total / (cells * cells)), std_error=0.0, method="closed_form")


def _central_period_cell(layout: AnchorLayout) -> tuple[float, float, float]:
    """Origin (x0, y0) and side of a period cell near the plane center.

    The whole layout repeats with period equal to the sliding stride, so a
    single interior cell is a representative sampling region for uniform
    face placement.  An interior cell needs at least a 2x2 sliding grid.
    """
    if layout.anchor_count == 0:
        raise ValueError("layout holds no anchors")
    s = layout.spec.sliding_stride
    cols = max(g.cols for g in layout.groups)
    rows = max(g.rows for g in layout.groups)
    if cols < 2 or rows < 2:
        raise ValueError(
            f"plane too small for period sampling: sliding grid is {rows}x{cols}, need >= 2x2"
        )
    x0 = ((cols - 1) // 2) * s
    y0 = ((rows - 1) // 2) * s
    return x0, y0, s


def _scale_class(index: int, layout: AnchorLayout, face_w: float, face_h: float, region) -> object:
    """The cell's lengths (face, sampling region, each group's box, origin
    and stride) over the power of two just above the period, then each
    group's grid size; or ``index``, a class of its own, when a nonzero
    length lies outside ``[2**-400, 2**400]``."""
    lengths = [face_w, face_h, *region]
    for g in layout.groups:
        lengths += [g.box_w, g.box_h, g.origin_x, g.origin_y, g.stride]
    if not all(v == 0.0 or 2.0**-400 <= abs(v) <= 2.0**400 for v in lengths):
        return index
    e = math.frexp(region[2])[1]
    return (*(math.ldexp(v, -e) for v in lengths), *((g.rows, g.cols) for g in layout.groups))


def emo_monte_carlo(
    cells: Sequence[tuple[AnchorLayout, float, float]],
    samples: int,
    seed: int,
    workers: int = 1,
) -> list[EmoEstimate]:
    """Estimate the expected max IoU of each ``(layout, face_w, face_h)`` cell.

    Face centers are drawn uniformly over one interior period cell of each
    cell's lattice; per-sample max IoU runs over all anchors.  Sampling is
    chunked, chunk ``i`` drawing from ``stream(seed, i)``, and every cell
    reuses the same draws: a chunk's uniforms are drawn once, into buffers
    kept per worker thread, then scaled to each cell's period.  Chunk
    statistics are merged in index order, so each estimate is the one a
    single-cell call gives and is bit-identical for any ``workers``.
    Estimates come back in cell order.

    Cells equal up to a power-of-two scale ``2**k`` (:func:`_scale_class`)
    share one pass: they run the same float operations on values scaled by
    ``2**k``.  The uniforms are multiples of ``2**-53``, so while every
    nonzero length lies in ``[2**-400, 2**400]`` each coordinate is a
    multiple of ``2**(E-105)``, ``E`` the smallest length exponent, a
    nonzero intersection area is at least ``2**(2E-210)``, still normal,
    no area overflows, and every quotient, ``floor``, clip index and IoU
    ratio comes out bit-identical.  A cell outside that guard runs alone.
    """
    samples = _integer(samples, "samples", 1000)
    workers, seed = _integer(workers, "workers", 1), _integer(seed, "seed", 0)
    if samples > MAX_MC_SAMPLES:
        raise ValueError(f"{samples} samples are over the cap of {MAX_MC_SAMPLES}")
    cells = [(layout, _real(face_w, "face size w", _SIDE_MAX, _SIDE_MIN),
              _real(face_h, "face size h", _SIDE_MAX, _SIDE_MIN)) for layout, face_w, face_h in cells]
    regions = [_central_period_cell(layout) for layout, _, _ in cells]
    classes: dict = {}  # scale class key -> index of the class's first cell
    firsts = [classes.setdefault(_scale_class(k, *cell, region), k)
              for k, (cell, region) in enumerate(zip(cells, regions))]

    chunks = -(-samples // MC_CHUNK)
    local = threading.local()

    def run(index: int) -> np.ndarray:
        if not hasattr(local, "buffers"):
            local.buffers = np.empty((5, min(samples, MC_CHUNK)))
        count = min(MC_CHUNK, samples - index * MC_CHUNK)
        ux, uy, bx, by, vals = local.buffers[:, :count]
        rng = stream(seed, index)
        rng.random(out=ux)
        rng.random(out=uy)
        sums = np.zeros((len(cells), 2))  # 0 in the rows of the other cells of a class
        for k in classes.values():
            (layout, face_w, face_h), (x0, y0, period) = cells[k], regions[k]
            np.subtract(np.add(np.multiply(ux, period, out=bx), x0, out=bx), face_w / 2.0, out=bx)
            np.subtract(np.add(np.multiply(uy, period, out=by), y0, out=by), face_h / 2.0, out=by)
            max_overlap_values(layout, bx, by, face_w, face_h, out=vals)
            sums[k, 0] = np.sum(vals)
            sums[k, 1] = np.sum(np.multiply(vals, vals, out=vals))
        return sums

    threads = min(workers, chunks, os.cpu_count() or 1)
    if threads == 1:
        parts = [run(i) for i in range(chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(chunks)))

    totals = np.zeros((len(cells), 2))
    for part in parts:  # fixed merge order keeps each sum exact
        totals += part
    estimates = []
    for total, total_sq in totals[firsts].tolist():
        mean = total / samples
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        estimates.append(EmoEstimate(value=mean, std_error=math.sqrt(var / samples), method="monte_carlo"))
    return estimates
