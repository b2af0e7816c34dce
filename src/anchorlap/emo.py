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
  alone gives.

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

from .geometry import iou_offset_square
from .layout import AnchorLayout, _integer
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
        for name in ("face_side", "anchor_stride"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        cells = _integer(self.quadrature_cells, "quadrature_cells")
        object.__setattr__(self, "quadrature_cells", cells)
        if cells < 16:
            raise ValueError(f"quadrature_cells must be >= 16, got {cells!r}")
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
    step = half / cells
    mids = (np.arange(cells) + 0.5) * step
    total = 0.0
    for dy in mids:  # row-wise to keep memory flat at high resolutions
        total += iou_offset_square(side, mids, dy).sum()
    return EmoEstimate(value=float(total / (cells * cells)), std_error=0.0, method="closed_form")


def _central_period_cell(layout: AnchorLayout) -> tuple[float, float, float]:
    """Origin (x0, y0) and side of a period cell near the plane center.

    The whole layout repeats with period equal to the sliding stride, so a
    single interior cell is a representative sampling region for uniform
    face placement.  An interior cell needs at least a 2x2 sliding grid.
    """
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
    """
    samples, workers, seed = _integer(samples, "samples"), _integer(workers, "workers"), _integer(seed, "seed")
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples!r}")
    if samples > MAX_MC_SAMPLES:
        raise ValueError(f"{samples} samples are over the cap of {MAX_MC_SAMPLES}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    regions = []
    for layout, face_w, face_h in cells:
        if not (math.isfinite(face_w) and face_w > 0 and math.isfinite(face_h) and face_h > 0):
            raise ValueError(f"face size must be positive and finite, got {face_w!r} x {face_h!r}")
        if layout.anchor_count == 0:
            raise ValueError("layout holds no anchors")
        regions.append(_central_period_cell(layout))

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
        sums = np.empty((len(cells), 2))
        for k, ((layout, face_w, face_h), (x0, y0, period)) in enumerate(zip(cells, regions)):
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
    for total, total_sq in totals.tolist():
        mean = total / samples
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        estimates.append(EmoEstimate(value=mean, std_error=math.sqrt(var / samples), method="monte_carlo"))
    return estimates
