"""Expected max overlap (EMO) of a randomly placed box against an anchor set.

Two estimators:

* a closed-form midpoint quadrature for an l-by-l square face matched to an
  equal-size anchor on a plain lattice of stride ``s_A``; the face center is
  uniform over one period, so the expectation reduces to an integral of the
  single-period overlap ratio over the quarter-period ``[0, s_A/2]^2``;
* a Monte Carlo estimate against an arbitrary full layout, maximizing IoU
  over every anchor (all scales, ratios and shifted sub-lattices).

The quadrature is only valid while the worst-offset face still overlaps its
matched anchor, i.e. ``s_A/2 < l``; at or beyond that use the Monte Carlo
path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import iou_offset_square
from .layout import AnchorLayout
from .matching import max_overlap_values
from .rng import stream

__all__ = [
    "EmoQuery",
    "EmoEstimate",
    "emo_closed_form",
    "emo_monte_carlo",
    "MC_CHUNK",
]

# Fixed Monte Carlo chunk size.  Chunk i always draws from stream(seed, i),
# so the sample sequence (and therefore the estimate, bit for bit) depends
# only on (seed, samples), never on how chunks are spread over workers.
MC_CHUNK = 65536


@dataclass(frozen=True)
class EmoQuery:
    """One (face side, anchor stride) evaluation request."""

    face_side: float
    anchor_stride: float
    quadrature_cells: int = 512

    def __post_init__(self) -> None:
        if not (math.isfinite(self.face_side) and self.face_side > 0):
            raise ValueError(f"face_side must be positive and finite, got {self.face_side!r}")
        if not (math.isfinite(self.anchor_stride) and self.anchor_stride > 0):
            raise ValueError(
                f"anchor_stride must be positive and finite, got {self.anchor_stride!r}"
            )
        if self.quadrature_cells < 16:
            raise ValueError(f"quadrature_cells must be >= 16, got {self.quadrature_cells!r}")


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
    return EmoEstimate(value=total / (cells * cells), std_error=0.0, method="closed_form")


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


def _mc_chunk(layout: AnchorLayout, face_w: float, face_h: float,
              seed: int, index: int, count: int,
              x0: float, y0: float, period: float) -> tuple[float, float]:
    rng = stream(seed, index)
    cx = x0 + rng.random(count) * period
    cy = y0 + rng.random(count) * period
    vals = max_overlap_values(layout, cx - face_w / 2.0, cy - face_h / 2.0, face_w, face_h)
    return float(np.sum(vals)), float(np.sum(vals * vals))


def emo_monte_carlo(
    layout: AnchorLayout,
    face_w: float,
    face_h: float,
    samples: int,
    seed: int,
    workers: int = 1,
) -> EmoEstimate:
    """Estimate expected max IoU of a ``face_w`` x ``face_h`` box vs ``layout``.

    Face centers are drawn uniformly over one interior period cell of the
    lattice; per-sample max IoU runs over all anchors.  Sampling is chunked
    with one counter-based stream per chunk and chunk statistics are merged
    in index order, so the result is bit-identical for any ``workers``.
    """
    if not (math.isfinite(face_w) and face_w > 0 and math.isfinite(face_h) and face_h > 0):
        raise ValueError(f"face size must be positive and finite, got {face_w!r} x {face_h!r}")
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if layout.anchor_count == 0:
        raise ValueError("layout holds no anchors")

    x0, y0, period = _central_period_cell(layout)
    sizes = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        sizes.append(samples % MC_CHUNK)

    def run(index_count):
        index, count = index_count
        return _mc_chunk(layout, face_w, face_h, seed, index, count, x0, y0, period)

    jobs = list(enumerate(sizes))
    if workers == 1:
        stats = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(run, jobs))

    total = 0.0
    total_sq = 0.0
    for part, part_sq in stats:  # fixed merge order keeps the sum exact
        total += part
        total_sq += part_sq
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return EmoEstimate(
        value=mean,
        std_error=math.sqrt(var / samples),
        method="monte_carlo",
    )
