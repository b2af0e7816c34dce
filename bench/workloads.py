"""Seeded workload generator: face corpora, the anchor spec and search spaces.

Every workload draws its corpus from ``--seed`` alone, so one seed always
gives the same files.  The program under test only ever sees the files
written here (annotation listing, spec JSON, search-space JSON); the
benchmark keeps the generated arrays for its own output checks.

All corpora use 1024x768 images.  A face's width is log-uniform over the
workload's side range and its height is the width times a ratio drawn
from [0.9, 1.3], the usual portrait aspect of face boxes.  Coordinates are
whole pixels, as in public face listings, and each face line carries six
trailing attribute columns that the parser must skip.  About one face
line in a hundred is followed by a zero-width copy, which the parser must
drop, so its skip path runs and ``dataset.faces_skipped`` is not zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_W = 1024
IMAGE_H = 768
RATIO_RANGE = (0.9, 1.3)
DEGENERATE_SHARE = 0.01

# The ROADMAP baseline spec: scales 16..512, stride 16 halved, and three
# shifted sub-lattices at scale 16 (a half-stride lattice for tiny faces).
SPEC = {
    "scales": [16, 32, 64, 128, 256, 512],
    "ratios": [1.0],
    "base_stride": 16,
    "stride_divisor": 2,
    "shifts_per_scale": {"16": 3},
}

# Narrow space: 96 configs, 804 group kernels, 48 distinct groups.
NARROW_SPACE = {
    "stride_divisors": [1, 2],
    "shift_choices": [0, 1, 3],
    "scale_sets": [[16, 32, 64, 128, 256, 512]],
    "budget": 9,
}

# Wide space: 705 configs, 7,470 group kernels, 72 distinct groups.
WIDE_SPACE = {
    "stride_divisors": [1, 2, 4],
    "shift_choices": [0, 1, 3],
    "scale_sets": [[16, 32, 64, 128, 256, 512]],
    "budget": 12,
}

# `emo --mc` is the same on every workload.
EMO_SCALES = (8, 16, 32)
EMO_STRIDES = (8, 16)
EMO_SAMPLES = 500_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    images: int
    faces_per_image: tuple[int, int]  # inclusive range
    side_px: tuple[float, float]  # log-uniform range of the face width
    space: dict
    jitter_trials: int
    workers: int


# Corpus sizes are set so that one round of the operations takes 6-10 s on
# a 2-core machine, which leaves three or more rounds in a 32 s run: each
# workload is run many times, so runs must be short, and the median needs
# several samples spread across the run.
WORKLOADS = {
    w.name: w
    for w in (
        # Large faces give `match` its widest overlap windows, and most pairs
        # at or above t_low sit in the 128-512 groups.  Thousands of images
        # with few faces each expose any per-image overhead a batched matcher
        # adds.  The optimizer is a minor cost here.
        Workload(
            name="sparse-mixed",
            why="1,000 images of 1-4 faces, 8-400 px: widest match windows and "
                "per-image overhead; narrow search space, 16 jitter trials, 1 worker",
            images=1000,
            faces_per_image=(1, 4),
            side_px=(8.0, 400.0),
            space=NARROW_SPACE,
            jitter_trials=16,
            workers=1,
        ),
        # The paper's small-face regime: about 30% of faces are hard, so
        # compensation does real work.  The >=128 groups hold no pair at or
        # above t_low yet are scanned in full (the target of group pruning).
        # 64 trials make the per-trial face rebuild in `dataset` a major
        # cost, and 2 workers show whether the Monte Carlo pool pays.
        Workload(
            name="crowd-small",
            why="20 images of 100 faces, 6-48 px: the paper's small-face regime, "
                "hard-face compensation, 64 jitter trials, 2 Monte Carlo workers",
            images=20,
            faces_per_image=(100, 100),
            side_px=(6.0, 48.0),
            space=NARROW_SPACE,
            jitter_trials=64,
            workers=2,
        ),
        # The mirror image of the other two: the wide space makes the
        # optimizer dominate while the small corpus keeps `match` minor.
        Workload(
            name="search-wide",
            why="100 images of 5-15 faces, 8-400 px with the wide search space "
                "(705 configs): the optimizer dominates and match is minor",
            images=100,
            faces_per_image=(5, 15),
            side_px=(8.0, 400.0),
            space=WIDE_SPACE,
            jitter_trials=16,
            workers=1,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files handed to the program, plus what the checks need to know."""

    workload: Workload
    annotations: Path
    spec: Path
    space: Path
    faces: np.ndarray  # (n, 4) x, y, w, h of every valid face, listing order
    skipped: int  # degenerate face lines in the listing
    jitter_seed: int
    emo_seed: int
    emo_samples: int


def _faces_for_image(rng: np.random.Generator, w: Workload, count: int) -> np.ndarray:
    lo, hi = w.side_px
    fw = np.exp(rng.uniform(math.log(lo), math.log(hi), count))
    fh = fw * rng.uniform(*RATIO_RANGE, count)
    fw = np.maximum(np.rint(fw), 1.0)
    fh = np.maximum(np.rint(fh), 1.0)
    fx = np.floor(rng.uniform(0.0, 1.0, count) * (IMAGE_W - fw + 1))
    fy = np.floor(rng.uniform(0.0, 1.0, count) * (IMAGE_H - fh + 1))
    return np.stack([fx, fy, fw, fh], axis=1)


def generate(name: str, seed: int, out_dir: Path, scale: float = 1.0) -> Inputs:
    """Write workload ``name`` for ``seed`` into ``out_dir``.

    ``scale`` shrinks the image count and Monte Carlo sample count for the
    benchmark's own smoke tests; the measured runs always use 1.0.
    """
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    images = max(2, round(w.images * scale))
    lines: list[str] = []
    kept: list[np.ndarray] = []
    skipped = 0
    for i in range(images):
        count = int(rng.integers(w.faces_per_image[0], w.faces_per_image[1] + 1))
        faces = _faces_for_image(rng, w, count)
        degenerate = int(rng.binomial(count, DEGENERATE_SHARE))
        lines.append(f"{i % 61}--Event/img_{i:06d}.jpg")
        lines.append(str(count + degenerate))
        for fx, fy, fw, fh in faces:
            lines.append(f"{fx:.0f} {fy:.0f} {fw:.0f} {fh:.0f} 0 0 0 0 0 0")
        for fx, fy, _, fh in faces[:degenerate]:
            lines.append(f"{fx:.0f} {fy:.0f} 0 {fh:.0f} 0 0 0 0 0 0")
        skipped += degenerate
        kept.append(faces)

    out_dir.mkdir(parents=True, exist_ok=True)
    annotations = out_dir / "faces.txt"
    annotations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = out_dir / "spec.json"
    spec.write_text(json.dumps(SPEC, indent=2) + "\n", encoding="utf-8")
    space = out_dir / "space.json"
    space.write_text(json.dumps(w.space, indent=2) + "\n", encoding="utf-8")
    jitter_seed, emo_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    return Inputs(
        workload=w,
        annotations=annotations,
        spec=spec,
        space=space,
        faces=np.concatenate(kept),
        skipped=skipped,
        jitter_seed=jitter_seed,
        emo_seed=emo_seed,
        emo_samples=max(1000, round(EMO_SAMPLES * scale)),
    )
