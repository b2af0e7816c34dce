"""Exact search over discrete anchor designs under an anchor budget.

Every admissible configuration (stride divisors x per-scale shift counts x
candidate scale sets) is ranked by mean max IoU on the given faces, with
recall@tau reported alongside.  The overlap kernel runs once per distinct
lattice group; a config's per-face maxima are the elementwise max of its
groups' vectors, bit for bit what a full scan of its layout gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import bounding_plane
from .geometry import FaceTable
from .layout import ALLOWED_DIVISORS, ALLOWED_SHIFT_COUNTS, AnchorSpec, build_layout
from .matching import max_overlap_values

__all__ = ["SearchSpace", "ConfigScore", "enumerate_configs", "evaluate_config", "optimize"]


@dataclass(frozen=True)
class SearchSpace:
    """Discrete anchor-design space.

    Every scale in a candidate set may independently take any shift count
    from ``shift_choices``; ``budget`` caps anchors per sliding-window
    location.
    """

    stride_divisors: tuple[int, ...]
    shift_choices: tuple[int, ...]
    scale_sets: tuple[tuple[float, ...], ...]
    budget: int
    ratios: tuple[float, ...] = (1.0,)
    base_stride: float = 16.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stride_divisors", tuple(int(d) for d in self.stride_divisors))
        object.__setattr__(self, "shift_choices", tuple(int(c) for c in self.shift_choices))
        object.__setattr__(
            self, "scale_sets", tuple(tuple(float(s) for s in ss) for ss in self.scale_sets)
        )
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "base_stride", float(self.base_stride))
        for name, allowed in (("stride_divisors", ALLOWED_DIVISORS),
                              ("shift_choices", ALLOWED_SHIFT_COUNTS)):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if any(v not in allowed for v in values):
                raise ValueError(f"{name} must be a subset of {allowed}, got {values!r}")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {values!r}")
        if not self.scale_sets:
            raise ValueError("scale_sets must be non-empty")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget!r}")
        if not self.ratios:
            raise ValueError("ratios must be non-empty")
        if not (math.isfinite(self.base_stride) and self.base_stride > 0):
            raise ValueError(f"base_stride must be positive and finite, got {self.base_stride!r}")


@dataclass(frozen=True)
class ConfigScore:
    spec: AnchorSpec
    objective: float
    recall: float
    anchors_per_location: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.objective <= 1.0):
            raise ValueError(f"objective out of [0, 1]: {self.objective!r}")
        if not (0.0 <= self.recall <= 1.0):
            raise ValueError(f"recall out of [0, 1]: {self.recall!r}")


def enumerate_configs(space: SearchSpace) -> list[AnchorSpec]:
    """All specs in the space whose anchors-per-location fit the budget.

    Order is deterministic: scale sets as given, then divisors ascending,
    then per-scale shift assignments in lexicographic order.
    """
    configs: list[AnchorSpec] = []
    for scale_set in space.scale_sets:
        for divisor in sorted(space.stride_divisors):
            for assignment in itertools.product(
                sorted(space.shift_choices), repeat=len(scale_set)
            ):
                # AnchorSpec.anchors_per_location, checked before building the spec.
                if len(space.ratios) * (len(scale_set) + sum(assignment)) > space.budget:
                    continue
                configs.append(AnchorSpec(
                    scales=scale_set,
                    ratios=space.ratios,
                    base_stride=space.base_stride,
                    stride_divisor=divisor,
                    shifts_per_scale={
                        s: n for s, n in zip(scale_set, assignment) if n > 0
                    },
                ))
    return configs


def _score_configs(specs, faces: FaceTable | Sequence, tau: float) -> list[ConfigScore]:
    """Score specs on the faces' bounding plane as single-bucket ``bucket_stats``
    would, running the kernel once per distinct lattice group."""
    faces = FaceTable.of(faces)
    plane = bounding_plane(faces)
    n = len(faces)
    if n == 0:
        raise ValueError("faces must be non-empty")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")
    kernels: dict[tuple, np.ndarray] = {}
    scores = []
    for spec in specs:
        layout = build_layout(spec, *plane)
        best = np.zeros(n)
        for g in layout.groups:
            key = (g.box_w, g.box_h, g.stride, g.origin_x, g.origin_y, g.rows, g.cols)
            if key not in kernels:
                one_group = replace(layout, groups=(g,))
                kernels[key] = max_overlap_values(one_group, faces.x, faces.y, faces.w, faces.h)
            np.maximum(best, kernels[key], out=best)
        scores.append(ConfigScore(spec, float(np.sum(best)) / n,
                                  float(np.count_nonzero(best >= tau)) / n, spec.anchors_per_location))
    return scores


def evaluate_config(spec: AnchorSpec, faces: FaceTable | Sequence, tau: float = 0.5) -> ConfigScore:
    """Mean max IoU and recall@tau of ``faces`` against the spec's layout on their bounding plane."""
    return _score_configs([spec], faces, tau)[0]


def optimize(space: SearchSpace, faces: FaceTable | Sequence, tau: float = 0.5) -> list[ConfigScore]:
    """Rank every admissible config by objective, best first.

    Ties prefer fewer anchors per location, then the lexicographically
    smaller spec.  All configs are scored on the same bounding plane so
    the comparison is apples to apples.
    """
    configs = enumerate_configs(space)
    if not configs:
        raise ValueError("no configuration fits the budget")
    scores = _score_configs(configs, faces, tau)
    scores.sort(key=lambda sc: (-sc.objective, sc.anchors_per_location, sc.spec.sort_key()))
    return scores
