"""Exact search over discrete anchor designs under an anchor budget.

Every admissible configuration (stride divisors x per-scale shift counts x
candidate scale sets) is ranked by mean max IoU on the given faces, with
recall@tau reported alongside.  Per-face max IoU is computed once per
(scale, stride divisor, shift count) the configurations use, from one
layout per (scale, divisor) with one kernel per sub-lattice: the max over
the kernels whose origins the count's shift pattern holds.  A config's
per-face maxima are the elementwise max of its scales' vectors, bit for
bit what a full scan of its layout gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import _check_plane, bounding_plane
from .geometry import FaceTable
from .layout import (_SHIFT_PATTERNS, ALLOWED_DIVISORS, ALLOWED_SHIFT_COUNTS, AnchorSpec, _integer, _real,
                     build_layout)
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
        object.__setattr__(self, "budget", _integer(self.budget, "budget", 1))
        object.__setattr__(self, "scale_sets", tuple(tuple(_real(s, "each scale_sets entry", above=2.0**-500)
                                                           for s in ss) for ss in self.scale_sets))
        object.__setattr__(self, "ratios", tuple(_real(r, "each ratios entry") for r in self.ratios))
        object.__setattr__(self, "base_stride", _real(self.base_stride, "base_stride"))
        for name, allowed in (("stride_divisors", ALLOWED_DIVISORS),
                              ("shift_choices", ALLOWED_SHIFT_COUNTS)):
            values = tuple(_integer(v, f"each {name} entry") for v in getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if any(v not in allowed for v in values):
                raise ValueError(f"{name} must be a subset of {allowed}, got {values!r}")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {values!r}")
        if not self.scale_sets:
            raise ValueError("scale_sets must be non-empty")
        if not self.ratios:
            raise ValueError("ratios must be non-empty")


@dataclass(frozen=True)
class ConfigScore:
    spec: AnchorSpec
    objective: float
    recall: float

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


def _score(specs: list[AnchorSpec], faces: FaceTable | Sequence, tau: float) -> list[ConfigScore]:
    """Each spec scored on the faces' bounding plane under ``build_layout``'s
    anchor cap, in ``specs`` order, as the module docstring says.  The specs
    share their ratios and base stride, as a search space's configs do."""
    faces = FaceTable.of(faces)
    n = len(faces)
    if n == 0:
        raise ValueError("faces must be non-empty")
    tau = _real(tau, "tau", below=1.0)
    plane = bounding_plane(faces)
    _check_plane(specs, plane)  # the anchor cap build_layout would apply
    used: dict[tuple[float, int], set[int]] = {}  # (scale, divisor) -> shift counts
    for spec in specs:
        for s in spec.scales:
            used.setdefault((s, spec.stride_divisor), set()).add(spec.shifts_per_scale.get(s, 0))
    vectors: dict[tuple[float, int, int], np.ndarray] = {}
    for (scale, divisor), counts in used.items():
        top = max(counts)
        layout = build_layout(AnchorSpec((scale,), specs[0].ratios, specs[0].base_stride, divisor,
                                         {scale: top}), *plane)
        kernels = [(_SHIFT_PATTERNS[top][g.sublattice],
                    max_overlap_values(replace(layout, groups=(g,)), faces.x, faces.y, faces.w, faces.h))
                   for g in layout.groups]
        for count in counts:
            vectors[scale, divisor, count] = np.maximum.reduce(
                [kernel for origin, kernel in kernels if origin in _SHIFT_PATTERNS[count]])
    scores = []
    buffer = np.empty(n)
    for spec in specs:
        best, *rest = (vectors[s, spec.stride_divisor, spec.shifts_per_scale.get(s, 0)]
                       for s in spec.scales)
        for vector in rest:
            best = np.maximum(best, vector, out=buffer)
        scores.append(ConfigScore(spec, float(np.sum(best)) / n, float(np.count_nonzero(best >= tau)) / n))
    return scores


def evaluate_config(spec: AnchorSpec, faces: FaceTable | Sequence, tau: float = 0.5) -> ConfigScore:
    """Mean max IoU and recall@tau of ``faces`` against the spec's layout on
    their bounding plane, scored as ``optimize`` scores each config."""
    return _score([spec], faces, tau)[0]


def optimize(space: SearchSpace, faces: FaceTable | Sequence, tau: float = 0.5) -> list[ConfigScore]:
    """Rank every admissible config by objective, best first.

    Ties prefer fewer anchors per location, then the lexicographically
    smaller spec.  All configs are scored on the same bounding plane so
    the comparison is apples to apples, each as ``evaluate_config`` scores
    it, sharing one kernel per sub-lattice.
    """
    configs = enumerate_configs(space)
    if not configs:
        raise ValueError("no configuration fits the budget")
    return sorted(_score(configs, faces, tau),
                  key=lambda sc: (-sc.objective, sc.spec.anchors_per_location, sc.spec.sort_key()))
