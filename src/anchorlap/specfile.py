"""JSON config files for anchor specs and optimizer search spaces.

An anchor spec document looks like::

    {
      "scales": [16, 32, 64, 128, 256, 512],
      "ratios": [1.0],
      "base_stride": 16,
      "stride_divisor": 1,
      "shifts_per_scale": {"16": 3}
    }

Only ``scales`` is required.  ``shifts_per_scale`` keys are scale values
spelled as strings (JSON object keys are always strings).  A search-space
document uses ``stride_divisors``, ``shift_choices``, ``scale_sets``,
``budget`` and optionally ``ratios`` and ``base_stride``.
"""

from __future__ import annotations

import json

from .layout import AnchorSpec
from .optimizer import SearchSpace

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "load_spec",
    "spec_json",
    "space_from_dict",
    "load_space",
]

_SPEC_KEYS = {"scales", "ratios", "base_stride", "stride_divisor", "shifts_per_scale"}
_SPACE_KEYS = {"stride_divisors", "shift_choices", "scale_sets", "budget", "ratios", "base_stride"}


def _require_mapping(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, allowed: set, what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")


def spec_from_dict(data) -> AnchorSpec:
    data = _require_mapping(data, "anchor spec")
    _reject_unknown(data, _SPEC_KEYS, "anchor spec")
    if "scales" not in data:
        raise ValueError("anchor spec needs a 'scales' list")
    shifts_raw = data.get("shifts_per_scale", {})
    shifts = {float(k): int(v) for k, v in _require_mapping(shifts_raw, "shifts_per_scale").items()}
    return AnchorSpec(
        scales=tuple(data["scales"]),
        ratios=tuple(data.get("ratios", (1.0,))),
        base_stride=data.get("base_stride", 16.0),
        stride_divisor=data.get("stride_divisor", 1),
        shifts_per_scale=shifts,
    )


def spec_to_dict(spec: AnchorSpec) -> dict:
    return {
        "scales": list(spec.scales),
        "ratios": list(spec.ratios),
        "base_stride": spec.base_stride,
        "stride_divisor": spec.stride_divisor,
        "shifts_per_scale": {f"{k:g}": v for k, v in sorted(spec.shifts_per_scale.items())},
    }


def spec_json(spec: AnchorSpec) -> str:
    """Compact single-line JSON for embedding a spec in a report cell."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))


def load_spec(path: str) -> AnchorSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def space_from_dict(data) -> SearchSpace:
    data = _require_mapping(data, "search space")
    _reject_unknown(data, _SPACE_KEYS, "search space")
    missing = sorted(k for k in ("stride_divisors", "shift_choices", "scale_sets", "budget") if k not in data)
    if missing:
        raise ValueError(f"search space needs keys: {', '.join(missing)}")
    scale_sets = data["scale_sets"]
    if not isinstance(scale_sets, list) or not all(isinstance(s, list) for s in scale_sets):
        raise ValueError("scale_sets must be a list of scale lists")
    return SearchSpace(
        stride_divisors=tuple(data["stride_divisors"]),
        shift_choices=tuple(data["shift_choices"]),
        scale_sets=tuple(tuple(s) for s in scale_sets),
        budget=int(data["budget"]),
        ratios=tuple(data.get("ratios", (1.0,))),
        base_stride=data.get("base_stride", 16.0),
    )


def load_space(path: str) -> SearchSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_dict(json.load(fh))
