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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# The JSON type of each document key, as (description, test).
_NUMBER = ("a number", _is_number)
_NUMBERS = ("a list of numbers", _is_numbers)
_SPEC_KEYS = {"scales": _NUMBERS, "ratios": _NUMBERS, "base_stride": _NUMBER, "stride_divisor": _NUMBER,
              "shifts_per_scale": ("an object of numbers",
                                   lambda v: isinstance(v, dict) and all(map(_is_number, v.values())))}
_SPACE_KEYS = {"stride_divisors": _NUMBERS, "shift_choices": _NUMBERS, "budget": _NUMBER,
               "scale_sets": ("a list of number lists", lambda v: isinstance(v, list) and all(map(_is_numbers, v))),
               "ratios": _NUMBERS, "base_stride": _NUMBER}


def _checked(data, kinds: dict, required: tuple, what: str) -> dict:
    """``data`` once it is a JSON object of known keys, holding the
    ``required`` ones, each of its kind; otherwise ``ValueError`` naming the
    first key at fault."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValueError(f"{what} needs keys: {', '.join(missing)}")
    for key, value in data.items():
        kind, test = kinds[key]
        if not test(value):
            raise ValueError(f"{what} {key} must be {kind}, got {value!r}")
    return data


def spec_from_dict(data) -> AnchorSpec:
    data = _checked(data, _SPEC_KEYS, ("scales",), "anchor spec")
    return AnchorSpec(
        scales=tuple(data["scales"]),
        ratios=tuple(data.get("ratios", (1.0,))),
        base_stride=data.get("base_stride", 16.0),
        stride_divisor=data.get("stride_divisor", 1),
        shifts_per_scale={float(k): v for k, v in data.get("shifts_per_scale", {}).items()},
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


def _load_json(path: str, what: str):
    """The JSON document in ``path``; a file that is not UTF-8 raises
    ``OSError`` naming it, as unreadable input does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise OSError(f"{what} {path} is not UTF-8 text: {exc}") from None


def load_spec(path: str) -> AnchorSpec:
    return spec_from_dict(_load_json(path, "anchor spec"))


def space_from_dict(data) -> SearchSpace:
    data = _checked(data, _SPACE_KEYS, ("stride_divisors", "shift_choices", "scale_sets", "budget"), "search space")
    return SearchSpace(
        stride_divisors=tuple(data["stride_divisors"]),
        shift_choices=tuple(data["shift_choices"]),
        scale_sets=tuple(tuple(s) for s in data["scale_sets"]),
        budget=data["budget"],
        ratios=tuple(data.get("ratios", (1.0,))),
        base_stride=data.get("base_stride", 16.0),
    )


def load_space(path: str) -> SearchSpace:
    return space_from_dict(_load_json(path, "search space"))
