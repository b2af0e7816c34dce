"""JSON round-trips for anchor specs and search spaces."""

import json

import pytest

from anchorlap.layout import AnchorSpec
from anchorlap.optimizer import SearchSpace
from anchorlap.specfile import (
    load_space,
    load_spec,
    space_from_dict,
    spec_from_dict,
    spec_json,
    spec_to_dict,
)

from helpers import save_spec

FULL_SPEC = AnchorSpec(
    scales=(16.0, 32.0, 64.0, 128.0, 256.0, 512.0),
    base_stride=16.0,
    stride_divisor=2,
    shifts_per_scale={16.0: 3},
)


def test_dict_round_trip():
    assert spec_from_dict(spec_to_dict(FULL_SPEC)) == FULL_SPEC


def test_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(FULL_SPEC, str(path))
    assert load_spec(str(path)) == FULL_SPEC
    # the file is plain sorted JSON with a trailing newline
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["stride_divisor"] == 2


def test_minimal_document():
    spec = spec_from_dict({"scales": [16, 32]})
    assert spec == AnchorSpec(scales=(16.0, 32.0))


def test_shift_keys_are_strings():
    spec = spec_from_dict({"scales": [16], "shifts_per_scale": {"16": 3}})
    assert spec.shifts_per_scale == {16.0: 3}
    assert json.loads(spec_json(spec))["shifts_per_scale"] == {"16": 3}


def test_spec_json_is_compact_and_sorted():
    text = spec_json(AnchorSpec(scales=(16.0,)))
    assert " " not in text
    keys = list(json.loads(text))
    assert keys == sorted(keys)


# Wrong-typed values, each with the key its error must name.
WRONG_SPEC_VALUES = [
    ({"scales": [16], "shifts_per_scale": {"16": 1.5}}, "shifts_per_scale"),
    ({"scales": [16], "shifts_per_scale": {"16": True}}, "shifts_per_scale"),
    ({"scales": [16], "stride_divisor": True}, "stride_divisor"),
    ({"scales": 16}, "scales"),
    ({"scales": [None]}, "scales"),
    ({"scales": [16], "ratios": 1}, "ratios"),
    ({"scales": [16], "shifts_per_scale": {"16": None}}, "shifts_per_scale"),
    ({"scales": [16], "base_stride": None}, "base_stride"),
    ({"scales": [16], "base_stride": "16"}, "base_stride"),
]
SPACE = {"stride_divisors": [1], "shift_choices": [0], "scale_sets": [[16]], "budget": 1}
WRONG_SPACE_VALUES = [
    ({**SPACE, "stride_divisors": [1, 2.5]}, "stride_divisors"),
    ({**SPACE, "shift_choices": [0, 1.5]}, "shift_choices"),
    ({**SPACE, "budget": 9.7}, "budget"),
    ({**SPACE, "stride_divisors": [True, 2]}, "stride_divisors"),
    ({**SPACE, "stride_divisors": [None]}, "stride_divisors"),
    ({**SPACE, "budget": None}, "budget"),
    ({**SPACE, "scale_sets": [[None]]}, "scale_sets"),
    ({**SPACE, "base_stride": None}, "base_stride"),
    ({**SPACE, "stride_divisors": 2}, "stride_divisors"),
    ({**SPACE, "ratios": 1}, "ratios"),
]


@pytest.mark.parametrize(
    "doc",
    [
        [16, 32],
        {"scales": [16], "strides": [4]},
        {"ratios": [1.0]},
        {"scales": [16], "shifts_per_scale": [16, 3]},
        *(doc for doc, _ in WRONG_SPEC_VALUES),
    ],
)
def test_bad_spec_documents(doc):
    with pytest.raises(ValueError):
        spec_from_dict(doc)


def test_space_round_trip(tmp_path):
    doc = {
        "stride_divisors": [1, 2],
        "shift_choices": [0, 3],
        "scale_sets": [[16], [16, 32]],
        "budget": 9,
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    space = load_space(str(path))
    assert space == SearchSpace(
        stride_divisors=(1, 2), shift_choices=(0, 3),
        scale_sets=((16.0,), (16.0, 32.0)), budget=9,
    )
    assert space_from_dict(doc) == space


@pytest.mark.parametrize(
    "doc",
    [
        {"stride_divisors": [1], "shift_choices": [0], "budget": 1},
        {"stride_divisors": [1], "shift_choices": [0], "scale_sets": [16], "budget": 1},
        {"stride_divisors": [1], "shift_choices": [0], "scale_sets": [[16]], "budget": 1,
         "extra": True},
        *(doc for doc, _ in WRONG_SPACE_VALUES),
    ],
)
def test_bad_space_documents(doc):
    with pytest.raises(ValueError):
        space_from_dict(doc)


@pytest.mark.parametrize("doc, key", WRONG_SPEC_VALUES + WRONG_SPACE_VALUES)
def test_wrong_typed_value_names_its_key(doc, key):
    load = spec_from_dict if "scales" in doc else space_from_dict
    with pytest.raises(ValueError, match=key):
        load(doc)


def test_integral_floats_are_integers():
    spec = spec_from_dict({"scales": [16], "stride_divisor": 2.0, "shifts_per_scale": {"16": 3.0}})
    assert spec == AnchorSpec(scales=(16.0,), stride_divisor=2, shifts_per_scale={16.0: 3})
    assert type(spec.stride_divisor) is int and type(spec.shifts_per_scale[16.0]) is int
    space = space_from_dict({**SPACE, "stride_divisors": [1.0, 2], "budget": 9.0})
    assert space.stride_divisors == (1, 2) and space.budget == 9
    assert all(type(v) is int for v in (*space.stride_divisors, *space.shift_choices, space.budget))


@pytest.mark.parametrize("kwargs", [{"stride_divisor": True}, {"stride_divisor": "2"},
                                    {"shifts_per_scale": {16.0: 1.5}}])
def test_anchor_spec_rejects_non_integers(kwargs):
    with pytest.raises(ValueError, match="must be an integer"):
        AnchorSpec(scales=(16.0,), **kwargs)


@pytest.mark.parametrize("kwargs", [{"budget": 9.7}, {"budget": False}, {"stride_divisors": (1, 2.5)},
                                    {"shift_choices": ("0",)}])
def test_search_space_rejects_non_integers(kwargs):
    with pytest.raises(ValueError, match="must be an integer"):
        SearchSpace(**{"stride_divisors": (1,), "shift_choices": (0,), "scale_sets": ((16.0,),),
                       "budget": 1, **kwargs})
