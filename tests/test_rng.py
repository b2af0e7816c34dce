"""Keyed random streams."""

import numpy as np
import pytest

from anchorlap.dataset import jitter_experiment
from anchorlap.emo import emo_monte_carlo
from anchorlap.geometry import RectBox
from anchorlap.layout import AnchorSpec, build_layout
from anchorlap.rng import stream


def test_same_key_same_output():
    a = stream(7, 3).random(100)
    b = stream(7, 3).random(100)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_output():
    base = stream(7, 3).random(100)
    assert not np.array_equal(base, stream(7, 4).random(100))
    assert not np.array_equal(base, stream(8, 3).random(100))


def test_streams_do_not_alias_across_seed_index_swap():
    assert not np.array_equal(stream(1, 2).random(50), stream(2, 1).random(50))


def test_default_index_is_zero():
    assert np.array_equal(stream(5).random(10), stream(5, 0).random(10))


def test_huge_values_wrap():
    big = 1 << 70
    a = stream(big, 0).random(10)
    b = stream(big & ((1 << 64) - 1), 0).random(10)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed,index", [(-1, 0), (0, -2)])
def test_negative_arguments_rejected(seed, index):
    with pytest.raises(ValueError):
        stream(seed, index)


@pytest.mark.parametrize("field,kwargs", [
    ("seed", {"seed": 1.5}), ("seed", {"seed": True}), ("seed", {"seed": "7"}),
    ("stream index", {"seed": 7, "index": 2.5}), ("stream index", {"seed": 7, "index": False}),
])
def test_non_integers_rejected_naming_the_field(field, kwargs):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        stream(**kwargs)


def test_integral_values_are_the_integer():
    want = stream(7, 3).random(10)
    assert np.array_equal(stream(7.0, np.int64(3)).random(10), want)
    assert np.array_equal(stream(np.uint64(7), 3.0).random(10), want)


@pytest.mark.parametrize("seed", [1.5, True])
def test_monte_carlo_seed_rejected(seed):
    layout = build_layout(AnchorSpec(scales=(16.0,)), 64.0, 64.0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        emo_monte_carlo([(layout, 16.0, 16.0)], 1000, seed=seed)


@pytest.mark.parametrize("seed", [2.5, True])
def test_jitter_seed_rejected(seed):
    faces = [RectBox(0.0, 0.0, 16.0, 16.0)]
    layout = build_layout(AnchorSpec(scales=(16.0,)), 64.0, 64.0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        jitter_experiment(faces, layout, 2, seed=seed)
