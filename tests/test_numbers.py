"""Every numeric parameter is checked where it enters, by one rule per kind
of number: ``layout._real`` for reals, ``layout._integer`` for integers."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from anchorlap.dataset import bucket_stats, jitter_experiment
from anchorlap.emo import EmoQuery, emo_monte_carlo
from anchorlap.geometry import RectBox
from anchorlap.layout import AnchorSpec, _real, build_layout
from anchorlap.matching import MatchConfig
from anchorlap.optimizer import SearchSpace, evaluate_config
from anchorlap.rng import stream

SPEC = AnchorSpec(scales=(16.0,))
LAYOUT = build_layout(SPEC, 128.0, 128.0)
FACES = [RectBox(0.0, 0.0, 4.0, 4.0)]


def space(**kwargs):
    return SearchSpace(**{"stride_divisors": (1,), "shift_choices": (0,), "scale_sets": ((16.0,),),
                          "budget": 1, **kwargs})


def monte_carlo(face_w=16.0, samples=1000, seed=0, workers=1):
    return emo_monte_carlo([(LAYOUT, face_w, 16.0)], samples, seed, workers)


POSITIVE = (16, np.float64(16.0), np.int64(16), Fraction(3, 2))
UNIT = (np.float64(0.5), Fraction(1, 2))

# Each real parameter: the call that takes its value and returns what it
# stored (None where nothing is stored), the name its errors give, and
# values it accepts.
REAL_PARAMETERS = {
    "AnchorSpec.scales": (lambda v: AnchorSpec(scales=(v,)).scales[0], "scales", POSITIVE),
    "AnchorSpec.ratios": (lambda v: AnchorSpec(scales=(16.0,), ratios=(v,)).ratios[0], "ratios", POSITIVE),
    "AnchorSpec.base_stride": (lambda v: AnchorSpec(scales=(16.0,), base_stride=v).base_stride,
                               "base_stride", POSITIVE),
    "SearchSpace.scale_sets": (lambda v: space(scale_sets=((v,),)).scale_sets[0][0], "scale_sets", POSITIVE),
    "SearchSpace.ratios": (lambda v: space(ratios=(v,)).ratios[0], "ratios", POSITIVE),
    "SearchSpace.base_stride": (lambda v: space(base_stride=v).base_stride, "base_stride", POSITIVE),
    "build_layout.plane_w": (lambda v: build_layout(SPEC, v, 64.0).plane_w, "plane_w", POSITIVE),
    "build_layout.plane_h": (lambda v: build_layout(SPEC, 64.0, v).plane_h, "plane_h", POSITIVE),
    "EmoQuery.face_side": (lambda v: EmoQuery(v, 1.0).face_side, "face_side", POSITIVE),
    "EmoQuery.anchor_stride": (lambda v: EmoQuery(16.0, v).anchor_stride, "anchor_stride", POSITIVE),
    "emo_monte_carlo.face_size": (lambda v: monte_carlo(face_w=v) and None, "face size", POSITIVE),
    "bucket_stats.edges": (lambda v: bucket_stats(FACES, LAYOUT, edges=(v,)).edges[0], "bucket edge", POSITIVE),
    "bucket_stats.tau": (lambda v: bucket_stats(FACES, LAYOUT, tau=v) and None, "tau", UNIT),
    "evaluate_config.tau": (lambda v: evaluate_config(SPEC, FACES, tau=v) and None, "tau", UNIT),
    "MatchConfig.t_low": (lambda v: MatchConfig(t_low=v).t_low, "t_low", UNIT),
    "MatchConfig.t_high": (lambda v: MatchConfig(t_high=v, t_low=0.1).t_high, "t_high", UNIT),
}


@pytest.mark.parametrize("call, name, accepted", REAL_PARAMETERS.values(), ids=REAL_PARAMETERS)
class TestRealParameters:
    @pytest.mark.parametrize("bad", [True, "16", None])
    def test_non_reals_raise_type_error(self, call, name, accepted, bad):
        with pytest.raises(TypeError, match=f"{name}.* must be a real number, got {bad!r}"):
            call(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, -1, 10**400],
                             ids=["nan", "inf", "-inf", "0", "-1", "10**400"])
    def test_out_of_range_raises_value_error(self, call, name, accepted, bad):
        with pytest.raises(ValueError, match=name):
            call(bad)

    def test_reals_are_accepted_and_stored_as_floats(self, call, name, accepted):
        for value in accepted:
            stored = call(value)
            assert stored is None or (type(stored) is float and stored == value)


UNIT_PARAMETERS = {key: entry for key, entry in REAL_PARAMETERS.items() if entry[2] is UNIT}


@pytest.mark.parametrize("call, name, accepted", UNIT_PARAMETERS.values(), ids=UNIT_PARAMETERS)
def test_one_is_outside_the_unit_interval(call, name, accepted):
    with pytest.raises(ValueError, match=rf"{name} must be in \(0, 1\), got 1$"):
        call(1)


# Face sides enter the EMO estimators squared, so each stays below 2**500.
FACE_SIDES = {key: REAL_PARAMETERS[key] for key in ("EmoQuery.face_side", "emo_monte_carlo.face_size")}
# Anchor scales and search-space scales bound box sides the same way.
SCALES = {key: REAL_PARAMETERS[key] for key in ("AnchorSpec.scales", "SearchSpace.scale_sets")}
SIDES = {**SCALES, **FACE_SIDES}
SIDE_RANGE = r"must be in \(3.05494e-151, 3.27339e\+150\), got "


def _check_sides(call, name, good, bads):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)
        for bad in bads:
            with pytest.raises(ValueError, match=rf"{name}.* {SIDE_RANGE}"):
                call(bad)


@pytest.mark.parametrize("call, name, accepted", FACE_SIDES.values(), ids=FACE_SIDES)
def test_face_sides_stay_below_2_to_500(call, name, accepted):
    _check_sides(call, name, 2.0**499, (2.0**500, 1e300))


@pytest.mark.parametrize("call, name, accepted", SCALES.values(), ids=SCALES)
def test_scales_stay_below_2_to_500(call, name, accepted):
    _check_sides(call, name, 2.0**499, (2.0**500, 1e300))


# Anchor scales and EMO face sides stay above 2**-500, so that no area
# underflows to 0 and no IoU becomes 0/0.
@pytest.mark.parametrize("call, name, accepted", SIDES.values(), ids=SIDES)
def test_sides_stay_above_2_to_minus_500(call, name, accepted):
    _check_sides(call, name, 2.0**-499, (2.0**-500, 1e-300, 5e-324))


@pytest.mark.parametrize("key, error", [(10**400, ValueError), (True, TypeError)], ids=["10**400", "True"])
def test_shift_keys_that_are_not_strings_are_reals(key, error):
    with pytest.raises(error, match="shifts_per_scale key"):
        AnchorSpec(scales=(16.0,), shifts_per_scale={key: 1})


def test_real_edges():
    assert _real(int(sys.float_info.max), "x") == sys.float_info.max
    with pytest.raises(ValueError, match="x must be positive and finite"):
        _real(int(sys.float_info.max) * 2, "x")
    with pytest.raises(ValueError, match="x must be positive and finite"):
        _real(Fraction(1, 10**400), "x")  # positive, but 0.0 as a float
    with pytest.raises(TypeError):
        _real(np.bool_(True), "x")


# Each integer parameter with a lower bound: the call taking its value, the
# name its errors give, and the bound.
INTEGER_BOUNDS = {
    "jitter_experiment.trials": (lambda v: jitter_experiment(FACES, LAYOUT, trials=v, seed=0), "trials", 1),
    "EmoQuery.quadrature_cells": (lambda v: EmoQuery(16.0, 16.0, v), "quadrature_cells", 16),
    "emo_monte_carlo.samples": (lambda v: monte_carlo(samples=v), "samples", 1000),
    "emo_monte_carlo.workers": (lambda v: monte_carlo(workers=v), "workers", 1),
    "emo_monte_carlo.seed": (lambda v: monte_carlo(seed=v), "seed", 0),
    "stream.seed": (lambda v: stream(v), "seed", 0),
    "stream.index": (lambda v: stream(0, v), "stream index", 0),
    "MatchConfig.hc_n": (lambda v: MatchConfig(hc_n=v), "hc_n", 0),
    "SearchSpace.budget": (lambda v: space(budget=v), "budget", 1),
}


@pytest.mark.parametrize("call, name, least", INTEGER_BOUNDS.values(), ids=INTEGER_BOUNDS)
def test_integer_lower_bound(call, name, least):
    call(least)
    bound = "non-negative" if least == 0 else f">= {least}"
    with pytest.raises(ValueError, match=f"^{name} must be {bound}, got {least - 1}$"):
        call(least - 1)
