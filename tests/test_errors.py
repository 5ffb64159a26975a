"""The one integer-count rule, ``errors.check_count``, and the layers that use it."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mqisim import (
    InvalidArgumentError,
    SpectrumProfile,
    SqueezeParam,
    build_classical_hypotheses,
    displacement,
    qi_channel,
    spectrum_sweep,
    thermal_probabilities,
    tmsv_covariance,
    tmsv_fock,
    wigner_grid,
)
from mqisim.errors import check_count


@pytest.mark.parametrize("value, want", [
    (0, 0), (3, 3), (3.0, 3), (np.int64(5), 5), (np.float64(2.0), 2), (Fraction(4, 1), 4),
])
def test_whole_numbers_are_counts(value, want):
    got = check_count("n", value)
    assert got == want and type(got) is int


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, 2.5, np.float64(0.5), -1, "3", None, (2,), 1 + 0j,
])
def test_other_values_are_rejected_by_name(value):
    with pytest.raises(InvalidArgumentError, match=r"^n must be an integer >= 0, got "):
        check_count("n", value)


def test_minimum():
    assert check_count("steps", 2, 2) == 2
    with pytest.raises(InvalidArgumentError, match="steps must be an integer >= 2, got 1"):
        check_count("steps", 1, 2)


# each once escaped as a bare ValueError or OverflowError, or (steps, samples)
# was checked by a rule of its own
@pytest.mark.parametrize("call, name", [
    (lambda: thermal_probabilities(1.0, math.nan), "cutoff"),
    (lambda: tmsv_fock(SqueezeParam(0.5), math.inf), "cutoff"),
    (lambda: displacement(0.1, math.nan), "cutoff"),
    (lambda: qi_channel(0.1, math.nan, 10, 48), "signal_cutoff"),
    (lambda: qi_channel(0.1, 48, 10, -1), "noise_cutoff"),
    (lambda: build_classical_hypotheses(0.1, 0.5, 1.0, math.inf), "cutoff"),
    (lambda: spectrum_sweep(SpectrumProfile(0.5, 12e9, 8e9), steps=math.inf), "steps"),
    (lambda: wigner_grid(tmsv_covariance(SqueezeParam(0.5)), samples=(math.nan, 3)), "samples"),
], ids=["thermal", "tmsv", "displacement", "qi_signal", "qi_noise", "classical", "spectrum",
        "wigner"])
def test_each_layer_names_the_count(call, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer >= "):
        call()
