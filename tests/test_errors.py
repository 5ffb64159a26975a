"""The rules of ``mqisim.errors``: ``check_count`` for a count and the layers that
use it, ``require`` for a domain check and ``finite`` for an overflow."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from mqisim import (
    ConvergenceError,
    InvalidArgumentError,
    SpectrumProfile,
    SqueezeParam,
    TruncationError,
    build_classical_hypotheses,
    qi_channel,
    spectrum_sweep,
    thermal_probabilities,
    tmsv_covariance,
    tmsv_fock,
    wigner_grid,
)
from mqisim.errors import check_count, finite, require


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
    (lambda: qi_channel(0.1, math.nan, 10, 48), "signal_cutoff"),
    (lambda: qi_channel(0.1, 48, 10, -1), "noise_cutoff"),
    (lambda: build_classical_hypotheses(0.1, 0.5, 1.0, math.inf), "cutoff"),
    (lambda: spectrum_sweep(SpectrumProfile(0.5, 12e9, 8e9), steps=math.inf), "steps"),
    (lambda: wigner_grid(tmsv_covariance(SqueezeParam(0.5)), samples=math.nan), "samples"),
], ids=["thermal", "tmsv", "qi_signal", "qi_noise", "classical", "spectrum",
        "wigner"])
def test_each_layer_names_the_count(call, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer >= "):
        call()


# --- the domain rule, errors.require, and the overflow rule, errors.finite ---


@pytest.mark.parametrize("ok", [True, np.True_, np.array(True), np.ones(3, bool)],
                         ids=["python", "numpy_scalar", "0d", "array"])
def test_require_passes_when_every_point_holds(ok):
    assert require(ok, "unused {}", 1.0) is None


def test_require_fails_on_nan():
    with pytest.raises(InvalidArgumentError, match=r"^x must be >= 0, got nan$"):
        require(math.nan >= 0.0, "x must be >= 0, got {}", math.nan)
    x = np.array([1.0, math.nan])
    with pytest.raises(InvalidArgumentError, match=r"got nan at 1$"):
        require(x >= 0.0, "got {} at {}", x, np.arange(2))


def test_require_names_the_first_failing_point():
    x = np.array([0.5, -1.0, 2.0, -3.0])
    with pytest.raises(InvalidArgumentError, match=r"^x=-1.0 of 4 must be >= 0$"):
        require(x >= 0.0, "x={} of {} must be >= 0", x, 4)


@pytest.mark.parametrize("ok", [False, np.False_, np.array(False)],
                         ids=["python", "numpy_scalar", "0d"])
def test_require_takes_a_scalar_condition(ok):
    with pytest.raises(InvalidArgumentError, match=r"^x=2.5$"):
        require(ok, "x={}", 2.5)


def test_require_without_values_keeps_the_message():
    # a pre-formatted message may hold braces, from a set or a dict
    with pytest.raises(InvalidArgumentError) as info:
        require(False, "unknown config keys {'a'}, {}")
    assert str(info.value) == "unknown config keys {'a'}, {}"


@pytest.mark.parametrize("error", [OverflowError, TruncationError, ConvergenceError])
def test_require_raises_the_given_error(error):
    with pytest.raises(error, match="^gate$") as info:
        require(False, "gate", error=error)
    assert type(info.value) is error


def test_finite_keeps_python_floats_and_arrays():
    got = finite("{} / {}", operator.truediv, 1.0, 4.0)
    assert got == 0.25 and type(got) is float
    got = finite("{} * {}", operator.mul, np.array([1.0, 2.0]), 3.0)
    assert isinstance(got, np.ndarray) and got.tolist() == [3.0, 6.0]


def test_finite_names_both_operands_where_it_overflows():
    with pytest.raises(OverflowError, match=r"^m overflows at 1e\+300 \* 10000000000.0$"):
        finite("m overflows at {} * {}", operator.mul, np.array([1.0, 1e300]), 1e10)
    with pytest.raises(OverflowError, match=r"^q overflows at 1e\+308 / 1e-10$"):
        finite("q overflows at {} / {}", operator.truediv, 1e308, 1e-10)
