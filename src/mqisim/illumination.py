"""Target-detection error-rate envelopes.

The asymptotic error-probability envelope for M independent pulses is

    P_e ~ exp(-M R) / (2 sqrt(pi M R)),

with rate R = eta N_S / (4 N_B) for a coherent-state transmitter and
R = eta N_S / N_B for the entangled (TMSV) transmitter, a fixed factor
4 (6.02 dB) apart.  The rate and envelope functions take scalars or 1-D
arrays (a sweep) and broadcast; scalars give a Python float or bool.
These envelopes are asymptotic claims; the brute-force oracle in
:mod:`mqisim.qcb` quantifies how fast each transmitter actually
approaches its envelope rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError


def _floats(value, name: str):
    """A scalar argument as a float, a 1-D one as a float array (a copy)."""
    v = np.array(value, dtype=float)
    if v.ndim > 1:
        raise InvalidArgumentError(f"{name} must be a scalar or 1-D, got shape {v.shape}")
    return float(v) if v.ndim == 0 else v


def _require(ok, message: str, *values, error=InvalidArgumentError):
    """Raise ``error`` unless ``ok`` holds at every point, formatting ``message``
    with the ``values`` at the first point where it does not."""
    bad = np.flatnonzero(np.logical_not(ok))
    if bad.size:
        point = (np.broadcast_to(v, np.shape(ok)).flat[bad[0]].item() for v in values)
        raise error(message.format(*point))


def _quotient(num, den, name: str):
    """num / den (den > 0), raising OverflowError where it overflows."""
    with np.errstate(over="ignore"):
        out = num / den
    _require(np.isfinite(out), name + " overflows at {} / {}", num, den, error=OverflowError)
    return out


def _scalar(value):
    """A 0-d result as a Python float or bool; arrays pass through."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class DetectionScenario:
    """Protocol parameters for one interrogation scenario, or a sweep of them.

    eta: round-trip target reflectance in [0, 1];
    n_s: signal photons per mode; n_b: background thermal photons per
    mode; t_int: integration time in seconds; bandwidth: source
    bandwidth in Hz.  Rate formulas additionally require n_b > 0.  Each
    field is a float or a 1-D array, and the fields broadcast together.
    """

    eta: float | np.ndarray
    n_s: float | np.ndarray
    n_b: float | np.ndarray
    t_int: float | np.ndarray = 0.0
    bandwidth: float | np.ndarray = 0.0

    def __post_init__(self):
        names = ("eta", "n_s", "n_b", "t_int", "bandwidth")
        for name in names:
            v = _floats(getattr(self, name), name)
            hi = 1.0 if name == "eta" else math.inf
            _require(np.isfinite(v) & (v >= 0.0) & (v <= hi), f"{name}={{}} outside [0.0, {hi}]", v)
            if isinstance(v, np.ndarray):
                v.setflags(write=False)
            object.__setattr__(self, name, v)
        try:
            np.broadcast_shapes(*(np.shape(getattr(self, name)) for name in names))
        except ValueError:
            raise InvalidArgumentError("scenario fields must broadcast together") from None

    @property
    def snr(self) -> float | np.ndarray:
        """Signal-to-noise ratio interpreted as N_S / N_B (reporting only)."""
        _require(self.n_b != 0.0, "snr undefined for n_b = 0")
        return _quotient(self.n_s, self.n_b, "snr n_s / n_b")

    @property
    def pulses(self) -> float | np.ndarray:
        return pulse_count(self.t_int, self.bandwidth)


def classical_error_rate(scn: DetectionScenario) -> float | np.ndarray:
    """Error-probability exponent rate of the coherent-state transmitter."""
    _require(scn.n_b != 0.0, "rate formulas require n_b > 0")
    # 0.25 eta n_s / n_b: 4 n_b may overflow, and scaling by 0.25 is exact (normal range)
    return _quotient(0.25 * scn.eta * scn.n_s, scn.n_b, "rate eta n_s / (4 n_b)")


def quantum_error_rate(scn: DetectionScenario) -> float | np.ndarray:
    """Error-probability exponent rate of the entangled transmitter."""
    _require(scn.n_b != 0.0, "rate formulas require n_b > 0")
    return _quotient(scn.eta * scn.n_s, scn.n_b, "rate eta n_s / n_b")


def advantage_db() -> float:
    """Exponent advantage of the entangled transmitter, 10 log10(4) dB.

    Scenario-independent: the two rates differ by exactly a factor 4.
    """
    return 10.0 * math.log10(4.0)


def pulse_count(t_int, bandwidth):
    """Number of independent pulses M = T W (kept real, not floored)."""
    t = _floats(t_int, "t_int")
    w = _floats(bandwidth, "bandwidth")
    _require(np.isfinite(t) & np.isfinite(w) & (t >= 0.0) & (w >= 0.0),
             "t_int and bandwidth must be finite and >= 0, got {}, {}", t, w)
    with np.errstate(over="ignore"):
        m = t * w
    _require(np.isfinite(m), "pulse count t_int * bandwidth overflows at {} * {}", t, w,
             error=OverflowError)
    return m


def error_probability(rate, pulses):
    """Asymptotic envelope exp(-M R) / (2 sqrt(pi M R)).

    Valid as an approximation only for M R >= 1 and M >> 1; use
    :func:`is_asymptotic` for the validity flag.
    """
    r = _floats(rate, "rate")
    m = _floats(pulses, "pulses")
    _require(np.isfinite(r) & np.isfinite(m) & (r > 0.0) & (m > 0.0),
             "rate and pulses must be finite and > 0, got {}, {}", r, m)
    with np.errstate(over="ignore"):   # an M R that overflows is envelope 0
        mr = m * r
        _require(mr > 0.0, "pulses * rate underflows to 0 at {} * {}", m, r)
        return _scalar(np.exp(-mr) / (2.0 * np.sqrt(math.pi * mr)))


def is_asymptotic(rate, pulses):
    """Whether the envelope formula is inside its asymptotic validity window."""
    with np.errstate(over="ignore"):   # M R = inf is >= 1
        return _scalar((np.multiply(pulses, rate) >= 1.0) & np.greater_equal(pulses, 100.0))


class PulseRequirement(NamedTuple):
    """Pulse budget solving the envelope for a target error probability."""

    pulses: float
    exponent_arg: float  # M R at the solution
    asymptotic_valid: bool


def required_pulses(rate: float, target_pe: float) -> PulseRequirement:
    """Invert the error-probability envelope for the pulse count.

    Solves exp(-x)/(2 sqrt(pi x)) = p = target_pe for x = M R with :func:`_s_root`
    (the envelope is strictly decreasing) on [1e-12, -ln p], a bracket: at
    -ln p > ln 2 > 1/(4 pi) the envelope is below p.  Returns M = x / rate,
    or raises OverflowError where M overflows.  Solutions with x < 1 or
    M < 100 sit outside the asymptotic window and are flagged, not rejected.
    """
    r = float(rate)
    p = float(target_pe)
    if not math.isfinite(r) or r <= 0.0:
        raise InvalidArgumentError(f"rate must be finite and > 0, got {rate}")
    if not 0.0 < p < 0.5:
        raise InvalidArgumentError(f"target_pe must be in (0, 0.5), got {target_pe}")

    def log_ratio(x: float) -> tuple[float, float]:   # ln(p / envelope), increasing, and d/dx
        return x + math.log(2.0 * math.sqrt(math.pi * x)) + math.log(p), 1.0 + 0.5 / x

    hi = -math.log(p)
    x, _ = _s_root(log_ratio, 1e-12, hi, 1e-15 * hi)
    pulses = _quotient(x, r, "pulse count M = x / rate")
    resid = abs(error_probability(r, pulses) / p - 1.0)
    if resid > 1e-10:
        raise ConvergenceError(f"envelope inversion residual {resid:.3e} exceeds 1e-10")
    return PulseRequirement(pulses=pulses, exponent_arg=x, asymptotic_valid=is_asymptotic(r, pulses))


def _s_root(f, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Root in [lo, hi] of the increasing function ``f(x) -> (f(x), f'(x))``.

    The signs of f seen so far bracket the root.  From the midpoint, a
    Newton step is taken when it stays inside the bracket and is at most
    half the previous step (the first: hi - lo); otherwise the bracket is
    bisected.  Stops at a step of at most ``tol``; returns the root and
    the number of evaluations.
    """
    x, last = 0.5 * (lo + hi), hi - lo
    for evals in range(1, 201):
        fx, dfx = f(x)
        if fx == 0.0:
            return x, evals
        if fx > 0.0:
            hi = x
        else:
            lo = x
        newton = x - fx / dfx if dfx > 0.0 else math.nan
        nxt = newton if lo <= newton <= hi and abs(newton - x) <= 0.5 * last else 0.5 * (lo + hi)
        last, x = abs(nxt - x), nxt
        if last <= tol:
            return x, evals
    raise ConvergenceError(f"root search did not converge to {tol} in {evals} steps")
