"""Squeezing-parameter frequency profiles and dB mappings.

The device-physics model for kappa(nu) is out of scope here; a
phenomenological profile (truncated parabola by default, raised-cosine
or rectangular as alternatives) stands in for it, parameterized by the
apical value, band center and band width.  Frequency bookkeeping
follows the mixing process: a three-wave mixer conserves
nu_s + nu_i = nu_p, a four-wave mixer nu_s + nu_i = 2 nu_p.

The dB conventions, with the unit-vacuum-variance quadratures used
package-wide: squeezed joint-quadrature variance e^{-2 kappa} gives a
squeezing magnitude of 10 log10(e^{-2 kappa}) dB, and the
phase-preserving amplifier gain cosh^2(kappa) gives
10 log10(cosh^2 kappa) dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError

MIXING_TYPES = ("3wm", "4wm")
PROFILE_SHAPES = ("parabolic", "raised_cosine", "rectangular")

_DB_PER_KAPPA = 20.0 * math.log10(math.e)
_GAIN_CLOSED_FORM_KAPPA = 20.0


@dataclass(frozen=True)
class SpectrumProfile:
    """Phenomenological squeezing-parameter profile over a frequency band.

    kappa(nu) equals ``kappa_max`` at ``band_center``, falls off with
    the selected ``shape`` and is zero outside the band.  When
    ``band_center`` is omitted it defaults to the degenerate signal
    frequency of the mixing process: nu_p / 2 for a three-wave mixer,
    nu_p for a four-wave mixer.  The band must lie above 0 Hz and below
    nu_p (three-wave) or 2 nu_p (four-wave), where the idler frequency
    nu_p - nu_s or 2 nu_p - nu_s is positive.
    """

    kappa_max: float
    pump_freq: float
    band_width: float
    mixing: str = "3wm"
    band_center: float | None = None
    shape: str = "parabolic"

    def __post_init__(self):
        if self.kappa_max < 0.0 or not math.isfinite(self.kappa_max):
            raise InvalidArgumentError(f"kappa_max must be finite and >= 0, got {self.kappa_max}")
        if self.pump_freq <= 0.0 or not math.isfinite(self.pump_freq):
            raise InvalidArgumentError(f"pump_freq must be finite and > 0, got {self.pump_freq}")
        if self.band_width <= 0.0 or not math.isfinite(self.band_width):
            raise InvalidArgumentError(f"band_width must be finite and > 0, got {self.band_width}")
        if self.mixing not in MIXING_TYPES:
            raise InvalidArgumentError(f"mixing must be one of {MIXING_TYPES}, got {self.mixing!r}")
        if self.shape not in PROFILE_SHAPES:
            raise InvalidArgumentError(f"shape must be one of {PROFILE_SHAPES}, got {self.shape!r}")
        if self.band_center is None:
            object.__setattr__(self, "band_center", self.frequency_sum / 2.0)
        elif self.band_center <= 0.0 or not math.isfinite(self.band_center):
            raise InvalidArgumentError(
                f"band_center must be finite and > 0, got {self.band_center}"
            )
        self._require_inside("band", *self.band_edges)

    @property
    def frequency_sum(self) -> float:
        """nu_s + nu_i fixed by the mixing process: nu_p (3wm) or 2 nu_p (4wm)."""
        return self.pump_freq if self.mixing == "3wm" else 2.0 * self.pump_freq

    def _require_inside(self, what: str, lo: float, hi: float):
        """Raise unless [lo, hi] lies inside (0, nu_s + nu_i), where signal and idler
        frequencies are both positive."""
        top = self.frequency_sum
        if not 0.0 < lo or not hi < top:
            raise InvalidArgumentError(
                f"{what} [{lo:.9g}, {hi:.9g}] Hz must lie inside (0, {top:.9g}) Hz, where signal "
                f"and idler frequencies of {self.mixing} mixing are both positive"
            )

    @property
    def band_edges(self) -> tuple[float, float]:
        half = self.band_width / 2.0
        return (self.band_center - half, self.band_center + half)


def kappa_profile(nu_s, profile: SpectrumProfile):
    """Squeezing modulus at signal frequency nu_s (vectorized over nu_s).

    parabolic:     kappa_max (1 - u^2), u = (nu - center)/(width/2)
    raised_cosine: kappa_max (1 + cos(pi u)) / 2 inside the band
    rectangular:   kappa_max inside the band

    All shapes are 0 outside the band and kappa_max at its center.
    """
    nu = np.asarray(nu_s, dtype=float)
    u = (nu - profile.band_center) / (profile.band_width / 2.0)
    if profile.shape == "parabolic":
        val = profile.kappa_max * (1.0 - u**2)
    elif profile.shape == "raised_cosine":
        val = profile.kappa_max * 0.5 * (1.0 + np.cos(np.pi * u))
    else:  # rectangular
        val = profile.kappa_max
    val = np.where(np.abs(u) <= 1.0, val, 0.0)
    return float(val) if np.isscalar(nu_s) else val


def _check_kappa(kappa):
    k = np.asarray(kappa, dtype=float)
    if not np.all(k >= 0.0):   # NaN fails too
        raise InvalidArgumentError(f"kappa must be >= 0, got {kappa}")
    return k


def squeezing_magnitude_db(kappa):
    """Squeezed joint-quadrature variance relative to vacuum, in dB: the exact
    negative of :func:`antisqueezing_magnitude_db`, so the two cancel."""
    return 0.0 - antisqueezing_magnitude_db(kappa)


def antisqueezing_magnitude_db(kappa):
    """Anti-squeezed joint-quadrature variance relative to vacuum, in dB.

    10 log10(e^{2 kappa}) = (20 log10 e) kappa in closed form.  Vectorized
    over kappa; a scalar kappa gives a float.
    """
    val = _DB_PER_KAPPA * _check_kappa(kappa)
    return float(val) if np.isscalar(kappa) else val


def gain_db(kappa):
    """Phase-preserving amplifier gain 10 log10(cosh^2 kappa) in dB (vectorized over kappa).

    Below kappa = 20 it is (20 log10 e) log1p(2 sinh^2(kappa / 2)), as
    cosh kappa = 1 + 2 sinh^2(kappa / 2): 20 log10(cosh kappa) would lose
    cosh kappa - 1 ~ kappa^2 / 2 to rounding at small kappa (all of it
    below kappa ~ 1e-8).  From kappa = 20 on, cosh kappa = e^kappa / 2 to
    double precision, so the gain is (20 log10 e) kappa - 20 log10 2 there;
    sinh, which overflows near kappa = 710, is evaluated only below 20.
    """
    k = _check_kappa(kappa)
    val = np.where(
        k < _GAIN_CLOSED_FORM_KAPPA,
        _DB_PER_KAPPA * np.log1p(2.0 * np.sinh(np.minimum(k, _GAIN_CLOSED_FORM_KAPPA) / 2.0) ** 2),
        _DB_PER_KAPPA * k - 20.0 * math.log10(2.0),
    )
    return float(val) if np.isscalar(kappa) else val


class SpectrumTable(NamedTuple):
    """Columns of a frequency sweep (read-only): nu_s, nu_i, kappa, S (dB), G (dB)."""

    profile: SpectrumProfile
    nu_s: np.ndarray
    nu_i: np.ndarray
    kappa: np.ndarray
    squeezing_db: np.ndarray
    gain_db: np.ndarray


def spectrum_sweep(
    profile: SpectrumProfile,
    nu_range: tuple[float, float] | None = None,
    steps: int = 161,
) -> SpectrumTable:
    """Sweep the signal frequency and tabulate kappa, squeezing and gain.

    ``nu_range`` defaults to the profile band and, like the band, must lie
    inside (0, nu_s + nu_i), where both frequencies are positive.  Rows
    outside the band carry kappa = 0 (hence 0 dB squeezing and gain)
    rather than raising; the idler column follows the conservation
    formula everywhere.
    """
    if not float(steps).is_integer():
        raise InvalidArgumentError(f"steps must be an integer, got {steps}")
    if steps < 2:
        raise InvalidArgumentError(f"steps must be >= 2, got {steps}")
    lo, hi = profile.band_edges if nu_range is None else (float(nu_range[0]), float(nu_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise InvalidArgumentError(f"invalid sweep range ({lo}, {hi})")
    profile._require_inside("sweep range", lo, hi)
    nu_s = np.linspace(lo, hi, int(steps))
    kap = kappa_profile(nu_s, profile)
    columns = (nu_s, profile.frequency_sum - nu_s, kap, squeezing_magnitude_db(kap), gain_db(kap))
    for col in columns:
        col.setflags(write=False)
    return SpectrumTable(profile, *columns)
