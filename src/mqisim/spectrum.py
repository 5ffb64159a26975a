"""Squeezing-parameter frequency profiles and dB mappings.

The device-physics model for kappa(nu) is out of scope here; a
phenomenological profile (truncated parabola by default, raised-cosine
or rectangular as alternatives) stands in for it, parameterized by the
apical value and the band width.  Frequency bookkeeping follows the
mixing process: a three-wave mixer conserves nu_s + nu_i = nu_p, a
four-wave mixer nu_s + nu_i = 2 nu_p, and the band is centred on (nu_s + nu_i) / 2.
A sweep is the band in pair coordinates: each row is a signal and its idler at
one detuning from the centre, so a row's mirror is its pair and shares its kappa.

The dB conventions, with the unit-vacuum-variance quadratures used
package-wide: squeezed joint-quadrature variance e^{-2 kappa} gives a
squeezing magnitude of 10 log10(e^{-2 kappa}) dB, and the
phase-preserving amplifier gain cosh^2(kappa) gives
10 log10(cosh^2 kappa) dB.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import check_count, finite, require

MIXING_TYPES = ("3wm", "4wm")
PROFILE_SHAPES = ("parabolic", "raised_cosine", "rectangular")

_DB_PER_KAPPA = 20.0 * math.log10(math.e)
_GAIN_CLOSED_FORM_KAPPA = 20.0


@dataclass(frozen=True)
class SpectrumProfile:
    """Phenomenological squeezing-parameter profile over a frequency band.

    kappa equals ``kappa_max`` at ``band_center``, the degenerate
    frequency nu_p / 2 (three-wave) or nu_p (four-wave), falls off with the
    selected ``shape`` and is zero outside the band.  It is a function of
    the detuning |nu - band_center|, which a signal and its idler, one TMSV
    pair, share.  The band, of width below nu_s + nu_i, lies above 0 Hz and
    below nu_p (three-wave) or 2 nu_p (four-wave), where both are positive.
    """

    kappa_max: float
    pump_freq: float
    band_width: float
    mixing: str = "3wm"
    shape: str = "parabolic"

    def __post_init__(self):
        require(self.kappa_max >= 0.0 and math.isfinite(self.kappa_max),
                f"kappa_max must be finite and >= 0, got {self.kappa_max}")
        require(self.pump_freq > 0.0 and math.isfinite(self.pump_freq),
                f"pump_freq must be finite and > 0, got {self.pump_freq}")
        require(self.band_width > 0.0 and math.isfinite(self.band_width),
                f"band_width must be finite and > 0, got {self.band_width}")
        require(self.mixing in MIXING_TYPES,
                f"mixing must be one of {MIXING_TYPES}, got {self.mixing!r}")
        require(self.shape in PROFILE_SHAPES,
                f"shape must be one of {PROFILE_SHAPES}, got {self.shape!r}")
        (lo, hi), top = self.band_edges, self.frequency_sum
        require(0.0 < lo and hi < top,
                f"band [{lo:.9g}, {hi:.9g}] Hz must lie inside (0, {top:.9g}) Hz, where signal "
                f"and idler frequencies of {self.mixing} mixing are both positive")

    @property
    def frequency_sum(self) -> float:
        """nu_s + nu_i fixed by the mixing process: nu_p (3wm) or 2 nu_p (4wm)."""
        if self.mixing == "3wm":
            return self.pump_freq
        return finite("nu_s + nu_i = 2 nu_p overflows at {} * {}", operator.mul, 2.0, self.pump_freq)

    @property
    def band_center(self) -> float:
        """The degenerate signal frequency (nu_s + nu_i) / 2, where the band is centred."""
        return self.frequency_sum / 2.0

    @property
    def band_edges(self) -> tuple[float, float]:
        half = self.band_width / 2.0
        return (self.band_center - half, self.band_center + half)


def kappa_profile(detuning, profile: SpectrumProfile):
    """Squeezing modulus at a detuning nu - band_center (vectorized over it).

    With u = |detuning| / (width / 2) and e = 1 - u, the distance to the band edge:

    parabolic:     kappa_max (1 - u^2), or kappa_max e (2 - e) beyond u = 1/2
    raised_cosine: kappa_max (1 + cos(pi u)) / 2, or kappa_max sin^2(pi e / 2) beyond u = 1/2
    rectangular:   kappa_max

    All shapes are 0 outside the band (e < 0) and kappa_max at its center.  e is formed as
    (width - 2 |detuning|) / width, whose difference is exact for u >= 1/2, so a row near
    the edge keeps its digits where 1 - u^2 and 1 + cos(pi u) would cancel.
    """
    d = np.abs(np.asarray(detuning, dtype=float))
    w = profile.band_width
    # far outside a narrow band u and the shape may overflow; those rows read 0.
    # u is formed as 2 |d| / width, as width / 2 is 0 at width 5e-324
    with np.errstate(over="ignore", invalid="ignore"):
        u = 2.0 * d / w
        e = (w - 2.0 * d) / w
        if profile.shape == "parabolic":
            shape = np.where(u <= 0.5, 1.0 - u**2, e * (2.0 - e))
        elif profile.shape == "raised_cosine":
            shape = np.where(u <= 0.5, 0.5 * (1.0 + np.cos(np.pi * u)),
                             np.sin(np.pi / 2.0 * e) ** 2)
        else:  # rectangular
            shape = 1.0
        val = np.where(e >= 0.0, profile.kappa_max * shape, 0.0)
    return float(val) if np.isscalar(detuning) else val


def _kappa_db(kappa):
    """kappa >= 0 as an array, and (20 log10 e) kappa, the anti-squeezing in dB;
    OverflowError names a kappa where the dB value overflows."""
    k = np.asarray(kappa, dtype=float)
    require(np.all(k >= 0.0), f"kappa must be >= 0, got {kappa}")
    return k, finite("squeezing in dB overflows at kappa = {!r}", operator.mul, k, _DB_PER_KAPPA)


def squeezing_magnitude_db(kappa):
    """Squeezed joint-quadrature variance relative to vacuum, in dB: the exact
    negative of :func:`antisqueezing_magnitude_db`, so the two cancel."""
    return 0.0 - antisqueezing_magnitude_db(kappa)


def antisqueezing_magnitude_db(kappa):
    """Anti-squeezed joint-quadrature variance relative to vacuum, in dB.

    10 log10(e^{2 kappa}) = (20 log10 e) kappa in closed form.  Vectorized
    over kappa; a scalar kappa gives a float.
    """
    val = _kappa_db(kappa)[1]
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
    k, db = _kappa_db(kappa)
    val = np.where(
        k < _GAIN_CLOSED_FORM_KAPPA,
        _DB_PER_KAPPA * np.log1p(2.0 * np.sinh(np.minimum(k, _GAIN_CLOSED_FORM_KAPPA) / 2.0) ** 2),
        db - 20.0 * math.log10(2.0),
    )
    return float(val) if np.isscalar(kappa) else val


class SpectrumTable(NamedTuple):
    """The five columns of a frequency sweep (read-only): nu_s, nu_i, kappa, S (dB), G (dB)."""

    nu_s: np.ndarray
    nu_i: np.ndarray
    kappa: np.ndarray
    squeezing_db: np.ndarray
    gain_db: np.ndarray


def spectrum_sweep(profile: SpectrumProfile, steps: int = 161) -> SpectrumTable:
    """Sweep the band in pair coordinates and tabulate kappa, squeezing and gain.

    Row k is the pair (center + d_k, center - d_k): the detunings d_k run from
    -width / 2 to width / 2 over ``steps`` points, made exactly antisymmetric as
    (h - h[::-1]) / 2 of h = linspace(-width / 2, width / 2, steps).  So row k's
    idler is row n - 1 - k's signal, bit for bit, the two share one kappa, and the
    end rows are the band edges.  Only the columns are returned: the caller holds
    ``profile``.
    """
    steps = check_count("steps", steps, 2)
    half = profile.band_width / 2.0
    h = np.linspace(-half, half, steps)
    detuning = (h - h[::-1]) / 2.0
    center = profile.band_center
    kap = kappa_profile(detuning, profile)
    columns = (center + detuning, center - detuning, kap, squeezing_magnitude_db(kap), gain_db(kap))
    for col in columns:
        col.setflags(write=False)
    return SpectrumTable(*columns)
