"""Squeezing-parameter frequency profiles and dB mappings.

The device-physics model for kappa(nu) is out of scope here; a
phenomenological profile (truncated parabola by default, raised-cosine
or rectangular as alternatives) stands in for it, parameterized by the
apical value and the band width.  Frequency bookkeeping follows the
mixing process: a three-wave mixer conserves nu_s + nu_i = nu_p, a
four-wave mixer nu_s + nu_i = 2 nu_p, and the band is centred on (nu_s + nu_i) / 2.

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

from .errors import InvalidArgumentError, check_count

MIXING_TYPES = ("3wm", "4wm")
PROFILE_SHAPES = ("parabolic", "raised_cosine", "rectangular")

_DB_PER_KAPPA = 20.0 * math.log10(math.e)
_GAIN_CLOSED_FORM_KAPPA = 20.0


@dataclass(frozen=True)
class SpectrumProfile:
    """Phenomenological squeezing-parameter profile over a frequency band.

    kappa(nu) equals ``kappa_max`` at ``band_center``, the degenerate
    frequency nu_p / 2 (three-wave) or nu_p (four-wave), falls off with the
    selected ``shape`` and is zero outside the band.  So kappa(nu) =
    kappa(nu_s + nu_i - nu): a signal and its idler, one TMSV pair, share
    one kappa.  The band, of width below nu_s + nu_i, lies above 0 Hz and
    below nu_p (three-wave) or 2 nu_p (four-wave), where both are positive.
    """

    kappa_max: float
    pump_freq: float
    band_width: float
    mixing: str = "3wm"
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
        self._require_inside("band", *self.band_edges)

    @property
    def frequency_sum(self) -> float:
        """nu_s + nu_i fixed by the mixing process: nu_p (3wm) or 2 nu_p (4wm)."""
        return self.pump_freq if self.mixing == "3wm" else 2.0 * self.pump_freq

    @property
    def band_center(self) -> float:
        """The degenerate signal frequency (nu_s + nu_i) / 2, where the band is centred."""
        return self.frequency_sum / 2.0

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
    # far outside a narrow band u and the shape may overflow; those rows read 0.
    # u is formed as 2 (nu - center) / width, as width / 2 is 0 at width 5e-324
    with np.errstate(over="ignore", invalid="ignore"):
        u = 2.0 * (nu - profile.band_center) / profile.band_width
        if profile.shape == "parabolic":
            val = profile.kappa_max * (1.0 - u**2)
        elif profile.shape == "raised_cosine":
            val = profile.kappa_max * 0.5 * (1.0 + np.cos(np.pi * u))
        else:  # rectangular
            val = profile.kappa_max
    val = np.where(np.abs(u) <= 1.0, val, 0.0)
    return float(val) if np.isscalar(nu_s) else val


def _kappa_db(kappa):
    """kappa >= 0 as an array, and (20 log10 e) kappa, the anti-squeezing in dB;
    OverflowError names a kappa where the dB value overflows."""
    k = np.asarray(kappa, dtype=float)
    if not np.all(k >= 0.0):   # NaN fails too
        raise InvalidArgumentError(f"kappa must be >= 0, got {kappa}")
    with np.errstate(over="ignore"):
        db = _DB_PER_KAPPA * k
    bad = np.flatnonzero(np.isinf(db))
    if bad.size:
        raise OverflowError(f"squeezing in dB overflows at kappa = {float(k.flat[bad[0]])!r}")
    return k, db


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


def spectrum_sweep(
    profile: SpectrumProfile,
    nu_range: tuple[float | None, float | None] | None = None,
    steps: int = 161,
) -> SpectrumTable:
    """Sweep the signal frequency and tabulate kappa, squeezing and gain.

    ``nu_range`` is (start, stop); a ``None`` end, or no range, is the
    band edge.  The range, like the band, must lie inside (0, nu_s + nu_i),
    where both frequencies are positive.  Rows outside the band carry
    kappa = 0 (hence 0 dB squeezing and gain) rather than raising; the
    idler column follows the conservation formula everywhere.  Only the
    columns are returned: the caller holds ``profile``.
    """
    steps = check_count("steps", steps, 2)
    ends = (None, None) if nu_range is None else nu_range
    lo, hi = (float(edge if end is None else end) for end, edge in zip(ends, profile.band_edges))
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise InvalidArgumentError(f"invalid sweep range ({lo}, {hi})")
    profile._require_inside("sweep range", lo, hi)
    nu_s = np.linspace(lo, hi, steps)
    kap = kappa_profile(nu_s, profile)
    columns = (nu_s, profile.frequency_sum - nu_s, kap, squeezing_magnitude_db(kap), gain_db(kap))
    for col in columns:
        col.setflags(write=False)
    return SpectrumTable(*columns)
