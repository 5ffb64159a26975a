"""Two-mode Gaussian states: covariance algebra and Wigner densities.

Conventions used throughout the package:

* quadratures q = a + a', p = i(a' - a), so the vacuum has variance 1
  in every quadrature and the vacuum covariance matrix is the identity;
* two-mode quantities are ordered (q_s, p_s, q_i, p_i) with the signal
  mode first and the idler mode second;
* every state is zero-mean, so a state is its covariance matrix alone;
* a two-mode squeezed vacuum (TMSV) of modulus ``kappa`` and phase
  ``phase`` has diagonal covariance blocks cosh(2 kappa) I and a
  cross block of magnitude sinh(2 kappa) whose orientation is set by
  the phase.  The default phase pi/2 places the cross correlations in
  the (q_s, p_i) and (p_s, q_i) entries.

Every density first passes one gate, eps * cond(cov) <= 1e-8, where cond(cov) = e^{4 kappa}
for a TMSV: from kappa ~ 4.4 up to 355.24 it is the one failure of a TMSV's Wigner density.
It bounds eps * cond, not a density's error, which is about eps * cond * quad / 2 relative
for a form quad: 4.1e-7 at a kappa = 4.4 point whose form is about 530.

All types are immutable after construction and every operation is a
pure function, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateStateError, InvalidArgumentError, InvalidStateError, check_count, finite, require,
)

TWO_PI = 2.0 * math.pi

#: Names of the four quadratures in storage order.
QUADRATURE_NAMES = ("qs", "ps", "qi", "pi")

#: Symplectic form for [q, p] = 2i and ordering (q_s, p_s, q_i, p_i).
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
SYMPLECTIC_FORM.setflags(write=False)

_SYMMETRY_TOL = 1e-12
_UNCERTAINTY_TOL = -1e-9
_DEGENERATE_DET = 1e-300
# largest eps * cond(cov), the relative error of det and inv (eps e^{4 kappa} for a
# TMSV): beyond it a density printed to 9 digits is not trustworthy
_CONDITION_TOL = 1e-8
# largest kappa at which cosh(2 kappa), the TMSV covariance entry, is a finite float
_KAPPA_MAX = math.acosh(np.finfo(float).max) / 2.0


def quadrature_index(name: str) -> int:
    """Map a quadrature name ('qs', 'ps', 'qi', 'pi') to its index."""
    try:
        return QUADRATURE_NAMES.index(name.lower())
    except ValueError:
        raise InvalidArgumentError(
            f"unknown quadrature {name!r}; expected one of {QUADRATURE_NAMES}"
        ) from None


@dataclass(frozen=True)
class SqueezeParam:
    """Modulus and phase of a two-mode squeeze argument.

    ``kappa`` is the dimensionless squeezing modulus (>= 0).  ``phase``
    is stored normalized to [0, 2 pi); the default pi/2 reproduces the
    photon-pair expansion with coefficients proportional to
    (i tanh kappa)^n.  A kappa above acosh(float max) / 2 ~ 355.24, where
    cosh(2 kappa) overflows, raises :class:`OverflowError`.
    """

    kappa: float
    phase: float = math.pi / 2

    def __post_init__(self):
        kappa = float(self.kappa)
        phase = float(self.phase)
        require(math.isfinite(kappa) and kappa >= 0.0,
                f"kappa must be finite and >= 0, got {self.kappa}")
        require(kappa <= _KAPPA_MAX, f"kappa = {kappa} is above {_KAPPA_MAX:.2f} = "
                "acosh(float max) / 2, where cosh(2 kappa) overflows", error=OverflowError)
        require(math.isfinite(phase), f"phase must be finite, got {self.phase}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "phase", phase % TWO_PI)

    @property
    def mean_photon(self) -> float:
        """Mean photon number per mode, sinh^2(kappa)."""
        return math.sinh(self.kappa) ** 2


@dataclass(frozen=True)
class TwoModeGaussianState:
    """Covariance matrix of a zero-mean two-mode Gaussian state.

    ``cov`` is the 4x4 real covariance matrix in (q_s, p_s, q_i, p_i)
    order with the vacuum normalized to unit variance.  Construction
    enforces shape, finiteness and symmetry; physicality is checked
    separately by :func:`uncertainty_check` so that deliberately
    unphysical matrices can still be examined.
    """

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        require(cov.shape == (4, 4), f"cov must have shape (4, 4), got {cov.shape}")
        require(np.all(np.isfinite(cov)), "cov must be finite")
        with np.errstate(over="ignore"):   # an asymmetry beyond the largest double is inf
            asym = np.max(np.abs(cov - cov.T))
        require(asym <= _SYMMETRY_TOL,
                f"cov must be symmetric within {_SYMMETRY_TOL}, asymmetry {asym:.3e}")
        # cov + cov.T would overflow at entries near the largest double
        cov = cov + (cov.T - cov) / 2.0
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)


def vacuum_state() -> TwoModeGaussianState:
    """Two-mode vacuum: identity covariance."""
    return TwoModeGaussianState(np.eye(4))


def tmsv_covariance(sp: SqueezeParam) -> TwoModeGaussianState:
    """Covariance-matrix form of the two-mode squeezed vacuum.

    Parameters
    ----------
    sp : SqueezeParam
        Squeezing modulus and phase.

    Returns
    -------
    TwoModeGaussianState
        State with diagonal blocks cosh(2 kappa) I2 and a
        cross block sinh(2 kappa) [[cos phi, sin phi], [sin phi, -cos phi]].
    """
    c2 = math.cosh(2.0 * sp.kappa)
    s2 = math.sinh(2.0 * sp.kappa)
    cp = math.cos(sp.phase)
    sn = math.sin(sp.phase)
    cross = s2 * np.array([[cp, sn], [sn, -cp]])
    cov = np.block([[c2 * np.eye(2), cross], [cross.T, c2 * np.eye(2)]])
    return TwoModeGaussianState(cov)


def quadrature_variance(state: TwoModeGaussianState, coeffs) -> float:
    """Variance of the linear quadrature combination coeffs . r.

    With the vacuum convention Var(q) = 1 this is simply
    coeffs^T cov coeffs.  Raises for an all-zero coefficient vector.
    """
    c = np.asarray(coeffs, dtype=float)
    require(c.shape == (4,), f"coeffs must have shape (4,), got {c.shape}")
    require(np.any(c), "coeffs must not all be zero")
    return float(c @ state.cov @ c)


class UncertaintyReport(NamedTuple):
    passed: bool
    min_eigenvalue: float


def uncertainty_check(state: TwoModeGaussianState) -> UncertaintyReport:
    """Check the uncertainty relation cov + i Omega >= 0.

    Returns the verdict together with the worst (smallest) eigenvalue of
    the Hermitian matrix cov + i Omega; the state passes when that
    eigenvalue is >= -1e-9.
    """
    herm = state.cov.astype(complex) + 1j * SYMPLECTIC_FORM
    eigs = np.linalg.eigvalsh(herm)
    worst = float(eigs[0])
    return UncertaintyReport(worst >= _UNCERTAINTY_TOL, worst)


def _precision(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """cov^-1 and sqrt(det cov) behind the one gate: eps * cond(cov) <= 1e-8, cond taken of cov
    over its largest |entry| so none overflows (a non-finite cond fails), then det > 1e-300.
    A det beyond the largest double is taken again of cov 2^-e, e the binary exponent of the
    largest |entry| (past the gate it is then above 1e-32), and the root of the k x k cov is
    sqrt(det(cov 2^-e)) 2^(k e / 2), or OverflowError if that overflows."""
    largest = float(np.max(np.abs(cov)))
    error = np.finfo(float).eps * float(np.linalg.cond(cov / (largest or 1.0)))
    require(error <= _CONDITION_TOL, "covariance is too ill-conditioned: "
            f"eps * cond = {error:.3e} exceeds {_CONDITION_TOL}", error=DegenerateStateError)
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(cov))
    require(det > _DEGENERATE_DET, f"covariance is numerically singular (det = {det:.3e})",
            error=DegenerateStateError)
    e = 0 if det < math.inf else math.frexp(largest)[1]
    det = det if e == 0 else float(np.linalg.det(np.ldexp(cov, -e)))
    root = finite("sqrt det cov overflows", np.ldexp, math.sqrt(det), len(cov) * e // 2)
    return np.linalg.inv(cov), float(root)


def _density(quad: np.ndarray, root: float, k: int) -> np.ndarray:
    """Normal density exp(-quad / 2) / ((2 pi)^(k/2) root) of a k-variate form ``quad`` =
    d^T cov^-1 d, root = sqrt(det cov).  A form that overflowed (inf - inf is NaN) counts
    as +inf: within the condition gate it is then beyond 1e300, where the density is 0."""
    quad = np.where(np.isfinite(quad), quad, np.inf)
    return np.exp(-0.5 * quad) / (TWO_PI ** (k / 2) * root)


def wigner_density(state: TwoModeGaussianState, point) -> float:
    """Wigner quasi-probability density at one phase-space point.

    For a Gaussian state this is the multivariate normal density

        exp(-r^T cov^-1 r / 2) / ((2 pi)^2 sqrt(det cov)),

    normalized so the full 4-D integral is 1.  A pure state has
    det cov = 1 and therefore peak value 1/(4 pi^2) at the origin.
    """
    r = np.asarray(point, dtype=float)
    require(r.shape == (4,) and np.all(np.isfinite(r)),
            f"point must be 4 finite numbers, got {point}")
    prec, root = _precision(state.cov)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is a NaN or inf form
        return float(_density(r @ prec @ r, root, 4))


def _pair(name: str, value) -> tuple:
    """The two entries of ``value``, or :class:`InvalidArgumentError` naming ``name``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} must be a pair, got {value}") from None
    return first, second


def _slice(plane, fixed_values) -> tuple[int, int, list[int], np.ndarray]:
    """The varied quadratures ``i, j`` of a slice, its fixed ones in ascending
    order and their values, or :class:`InvalidArgumentError` naming ``plane``
    or ``fixed_values``."""
    i, j = _pair("plane", plane)
    require(i != j and i in range(4) and j in range(4),
            f"plane must be two distinct indices in 0..3, got {plane}")
    values = _pair("fixed_values", fixed_values)
    require(all(map(math.isfinite, values)), f"fixed_values must be finite, got {fixed_values}")
    i, j = int(i), int(j)
    return i, j, [k for k in range(4) if k not in (i, j)], np.array(values, dtype=float)


class WignerGrid(NamedTuple):
    """Wigner density sampled on a 2-D slice of the 4-D phase space.

    Both quadratures of the caller's ``plane`` are sampled on the one
    ``axis``; ``values[a, b]`` (read-only, as is the axis) is the density
    at axis[a] on the first and axis[b] on the second, the other two
    quadratures held at its ``fixed_values``.  Files are emitted in
    row-major order (the first plane axis is the slower one).
    """

    axis: np.ndarray
    values: np.ndarray


def wigner_grid(
    state: TwoModeGaussianState,
    plane: tuple[int, int] = (0, 1),
    axis_range: tuple[float, float] = (-4.0, 4.0),
    samples: int = 81,
    fixed_values: tuple[float, float] = (0.0, 0.0),
) -> WignerGrid:
    """Evaluate the Wigner density on a uniform square grid over a 2-D slice.

    The two quadratures named by ``plane`` are each varied over
    ``axis_range`` (inclusive endpoints, ``samples`` points; the axis may
    descend but not have zero width or a width beyond the largest double);
    the two remaining quadratures are held at ``fixed_values`` (in
    ascending index order).  The slice convention is explicit because a
    2-D rendering of the 4-D Wigner function is not unique.

    A slice of a Gaussian is a Gaussian in its two varied quadratures, so
    the form is evaluated on the axis, not point by point: with the
    precision matrix P = cov^-1 and the fixed values f,

        quad[a, b] = (P_ii x_a + 2 P_iF f) x_a + f P_FF f + 2 P_ij x_a x_b
                     + (P_jj x_b + 2 P_jF f) x_b,

    an outer sum of one term per axis and their product.  The condition
    gate and the overflow rule are those of :func:`wigner_density`.
    """
    i, j, fixed, f = _slice(plane, fixed_values)
    n = check_count("samples", samples, 2)
    start, stop = _pair("axis_range", axis_range)
    # a width beyond the largest double would reach np.linspace as inf
    require(math.isfinite(stop - start), "ranges must be finite, and so must the width "
            f"of each range, got {axis_range}")
    require(start != stop, f"axis ranges need distinct ends, got {axis_range}")
    prec, root = _precision(state.cov)
    report = uncertainty_check(state)
    require(report.passed, "state fails the uncertainty check "
            f"(worst eigenvalue {report.min_eigenvalue:.3e})", error=InvalidStateError)
    axis = np.linspace(start, stop, n)

    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is a NaN or inf form
        row = (prec[i, i] * axis + 2.0 * (prec[i, fixed] @ f)) * axis
        row += f @ prec[np.ix_(fixed, fixed)] @ f
        column = (prec[j, j] * axis + 2.0 * (prec[j, fixed] @ f)) * axis
        quad = np.multiply.outer(2.0 * prec[i, j] * axis, axis)
        quad += row[:, None]
        quad += column
    values = _density(quad, root, 4)
    axis.setflags(write=False)
    values.setflags(write=False)
    return WignerGrid(axis=axis, values=values)


def slice_mass(
    state: TwoModeGaussianState,
    plane: tuple[int, int],
    fixed_values: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Analytic integral of a Wigner slice over its two varied quadratures.

    Integrating the slice over the varied plane leaves the 2-D marginal
    density of the two fixed quadratures evaluated at ``fixed_values``.
    Used as the reference for grid Riemann sums.
    """
    _, _, fixed, f = _slice(plane, fixed_values)
    prec, root = _precision(state.cov[np.ix_(fixed, fixed)])
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_density(f @ prec @ f, root, 2))
