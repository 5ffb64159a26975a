"""Truncated Fock-space engine: the states and the kernel the channels use.

A cutoff N means the mode keeps photon numbers 0..N (dimension N + 1).
Multi-mode objects are stored with the first mode as the slowest index,
matching ``numpy.kron`` order.  Truncation is measured as the closed-form
tail of the thermal (and so TMSV) law, and :func:`_check_discarded` raises
:class:`TruncationError` above 1e-3 (the QCB laws).  Every check is an
:func:`mqisim.errors.require`, so a NaN tail, trace or Hermiticity
deviation fails it.  The QCB's beam splitter and displacement, and the
tests' squeeze reference, are built by their callers from one real kernel,
:func:`_tridiagonal_expm`: each generator is tridiagonal in a number basis
up to a diagonal phase.

The dense-state algebra that cross-checks these kernels (mode operators,
density matrices, the dense beam splitter, partial traces and the
squeeze-operator reference, which has its own 1e-6 truncation tolerance)
is test code, in ``tests/reference.py``.  Everything is a pure function
over immutable values; independent cutoff-sweep evaluations can safely
run concurrently.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import TruncationError, check_count, require

if TYPE_CHECKING:
    from .gaussian import SqueezeParam

_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-8
_DISCARD_TOL = 1e-3  # largest probability mass a truncated distribution may lose


def _check_discarded(name: str, discarded: float, cutoff: int):
    require(discarded <= _DISCARD_TOL,
            f"cutoff {cutoff} discards {discarded:.3e} of the {name} distribution, "
            f"above the tolerance {_DISCARD_TOL}; raise the cutoff", error=TruncationError)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m') / 2 of a matrix or a stack of matrices (last two axes), after
    checking that each is Hermitian within 1e-10."""
    adj = np.swapaxes(m, -1, -2).conj()
    herm = np.max(np.abs(m - adj))
    require(herm <= _HERMITICITY_TOL,
            f"matrix not Hermitian within {_HERMITICITY_TOL}: deviation {herm:.3e}")
    return (m + adj) / 2.0


def _check_unit_trace(tr: complex):
    require(abs(tr - 1.0) <= _TRACE_TOL, f"trace must be 1 within {_TRACE_TOL}, got {tr}")


def _tridiagonal_expm(off: np.ndarray, theta: float, cols: int | None = None) -> np.ndarray:
    """exp(theta G)[:, :cols] of the real antisymmetric tridiagonal G with
    G[k+1, k] = -G[k, k+1] = off[k] (all columns by default).

    With D = diag(i^k), D'(iG)D is the real symmetric tridiagonal J with
    ``off`` on both off-diagonals, J = W diag(lam) W^T, so

        exp(theta G)[r, c] = i^(r-c) (W cos(theta lam) W^T - i W sin(theta lam) W^T)[r, c],

    which is the cosine part on even r - c and the sine part on odd r - c, with
    sign + for (r - c) mod 4 in {0, 1} and - otherwise: one real symmetric
    ``eigh`` gives the real result.  At theta = 0 it is exactly the identity.
    """
    n = off.size + 1
    cols = n if cols is None else cols
    if theta == 0.0:
        return np.eye(n, cols)
    lam, w = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w_in = w[:cols].T
    lag = np.arange(n)[:, None] - np.arange(cols)
    block = np.where(lag % 2 == 0, (w * np.cos(theta * lam)) @ w_in,
                     (w * np.sin(theta * lam)) @ w_in)
    return np.where(lag % 4 < 2, block, -block)


# ---------------------------------------------------------------------------
# Two-mode squeezed vacuum in the Fock basis
# ---------------------------------------------------------------------------


class FockTMSV(NamedTuple):
    """Photon-pair expansion of a two-mode squeezed vacuum.

    ``coeffs[n]`` (complex, read-only) multiplies |n>_s |n>_i and equals
    (e^{i phase} tanh kappa)^n / cosh kappa, n = 0..N = coeffs.size - 1.
    ``norm_deficit``, the mass lost to the cutoff N, is the closed-form
    tail tanh^{2(N+1)} kappa of the thermal law |c_n|^2 (nbar = sinh^2 kappa).
    """

    coeffs: np.ndarray
    norm_deficit: float


def tmsv_fock(sq: SqueezeParam, cutoff: int) -> FockTMSV:
    """Photon-pair coefficients of the TMSV up to a cutoff, and the mass beyond it.

    Parameters
    ----------
    sq : SqueezeParam
        Squeezing modulus and phase.
    cutoff : int
        Largest photon number kept per mode.
    """
    cutoff = check_count("cutoff", cutoff)
    n = np.arange(cutoff + 1)
    ratio = np.exp(1j * sq.phase) * math.tanh(sq.kappa)
    coeffs = ratio**n / math.cosh(sq.kappa)
    coeffs.setflags(write=False)
    deficit = thermal_probabilities(sq.mean_photon, cutoff)[1]
    return FockTMSV(coeffs=coeffs, norm_deficit=deficit)


def thermal_probabilities(nbar: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Truncated thermal photon distribution and the mass it discards.

    The law p(n) = nbar^n / (1 + nbar)^{n+1} (for nbar = sinh^2 kappa also
    |TMSV pair coefficient n|^2) is renormalized to sum to 1 over
    0..cutoff; the mass beyond, (nbar / (1 + nbar))^{cutoff+1}, is
    returned in closed form, so that a tiny tail keeps its precision.
    """
    cutoff = check_count("cutoff", cutoff)
    require(math.isfinite(nbar) and nbar >= 0.0, f"nbar must be finite and >= 0, got {nbar}")
    if nbar == 0.0:
        return np.eye(1, cutoff + 1)[0], 0.0
    log_ratio = math.log(nbar / (1.0 + nbar))
    raw = np.exp(np.arange(cutoff + 1) * log_ratio - math.log1p(nbar))
    return raw / float(raw.sum()), math.exp((cutoff + 1) * log_ratio)
