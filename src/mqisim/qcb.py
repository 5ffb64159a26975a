"""The quantum Chernoff bound oracle on truncated Fock spaces.

It builds the single-copy hypothesis states of each transmitter on a
truncated Fock space and minimizes Q(s) = tr(rho0^s rho1^{1-s})
directly, the brute-force counterpart of the envelopes in
:mod:`mqisim.illumination`.

Hypothesis conventions (target absent = H0, present = H1):

* entangled transmitter: H0 is thermal(N_B) on the return mode times
  the idler marginal; under H1 the signal mode is mixed with a thermal
  noise mode of occupancy N_B / (1 - eta) on a beam splitter of
  transmissivity eta, so the returned background is exactly N_B, and
  the noise port is traced out.
* coherent transmitter: H0 is thermal(N_B); H1 is the same thermal
  displaced by sqrt(eta N_S).  No idler.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidStateError, TruncationError, check_count, finite, require
from .fock import (
    _check_discarded,
    _check_unit_trace,
    _tridiagonal_expm,
    thermal_probabilities,
)
from .illumination import DetectionScenario, _s_root


# ---------------------------------------------------------------------------
# Hypothesis states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisPair:
    """Target-absent / target-present states for one transmitter.

    rho0 is diagonal in the basis the pair is held in and is stored as
    that diagonal, ``p0``, over the flat basis (``mode_dims`` order, first
    mode slowest).  rho1 is block-diagonal and is stored as ``stacks`` of
    equal-size blocks, each block by a factor: each entry is ``(index,
    factor)`` of shapes (n, k) and (n, k, m), block j of rho1 being
    ``factor[j] @ factor[j]'`` on the flat basis positions ``index[j]``.
    A factor can only express a Hermitian, positive rho1.  Construction
    checks that the blocks partition the basis and that both traces
    (rho1's is the sum of |factor|^2) are 1 within 1e-8, which a
    non-finite entry fails, and raises :class:`InvalidStateError` for a
    negative entry of p0; factors keep their dtype (real or complex;
    integers become float).  No dense matrix is formed.
    """

    mode_dims: tuple[int, ...]
    p0: np.ndarray
    stacks: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.mode_dims)
        p0 = np.array(self.p0, dtype=float)
        require(p0.shape == (int(np.prod(dims)),),
                f"p0 of shape {p0.shape} does not match mode_dims {dims}")
        _check_unit_trace(p0.sum())
        require(p0 >= 0.0, "rho0 has eigenvalue {} below 0", p0, error=InvalidStateError)
        p0.setflags(write=False)
        stacks = []
        for index, factor in self.stacks:
            index, factor = np.array(index, dtype=int), np.asarray(factor)
            require(index.ndim == 2 and factor.ndim == 3 and factor.shape[:2] == index.shape,
                    f"factor of shape {factor.shape} does not match its index "
                    f"of shape {index.shape}")
            factor = factor.astype(np.promote_types(factor.dtype, float))
            index.setflags(write=False)
            factor.setflags(write=False)
            stacks.append((index, factor))
        covered = np.sort(np.concatenate([index.ravel() for index, _ in stacks]))
        require(np.array_equal(covered, np.arange(p0.size)),
                f"block indices must partition the space of mode_dims {dims}")
        _check_unit_trace(sum(float(np.vdot(factor, factor).real) for _, factor in stacks))
        object.__setattr__(self, "mode_dims", dims)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "stacks", tuple(stacks))

    @property
    def dim(self) -> int:
        return int(np.prod(self.mode_dims))


class QIChannel(NamedTuple):
    """The entangled transmitter's beam splitter on truncated modes.

    ``amp[s, i, m]`` is the real amplitude <s, i + m - s| U |i, m> of the
    beam splitter of transmissivity ``eta`` (signal mode first, noise mode
    second) for signal input i and noise input m, of shape (signal_cutoff + 1,
    idler_cutoff + 1, noise_cutoff + 1); it is 0 where the noise output leaves
    the noise mode.  Depends on ``eta`` and the cutoffs only, so one channel
    serves every point of a sweep at fixed ``eta``.
    """

    eta: float
    amp: np.ndarray


def qi_channel(eta: float, signal_cutoff: int, idler_cutoff: int,
               noise_cutoff: int) -> QIChannel:
    """The :class:`QIChannel` of transmissivity ``eta`` on the cutoffs its ``amp`` shape holds.

    Only the signal inputs the TMSV populates (up to the idler cutoff) are formed; the
    signal cutoff bounds the return mode and must be at least the idler cutoff.
    U = exp(theta (a'b - ab')), cos^2 theta = eta, is exp(theta G) on each sector of fixed
    signal + noise photons ``total``, G real antisymmetric tridiagonal in the signal photon
    numbers s_k, G[k+1, k] = sqrt((s_k + 1)(total - s_k)) (:func:`_tridiagonal_expm`); what
    it reflects back into the box at the top of the return mode is not measured.
    """
    n_sig, n_idl, n_noise = map(check_count, ("signal_cutoff", "idler_cutoff", "noise_cutoff"),
                                (signal_cutoff, idler_cutoff, noise_cutoff))
    require(n_sig >= n_idl, f"signal_cutoff ({n_sig}) must be >= idler_cutoff ({n_idl})")
    require(0.0 <= eta <= 1.0, f"transmissivity must be in [0, 1], got {eta}")
    theta = math.acos(math.sqrt(eta))
    amp = np.zeros((n_sig + 1, n_idl + 1, n_noise + 1))
    for total in range(n_idl + n_noise + 1):
        s_vals = np.arange(max(0, total - n_noise), min(total, n_sig) + 1)
        i = s_vals[s_vals <= n_idl]
        off = np.sqrt((s_vals[:-1] + 1.0) * (total - s_vals[:-1]))
        amp[s_vals[:, None], i, total - i] = _tridiagonal_expm(off, theta, i.size)
    amp.setflags(write=False)
    return QIChannel(eta, amp)


def build_qi_hypotheses(n_s: float, n_b: float, channel: QIChannel) -> HypothesisPair:
    """Hypothesis pair for the entangled (TMSV) transmitter of n_s photons per mode.

    H0 is thermal(n_b) on the return mode times the idler marginal,
    thermal(n_s).  H1 mixes the TMSV signal mode with a thermal noise
    mode of occupancy n_b / (1 - eta) on the beam splitter ``channel``
    (see :func:`qi_channel`), whose ``amp`` shape gives the cutoffs, and
    traces out the noise port, retaining the return-idler correlations.
    The noise is Fock-diagonal, so the mix is applied exactly, one noise
    Fock component at a time.

    rho0 is the Fock-diagonal p_ret (x) p_idl.  rho1 is block-diagonal
    in d = s - i (return photons minus idler photons), d = -idler_cutoff
    .. signal_cutoff: the beam splitter conserves signal + noise photons,
    the TMSV pairs signal photon i with idler photon i, and the noise is
    Fock-diagonal.  Block d is V V', held as its factor V[k, m] =
    sqrt(p_idl[i] p_noise[m]) channel.amp[i + d, i, m] (k runs over the
    block's idler numbers i, m over noise photon numbers): the pair
    amplitudes are the square roots of the idler law.  No dense state is
    formed, and no block is larger than idler_cutoff + 1.  The TMSV phase only
    conjugates each rho1 block by a diagonal unitary, which commutes with
    the diagonal rho0, so Q(s) does not depend on it and it is left out.

    The signal cutoff must accommodate the output occupancy eta n_s + n_b.
    A truncated law (noise, return, idler and so pair expansion) may
    discard at most 1e-3 of its mass, else :class:`TruncationError` is
    raised; ``params`` holds the masses, ``noise_discarded``,
    ``return_discarded`` and ``idler_discarded``.  Modes: (return, idler).
    """
    eta = channel.eta
    DetectionScenario(eta, n_s, n_b)   # checks the three numbers
    require(eta < 1.0 or n_b == 0.0,
            "eta = 1 with n_b > 0 is inconsistent with the noise-injection convention")
    n_sig, n_idl, n_noise = (n - 1 for n in channel.amp.shape)

    nbar_noise = 0.0 if eta == 1.0 else finite(
        "noise occupancy n_b / (1 - eta) overflows at {} / {}", operator.truediv, n_b, 1.0 - eta)
    p_noise, noise_discarded = thermal_probabilities(nbar_noise, n_noise)
    p_ret0, ret_discarded = thermal_probabilities(n_b, n_sig)
    p_idl0, idl_discarded = thermal_probabilities(n_s, n_idl)
    for name, discarded, cutoff in (("noise", noise_discarded, n_noise),
                                    ("return", ret_discarded, n_sig),
                                    ("idler", idl_discarded, n_idl)):
        _check_discarded(name, discarded, cutoff)

    # amplitude of return s with idler i and noise input m: channel.amp[s, i, m] * weight[i, m]
    weight = np.sqrt(np.outer(p_idl0, p_noise))

    # block d holds idler numbers i = lo .. lo + size - 1; one stack per size, d ascending
    d = np.arange(-n_idl, n_sig + 1)
    lo = np.maximum(0, -d)
    size = np.minimum(n_idl, n_sig - d) - lo + 1
    stacks = []
    for k in range(1, n_idl + 2):
        i = lo[size == k, None] + np.arange(k)
        ret = i + d[size == k, None]
        v = channel.amp[ret, i, :] * weight[i]
        stacks.append((ret * (n_idl + 1) + i, v))
    return HypothesisPair(
        mode_dims=(n_sig + 1, n_idl + 1),
        p0=np.kron(p_ret0, p_idl0),
        stacks=tuple(stacks),
        params={"noise_discarded": noise_discarded, "return_discarded": ret_discarded,
                "idler_discarded": idl_discarded},
    )


def build_classical_hypotheses(n_s: float, eta: float, n_b: float, cutoff: int) -> HypothesisPair:
    """Hypothesis pair for the coherent-state transmitter (single mode).

    H0 is thermal(n_b); H1 is the same thermal state displaced by
    alpha = sqrt(eta n_s), giving mean photon number eta n_s + n_b.  rho0
    is the Fock-diagonal thermal law p0, and rho1 = D diag(p0) D' is a
    single real block, held as its factor D diag(sqrt(p0)):
    D = exp(alpha (a' - a)) is a real rotation (:func:`_tridiagonal_expm`),
    and a phase of alpha would only conjugate rho1 by a diagonal unitary,
    which commutes with rho0 and leaves Q(s).
    A cutoff below 4 |alpha|^2 - 1, or whose thermal law discards more
    than 1e-3 of its mass, raises :class:`TruncationError`; ``params``
    holds that mass as ``background_discarded``.
    """
    DetectionScenario(eta, n_s, n_b)   # checks the three numbers
    cutoff = check_count("cutoff", cutoff)
    p0, discarded = thermal_probabilities(n_b, cutoff)
    _check_discarded("thermal background", discarded, cutoff)
    alpha = math.sqrt(eta * n_s)
    require(alpha * alpha <= 0.25 * (cutoff + 1),
            f"|alpha|^2 = {alpha * alpha:.3g} too large for cutoff {cutoff}", error=TruncationError)
    disp = _tridiagonal_expm(np.sqrt(np.arange(1.0, cutoff + 1)), alpha)
    return HypothesisPair(
        mode_dims=(cutoff + 1,),
        p0=p0,
        stacks=((np.arange(cutoff + 1)[None], (disp * np.sqrt(p0))[None]),),
        params={"background_discarded": discarded},
    )


# ---------------------------------------------------------------------------
# Quantum Chernoff bound
# ---------------------------------------------------------------------------


class ChernoffResult(NamedTuple):
    """Minimized overlap Q(s*) = min_s tr(rho0^s rho1^{1-s}) and exponent."""

    s_star: float
    q_min: float
    exponent: float
    diagnostics: dict


def chernoff_exponent(pair: HypothesisPair) -> ChernoffResult:
    """Brute-force quantum Chernoff bound for a hypothesis pair.

    rho0 is diagonal, so its spectrum is ``pair.p0`` and its eigenvectors
    are the basis; rho1's come from one batched SVD of each stack's
    factors F: with F = U diag(sigma) W', rho1's block F F' has the
    eigenvalues lam1 = sigma^2 and the eigenvectors U, so no spectrum of
    rho1 is negative, and near-zero eigenvalues keep the relative
    precision of sigma; the pair has no negative p0 either, so nothing is
    clipped.  Q(s) = tr(rho0^s rho1^{1-s}) is one sum over the terms
    w lam0^s lam1^{1-s} of each block, basis state j and eigenvector k,
    with lam0 = p0[index[j]] and w = |U[j, k]|^2; terms with an eigenvalue
    0 or weight 0 add nothing for s in (0, 1) and are left out.  Each term
    is at most max(lam0, lam1), which both traces bound by 1 + 1e-8, so
    Q is finite.  Q(s) is log-convex, so Q'(s) = sum w lam0^s lam1^{1-s}
    ln(lam0 / lam1) is increasing and Q is minimized on [0, 1] at its
    root (or the end of [0, 1] it moves towards), found by safeguarded
    Newton steps (:func:`_s_root`) to |delta s| <= 1e-12.  An 11-point
    grid of Q values is kept in the diagnostics for a convexity audit.

    Where that grid is flat to rounding (2 * dim * eps, as the terms square
    sigma and U) s_star is NaN, and a q_min within dim * eps of 1 is 1, an
    exponent of 0.  Returns q_min = 0
    with an infinite exponent for (numerically) orthogonal states.
    """
    weight, log0, log1 = [], [], []
    for index, factor in pair.stacks:
        # the SVD of F^T (cheaper than of F): F^T = X diag(sigma) Y gives U = Y^T
        _, sigma, y = np.linalg.svd(np.swapaxes(factor, 1, 2), full_matrices=False)
        overlap = np.abs(np.swapaxes(y, 1, 2))
        overlap *= overlap
        lam0, lam1 = np.broadcast_arrays(pair.p0[index][:, :, None], (sigma * sigma)[:, None, :])
        keep = (overlap > 0.0) & (lam0 > 0.0) & (lam1 > 0.0)
        weight.append(overlap[keep])
        log0.append(np.log(lam0[keep]))
        log1.append(np.log(lam1[keep]))
    weight, log1 = np.concatenate(weight), np.concatenate(log1)
    dlog = np.concatenate(log0) - log1

    def terms(s: float) -> np.ndarray:
        return weight * np.exp(log1 + s * dlog)

    def q_of(s: float) -> float:
        return float(np.sum(terms(s)))

    def slope(s: float) -> tuple[float, float]:
        t = terms(s) * dlog
        return float(np.sum(t)), float(t @ dlog)

    s_grid = np.arange(1, 12) / 12.0
    q_grid = np.array([q_of(s) for s in s_grid])

    s_star, evals = _s_root(slope, 0.0, 1.0, 1e-12)
    q_min = q_of(s_star)

    k = int(np.argmin(q_grid))
    if q_grid[k] < q_min:
        s_star, q_min = float(s_grid[k]), float(q_grid[k])

    rounding = pair.dim * np.finfo(float).eps
    # each term squares sigma and U, so Q carries twice their relative rounding
    if np.ptp(q_grid) <= 2.0 * rounding * q_grid.max():
        s_star = math.nan
    q_min = 1.0 if 1.0 - q_min <= rounding else max(q_min, 0.0)
    exponent = math.inf if q_min == 0.0 else max(0.0, -math.log(q_min))
    return ChernoffResult(
        s_star=float(s_star),
        q_min=float(q_min),
        exponent=float(exponent),
        diagnostics={
            "dim": pair.dim,
            "s_grid": s_grid,
            "q_grid": q_grid,
            "evaluations": evals + 1 + len(s_grid),
        },
    )
