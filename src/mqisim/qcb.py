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

from .errors import ConvergenceError, InvalidStateError, check_count, finite, require
from .fock import (
    _check_discarded,
    _check_unit_trace,
    _hermitian_part,
    beam_splitter_amplitudes,
    displacement,
    thermal_probabilities,
)
from .illumination import DetectionScenario, _s_root

_PSD_TOL = -1e-9


# ---------------------------------------------------------------------------
# Hypothesis states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisPair:
    """Target-absent / target-present states for one transmitter.

    rho0 is diagonal in the basis the pair is held in and is stored as
    that diagonal, ``p0``, over the flat basis (``mode_dims`` order, first
    mode slowest).  rho1 is block-diagonal and is stored as ``stacks`` of
    equal-size blocks: each entry is ``(index, rho1)`` of shapes (n, k)
    and (n, k, k), ``index[j]`` listing the flat basis positions of the
    rows and columns of block ``rho1[j]``.  Construction checks that the
    blocks partition the basis, each is Hermitian within 1e-10 and both
    traces are 1 within 1e-8; it symmetrizes the blocks, keeping their
    dtype (real or complex; integers become float).  No dense matrix is
    formed.
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
        p0.setflags(write=False)
        stacks = []
        for index, stack in self.stacks:
            index, stack = np.array(index, dtype=int), np.asarray(stack)
            require(index.ndim == 2 and stack.shape == index.shape + index.shape[1:],
                    f"stack of shape {stack.shape} does not match its index of shape {index.shape}")
            stack = _hermitian_part(stack.astype(np.promote_types(stack.dtype, float)))
            index.setflags(write=False)
            stack.setflags(write=False)
            stacks.append((index, stack))
        covered = np.sort(np.concatenate([index.ravel() for index, _ in stacks]))
        require(np.array_equal(covered, np.arange(p0.size)),
                f"block indices must partition the space of mode_dims {dims}")
        _check_unit_trace(sum(complex(np.trace(stack, axis1=1, axis2=2).sum())
                              for _, stack in stacks))
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

    Only the signal inputs the TMSV populates (up to the idler cutoff) are formed.
    The signal cutoff bounds the return mode and must be at least the idler cutoff.
    """
    n_sig, n_idl, n_noise = map(check_count, ("signal_cutoff", "idler_cutoff", "noise_cutoff"),
                                (signal_cutoff, idler_cutoff, noise_cutoff))
    require(n_sig >= n_idl, f"signal_cutoff ({n_sig}) must be >= idler_cutoff ({n_idl})")
    return QIChannel(eta, beam_splitter_amplitudes(n_sig + 1, n_noise + 1, eta, n_idl))


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
    Fock-diagonal.  Block d is V V' with V[k, m] = sqrt(p_idl[i]
    p_noise[m]) channel.amp[i + d, i, m] (k runs over the block's idler
    numbers i, m over noise photon numbers): the pair amplitudes are the
    square roots of the idler law.  No dense state is formed, and no
    block is larger than idler_cutoff + 1.  The TMSV phase only
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
        stacks.append((ret * (n_idl + 1) + i, v @ np.swapaxes(v, 1, 2)))
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
    is the Fock-diagonal thermal law p0, and rho1 = D diag(p0) D', D the
    displacement operator, is a single block.  The truncated thermal law
    may discard at most 1e-3 of its mass, else :class:`TruncationError`
    is raised; ``params`` holds that mass as ``background_discarded``.
    """
    DetectionScenario(eta, n_s, n_b)   # checks the three numbers
    cutoff = check_count("cutoff", cutoff)
    p0, discarded = thermal_probabilities(n_b, cutoff)
    _check_discarded("thermal background", discarded, cutoff)
    disp = displacement(math.sqrt(eta * n_s), cutoff)
    return HypothesisPair(
        mode_dims=(cutoff + 1,),
        p0=p0,
        stacks=((np.arange(cutoff + 1)[None], ((disp * p0) @ disp.conj().T)[None]),),
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


def _clipped_spectrum(spectra: list, name: str) -> float:
    """Mass of the negative eigenvalues, which count as 0, after checking the smallest."""
    eigvals = np.concatenate([lam.ravel() for lam in spectra])
    worst = float(np.min(eigvals))
    require(worst >= _PSD_TOL, f"{name} has eigenvalue {worst:.3e} below tolerance {_PSD_TOL}",
            error=InvalidStateError)
    # 0.0 - x rather than -x: nothing clipped is +0.0, not -0.0
    return 0.0 - float(np.sum(np.minimum(eigvals, 0.0)))



def chernoff_exponent(pair: HypothesisPair) -> ChernoffResult:
    """Brute-force quantum Chernoff bound for a hypothesis pair.

    rho0 is diagonal, so its spectrum is ``pair.p0`` and its eigenvectors
    are the basis; only rho1 is eigendecomposed, one stack of equal-size
    blocks per call.  Q(s) = tr(rho0^s rho1^{1-s}) is one sum over the
    terms w lam0^s lam1^{1-s} of each block U1 diag(lam1) U1', basis
    state j and eigenvector k, with lam0 = p0[index[j]] and w =
    |U1[j, k]|^2; terms with an eigenvalue <= 0 or weight 0 add nothing
    for s in (0, 1) and are left out.  Tiny negative eigenvalues from
    truncation count as zero: each state's smallest eigenvalue is checked
    against -1e-9, and its clipped mass (0 if within rounding, dim * eps)
    is recorded.  Q(s) is log-convex, so Q'(s) = sum w lam0^s lam1^{1-s}
    ln(lam0 / lam1) is increasing and Q is minimized on [0, 1] at its
    root (or the end of [0, 1] it moves towards), found by safeguarded
    Newton steps (:func:`_s_root`) to |delta s| <= 1e-12.  An 11-point
    grid of Q values is kept in the diagnostics for a convexity audit.

    Where that grid is flat to rounding (dim * eps) s_star is NaN, and a
    q_min within rounding of 1 is 1, an exponent of 0.  Returns q_min = 0
    with an infinite exponent for (numerically) orthogonal states.
    """
    spectra1, weight, log0, log1 = [], [], [], []
    for index, stack in pair.stacks:
        lam1, vec1 = np.linalg.eigh(stack)
        spectra1.append(lam1)
        overlap = np.abs(vec1)
        overlap *= overlap
        lam0, lam1 = np.broadcast_arrays(pair.p0[index][:, :, None], lam1[:, None, :])
        keep = (overlap > 0.0) & (lam0 > 0.0) & (lam1 > 0.0)
        weight.append(overlap[keep])
        log0.append(np.log(lam0[keep]))
        log1.append(np.log(lam1[keep]))
    clip0 = _clipped_spectrum([pair.p0], "rho0")
    clip1 = _clipped_spectrum(spectra1, "rho1")
    weight, log1 = np.concatenate(weight), np.concatenate(log1)
    dlog = np.concatenate(log0) - log1

    def terms(s: float) -> np.ndarray:
        return weight * np.exp(log1 + s * dlog)

    def q_of(s: float) -> float:
        val = float(np.sum(terms(s)))
        require(math.isfinite(val), "Q({}) is not finite", s, error=ConvergenceError)
        return val

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
    if np.ptp(q_grid) <= rounding * q_grid.max():
        s_star = math.nan
    q_min = 1.0 if 1.0 - q_min <= rounding else max(q_min, 0.0)
    clip0, clip1 = (0.0 if clip <= rounding else clip for clip in (clip0, clip1))
    exponent = math.inf if q_min == 0.0 else max(0.0, -math.log(q_min))
    return ChernoffResult(
        s_star=float(s_star),
        q_min=float(q_min),
        exponent=float(exponent),
        diagnostics={
            "clipped_mass_rho0": clip0,
            "clipped_mass_rho1": clip1,
            "dim": pair.dim,
            "s_grid": s_grid,
            "q_grid": q_grid,
            "evaluations": evals + 1 + len(s_grid),
        },
    )
