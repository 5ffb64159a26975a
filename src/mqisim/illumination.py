"""Target-detection error rates and the quantum Chernoff bound oracle.

The asymptotic error-probability envelope for M independent pulses is

    P_e ~ exp(-M R) / (2 sqrt(pi M R)),

with rate R = eta N_S / (4 N_B) for a coherent-state transmitter and
R = eta N_S / N_B for the entangled (TMSV) transmitter, a fixed factor
4 (6.02 dB) apart.  The rate and envelope functions take scalars or 1-D
arrays (a sweep) and broadcast; scalars give a Python float or bool.
These envelopes are asymptotic claims; the brute-force oracle in this
module builds the single-copy hypothesis states on a truncated Fock
space and minimizes Q(s) = tr(rho0^s rho1^{1-s}) directly, which
quantifies how fast each transmitter actually approaches its envelope
rate.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError, InvalidStateError, TruncationError
from .fock import (
    DensityMatrix,
    _bs_sector,
    _check_unit_trace,
    _hermitian_part,
    displacement,
    thermal_probabilities,
    tmsv_fock,
)
from .gaussian import SqueezeParam

_PSD_TOL = -1e-9
_DISCARD_TOL = 1e-3  # largest probability mass a truncated distribution may lose


def _floats(value, name: str):
    """A scalar argument as a float, a 1-D one as a float array (a copy)."""
    v = np.array(value, dtype=float)
    if v.ndim > 1:
        raise InvalidArgumentError(f"{name} must be a scalar or 1-D, got shape {v.shape}")
    return float(v) if v.ndim == 0 else v


def _require(ok, message: str, *values):
    """Raise unless ``ok`` holds at every point, formatting ``message`` with the
    ``values`` at the first point where it does not."""
    bad = np.flatnonzero(np.logical_not(ok))
    if bad.size:
        point = (np.broadcast_to(v, np.shape(ok)).flat[bad[0]].item() for v in values)
        raise InvalidArgumentError(message.format(*point))


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
        return self.n_s / self.n_b

    @property
    def pulses(self) -> float | np.ndarray:
        return pulse_count(self.t_int, self.bandwidth)


def classical_error_rate(scn: DetectionScenario) -> float | np.ndarray:
    """Error-probability exponent rate of the coherent-state transmitter."""
    _require(scn.n_b != 0.0, "rate formulas require n_b > 0")
    return scn.eta * scn.n_s / (4.0 * scn.n_b)


def quantum_error_rate(scn: DetectionScenario) -> float | np.ndarray:
    """Error-probability exponent rate of the entangled transmitter."""
    _require(scn.n_b != 0.0, "rate formulas require n_b > 0")
    return scn.eta * scn.n_s / scn.n_b


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
    return t * w


def error_probability(rate, pulses):
    """Asymptotic envelope exp(-M R) / (2 sqrt(pi M R)).

    Valid as an approximation only for M R >= 1 and M >> 1; use
    :func:`is_asymptotic` for the validity flag.
    """
    r = _floats(rate, "rate")
    m = _floats(pulses, "pulses")
    _require(np.isfinite(r) & np.isfinite(m) & (r > 0.0) & (m > 0.0),
             "rate and pulses must be finite and > 0, got {}, {}", r, m)
    mr = m * r
    return _scalar(np.exp(-mr) / (2.0 * np.sqrt(math.pi * mr)))


def is_asymptotic(rate, pulses):
    """Whether the envelope formula is inside its asymptotic validity window."""
    return _scalar((np.multiply(pulses, rate) >= 1.0) & np.greater_equal(pulses, 100.0))


@dataclass(frozen=True)
class PulseRequirement:
    """Pulse budget solving the envelope for a target error probability."""

    pulses: float
    exponent_arg: float  # M R at the solution
    asymptotic_valid: bool


def required_pulses(rate: float, target_pe: float) -> PulseRequirement:
    """Invert the error-probability envelope for the pulse count.

    Solves exp(-x)/(2 sqrt(pi x)) = target_pe for x = M R by bracketed
    root finding (the envelope is strictly decreasing), then returns
    M = x / rate.  Solutions with x < 1 or M < 100 sit outside the
    asymptotic window and are flagged rather than rejected.
    """
    r = float(rate)
    p = float(target_pe)
    if not math.isfinite(r) or r <= 0.0:
        raise InvalidArgumentError(f"rate must be finite and > 0, got {rate}")
    if not 0.0 < p < 0.5:
        raise InvalidArgumentError(f"target_pe must be in (0, 0.5), got {target_pe}")

    def log_resid(x: float) -> float:
        return -x - math.log(2.0 * math.sqrt(math.pi * x)) - math.log(p)

    lo = 1e-12
    hi = 1.0
    while log_resid(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise ConvergenceError("failed to bracket the envelope inversion")
    from scipy.optimize import brentq  # only caller; keeps scipy off the CLI import path

    x = brentq(log_resid, lo, hi, xtol=1e-300, rtol=8.9e-16)
    resid = abs(error_probability(r, x / r) / p - 1.0)
    if resid > 1e-10:
        raise ConvergenceError(f"envelope inversion residual {resid:.3e} exceeds 1e-10")
    pulses = x / r
    return PulseRequirement(pulses=pulses, exponent_arg=x, asymptotic_valid=is_asymptotic(r, pulses))


# ---------------------------------------------------------------------------
# Hypothesis states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisPair:
    """Target-absent / target-present states for one transmitter.

    Both states are stored block-diagonally over one shared partition of
    the basis: each entry of ``blocks`` is ``(index, rho0_block,
    rho1_block)``, where ``index`` lists the flat basis positions
    (``mode_dims`` order, first mode slowest) of the block's rows and
    columns, and every entry outside the blocks is zero.  Construction
    checks each block Hermitian within 1e-10 and each state's total
    trace 1 within 1e-8 and symmetrizes the blocks, as
    :class:`DensityMatrix` does for a dense state.  :meth:`from_states`
    wraps a dense pair as a single block; ``rho0`` and ``rho1`` assemble
    the dense states on access.
    """

    mode_dims: tuple[int, ...]
    blocks: tuple
    label: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.mode_dims)
        blocks = []
        traces = [0.0, 0.0]
        for index, *states in self.blocks:
            index = np.asarray(index, dtype=int)
            for k, b in enumerate(states):
                b = np.asarray(b, dtype=complex)
                if b.shape != (index.size, index.size):
                    raise InvalidArgumentError(
                        f"block of shape {b.shape} does not match its {index.size} indices"
                    )
                states[k] = _hermitian_part(b)
                states[k].setflags(write=False)
                traces[k] += complex(np.trace(states[k]))
            blocks.append((index, *states))
        covered = np.sort(np.concatenate([b[0] for b in blocks]))
        if not np.array_equal(covered, np.arange(int(np.prod(dims)))):
            raise InvalidArgumentError(f"block indices must partition the space of mode_dims {dims}")
        for tr in traces:
            _check_unit_trace(tr)
        object.__setattr__(self, "mode_dims", dims)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def from_states(cls, rho0: DensityMatrix, rho1: DensityMatrix, label: str = "",
                    params: dict | None = None) -> "HypothesisPair":
        """One-block pair of two dense states on the same space."""
        if rho0.mode_dims != rho1.mode_dims:
            raise InvalidArgumentError(
                f"hypotheses must share a dimension, got {rho0.mode_dims} and {rho1.mode_dims}"
            )
        blocks = ((np.arange(rho0.dim), rho0.matrix, rho1.matrix),)
        return cls(rho0.mode_dims, blocks, label, dict(params or {}))

    @property
    def dim(self) -> int:
        return int(np.prod(self.mode_dims))

    def _assemble(self, which: int) -> DensityMatrix:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for block in self.blocks:
            m[np.ix_(block[0], block[0])] = block[which]
        return DensityMatrix(self.mode_dims, m)

    @property
    def rho0(self) -> DensityMatrix:
        return self._assemble(1)

    @property
    def rho1(self) -> DensityMatrix:
        return self._assemble(2)


def _check_discarded(name: str, discarded: float, cutoff: int):
    if discarded > _DISCARD_TOL:
        raise TruncationError(
            f"cutoff {cutoff} discards {discarded:.3e} of the {name} distribution, "
            f"above the tolerance {_DISCARD_TOL}; raise the cutoff"
        )


def build_qi_hypotheses(
    sq: SqueezeParam,
    eta: float,
    n_b: float,
    signal_cutoff: int,
    idler_cutoff: int,
    noise_cutoff: int,
) -> HypothesisPair:
    """Hypothesis pair for the entangled (TMSV) transmitter.

    H0 is thermal(n_b) on the return mode times the idler marginal
    (thermal with sinh^2 kappa).  H1 mixes the TMSV signal mode with a
    thermal noise mode of occupancy n_b / (1 - eta) on a beam splitter
    of transmissivity eta and traces out the noise port, retaining the
    return-idler correlations.  The thermal noise is diagonal in the
    Fock basis, so the mix is applied exactly, one noise Fock component
    at a time, using the sector decomposition of the beam splitter.

    Both states are block-diagonal in d = s - i (return photons minus
    idler photons), d = -idler_cutoff .. signal_cutoff: the beam
    splitter conserves signal + noise photons, the TMSV pairs signal
    photon i with idler photon i, and the noise is Fock-diagonal.  Block
    d of rho1 is V V' with V[k, m] = c_i sqrt(p_noise[m])
    B^{(i+m)}[i+d, i], where k runs over the idler numbers i of the
    block, m is the noise photon number, c_i the TMSV coefficient and
    B^{(t)} the beam-splitter block of total photon number t; block d of
    rho0 is the matching slice of the diagonal p_ret (x) p_idl.  No
    dense state is formed, and no block is larger than idler_cutoff + 1.

    The signal cutoff bounds the return mode and must accommodate the
    output occupancy eta sinh^2(kappa) + n_b; it must be at least the
    idler cutoff.  Each truncated distribution (noise, return, idler and
    the TMSV pair expansion) may discard at most 1e-3 of its mass, else
    :class:`TruncationError` is raised.  Mode order of the result:
    (return, idler).
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidArgumentError(f"eta must be in [0, 1], got {eta}")
    if n_b < 0.0 or not math.isfinite(n_b):
        raise InvalidArgumentError(f"n_b must be finite and >= 0, got {n_b}")
    if eta == 1.0 and n_b > 0.0:
        raise InvalidArgumentError(
            "eta = 1 with n_b > 0 is inconsistent with the noise-injection convention"
        )
    n_sig, n_idl, n_noise = (int(c) for c in (signal_cutoff, idler_cutoff, noise_cutoff))
    if n_sig < n_idl:
        raise InvalidArgumentError(
            f"signal_cutoff ({n_sig}) must be >= idler_cutoff ({n_idl})"
        )

    state = tmsv_fock(sq, n_idl)
    nbar_noise = n_b / (1.0 - eta) if eta < 1.0 else 0.0
    p_noise, noise_renorm = thermal_probabilities(nbar_noise, n_noise)
    p_ret0, ret_renorm = thermal_probabilities(n_b, n_sig)
    p_idl0, idl_renorm = thermal_probabilities(math.sinh(sq.kappa) ** 2, n_idl)
    for name, renorm, cutoff in (("noise", noise_renorm, n_noise),
                                 ("return", ret_renorm, n_sig),
                                 ("idler", idl_renorm, n_idl)):
        _check_discarded(name, 1.0 - 1.0 / renorm, cutoff)
    _check_discarded("TMSV pair", state.norm_deficit, n_idl)

    coeffs = state.coeffs / np.linalg.norm(state.coeffs)
    weight = coeffs[:, None] * np.sqrt(p_noise)[None, :]
    theta = math.acos(math.sqrt(eta))
    # amp[s, i, m]: amplitude of return s with idler i and noise input m;
    # the noise output i + m - s is implied by photon-number conservation
    amp = np.zeros((n_sig + 1, n_idl + 1, n_noise + 1), dtype=complex)
    for total in range(n_idl + n_noise + 1):
        s_vals, block = _bs_sector(total, n_sig + 1, n_noise + 1, theta)
        i = np.arange(max(0, total - n_noise), min(total, n_idl) + 1)
        amp[s_vals[:, None], i, total - i] = weight[i, total - i] * block[:, i - s_vals[0]]

    diag0 = np.kron(p_ret0, p_idl0)
    blocks = []
    for d in range(-n_idl, n_sig + 1):
        i = np.arange(max(0, -d), min(n_idl, n_sig - d) + 1)
        index = (i + d) * (n_idl + 1) + i
        v = amp[i + d, i, :]
        blocks.append((index, np.diag(diag0[index]), v @ v.conj().T))
    boundary = float(np.sum(np.abs(amp[n_sig]) ** 2))
    return HypothesisPair(
        mode_dims=(n_sig + 1, n_idl + 1),
        blocks=tuple(blocks),
        label="tmsv",
        params={
            "kappa": sq.kappa,
            "phase": sq.phase,
            "n_s": math.sinh(sq.kappa) ** 2,
            "eta": eta,
            "n_b": n_b,
            "signal_cutoff": n_sig,
            "idler_cutoff": n_idl,
            "noise_cutoff": n_noise,
            "tmsv_norm_deficit": state.norm_deficit,
            "noise_renormalization": noise_renorm,
            "background_renormalization": ret_renorm,
            "idler_renormalization": idl_renorm,
            "return_boundary_population": boundary,
        },
    )


def build_classical_hypotheses(n_s: float, eta: float, n_b: float, cutoff: int) -> HypothesisPair:
    """Hypothesis pair for the coherent-state transmitter (single mode).

    H0 is thermal(n_b); H1 is the same thermal state displaced by
    alpha = sqrt(eta n_s), giving mean photon number eta n_s + n_b.  The
    pair is a single block.  The truncated thermal law may discard at
    most 1e-3 of its mass, else :class:`TruncationError` is raised.
    """
    if n_s < 0.0 or not math.isfinite(n_s):
        raise InvalidArgumentError(f"n_s must be finite and >= 0, got {n_s}")
    if not 0.0 <= eta <= 1.0:
        raise InvalidArgumentError(f"eta must be in [0, 1], got {eta}")
    if n_b < 0.0 or not math.isfinite(n_b):
        raise InvalidArgumentError(f"n_b must be finite and >= 0, got {n_b}")
    cutoff = int(cutoff)
    p0, renorm = thermal_probabilities(n_b, cutoff)
    _check_discarded("thermal background", 1.0 - 1.0 / renorm, cutoff)
    alpha = math.sqrt(eta * n_s)
    rho0 = DensityMatrix((cutoff + 1,), np.diag(p0.astype(complex)))
    disp = displacement(alpha, cutoff)
    rho1 = DensityMatrix((cutoff + 1,), disp @ rho0.matrix @ disp.conj().T)
    return HypothesisPair.from_states(
        rho0,
        rho1,
        label="coherent",
        params={"n_s": n_s, "eta": eta, "n_b": n_b, "cutoff": cutoff, "alpha": alpha},
    )


# ---------------------------------------------------------------------------
# Quantum Chernoff bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChernoffResult:
    """Minimized overlap Q(s*) = min_s tr(rho0^s rho1^{1-s}) and exponent."""

    s_star: float
    q_min: float
    exponent: float
    diagnostics: dict = field(default_factory=dict)


def _clipped_spectrum(eigvals: np.ndarray, name: str):
    worst = float(np.min(eigvals))
    if worst < _PSD_TOL:
        raise InvalidStateError(f"{name} has eigenvalue {worst:.3e} below tolerance {_PSD_TOL}")
    # 0.0 - x rather than -x: nothing clipped is +0.0, not -0.0
    clipped = 0.0 - float(np.sum(np.minimum(eigvals, 0.0)))
    return np.clip(eigvals, 0.0, None), clipped, worst


def chernoff_exponent(pair: HypothesisPair, s_tol: float = 1e-6) -> ChernoffResult:
    """Brute-force quantum Chernoff bound for a hypothesis pair.

    Eigendecomposes both states block by block (tiny negative
    eigenvalues from truncation are clipped at zero and recorded, summed
    over blocks; positivity is checked on the smallest eigenvalue of any
    block) and evaluates Q(s) = tr(rho0^s rho1^{1-s}) as the sum over
    blocks d of lam0_d^s |U0_d' U1_d|^2 lam1_d^{1-s}, where U0_d, U1_d
    are the blocks' eigenvectors.  Q is minimized over s in (0, 1) by
    golden-section search to |delta s| <= s_tol.  Q(s) is log-convex on
    (0, 1), so the local minimum is global; an 11-point grid of Q values
    is kept in the diagnostics so that convexity can be audited.

    Returns q_min = 0 with an infinite exponent for (numerically)
    orthogonal states.
    """
    spectra0, spectra1, overlaps = [], [], []
    start = 0
    for _, block0, block1 in pair.blocks:
        lam0, vec0 = np.linalg.eigh(block0)
        lam1, vec1 = np.linalg.eigh(block1)
        spectra0.append(lam0)
        spectra1.append(lam1)
        overlaps.append((slice(start, start + lam0.size), np.abs(vec0.conj().T @ vec1) ** 2))
        start += lam0.size
    lam0, clip0, worst0 = _clipped_spectrum(np.concatenate(spectra0), "rho0")
    lam1, clip1, worst1 = _clipped_spectrum(np.concatenate(spectra1), "rho1")

    def q_of(s: float) -> float:
        pow0 = lam0**s
        pow1 = lam1 ** (1.0 - s)
        val = float(sum(pow0[sl] @ overlap @ pow1[sl] for sl, overlap in overlaps))
        if not math.isfinite(val):
            raise ConvergenceError(f"Q({s}) is not finite")
        return val

    s_grid = np.arange(1, 12) / 12.0
    q_grid = np.array([q_of(s) for s in s_grid])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    qc, qd = q_of(c), q_of(d)
    evals = 2
    while b - a > s_tol:
        if qc < qd:
            b, d, qd = d, c, qc
            c = b - invphi * (b - a)
            qc = q_of(c)
        else:
            a, c, qc = c, d, qd
            d = a + invphi * (b - a)
            qd = q_of(d)
        evals += 1
    s_star = 0.5 * (a + b)
    q_min = q_of(s_star)

    k = int(np.argmin(q_grid))
    if q_grid[k] < q_min:
        s_star, q_min = float(s_grid[k]), float(q_grid[k])

    raw_q = q_min
    q_min = min(max(q_min, 0.0), 1.0)
    exponent = math.inf if q_min == 0.0 else max(0.0, -math.log(q_min))
    return ChernoffResult(
        s_star=float(s_star),
        q_min=float(q_min),
        exponent=float(exponent),
        diagnostics={
            "raw_q_min": raw_q,
            "clipped_mass_rho0": clip0,
            "clipped_mass_rho1": clip1,
            "min_eigenvalue_rho0": worst0,
            "min_eigenvalue_rho1": worst1,
            "dim": pair.dim,
            "s_grid": s_grid,
            "q_grid": q_grid,
            "evaluations": evals + len(s_grid),
        },
    )
