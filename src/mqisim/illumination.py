"""Target-detection error rates and the quantum Chernoff bound oracle.

The asymptotic error-probability envelope for M independent pulses is

    P_e ~ exp(-M R) / (2 sqrt(pi M R)),

with rate R = eta N_S / (4 N_B) for a coherent-state transmitter and
R = eta N_S / N_B for the entangled (TMSV) transmitter, a fixed factor
4 (6.02 dB) apart.  These envelopes are asymptotic claims; the
brute-force oracle in this module builds the single-copy hypothesis
states on a truncated Fock space and minimizes
Q(s) = tr(rho0^s rho1^{1-s}) directly, which quantifies how fast each
transmitter actually approaches its envelope rate.

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

from .errors import ConvergenceError, InvalidArgumentError, InvalidStateError
from .fock import (
    DensityMatrix,
    _bs_sector,
    displacement,
    thermal_density,
    thermal_probabilities,
    tmsv_fock,
)
from .gaussian import SqueezeParam

_PSD_TOL = -1e-9


@dataclass(frozen=True)
class DetectionScenario:
    """Protocol parameters for one interrogation scenario.

    eta: round-trip target reflectance in [0, 1];
    n_s: signal photons per mode; n_b: background thermal photons per
    mode; t_int: integration time in seconds; bandwidth: source
    bandwidth in Hz.  Rate formulas additionally require n_b > 0.
    """

    eta: float
    n_s: float
    n_b: float
    t_int: float = 0.0
    bandwidth: float = 0.0

    def __post_init__(self):
        checks = [
            ("eta", self.eta, 0.0, 1.0),
            ("n_s", self.n_s, 0.0, math.inf),
            ("n_b", self.n_b, 0.0, math.inf),
            ("t_int", self.t_int, 0.0, math.inf),
            ("bandwidth", self.bandwidth, 0.0, math.inf),
        ]
        for name, value, lo, hi in checks:
            v = float(value)
            if not math.isfinite(v) or v < lo or v > hi:
                raise InvalidArgumentError(f"{name}={value} outside [{lo}, {hi}]")
            object.__setattr__(self, name, v)

    @property
    def snr(self) -> float:
        """Signal-to-noise ratio interpreted as N_S / N_B (reporting only)."""
        if self.n_b == 0.0:
            raise InvalidArgumentError("snr undefined for n_b = 0")
        return self.n_s / self.n_b

    @property
    def pulses(self) -> float:
        return pulse_count(self.t_int, self.bandwidth)


def _require_background(scn: DetectionScenario):
    if scn.n_b == 0.0:
        raise InvalidArgumentError("rate formulas require n_b > 0")


def classical_error_rate(scn: DetectionScenario) -> float:
    """Error-probability exponent rate of the coherent-state transmitter."""
    _require_background(scn)
    return scn.eta * scn.n_s / (4.0 * scn.n_b)


def quantum_error_rate(scn: DetectionScenario) -> float:
    """Error-probability exponent rate of the entangled transmitter."""
    _require_background(scn)
    return scn.eta * scn.n_s / scn.n_b


def advantage_db() -> float:
    """Exponent advantage of the entangled transmitter, 10 log10(4) dB.

    Scenario-independent: the two rates differ by exactly a factor 4.
    """
    return 10.0 * math.log10(4.0)


def pulse_count(t_int: float, bandwidth: float) -> float:
    """Number of independent pulses M = T W (kept real, not floored)."""
    t = float(t_int)
    w = float(bandwidth)
    if not (math.isfinite(t) and math.isfinite(w)) or t < 0.0 or w < 0.0:
        raise InvalidArgumentError(f"t_int and bandwidth must be finite and >= 0, got {t_int}, {bandwidth}")
    return t * w


def error_probability(rate: float, pulses: float) -> float:
    """Asymptotic envelope exp(-M R) / (2 sqrt(pi M R)).

    Valid as an approximation only for M R >= 1 and M >> 1; use
    :func:`is_asymptotic` for the validity flag.
    """
    r = float(rate)
    m = float(pulses)
    if not (math.isfinite(r) and math.isfinite(m)) or r <= 0.0 or m <= 0.0:
        raise InvalidArgumentError(f"rate and pulses must be finite and > 0, got {rate}, {pulses}")
    mr = m * r
    return math.exp(-mr) / (2.0 * math.sqrt(math.pi * mr))


def is_asymptotic(rate: float, pulses: float) -> bool:
    """Whether the envelope formula is inside its asymptotic validity window."""
    return pulses * rate >= 1.0 and pulses >= 100.0


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
    """Target-absent / target-present states for one transmitter."""

    rho0: DensityMatrix
    rho1: DensityMatrix
    label: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rho0.matrix.shape != self.rho1.matrix.shape:
            raise InvalidArgumentError(
                f"hypotheses must share a dimension, got {self.rho0.dim} and {self.rho1.dim}"
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

    The signal cutoff bounds the return mode and must accommodate the
    output occupancy eta sinh^2(kappa) + n_b; it must be at least the
    idler cutoff.  Mode order of the result: (return, idler).
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
    coeffs = state.coeffs / np.linalg.norm(state.coeffs)
    nbar_noise = n_b / (1.0 - eta) if eta < 1.0 else 0.0
    p_noise, noise_renorm = thermal_probabilities(nbar_noise, n_noise)
    theta = math.acos(math.sqrt(eta))

    rows = (n_sig + 1) * (n_idl + 1)
    cols = (n_noise + 1) * (n_noise + 1)
    amp = np.zeros((rows, cols), dtype=complex)
    sqrt_p = np.sqrt(p_noise)
    for total in range(n_idl + n_noise + 1):
        s_vals, block = _bs_sector(total, n_sig + 1, n_noise + 1, theta)
        offset = int(s_vals[0])
        flat_rows = s_vals * (n_idl + 1)
        flat_cols = (total - s_vals) * (n_noise + 1)
        for i in range(max(0, total - n_noise), min(total, n_idl) + 1):
            m = total - i
            weight = coeffs[i] * sqrt_p[m]
            amp[flat_rows + i, flat_cols + m] = weight * block[:, i - offset]
    rho1_mat = amp @ amp.conj().T

    p_ret0, ret_renorm = thermal_probabilities(n_b, n_sig)
    p_idl0, idl_renorm = thermal_probabilities(math.sinh(sq.kappa) ** 2, n_idl)
    rho0_mat = np.diag(np.kron(p_ret0, p_idl0).astype(complex))

    dims = (n_sig + 1, n_idl + 1)
    rho1 = DensityMatrix(dims, rho1_mat)
    rho0 = DensityMatrix(dims, rho0_mat)
    diag1 = np.real(np.diagonal(rho1.matrix))
    boundary = float(np.sum(diag1[n_sig * (n_idl + 1):]))
    return HypothesisPair(
        rho0=rho0,
        rho1=rho1,
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
    alpha = sqrt(eta n_s), giving mean photon number eta n_s + n_b.
    """
    if n_s < 0.0 or not math.isfinite(n_s):
        raise InvalidArgumentError(f"n_s must be finite and >= 0, got {n_s}")
    if not 0.0 <= eta <= 1.0:
        raise InvalidArgumentError(f"eta must be in [0, 1], got {eta}")
    if n_b < 0.0 or not math.isfinite(n_b):
        raise InvalidArgumentError(f"n_b must be finite and >= 0, got {n_b}")
    cutoff = int(cutoff)
    alpha = math.sqrt(eta * n_s)
    rho0 = thermal_density(n_b, cutoff)
    disp = displacement(alpha, cutoff)
    rho1 = DensityMatrix((cutoff + 1,), disp @ rho0.matrix @ disp.conj().T)
    return HypothesisPair(
        rho0=rho0,
        rho1=rho1,
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


def _clipped_spectrum(rho: DensityMatrix, name: str):
    eigvals, eigvecs = np.linalg.eigh(rho.matrix)
    worst = float(eigvals[0])
    if worst < _PSD_TOL:
        raise InvalidStateError(f"{name} has eigenvalue {worst:.3e} below tolerance {_PSD_TOL}")
    clipped = float(-np.sum(np.minimum(eigvals, 0.0)))
    return np.clip(eigvals, 0.0, None), eigvecs, clipped, worst


def chernoff_exponent(pair: HypothesisPair, s_tol: float = 1e-6) -> ChernoffResult:
    """Brute-force quantum Chernoff bound for a hypothesis pair.

    Eigendecomposes both states (tiny negative eigenvalues from
    truncation are clipped at zero and recorded), evaluates
    Q(s) = tr(rho0^s rho1^{1-s}) through the eigenbasis overlap matrix,
    and minimizes over s in (0, 1) by golden-section search to
    |delta s| <= s_tol.  Q(s) is log-convex on (0, 1), so the local
    minimum is global; an 11-point grid of Q values is kept in the
    diagnostics so that convexity can be audited.

    Returns q_min = 0 with an infinite exponent for (numerically)
    orthogonal states.
    """
    lam0, vec0, clip0, worst0 = _clipped_spectrum(pair.rho0, "rho0")
    lam1, vec1, clip1, worst1 = _clipped_spectrum(pair.rho1, "rho1")
    overlap = np.abs(vec0.conj().T @ vec1) ** 2

    def q_of(s: float) -> float:
        val = float(lam0**s @ overlap @ lam1 ** (1.0 - s))
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
            "dim": pair.rho0.dim,
            "s_grid": s_grid,
            "q_grid": q_grid,
            "evaluations": evals + len(s_grid),
        },
    )
