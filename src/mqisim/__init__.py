"""Numerics for broadband two-mode squeezed vacuum sources and
quantum-illumination target detection.

Submodules:

* :mod:`mqisim.gaussian` - covariance-matrix states, quadrature algebra,
  Wigner densities;
* :mod:`mqisim.fock` - truncated Fock-space states, operators and
  channels;
* :mod:`mqisim.illumination` - detection error-rate envelopes and the
  brute-force quantum Chernoff bound;
* :mod:`mqisim.spectrum` - squeezing-parameter frequency profiles and
  dB mappings;
* :mod:`mqisim.cli` - the ``mqisim`` command-line tool.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DegenerateStateError,
    InvalidArgumentError,
    InvalidStateError,
    MqisimError,
    TruncationError,
)
from .gaussian import (
    QUADRATURE_NAMES,
    SqueezeParam,
    TwoModeGaussianState,
    UncertaintyReport,
    WignerGrid,
    quadrature_index,
    quadrature_variance,
    slice_mass,
    tmsv_covariance,
    uncertainty_check,
    vacuum_state,
    wigner_density,
    wigner_grid,
)
from .fock import (
    DensityMatrix,
    FockTMSV,
    ModeOps,
    beam_splitter,
    beam_splitter_unitary,
    displacement,
    embed_operator,
    expectation,
    mode_ops,
    number_expectation,
    partial_trace,
    squeeze_vacuum_operator,
    thermal_density,
    thermal_probabilities,
    tmsv_fock,
    unitarity_defect,
)
from .illumination import (
    ChernoffResult,
    DetectionScenario,
    HypothesisPair,
    PulseRequirement,
    QIChannel,
    advantage_db,
    build_classical_hypotheses,
    build_qi_hypotheses,
    chernoff_exponent,
    classical_error_rate,
    error_probability,
    is_asymptotic,
    pulse_count,
    qi_channel,
    quantum_error_rate,
    required_pulses,
)
from .spectrum import (
    SpectrumProfile,
    SpectrumTable,
    antisqueezing_magnitude_db,
    gain_db,
    idler_frequency,
    kappa_profile,
    spectrum_sweep,
    squeezing_magnitude_db,
)
