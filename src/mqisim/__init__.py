"""Numerics for broadband two-mode squeezed vacuum sources and
quantum-illumination target detection.

Submodules:

* :mod:`mqisim.gaussian` - covariance-matrix states, quadrature algebra,
  Wigner densities;
* :mod:`mqisim.fock` - truncated Fock-space states and channels;
* :mod:`mqisim.illumination` - detection error-rate envelopes;
* :mod:`mqisim.qcb` - the brute-force quantum Chernoff bound on
  truncated Fock spaces;
* :mod:`mqisim.spectrum` - squeezing-parameter frequency profiles and
  dB mappings;
* :mod:`mqisim.cli` - the ``mqisim`` command-line tool;
* :mod:`mqisim.digits` - its CSV and JSON tables, nine significant
  digits a cell.

The names in ``__all__`` and the submodules are imported on first
access (PEP 562), so that importing the package, or one submodule,
loads no other layer.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "ConvergenceError",
        "DegenerateStateError",
        "InvalidArgumentError",
        "InvalidStateError",
        "MqisimError",
        "TruncationError",
    ),
    "gaussian": (
        "QUADRATURE_NAMES",
        "SqueezeParam",
        "TwoModeGaussianState",
        "UncertaintyReport",
        "WignerGrid",
        "quadrature_index",
        "quadrature_variance",
        "slice_mass",
        "tmsv_covariance",
        "uncertainty_check",
        "vacuum_state",
        "wigner_density",
        "wigner_grid",
    ),
    "fock": (
        "FockTMSV",
        "thermal_probabilities",
        "tmsv_fock",
    ),
    "illumination": (
        "DetectionScenario",
        "PulseRequirement",
        "advantage_db",
        "classical_error_rate",
        "error_probability",
        "is_asymptotic",
        "pulse_count",
        "quantum_error_rate",
        "required_pulses",
    ),
    "qcb": (
        "ChernoffResult",
        "HypothesisPair",
        "QIChannel",
        "build_classical_hypotheses",
        "build_qi_hypotheses",
        "chernoff_exponent",
        "qi_channel",
    ),
    "spectrum": (
        "SpectrumProfile",
        "SpectrumTable",
        "antisqueezing_magnitude_db",
        "gain_db",
        "kappa_profile",
        "spectrum_sweep",
        "squeezing_magnitude_db",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # a submodule that no import has loaded yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
