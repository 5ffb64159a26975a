"""The package's public names and the modules each CLI path loads.

``import mqisim`` resolves its exports on first access, and each
subcommand imports only the layers it runs, so that a fresh ``mqisim``
process compiles and executes no module it does not use.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mqisim
import reference
from mqisim.cli import _COMMANDS, load_config

# the function, class and constant names that `from mqisim import *` gives
EXPORTS = {
    "ChernoffResult", "ConvergenceError", "DegenerateStateError", "DetectionScenario",
    "FockTMSV", "HypothesisPair", "InvalidArgumentError", "InvalidStateError", "MqisimError",
    "PulseRequirement", "QIChannel", "QUADRATURE_NAMES", "SpectrumProfile", "SpectrumTable",
    "SqueezeParam", "TruncationError", "TwoModeGaussianState", "UncertaintyReport", "WignerGrid",
    "advantage_db", "antisqueezing_magnitude_db", "build_classical_hypotheses",
    "build_qi_hypotheses", "chernoff_exponent", "classical_error_rate", "displacement",
    "error_probability", "gain_db", "is_asymptotic", "kappa_profile",
    "pulse_count", "qi_channel", "quadrature_index", "quadrature_variance", "quantum_error_rate",
    "required_pulses", "slice_mass", "spectrum_sweep", "squeezing_magnitude_db",
    "thermal_probabilities", "tmsv_covariance", "tmsv_fock", "uncertainty_check",
    "vacuum_state", "wigner_density", "wigner_grid",
}
# the dense Fock algebra that only tests call: once exported from mqisim.fock,
# now the test reference in tests/reference.py
REFERENCES = {
    "DensityMatrix", "ModeOps", "beam_splitter", "beam_splitter_unitary", "embed_operator",
    "expectation", "mode_ops", "number_expectation", "partial_trace", "squeeze_vacuum_operator",
    "thermal_density", "unitarity_defect",
}


def test_star_import_gives_every_export():
    namespace = {}
    exec("from mqisim import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert set(mqisim.__all__) == EXPORTS


@pytest.mark.parametrize("name", sorted(EXPORTS | REFERENCES))
def test_export_is_the_object_of_its_home_module(name):
    if name in REFERENCES:
        # defined in the test reference, and no longer a package name
        assert getattr(reference, name).__module__ == "reference"
        assert not hasattr(mqisim, name) and name not in dir(mqisim)
        return
    value = getattr(mqisim, name)
    home = "mqisim.gaussian" if name == "QUADRATURE_NAMES" else value.__module__
    assert getattr(sys.modules[home], name) is value
    assert name in dir(mqisim)


# the exports that no subcommand runs, kept because the acceptance criteria call them
ACCEPTANCE_ONLY = {"quadrature_variance", "required_pulses", "vacuum_state", "wigner_density"}


def _src_references() -> set:
    """Names that code in src/mqisim/ other than __init__.py loads, reads as an
    attribute or imports, outside the top-level statement that defines them."""
    found = set()
    for path in Path(mqisim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            found |= names - {getattr(stmt, "name", None)}
    return found


def _acceptance_calls() -> set:
    """Names of the functions and classes that tests/test_acceptance.py calls."""
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_every_export_is_used_or_an_acceptance_criterion():
    # an export that neither a subcommand's code nor an acceptance criterion
    # uses is dead code or a test reference, and leaves the package
    unused = EXPORTS - _src_references()
    assert unused - _acceptance_calls() == set()
    assert unused == ACCEPTANCE_ONLY


def _public_definitions() -> dict:
    """Public top-level functions, classes and constants of src/mqisim/, by module."""
    found = {}
    for path in Path(mqisim.__file__).parent.glob("*.py"):
        names = set()
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        found[path.stem] = {name for name in names if not name.startswith("_")}
    return found


def test_every_public_name_has_a_caller():
    # a public name that no code in src/ uses, that is not exported and that no
    # acceptance criterion calls is code with no caller
    used = _src_references() | EXPORTS | _acceptance_calls()
    unused = {module: names - used for module, names in _public_definitions().items()}
    assert {module: names for module, names in unused.items() if names} == {}


def _record_fields() -> set:
    """``Class.field`` of each annotated field of a NamedTuple or dataclass in src/mqisim/."""
    found = set()
    for path in Path(mqisim.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef) and any(
                    "NamedTuple" in ast.unparse(node) or "dataclass" in ast.unparse(node)
                    for node in stmt.bases + stmt.decorator_list):
                found.update(f"{stmt.name}.{node.target.id}" for node in stmt.body
                             if isinstance(node, ast.AnnAssign))
    return found


def test_every_record_field_is_read():
    # a field that no code reads restates what its caller already holds, and can
    # drift out of step with it
    paths = [*Path(mqisim.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    reads = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert {field for field in _record_fields() if field.split(".")[1] not in reads} == set()


def _string_subscripts(paths) -> set:
    """The string constants that code in ``paths`` subscripts with, as in ``d["key"]``."""
    return {node.slice.value for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}


def test_every_diagnostics_key_is_read():
    # a key that no code reads is a number computed for nobody
    tree = ast.parse(Path(mqisim.qcb.__file__).read_text())
    keys = {key.value for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "diagnostics"
            for key in node.value.keys}
    paths = [*Path(mqisim.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    assert keys
    assert keys - _string_subscripts(paths) == set()


def _raise_calls(stmts) -> list:
    """``X`` of each statement ``raise X(...)`` in ``stmts``."""
    return [stmt.exc.func.id for stmt in stmts if isinstance(stmt, ast.Raise)
            and isinstance(stmt.exc, ast.Call) and isinstance(stmt.exc.func, ast.Name)]


def test_every_check_goes_through_the_errors_rules():
    # a domain check or an overflow check is errors.require or errors.finite, so the
    # NaN rule and the message of the first failing point live in one place
    checked = {name for name, value in vars(mqisim.errors).items()
               if isinstance(value, type) and issubclass(value, mqisim.errors.MqisimError)}
    checked.add("OverflowError")
    found = []
    for path in Path(mqisim.__file__).parent.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.If):
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in _raise_calls(node.body + node.orelse) if name in checked]
    assert found == []


def test_every_cli_flag_has_a_user():
    # a flag that no document, preset, benchmark invocation or acceptance
    # criterion passes is a knob that nobody turns
    root = Path(__file__).parent.parent
    texts = [(root / name).read_text() for name in
             ("README.md", "perfbench/workloads.py", "tests/test_acceptance.py")]
    config_keys = set().union(*(load_config(str(path)) for path in root.glob("configs/*.cfg")))
    unused = {
        f"{command} --{param.name}" for command, spec in _COMMANDS.items() for param in spec.params
        if param.name.replace("-", "_") not in config_keys
        and not any(re.search(rf"(?<![\w-])--{param.name}(?![\w-])", text) for text in texts)
    }
    assert unused == set()


def test_submodules_are_attributes():
    for name in ("errors", "gaussian", "fock", "illumination", "qcb", "spectrum"):
        assert getattr(mqisim, name) is sys.modules["mqisim." + name]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mqisim.no_such_name
    assert not hasattr(mqisim, "MIXING_TYPES")


# Runs ``mqisim.cli.main(argv)``, if given, in a fresh process and prints
# the mqisim submodules loaded by then.
_PROBE = """
import contextlib, io, json, sys
import mqisim.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert mqisim.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith("mqisim."))))
"""

_LAYERS = {"gaussian", "fock", "illumination", "qcb", "spectrum"}


@pytest.mark.parametrize("argv, never", [
    ([], _LAYERS),
    (["wigner", "--kappa", "0.5", "--plane", "qs,pi", "--samples", "5"],
     {"fock", "illumination", "qcb", "spectrum"}),
    (["spectrum", "--kappa-max", "3", "--steps", "5", "--mixing", "4wm",
      "--shape", "raised_cosine"],
     {"gaussian", "fock", "illumination", "qcb"}),
    (["detect", "--eta", "1", "--n-s", "1", "--n-b", "1", "--pulses", "10"],
     {"gaussian", "fock", "qcb"}),
    (["state", "--kappa", "0.5", "--cutoff", "12"], {"illumination", "qcb", "spectrum"}),
    (["qcb", "--transmitter", "both", "--n-s", "0.1", "--eta", "0.1", "--n-b", "1"],
     {"gaussian", "spectrum"}),
    (["qcb", "--transmitter", "classical", "--n-s", "0.1", "--eta", "0.1", "--n-b", "1"],
     {"gaussian", "spectrum"}),
    # only --kappa needs the Gaussian layer, to turn kappa into n_s
    (["qcb", "--transmitter", "both", "--kappa", "0.3", "--eta", "0.1", "--n-b", "1"],
     {"spectrum"}),
], ids=["import", "wigner", "spectrum", "detect", "state", "qcb", "qcb_classical", "qcb_kappa"])
def test_each_path_loads_only_its_layers(argv, never):
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"cli", "digits", "errors"} <= loaded
    assert not loaded & never
