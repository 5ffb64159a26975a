"""Domain-fuzz contract of the command line, and the defects it found.

Every subcommand is run in-process through ``main(argv)`` on values drawn
from the edges of the float domain (signed zeros, subnormals, values whose
squares or products overflow, infinities, NaN, negatives) and small
cutoffs.  Whatever the input, the run exits 0, 2 or 3; a failure prints a
message and no table; a table holds finite cells except where a column
documents otherwise; and the same argv gives the same bytes.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqisim.cli import main
from mqisim.illumination import DetectionScenario, classical_error_rate

VALUES = st.sampled_from([
    0.0, -0.0, 1e-300, 1e-320, 0.1, 0.5, 1.0, 2.5, 400.0, 1e6, 8e9, 12e9, 1e154, 1e300,
    math.inf, -math.inf, math.nan, -0.5, -1.0, -1e300,
])
SMALL_INTS = st.sampled_from([-1, 0, 1, 2, 3, 5])
CUTOFFS = st.sampled_from([-1, 0, 2, 6, 12])


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _pair(draw) -> str:
    return f"{_text(draw(VALUES))},{_text(draw(VALUES))}"


def _sweep(draw, variables) -> dict:
    flags = {"sweep-var": draw(st.sampled_from(variables))}
    if draw(st.booleans()):
        flags["sweep-values"] = ",".join(_text(v) for v in draw(st.lists(VALUES, min_size=1,
                                                                          max_size=3)))
    else:
        flags.update({"sweep-from": draw(VALUES), "sweep-to": draw(VALUES),
                      "sweep-steps": draw(SMALL_INTS)})
    return flags


@st.composite
def invocations(draw) -> list[str]:
    """argv of one subcommand: its required flags always, each other flag or not."""
    command = draw(st.sampled_from(["state", "wigner", "spectrum", "detect", "qcb"]))
    maybe = st.booleans()
    flags = {}
    if command == "state":
        flags = {"kappa": draw(VALUES), "phase": draw(VALUES), "cutoff": draw(CUTOFFS)}
    elif command == "wigner":
        flags = {"kappa": draw(VALUES), "samples": draw(SMALL_INTS),
                 "plane": draw(st.sampled_from(["qs,ps", "qs,pi", "qi,pi", "ps,qs", "qs,qs",
                                                "qs,xx"]))}
        if draw(maybe):
            flags["phase"] = draw(VALUES)
        for name in ("fixed", "range", "x-range", "y-range"):
            if draw(maybe):
                flags[name] = _pair(draw)
        for name in ("x-samples", "y-samples"):
            if draw(maybe):
                flags[name] = draw(SMALL_INTS)
    elif command == "spectrum":
        flags = {"kappa-max": draw(VALUES), "steps": draw(SMALL_INTS),
                 "mixing": draw(st.sampled_from(["3wm", "4wm"])),
                 "shape": draw(st.sampled_from(["parabolic", "raised_cosine", "rectangular"]))}
        for name in ("pump-freq", "band-width", "band-center", "nu-start", "nu-stop"):
            if draw(maybe):
                flags[name] = draw(VALUES)
    elif command == "detect":
        flags = {"eta": draw(VALUES), "n-s": draw(VALUES), "n-b": draw(VALUES)}
        for name in ("t-int", "bandwidth", "pulses"):
            if draw(maybe):
                flags[name] = draw(VALUES)
        if draw(maybe):
            flags.update(_sweep(draw, ["eta", "n_s", "n_b", "t_int", "bandwidth"]))
    else:
        flags = {"transmitter": draw(st.sampled_from(["qi", "classical", "both"])),
                 "eta": draw(VALUES), "n-b": draw(VALUES),
                 "cutoff-signal": draw(CUTOFFS), "cutoff-idler": draw(CUTOFFS),
                 "cutoff-noise": draw(CUTOFFS), "cutoff": draw(CUTOFFS)}
        flags[draw(st.sampled_from(["n-s", "kappa"]))] = draw(VALUES)
        if draw(maybe):
            flags.update(_sweep(draw, ["eta", "n_s", "n_b"]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    # --flag=value: argparse would take a value such as -inf for an option
    return [command, f"--format={fmt}", *(f"--{k}={_text(v)}" for k, v in flags.items())]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = (ln.split(",") for ln in text.splitlines() if not ln.startswith("#"))
    return header, rows


def _table(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Header and rows, each cell a float, or a bool for a flag column."""
    if fmt == "json":
        doc = json.loads(text)
        header, rows = doc["columns"], doc["rows"]
    else:
        header, rows = _csv_rows(text)
    return header, [[c if isinstance(c, bool) else c == "true" if c in ("true", "false")
                     else float(c) for c in row] for row in rows]


def _non_finite_allowed(column: str) -> set[str]:
    """Non-finite values a column may hold: NaN s* on a flat Q, an infinite exponent for
    orthogonal states, and 0/0 = nan, x/0 = inf for a ratio of exponents or rates."""
    if column.startswith("s_star"):
        return {"nan"}
    if column in ("exponent_ratio", "rate_ratio", "exponent_over_rate"):
        return {"nan", "inf"}
    if column.startswith("exponent"):
        return {"inf"}
    return set()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(invocations())
def test_every_input_gets_an_exit_code_and_an_honest_table(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert out == "" and err.strip() and "Traceback" not in err, (argv, out, err)
    else:
        header, rows = _table(out, argv[1].partition("=")[2])
        for row in rows:
            for column, cell in zip(header, row):
                assert (isinstance(cell, bool) or math.isfinite(cell)
                        or repr(cell) in _non_finite_allowed(column)), (argv, column, cell)
                # a binary decision with equal priors errs at most as often as a guess
                assert not column.startswith("pe_") or 0.0 <= cell <= 0.5, (argv, column, cell)
    assert _run(argv) == (code, out, err)


def test_wigner_form_overflow_reads_zero_density():
    # at qi = 1e300 the quadratic form overflowed into inf - inf and printed nan
    code, out, _ = _run(["wigner", "--kappa", "0.5", "--samples", "5", "--range=0,1e300",
                         "--fixed=1e300,0"])
    header, rows = _csv_rows(out)
    assert code == 0 and len(rows) == 25
    assert all(row[header.index("wigner")] == "0" for row in rows)


def test_detect_pulse_rate_underflow_rejected():
    # M R = 1e-12 * 1.5e-320 underflows to 0, which printed pe_cl = inf
    code, out, err = _run(["detect", "--eta", "1e-320", "--n-s", "3", "--n-b", "0.5",
                           "--pulses", "1e-12"])
    assert code == 2 and out == "" and "underflows" in err


def test_rate_overflow_is_a_numerical_failure():
    # eta n_s / n_b and n_s / n_b overflow at n_b = 1e-320: rate_ref and snr printed inf
    for argv in (["qcb", "--transmitter", "classical", "--eta", "0.5", "--n-s", "0.5",
                  "--n-b", "1e-320", "--cutoff", "6"],
                 ["detect", "--eta", "1e-20", "--n-s", "1", "--n-b", "1", "--pulses", "10",
                  "--sweep-var", "n_b", "--sweep-values", "1e-12,1e-320"]):
        code, out, err = _run(argv)
        assert code == 3 and out == "" and "overflows" in err, argv


def test_classical_rate_of_a_huge_background_is_finite():
    # 4 n_b overflowed at n_b = 1e308, so r_cl read 0 and the call exited 2
    assert classical_error_rate(DetectionScenario(1.0, 1.0, 1e308)) > 0.0
    code, out, err = _run(["detect", "--eta", "1", "--n-s", "1", "--n-b", "1e308",
                           "--pulses", "10"])
    assert code == 0, err
    _, rows = _table(out, "csv")
    assert len(rows) == 1 and all(isinstance(c, bool) or math.isfinite(c) for c in rows[0])


def test_infinite_sweep_bound_rejected():
    # an infinite bound reached np.linspace, which warned twice and reported n_b=nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(["detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1",
                               "--pulses", "10", "--sweep-var", "n_b", "--sweep-from=inf",
                               "--sweep-to", "2", "--sweep-steps", "3"])
    assert code == 2 and out == "" and "got inf, 2.0" in err, err
    assert caught == []


@pytest.mark.parametrize("ranges", [["--range=1,1"], ["--x-range=0,-0"], ["--y-range=2,2"]],
                         ids=["both", "x_signed_zero", "y"])
def test_zero_width_wigner_axis_rejected(ranges):
    # a zero-width axis printed every grid row at one point and exited 0
    code, out, err = _run(["wigner", "--kappa", "0.5", "--samples", "3", *ranges])
    assert code == 2 and out == "" and "distinct ends" in err, err


@pytest.mark.parametrize("argv, axis", [
    (["wigner", "--kappa", "0.5", "--range=1,1.0000000001", "--samples", "3"], "qs axis"),
    (["wigner", "--kappa", "0.5", "--y-range=-2e-9,-1.9999999999e-9", "--samples", "3"],
     "ps axis"),
    (["spectrum", "--kappa-max", "3", "--steps", "5", "--nu-start", "5e9",
      "--nu-stop", "5.0000000001e9"], "nu_s sweep"),
    (["detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "10",
      "--sweep-var", "n_b", "--sweep-from", "1", "--sweep-to", "1.0000000001",
      "--sweep-steps", "3"], "n_b sweep"),
    (["qcb", "--transmitter", "classical", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1",
      "--cutoff", "4", "--sweep-var", "eta", "--sweep-from", "0.5", "--sweep-to", "0.5000000001",
      "--sweep-steps", "3"], "eta sweep"),
], ids=["wigner", "wigner_y", "spectrum", "detect", "qcb"])
def test_unresolved_axis_rejected(argv, axis):
    # a step below the 9-digit resolution of the cells printed rows that could not be
    # told apart, and exited 0
    code, out, err = _run(argv)
    assert code == 2 and out == "" and axis in err and "both print as" in err, err


@pytest.mark.parametrize("argv", [
    ["wigner", "--kappa", "0.5", "--range=1,1.00000002", "--samples", "3"],
    ["spectrum", "--kappa-max", "3", "--steps", "3", "--nu-start", "5e9", "--nu-stop", "5.00000002e9"],
    ["detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "10",
     "--sweep-var", "n_b", "--sweep-from", "1.00000002", "--sweep-to", "1", "--sweep-steps", "3"],
], ids=["wigner", "spectrum", "detect_descending"])
def test_axis_at_the_resolution_accepted(argv):
    # one unit of the ninth digit per step still prints distinct cells
    code, out, err = _run(argv)
    assert code == 0, err
    _, rows = _table(out, "csv")
    assert len({tuple(r) for r in rows}) == len(rows)
