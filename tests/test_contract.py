"""Domain-fuzz contract of the command line, and the defects it found.

Every subcommand is run in-process through ``main(argv)`` on values drawn
from the edges of the float domain (signed zeros, subnormals, values whose
squares, products or differences overflow, infinities, NaN, negatives) and
small cutoffs.  Whatever the input, the run exits 0, 2 or 3; a failure
prints a message and no table; a table holds finite cells except where a
column documents otherwise; and the same argv gives the same bytes.
"""

import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqisim.cli import main
from mqisim.gaussian import SqueezeParam, tmsv_covariance
from mqisim.illumination import DetectionScenario, classical_error_rate

# the largest double
MAX = sys.float_info.max
VALUES = st.sampled_from([
    0.0, -0.0, 1e-300, 1e-320, 0.1, 0.5, 1.0, 2.5, 400.0, 1e6, 8e9, 12e9, 1e154, 1e300, MAX,
    math.inf, -math.inf, math.nan, -0.5, -1.0, -1e300, -MAX,
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
        for name in ("fixed", "range"):
            if draw(maybe):
                flags[name] = _pair(draw)
    elif command == "spectrum":
        flags = {"kappa-max": draw(VALUES), "steps": draw(SMALL_INTS),
                 "mixing": draw(st.sampled_from(["3wm", "4wm"])),
                 "shape": draw(st.sampled_from(["parabolic", "raised_cosine", "rectangular"]))}
        for name in ("pump-freq", "band-width", "nu-start", "nu-stop"):
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


@st.composite
def moderate_detect_invocations(draw) -> list[str]:
    """argv of a ``detect`` run at moderate values and 1-100 pulses, where M R is often
    below 0.21 and the envelope above 1/2: the edge values above rarely exit 0 there."""
    moderate = st.sampled_from([0.01, 0.05, 0.1, 0.5, 1.0])
    flags = {"eta": draw(moderate), "n-s": draw(moderate),
             "n-b": draw(st.sampled_from([0.1, 1.0, 4.0, 10.0])),
             "pulses": draw(st.integers(1, 100))}
    if draw(st.booleans()):
        flags.update({"sweep-var": "n_b", "sweep-values": "0.5,2,8"})
    return ["detect", f"--format={draw(st.sampled_from(['csv', 'json']))}",
            *(f"--{k}={v}" for k, v in flags.items())]


# the ends of the double range, and the subnormals below the normal one
EXTREMES = st.sampled_from([MAX, -MAX, 1e300, -1e300, 5e-324, -5e-324, 1.5e-320, -1e-310,
                            2.2250738585072014e-308, 0.0, -0.0, 1.0, -4.0])
_PLANES = [f"{a},{b}" for a in ("qs", "ps", "qi", "pi") for b in ("qs", "ps", "qi", "pi") if a != b]


@st.composite
def wigner_invocations(draw) -> list[str]:
    """argv of a ``wigner`` run whose range ends and fixed values sit at the ends of
    the double range or among the subnormals, at a kappa near the condition gate
    (about 4.4) or far above it, up to the top of the double range at 355.24: each
    term of the slice's quadratic form may overflow or underflow, and so may each
    covariance entry near e^{2 kappa}."""
    flags = {"kappa": draw(st.sampled_from([0.0, 0.5, 3.0, 4.39, 4.4, 4.41, 8.0, 176.0, 300.0,
                                            354.95, 355.2])),
             "samples": draw(st.sampled_from([2, 3, 5])),
             "plane": draw(st.sampled_from(_PLANES)),
             "range": "{!r},{!r}".format(*draw(st.tuples(EXTREMES, EXTREMES)
                                                .filter(lambda ends: ends[0] != ends[1]))),
             "fixed": f"{draw(EXTREMES)!r},{draw(EXTREMES)!r}"}
    if draw(st.booleans()):
        flags["phase"] = draw(st.floats(0.0, 7.0))
    return ["wigner", f"--format={draw(st.sampled_from(['csv', 'json']))}",
            *(f"--{k}={v}" for k, v in flags.items())]


def _signed(*values):
    """One of ``values``, negated one time in four."""
    return st.tuples(st.sampled_from(values), st.integers(0, 3)).map(
        lambda drawn: -drawn[0] if drawn[1] == 0 else drawn[0])


# the magnitudes of detect and qcb: the top of the double range, the subnormals, 0 (so
# a signed zero) and 1; and eta at the ends of [0, 1] and next to them
SIZES = _signed(MAX, 1e300, 1.0, 1.5e-320, 5e-324, 0.0)
ETAS = st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 1.0 - 2.0**-53, 1.0])


@st.composite
def spectrum_invocations(draw) -> list[str]:
    """argv of a ``spectrum`` run whose kappa_max, pump frequency and band width sit at
    the ends of the double range or among the subnormals, for both mixings and every
    shape: the frequency sum 2 nu_p, the band edges, u and the dB values may each
    overflow or underflow."""
    edge = _signed(MAX, 1e300, 1.0, 2.2250738585072014e-308, 1.5e-320, 5e-324)
    flags = {"kappa-max": draw(edge), "pump-freq": draw(edge), "band-width": draw(edge),
             "mixing": draw(st.sampled_from(["3wm", "4wm"])),
             "shape": draw(st.sampled_from(["parabolic", "raised_cosine", "rectangular"])),
             "steps": draw(st.sampled_from([2, 3, 5]))}
    return ["spectrum", f"--format={draw(st.sampled_from(['csv', 'json']))}",
            *(f"--{k}={_text(v)}" for k, v in flags.items())]


def _edge_sweep(draw, variables) -> dict:
    """A sweep of one of ``variables`` over one to three edge values, or none."""
    if not draw(st.booleans()):
        return {}
    values = draw(st.lists(SIZES, min_size=1, max_size=3))
    return {"sweep-var": draw(st.sampled_from(variables)),
            "sweep-values": ",".join(map(repr, values))}


@st.composite
def detect_invocations(draw) -> list[str]:
    """argv of a ``detect`` run whose n_s, n_b and pulse count, or integration time and
    bandwidth, sit at the ends of the double range, among the subnormals or at a signed
    zero, and whose eta sits at the ends of [0, 1]: the rates eta n_s / n_b, the SNR,
    M R and t_int * bandwidth may each overflow or underflow."""
    flags = {"eta": draw(ETAS), "n-s": draw(SIZES), "n-b": draw(SIZES)}
    if draw(st.booleans()):
        flags["pulses"] = draw(SIZES)
        flags.update(_edge_sweep(draw, ["eta", "n_s", "n_b"]))
    else:
        flags.update({"t-int": draw(SIZES), "bandwidth": draw(SIZES)})
        flags.update(_edge_sweep(draw, ["eta", "n_s", "n_b", "t_int", "bandwidth"]))
    return ["detect", f"--format={draw(st.sampled_from(['csv', 'json']))}",
            *(f"--{k}={_text(v)}" for k, v in flags.items())]


@st.composite
def qcb_invocations(draw) -> list[str]:
    """argv of a ``qcb`` run whose n_s (or kappa) and n_b sit at the ends of the double
    range, among the subnormals or at a signed zero, whose eta sits at the ends of
    [0, 1], at cutoffs of at most 12: n_b / (1 - eta), the rates and the thermal and
    beam-splitter amplitudes may each overflow or underflow."""
    cutoffs = st.sampled_from([0, 1, 2, 6, 12])
    flags = {"transmitter": draw(st.sampled_from(["qi", "classical", "both"])),
             "eta": draw(ETAS), "n-b": draw(SIZES),
             draw(st.sampled_from(["n-s", "kappa"])): draw(SIZES),
             "cutoff-signal": draw(cutoffs), "cutoff-idler": draw(cutoffs),
             "cutoff-noise": draw(cutoffs), "cutoff": draw(cutoffs)}
    flags.update(_edge_sweep(draw, ["eta", "n_s", "n_b"]))
    return ["qcb", f"--format={draw(st.sampled_from(['csv', 'json']))}",
            *(f"--{k}={_text(v)}" for k, v in flags.items())]


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


def _check_contract(argv):
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(invocations())
def test_every_input_gets_an_exit_code_and_an_honest_table(argv):
    _check_contract(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(moderate_detect_invocations())
def test_moderate_detect_runs_keep_the_contract(argv):
    _check_contract(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(wigner_invocations())
def test_wigner_runs_at_the_ends_of_the_double_range_keep_the_contract(argv):
    _check_contract(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(spectrum_invocations())
def test_spectrum_runs_at_the_ends_of_the_double_range_keep_the_contract(argv):
    _check_contract(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(detect_invocations())
def test_detect_runs_at_the_ends_of_the_double_range_keep_the_contract(argv):
    _check_contract(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(qcb_invocations())
def test_qcb_runs_at_the_ends_of_the_double_range_keep_the_contract(argv):
    _check_contract(argv)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, expected", [
    # np.linspace overflowed on MAX - (-MAX) and printed axis cells nan, inf, 1.79769313e+308
    (["wigner", "--kappa", "0.5", f"--range={-MAX!r},{MAX!r}", "--samples", "3"], 2,
     f"width of each range, got ({-MAX!r}, {MAX!r})"),
    # the same overflow warned twice and reported n_b=nan
    (["detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "10", "--sweep-var",
      "n_b", f"--sweep-from={-MAX!r}", f"--sweep-to={MAX!r}", "--sweep-steps", "3"], 2,
     f"got {-MAX!r}, {MAX!r}"),
    # (20 log10 e) kappa overflowed, and the centre row printed -inf and inf dB
    (["spectrum", "--kappa-max", repr(MAX), "--steps", "3"], 3,
     f"squeezing in dB overflows at kappa = {MAX!r}"),
    # 2 nu_p overflowed, and the run exited 2 naming a band [inf, inf] never given
    (["spectrum", "--kappa-max", "1", "--mixing", "4wm", "--pump-freq", "1e308",
      "--band-width", "1e300", "--steps", "3"], 3,
     "numerical failure: nu_s + nu_i = 2 nu_p overflows at 2.0 * 1e+308\n"),
    # far outside the band, kappa_max (1 - u^2) overflowed with a RuntimeWarning
    (["spectrum", "--kappa-max", repr(MAX), "--steps", "2", "--nu-start=1e-300"], 0,
     "1e-300,1.2e+10,0,0,0\n"),
    # so did u = (nu - centre) / (width / 2) of a band 1e-300 Hz wide
    (["spectrum", "--kappa-max", "1", "--band-width", "1e-300", "--nu-start", "1e9",
      "--steps", "2"], 0, "1e+09,1.1e+10,0,0,0\n"),
    # the least subnormal width halved to 0: u = 0 / 0 at the centre read kappa 0
    (["spectrum", "--kappa-max", "1", "--band-width", "5e-324", "--nu-start", "1e9",
      "--nu-stop", "11e9", "--steps", "3"], 0, "6e+09,6e+09,1,-8.68588964,3.76777242\n"),
    # M R overflowed with a RuntimeWarning; an infinite M R is a zero envelope
    (["detect", "--eta", "1", "--n-s", repr(MAX), "--n-b", "1", "--pulses", "10"], 0,
     "1,1.79769313e+308,1,1.79769313e+308,10,4.49423284e+307,1.79769313e+308,0,0,6.02059991,"
     "false,false\n"),
    # so did pi M R, of a finite M R
    (["detect", "--eta", "1e-300", "--n-s", "0.5", "--n-b", "1e-300", "--pulses", repr(MAX),
      "--sweep-var", "n_s", "--sweep-values", "0.5,1"], 0,
     "1e-300,0.5,1e-300,5e+299,1.79769313e+308,0.125,0.5,0,0,6.02059991,true,true\n"),
    # t_int * bandwidth overflowed with a RuntimeWarning and was rejected as pulses = inf
    (["detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--t-int", "0",
      "--bandwidth", "1e300", "--sweep-var", "t_int", "--sweep-values", "8e9"], 3,
     "pulse count t_int * bandwidth overflows at 8000000000.0 * 1e+300"),
    # n_b / (1 - eta) overflowed and was rejected as nbar = inf, a value never passed
    (["qcb", "--transmitter", "both", "--n-s", "0.1", "--eta", "0.1", "--n-b", repr(MAX)], 3,
     "noise occupancy n_b / (1 - eta) overflows"),
], ids=["wigner_range", "detect_sweep", "spectrum_db", "spectrum_4wm_sum", "spectrum_far_row",
        "spectrum_narrow_band",
        "spectrum_subnormal_band", "detect_envelope", "detect_pi_envelope", "detect_pulses", "qcb_noise"])
def test_top_of_the_double_range_keeps_the_contract(argv, code, expected):
    got, out, err = _run(argv)
    assert got == code and expected in (err if code else out), (out, err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa", [8.0, 10.0, 100.0, 176.0, 178.0, 300.0, 354.95, 355.2])
def test_every_kappa_above_the_condition_gate_fails_one_way(kappa):
    # the uncertainty check ran before the condition gate and blamed the state (8, 178),
    # det was tested before cond and read 0 for a determinant of 1 (10, 100), det
    # overflowed with a RuntimeWarning (176, 300), and (cov + cov.T) / 2 overflowed into
    # a LinAlgError traceback and exit 1 (354.95, 355.2)
    code, out, err = _run(["wigner", "--kappa", repr(kappa), "--samples", "3"])
    assert code == 3 and out == "" and "ill-conditioned" in err and "Traceback" not in err, err
    # symmetrizing keeps the entries of the symmetric covariance bit for bit
    c2, s2 = math.cosh(2.0 * kappa), math.sinh(2.0 * kappa)
    a, b = s2 * math.cos(math.pi / 2), s2 * math.sin(math.pi / 2)
    want = [[c2, 0.0, a, b], [0.0, c2, b, -a], [a, b, c2, 0.0], [b, -a, 0.0, c2]]
    assert np.array_equal(tmsv_covariance(SqueezeParam(kappa)).cov, want)


@pytest.mark.parametrize("ranges", [["--range=1,1"], ["--range=0,-0"]],
                         ids=["both", "x_signed_zero"])
def test_zero_width_wigner_axis_rejected(ranges):
    # a zero-width axis printed every grid row at one point and exited 0
    code, out, err = _run(["wigner", "--kappa", "0.5", "--samples", "3", *ranges])
    assert code == 2 and out == "" and "distinct ends" in err, err


@pytest.mark.parametrize("argv, axis", [
    (["wigner", "--kappa", "0.5", "--range=1,1.0000000001", "--samples", "3"], "qs axis"),
    (["spectrum", "--kappa-max", "3", "--steps", "5", "--nu-start", "5e9",
      "--nu-stop", "5.0000000001e9"], "nu_s sweep"),
    (["detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "10",
      "--sweep-var", "n_b", "--sweep-from", "1", "--sweep-to", "1.0000000001",
      "--sweep-steps", "3"], "n_b sweep"),
    (["qcb", "--transmitter", "classical", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1",
      "--cutoff", "4", "--sweep-var", "eta", "--sweep-from", "0.5", "--sweep-to", "0.5000000001",
      "--sweep-steps", "3"], "eta sweep"),
], ids=["wigner", "spectrum", "detect", "qcb"])
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
