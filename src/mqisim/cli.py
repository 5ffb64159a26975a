"""Deterministic command-line front end.

Subcommands: state | wigner | spectrum | detect | qcb.  Parameters come
from flags or from a flat ``key = value`` config file (flags override
the file; both go through the same parsers).  Output is CSV (header
row, data rows, '#'-prefixed metadata footer) or JSON with the same
schema, written by :mod:`mqisim.digits` block by block to --output or stdout.  Runs are
random-free: the same resolved parameters always produce byte-identical files.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .digits import emit, row_count, same_cells
from .errors import InvalidArgumentError, MqisimError, check_count, require

FORMATS = ("csv", "json")
_GLOBAL_KEYS = {"output", "format", "quiet"}


# ---------------------------------------------------------------------------
# Value parsing (shared by flags and config files)
# ---------------------------------------------------------------------------


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InvalidArgumentError(f"expected a number, got {raw!r}") from None


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(f"expected an integer, got {raw!r}") from None


def _parse_word(raw: str) -> str:
    return raw.strip().lower()


def _parse_bool(raw: str) -> bool:
    low = _parse_word(raw)
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise InvalidArgumentError(f"expected a boolean, got {raw!r}")


def _parse_pair(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    require(len(parts) == 2, f"expected 'a,b', got {raw!r}")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.split(",") if p.strip()]
    require(len(parts) > 0, f"expected a comma-separated list, got {raw!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_choice(*choices: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        low = _parse_word(raw)
        require(low in choices, f"expected one of {choices}, got {raw!r}")
        return low

    return parse


def _parse_plane(raw: str) -> tuple[str, str]:
    from .gaussian import quadrature_index

    parts = [p.strip().lower() for p in raw.split(",")]
    require(len(parts) == 2 and parts[0] != parts[1],
            f"plane must be two distinct quadratures, got {raw!r}")
    for p in parts:
        quadrature_index(p)   # raises on an unknown name
    return (parts[0], parts[1])


class Param(NamedTuple):
    name: str
    parse: Callable[[str], object]
    default: object = None
    required: bool = False
    help: str = ""


def _sweep_params(*sweepable: str) -> list[Param]:
    return [
        Param("sweep-var", _parse_choice(*sweepable), help="scenario variable to sweep"),
        Param("sweep-values", _parse_float_list, help="explicit sweep values"),
        Param("sweep-from", _parse_float, help="sweep start"),
        Param("sweep-to", _parse_float, help="sweep stop"),
        Param("sweep-steps", _parse_int, help="sweep point count"),
    ]


# ---------------------------------------------------------------------------
# Config handling and parameter resolution
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict[str, str]:
    """Read a flat 'key = value' file; '#' starts a comment line."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        require("=" in line, f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


def _resolve(specs: list[Param], args: argparse.Namespace, config: dict[str, str]) -> dict:
    values: dict[str, object] = {}
    known = set()
    for spec in specs:
        attr = spec.name.replace("-", "_")
        known.add(attr)
        raw = getattr(args, attr)
        if raw is None:
            raw = config.get(attr)
        if raw is None:
            require(not spec.required, f"missing required parameter --{spec.name}")
            values[attr] = spec.default
        else:
            try:
                values[attr] = spec.parse(raw)
            except InvalidArgumentError as exc:
                raise InvalidArgumentError(f"--{spec.name}: {exc}") from None
    unknown = set(config) - known - _GLOBAL_KEYS
    require(not unknown, f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


def _require_resolved(name: str, values: np.ndarray) -> None:
    """Raise unless adjacent values of a generated axis print different cells."""
    require(~same_cells(values), "{0}: adjacent values {1!r} and {2!r} both print as {1:.9g}; "
            "widen the range or take fewer points", name, values[:-1], values[1:])


def _sweep_fields(p: dict, base: dict, what: str) -> dict:
    """Scenario fields: ``base``, with the swept field, if any, an array of the sweep values."""
    bounds = ("sweep_from", "sweep_to", "sweep_steps")
    if p["sweep_var"] is None:
        for key in ("sweep_values", *bounds):
            require(p[key] is None, f"--{key.replace('_', '-')} requires --sweep-var")
        return base
    if p["sweep_values"] is not None:
        require(all(p[key] is None for key in bounds),
                "--sweep-values conflicts with --sweep-from/--sweep-to/--sweep-steps")
        values = np.array(p["sweep_values"])
    else:
        require(all(p[key] is not None for key in bounds),
                f"{what} sweep needs --sweep-values or --sweep-from/--sweep-to/--sweep-steps")
        steps = check_count("--sweep-steps", p["sweep_steps"], 2)
        # a width beyond the largest double would reach np.linspace as inf
        require(math.isfinite(p["sweep_to"] - p["sweep_from"]), "--sweep-from, --sweep-to and "
                f"their difference must be finite, got {p['sweep_from']}, {p['sweep_to']}")
        values = np.linspace(p["sweep_from"], p["sweep_to"], steps)
        _require_resolved(f"{p['sweep_var']} sweep", values)
    return {**base, p["sweep_var"]: values}


# ---------------------------------------------------------------------------
# Subcommand implementations: (table, extra metadata); a table maps each
# column name to a numpy array, and the columns broadcast together
# ---------------------------------------------------------------------------


def _run_state(p: dict):
    from .fock import tmsv_fock
    from .gaussian import SqueezeParam

    sq = SqueezeParam(p["kappa"], p["phase"])
    state = tmsv_fock(sq, p["cutoff"])
    coeffs = state.coeffs
    table = {
        "n": np.arange(coeffs.size),
        "re_c": coeffs.real,
        "im_c": coeffs.imag,
        "prob": np.abs(coeffs) ** 2,
    }
    meta = {"norm_deficit": state.norm_deficit, "mean_photon": sq.mean_photon}
    return table, meta


def _run_wigner(p: dict):
    from .gaussian import (
        QUADRATURE_NAMES, SqueezeParam, quadrature_index, slice_mass, tmsv_covariance,
        wigner_grid,
    )

    sq = SqueezeParam(p["kappa"], p["phase"])
    state = tmsv_covariance(sq)
    xname, yname = p["plane"]
    plane = (quadrature_index(xname), quadrature_index(yname))
    grid = wigner_grid(state, plane=plane, x_range=p["range"], y_range=p["range"],
                       samples=(p["samples"], p["samples"]), fixed_values=p["fixed"])
    _require_resolved(f"{xname} axis", grid.x_axis)   # the y axis is the same
    table = {xname: grid.x_axis[:, None], yname: grid.y_axis[None, :], "wigner": grid.values}
    fixed_names = [QUADRATURE_NAMES[k] for k in range(4) if k not in plane]
    meta = {
        "fixed_" + fixed_names[0]: p["fixed"][0],
        "fixed_" + fixed_names[1]: p["fixed"][1],
        "slice_mass_analytic": slice_mass(state, plane, p["fixed"]),
        "layout": "row-major over the first plane axis",
    }
    return table, meta


def _run_spectrum(p: dict):
    from .spectrum import SpectrumProfile, spectrum_sweep

    profile = SpectrumProfile(kappa_max=p["kappa_max"], pump_freq=p["pump_freq"],
                              band_width=p["band_width"], mixing=p["mixing"], shape=p["shape"])
    sweep = spectrum_sweep(profile, p["steps"])
    _require_resolved("nu_s sweep", sweep.nu_s)
    table = {
        "nu_s_hz": sweep.nu_s,
        "nu_i_hz": sweep.nu_i,
        "kappa": sweep.kappa,
        "squeezing_db": sweep.squeezing_db,
        "gain_db": sweep.gain_db,
    }
    meta = {
        "band_center_effective": profile.band_center,
        "nu_start_effective": float(sweep.nu_s[0]),
        "nu_stop_effective": float(sweep.nu_s[-1]),
        "min_squeezing_db": float(np.min(sweep.squeezing_db)),
        "max_gain_db": float(np.max(sweep.gain_db)),
    }
    return table, meta


def _run_detect(p: dict):
    from .illumination import (
        DetectionScenario, advantage_db, classical_error_rate, error_probability,
        is_asymptotic, quantum_error_rate,
    )

    base = {
        "eta": p["eta"], "n_s": p["n_s"], "n_b": p["n_b"],
        "t_int": p["t_int"] if p["t_int"] is not None else 0.0,
        "bandwidth": p["bandwidth"] if p["bandwidth"] is not None else 0.0,
    }
    fields = _sweep_fields(p, base, "detect")
    require(p["pulses"] is None or p["sweep_var"] not in ("t_int", "bandwidth"),
            "--pulses conflicts with sweeping t-int or bandwidth")
    require(p["pulses"] is not None or (p["t_int"] is not None and p["bandwidth"] is not None),
            "provide --pulses or both --t-int and --bandwidth")
    scn = DetectionScenario(**fields)
    pulses = p["pulses"] if p["pulses"] is not None else scn.pulses
    r_cl = classical_error_rate(scn)
    r_q = quantum_error_rate(scn)
    # a decision between two equally likely hypotheses never errs more often than a
    # guess: an envelope above 1/2 prints 1/2, and valid_* flags the row
    pe_cl = np.minimum(error_probability(r_cl, pulses), 0.5)
    pe_q = np.minimum(error_probability(r_q, pulses), 0.5)
    columns = {
        "eta": scn.eta, "n_s": scn.n_s, "n_b": scn.n_b, "snr": scn.snr, "pulses": pulses,
        "r_cl": r_cl, "r_q": r_q, "pe_cl": pe_cl, "pe_q": pe_q,
        "advantage_db": advantage_db(),
        "valid_cl": is_asymptotic(r_cl, pulses), "valid_q": is_asymptotic(r_q, pulses),
    }
    return {name: np.asarray(value) for name, value in columns.items()}, {}


def _safe_ratio(num, den):
    """num / den, with 0 / 0 = nan and x / 0 = inf, point by point."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, np.divide(num, den), np.where(num == 0.0, np.nan, np.inf))


def _qcb_signal(p: dict) -> float:
    require((p["n_s"] is None) != (p["kappa"] is None), "provide exactly one of --n-s or --kappa")
    if p["kappa"] is not None:
        require(p["sweep_var"] != "n_s", "sweeping n_s conflicts with --kappa")
        from .gaussian import SqueezeParam

        return SqueezeParam(p["kappa"]).mean_photon
    return p["n_s"]


def _chernoff_sweep(pairs) -> np.ndarray:
    """Rows s_star, q_min, exponent, clipped rho0 and clipped rho1 mass, one column per pair."""
    from .qcb import chernoff_exponent

    results = map(chernoff_exponent, pairs)
    return np.array([
        (r.s_star, r.q_min, r.exponent,
         r.diagnostics["clipped_mass_rho0"], r.diagnostics["clipped_mass_rho1"])
        for r in results
    ]).T


def _qi_pairs(points, p: dict):
    """Entangled-transmitter hypotheses of the sweep points, building the beam-splitter
    channel again only where eta changes (a sweep holds eta fixed or varies it)."""
    from .qcb import build_qi_hypotheses, qi_channel

    channel = None
    for eta, n_s, n_b in points:
        if channel is None or channel.eta != eta:
            channel = qi_channel(eta, p["cutoff_signal"], p["cutoff_idler"], p["cutoff_noise"])
        yield build_qi_hypotheses(n_s, n_b, channel)


def _run_qcb(p: dict):
    from .illumination import DetectionScenario, classical_error_rate, quantum_error_rate
    from .qcb import build_classical_hypotheses

    transmitter = p["transmitter"]
    base = {"eta": p["eta"], "n_s": _qcb_signal(p), "n_b": p["n_b"]}
    scn = DetectionScenario(**_sweep_fields(p, base, "qcb"))
    rate_q = quantum_error_rate(scn)
    rate_cl = classical_error_rate(scn)
    sweep = {"eta": scn.eta, "n_s": scn.n_s, "n_b": scn.n_b}
    points = np.stack(np.broadcast_arrays(*sweep.values()), axis=-1).reshape(-1, 3).tolist()
    meta = {
        "cutoff_signal": p["cutoff_signal"],
        "cutoff_idler": p["cutoff_idler"],
        "cutoff_noise": p["cutoff_noise"],
        "cutoff_classical": p["cutoff"],
    }
    if transmitter in ("qi", "both"):
        qi = _chernoff_sweep(_qi_pairs(points, p))
    if transmitter in ("classical", "both"):
        cl = _chernoff_sweep(
            build_classical_hypotheses(n_s, eta, n_b, p["cutoff"]) for eta, n_s, n_b in points
        )
    if transmitter == "both":
        columns = {
            **sweep,
            "s_star_qi": qi[0], "exponent_qi": qi[2], "rate_q": rate_q,
            "s_star_cl": cl[0], "exponent_cl": cl[2], "rate_cl": rate_cl,
            "exponent_ratio": _safe_ratio(qi[2], cl[2]),
            "rate_ratio": _safe_ratio(rate_q, rate_cl),
        }
    else:
        res, rate = (qi, rate_q) if transmitter == "qi" else (cl, rate_cl)
        columns = {
            **sweep,
            "s_star": res[0], "q_min": res[1], "exponent": res[2], "rate_ref": rate,
            "exponent_over_rate": _safe_ratio(res[2], rate),
            "clipped_rho0": res[3], "clipped_rho1": res[4],
        }
    return {name: np.asarray(value) for name, value in columns.items()}, meta


class Command(NamedTuple):
    run: Callable[[dict], tuple[dict, dict]]
    help: str
    params: list[Param]


_COMMANDS: dict[str, Command] = {
    "state": Command(_run_state, "photon-pair coefficients of the squeezed vacuum", [
        Param("kappa", _parse_float, required=True, help="squeezing modulus"),
        Param("phase", _parse_float, default=math.pi / 2, help="squeezing phase (rad)"),
        Param("cutoff", _parse_int, default=20, help="largest photon number kept"),
    ]),
    "wigner": Command(_run_wigner, "Wigner density on a 2-D phase-space slice", [
        Param("kappa", _parse_float, required=True, help="squeezing modulus"),
        Param("phase", _parse_float, default=math.pi / 2, help="squeezing phase (rad)"),
        Param("plane", _parse_plane, default=("qs", "ps"), help="varied quadratures, e.g. qs,pi"),
        Param("fixed", _parse_pair, default=(0.0, 0.0), help="values of the two fixed quadratures"),
        Param("range", _parse_pair, default=(-4.0, 4.0), help="axis range for both axes"),
        Param("samples", _parse_int, default=81, help="grid points per axis"),
    ]),
    "spectrum": Command(_run_spectrum, "squeezing and gain across the band", [
        Param("kappa-max", _parse_float, required=True, help="apical squeezing modulus"),
        Param("pump-freq", _parse_float, default=12e9, help="pump frequency (Hz)"),
        Param("band-width", _parse_float, default=8e9,
              help="band width (Hz), centred on the degenerate frequency"),
        # SpectrumProfile checks the mixing and the shape
        Param("mixing", _parse_word, default="3wm", help="3wm or 4wm"),
        Param("shape", _parse_word, default="parabolic", help="profile shape"),
        Param("steps", _parse_int, default=161, help="sweep points, band edge to band edge"),
    ]),
    "detect": Command(_run_detect, "error-rate envelopes for one or more scenarios", [
        Param("eta", _parse_float, required=True, help="target reflectance"),
        Param("n-s", _parse_float, required=True, help="signal photons per mode"),
        Param("n-b", _parse_float, required=True, help="background photons per mode"),
        Param("t-int", _parse_float, help="integration time (s)"),
        Param("bandwidth", _parse_float, help="source bandwidth (Hz)"),
        Param("pulses", _parse_float, help="pulse count M (overrides t-int * bandwidth)"),
        *_sweep_params("eta", "n_s", "n_b", "t_int", "bandwidth"),
    ]),
    "qcb": Command(_run_qcb, "brute-force quantum Chernoff bound", [
        Param("transmitter", _parse_choice("qi", "classical", "both"), required=True,
              help="transmitter type"),
        Param("n-s", _parse_float, help="signal photons per mode"),
        Param("kappa", _parse_float, help="squeezing modulus (alternative to n-s)"),
        Param("eta", _parse_float, required=True, help="target reflectance"),
        Param("n-b", _parse_float, required=True, help="background photons per mode"),
        Param("cutoff-signal", _parse_int, default=48, help="return/signal mode cutoff"),
        Param("cutoff-idler", _parse_int, default=12, help="idler mode cutoff"),
        Param("cutoff-noise", _parse_int, default=48, help="noise mode cutoff"),
        Param("cutoff", _parse_int, default=48, help="single-mode cutoff (classical)"),
        *_sweep_params("eta", "n_s", "n_b"),
    ]),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="PATH",
                        help="flat 'key = value' parameter file (flags override it)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="output file path (default: stdout)")
    common.add_argument("--format", default=None, metavar="FMT", help="csv or json")
    common.add_argument("--quiet", action="store_const", const=True, default=None,
                        help="suppress the summary line")
    parser = argparse.ArgumentParser(
        prog="mqisim",
        description="Two-mode squeezed vacuum sources and quantum-illumination numerics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        for spec in command.params:
            sp.add_argument(f"--{spec.name}", default=None, metavar="V", help=spec.help)
    return parser


def run_subcommand(args: argparse.Namespace, config: dict) -> tuple[Iterator[bytes], str]:
    """Resolve parameters, run the subcommand, return (the document's blocks, summary)."""
    fmt = args.format if args.format is not None else config.get("format", "csv")
    fmt = _parse_word(fmt)
    require(fmt in FORMATS, f"format must be one of {FORMATS}, got {fmt!r}")
    command = _COMMANDS[args.subcommand]
    params = _resolve(command.params, args, config)
    table, extra = command.run(params)
    meta = {"tool": "mqisim", "version": __version__, "subcommand": args.subcommand}
    for key, value in params.items():
        if value is not None:
            meta["param_" + key] = value
    meta.update(extra)
    return emit(table, meta, fmt), f"{args.subcommand}: {row_count(table)} rows ({fmt})"


def _drop_stdout():
    """Point stdout at os.devnull: the exit-time flush of a failed write then prints nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    with open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), fd)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        output = args.output if args.output is not None else config.get("output")
        quiet = args.quiet if args.quiet is not None else _parse_bool(config.get("quiet", "false"))
        blocks, summary = run_subcommand(args, config)
        try:
            if output:
                with open(output, "wb") as fh:
                    fh.writelines(blocks)
            else:
                sys.stdout.writelines(block.decode("ascii") for block in blocks)
                sys.stdout.flush()   # else a short table fails only at exit
        except OSError as exc:
            if not output:
                _drop_stdout()
                if isinstance(exc, BrokenPipeError):
                    return 0   # the reader has gone, as `| head` does
            print(f"error: cannot write {output or 'stdout'}: {exc}", file=sys.stderr)
            return 2
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MqisimError, OverflowError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if output and not quiet:
        print(f"wrote {output}: {summary}", file=sys.stderr)
    return 0
