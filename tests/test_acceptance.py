"""Acceptance gate: every numbered criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here, not calibrated at runtime.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mqisim import (
    SqueezeParam,
    advantage_db,
    build_classical_hypotheses,
    build_qi_hypotheses,
    qi_channel,
    chernoff_exponent,
    classical_error_rate,
    error_probability,
    gain_db,
    quadrature_variance,
    quantum_error_rate,
    required_pulses,
    slice_mass,
    squeezing_magnitude_db,
    tmsv_covariance,
    tmsv_fock,
    vacuum_state,
    wigner_density,
    wigner_grid,
)
from mqisim.illumination import DetectionScenario
from conftest import fock_second_moments, moment_cutoff, riemann_mass
from reference import squeeze_vacuum_operator

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_1_squeezing_magnitudes():
    anchors = {0.5: -4.5, 1.5: -13.2, 3.0: -26.5}
    errors = {k: abs(squeezing_magnitude_db(k) - v) for k, v in anchors.items()}
    ok = all(e <= 0.5 for e in errors.values())
    detail = ", ".join(f"kappa={k}: off by {e:.3f} dB" for k, e in errors.items())
    report(1, "squeezing magnitudes within 0.5 dB of anchors", ok, detail)


def test_criterion_2_gain_anchors():
    checks = [
        (abs(gain_db(3.0) - 20.0), 0.3),
        (abs(gain_db(0.5) - 1.1), 0.35),
        (abs(gain_db(1.5) - 7.2), 0.35),
    ]
    ok = all(err <= tol for err, tol in checks)
    detail = ", ".join(f"off by {err:.3f} (tol {tol})" for err, tol in checks)
    report(2, "gain anchors at kappa = 3, 0.5, 1.5", ok, detail)


def test_criterion_3_advantage():
    rng = np.random.default_rng(20250809)
    ok = True
    worst = 0.0
    for _ in range(100):
        scn = DetectionScenario(
            eta=rng.uniform(1e-3, 1.0),
            n_s=rng.uniform(1e-3, 10.0),
            n_b=rng.uniform(1e-2, 100.0),
        )
        ratio = quantum_error_rate(scn) / classical_error_rate(scn)
        ok = ok and ratio == 4.0
        worst = max(worst, abs(ratio - 4.0))
    adv_err = abs(advantage_db() - 6.0206)
    ok = ok and adv_err <= 1e-4
    report(3, "rate ratio exactly 4 and advantage 6.0206 dB over 100 random scenarios",
           ok, f"max |ratio-4| = {worst:.1e}, |adv-6.0206| = {adv_err:.1e}")


def test_criterion_4_representation_cross_validation():
    kappas = (0.1, 0.5, 1.0, 1.5)
    # covariance agreement needs the geometric tail below 1e-8; the
    # required cutoff grows with kappa and is always >= 40
    cov_worst = 0.0
    for kappa in kappas:
        cutoff = max(40, moment_cutoff(kappa, tol=1e-8))
        got = fock_second_moments(kappa, cutoff)
        want = tmsv_covariance(SqueezeParam(kappa)).cov
        cov_worst = max(cov_worst, float(np.max(np.abs(got - want))))
    ok_cov = cov_worst <= 1e-8

    op_cutoffs = {0.1: 40, 0.5: 45, 1.0: 70, 1.5: 120}
    coeff_worst = 0.0
    for kappa, cutoff in op_cutoffs.items():
        amp = squeeze_vacuum_operator(SqueezeParam(kappa), cutoff)
        want = tmsv_fock(SqueezeParam(kappa), cutoff).coeffs
        n_cmp = min(40, cutoff)
        err = float(np.max(np.abs(np.diagonal(amp)[: n_cmp + 1] - want[: n_cmp + 1])))
        off = amp - np.diag(np.diagonal(amp))
        coeff_worst = max(coeff_worst, err, float(np.max(np.abs(off))))
    ok_coeff = coeff_worst <= 1e-10

    report(4, "Fock moments match covariance (1e-8); operator exponential "
              "matches pair expansion (1e-10)",
           ok_cov and ok_coeff,
           f"max covariance err = {cov_worst:.2e}, max coefficient err = {coeff_worst:.2e}")


def _qcb_pair_exponents(n_b, cut_sig, cut_idl, cut_noise, cut_cl):
    channel = qi_channel(0.1, cut_sig, cut_idl, cut_noise)
    qi = chernoff_exponent(build_qi_hypotheses(0.1, n_b, channel))
    cl = chernoff_exponent(build_classical_hypotheses(0.1, 0.1, n_b, cut_cl))
    return qi.exponent, cl.exponent


def test_criterion_5_chernoff_oracle():
    backgrounds = (1.0, 2.0, 4.0)
    base = [_qcb_pair_exponents(nb, 48, 10, 48, 48) for nb in backgrounds]
    pert = [_qcb_pair_exponents(nb, 72, 15, 72, 72) for nb in backgrounds]

    ratios = [q / c for q, c in base]
    ok_ratio = all(r > 1.0 for r in ratios)
    ok_trend = all(ratios[i] < ratios[i + 1] for i in range(2)) and all(r < 4.0 for r in ratios)

    drifts = []
    for (q0, c0), (q1, c1) in zip(base, pert):
        drifts += [abs(q1 / q0 - 1.0), abs(c1 / c0 - 1.0)]
    ok_stable = all(d < 0.01 for d in drifts)

    report(5, "QI/classical exponent ratio > 1, increasing toward 4; "
              "cutoff +50% moves exponents < 1%",
           ok_ratio and ok_trend and ok_stable,
           f"ratios = {[f'{r:.3f}' for r in ratios]}, max drift = {max(drifts):.2e}")


def test_criterion_6_classical_closed_form():
    target = 0.1 * 0.5 * (math.sqrt(2.0) - 1.0) ** 2
    result = chernoff_exponent(build_classical_hypotheses(0.1, 0.5, 1.0, 60))
    rel = abs(result.exponent / target - 1.0)
    report(6, "coherent-transmitter exponent matches closed form within 2% at cutoff 60",
           rel <= 0.02, f"exponent = {result.exponent:.6e}, rel err = {rel:.2e}")


def test_criterion_7_wigner_sanity():
    peak_err = abs(wigner_density(vacuum_state(), np.zeros(4)) - 1.0 / (4.0 * math.pi**2))
    ok_peak = peak_err <= 1e-9

    ok_mass = True
    ok_var = True
    ok_render = True
    details = [f"peak err = {peak_err:.1e}"]
    for kappa in (0.5, 1.5):
        state = tmsv_covariance(SqueezeParam(kappa))
        sigma = math.sqrt(state.cov[0, 0])
        lim = 6.0 * sigma
        grid = wigner_grid(state, plane=(0, 3), x_range=(-lim, lim), y_range=(-lim, lim),
                           samples=(201, 201))
        mass_rel = abs(riemann_mass(grid) / slice_mass(state, (0, 3)) - 1.0)
        ok_mass = ok_mass and mass_rel <= 1e-3

        var_minus = quadrature_variance(state, np.array([1, 0, 0, -1]) / math.sqrt(2))
        var_plus = quadrature_variance(state, np.array([1, 0, 0, 1]) / math.sqrt(2))
        ok_var = (ok_var
                  and abs(var_minus - math.exp(-2 * kappa)) <= 1e-6
                  and abs(var_plus - math.exp(2 * kappa)) <= 1e-6)

        # decay rates along the grid diagonals must reproduce the
        # covariance-derived precisions 1/var
        center = 100
        w0 = grid.values[center, center]
        step = float(grid.x_axis[1] - grid.x_axis[0])
        k_plus = center + max(1, min(100, round(2.0 * math.exp(kappa) / math.sqrt(2) / step)))
        k_minus = center + max(1, min(100, round(2.0 * math.exp(-kappa) / math.sqrt(2) / step)))
        x_p = float(grid.x_axis[k_plus])
        x_m = float(grid.x_axis[k_minus])
        lam_plus = -math.log(grid.values[k_plus, k_plus] / w0) / x_p**2
        lam_minus = -math.log(grid.values[k_minus, 2 * center - k_minus] / w0) / x_m**2
        ok_render = (ok_render
                     and abs(1.0 / lam_plus - var_plus) <= 1e-6 * var_plus
                     and abs(1.0 / lam_minus - var_minus) <= 1e-6 * var_minus)
        details.append(f"kappa={kappa}: mass rel = {mass_rel:.1e}")

    report(7, "vacuum peak 1/(4 pi^2); slice mass within 1e-3; "
              "diagonal variances e^{-+2 kappa} rendered in the grid",
           ok_peak and ok_mass and ok_var and ok_render, ", ".join(details))


def test_criterion_8_envelope_numerics():
    point_err = abs(error_probability(1.0, 1.0) - 0.10378)
    ok_point = point_err <= 1e-5

    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(50):
        rate = 10.0 ** rng.uniform(-9.0, -1.0)
        target = 10.0 ** rng.uniform(-10.0, math.log10(0.4))
        req = required_pulses(rate, target)
        worst = max(worst, abs(error_probability(rate, req.pulses) / target - 1.0))
    ok_round = worst <= 1e-9
    report(8, "envelope value at MR=1 and 50 required-pulse round trips",
           ok_point and ok_round,
           f"|Pe(1)-0.10378| = {point_err:.1e}, max round-trip rel = {worst:.1e}")


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "mqisim", *args],
                          capture_output=True, text=True)


def test_criterion_9_cli_determinism(tmp_path):
    invocations = [
        ("state", "--kappa", "0.5", "--cutoff", "12"),
        ("wigner", "--kappa", "0.5", "--plane", "qs,pi", "--samples", "41"),
        ("spectrum", "--kappa-max", "3", "--steps", "81"),
        ("detect", "--eta", "1", "--n-s", "1", "--n-b", "1", "--pulses", "10"),
        ("qcb", "--transmitter", "classical", "--n-s", "0.1", "--eta", "0.5",
         "--n-b", "1", "--cutoff", "30"),
    ]
    ok = True
    details = []
    for i, args in enumerate(invocations):
        pair = []
        for j in range(2):
            out = tmp_path / f"run{i}_{j}.csv"
            proc = _cli(*args, "--output", str(out), "--quiet")
            if proc.returncode != 0:
                ok = False
                details.append(f"{args[0]} exited {proc.returncode}")
                break
            pair.append(out.read_bytes())
        if len(pair) == 2 and pair[0] != pair[1]:
            ok = False
            details.append(f"{args[0]} not byte-identical")

    presets = sorted((REPO_ROOT / "configs").glob("*.cfg"))
    assert presets, "preset configs missing"
    for cfg in presets:
        sub = cfg.name.split("_")[0]
        out = tmp_path / (cfg.stem + ".csv")
        proc = _cli(sub, "--config", str(cfg), "--output", str(out), "--quiet")
        if proc.returncode != 0:
            ok = False
            details.append(f"{cfg.name} exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        if sub == "qcb":
            lines = [ln for ln in out.read_text().splitlines()
                     if ln and not ln.startswith("#")]
            header = lines[0].split(",")
            col = header.index("exponent_ratio")
            ratios = [float(ln.split(",")[col]) for ln in lines[1:]]
            if not all(a < b for a, b in zip(ratios, ratios[1:])) or not all(
                    1.0 < r < 4.0 for r in ratios):
                ok = False
                details.append(f"qcb preset ratio column not increasing in (1, 4): {ratios}")

    json_proc = _cli("state", "--kappa", "0.5", "--cutoff", "4", "--format", "json")
    try:
        json.loads(json_proc.stdout)
    except json.JSONDecodeError:
        ok = False
        details.append("json output not parseable")

    report(9, "subcommands byte-identical on rerun; preset configs run end-to-end",
           ok, "; ".join(details) if details else f"{len(presets)} presets")
