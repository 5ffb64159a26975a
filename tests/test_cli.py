import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mqisim import cli, digits
from mqisim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 of the CSV output of each preset in configs/; the spectrum presets
# re-recorded when gain_db became a log1p, which moved their max_gain_db footer.
# Footer floats are printed with repr on purpose (README "Output format"), so a
# one-ulp move of a derived footer value is a real change and re-records its pin.
PRESET_SHA256 = {
    "detect_background_sweep": "e51b98fe1faa504c7d050e811092a11b37855d2710d0a60207828c0c058c36f5",
    "qcb_background_sweep": "ba935d4a3275c19aaf26b513fdf3f1fbc009e6ece08dc432ba0eadef24c152eb",
    "spectrum_k05": "4cf3bce11d1bc9aa013491394ac2ebc96bcb023848ad5b59802cfa24d71494c5",
    "spectrum_k15": "f58ce234537604ec11191e0be477b240065de68b8294db5a8d1d8843106695d7",
    "spectrum_k30": "9c64ff288992b7169084b8e053ed7227948da514a6ee0a52b4c99f7502f97e6e",
    "wigner_tmsv_k05_qs_pi": "2e6b8c5afd5313a8b28d99c46d6cd2a9db8141cd1d127ca238ff2d3319b8ba95",
    "wigner_tmsv_k05_qs_ps": "66ae30479e23494ec4ca70ecde38bd63648c6da1c03f4715ad4b1010fd82f675",
    "wigner_tmsv_k15_qs_pi": "2e9bee0ba58ae37e70a76641f105032af24acf4a900ed623329dbf7a22d709e8",
    "wigner_tmsv_k15_qs_ps": "1536c051a05100a64eac6b17bff95cb9e2c26913989788ae2cf34c45bb449abb",
}

_WIGNER_LARGE = ("wigner", "--kappa", "1.5", "--plane", "qs,pi", "--range=-8,8", "--samples", "401")
_C5_SWEEP = ("qcb", "--transmitter", "both", "--n-s", "0.1", "--eta", "0.1", "--n-b", "1",
             "--sweep-var", "n_b", "--sweep-values", "1,2,4")

# sha256 of the --help text of the parser ("") and of each subcommand at 80
# columns, as argparse of Python 3.11 lays it out; spectrum re-recorded when
# --band-center left (the band is centred on the degenerate frequency) and when
# --nu-start and --nu-stop left (the sweep is the band), wigner when its
# per-axis --x-range, --y-range, --x-samples and --y-samples left
HELP_SHA256 = {
    "": "8fd420855a0d0bf290e78b9325f0c3a24b722f602bebfc042422088a656e2f6a",
    "state": "03194eacd1a6b295813ba8c17b105186fd733c6f6a3e6902544dba8a4f239170",
    "wigner": "9363e248ca71e73c4980e39650d4780d71317660918f98ac0177549c20d299f8",
    "spectrum": "b583311bf37fa707525f782fe1ee44d9b193d0edd3328a9a032117666ec32a8b",
    "detect": "aa10853d927eda13d3d79d8f8fba0d75a08013d47d3cddef247f88549b14ed95",
    "qcb": "4c08f46cbb6c2cfa2b349396ad3130d7ebe425f4c67474cc6f86593b6de5ec1f",
}

# sha256 of the output of the criterion-9 invocations, the benchmark's
# large tables and a strongly squeezed Wigner slice, recorded at 7f7b0fe
# (before tables were handed to the emitters as numpy columns); c9_state
# re-recorded when its norm_deficit footer became the closed-form tail, and
# c9_spectrum and large_spectrum when gain_db became a log1p (8 large_spectrum
# cells and every max_gain_db footer moved)
OUTPUT_SHA256 = {
    "c9_state": (
        ("state", "--kappa", "0.5", "--cutoff", "12"),
        "bbc023ad86af7e84a142ec73fcadaa680e1413454a0e46ab63b530b530dfffed",
    ),
    "c9_wigner": (
        ("wigner", "--kappa", "0.5", "--plane", "qs,pi", "--samples", "41"),
        "e4c1be0adbac51a0498aefb1d5ead69b4401bad3511956b5251512af0cd96588",
    ),
    "c9_spectrum": (
        ("spectrum", "--kappa-max", "3", "--steps", "81"),
        "85339f755f95d5382ada0d3b5a665c8cf954a8b9b55140aaef902dccf8753867",
    ),
    "c9_detect": (
        ("detect", "--eta", "1", "--n-s", "1", "--n-b", "1", "--pulses", "10"),
        "298a537a114e2106f85b8e104046977eb3747d7821e8521e97909422f5af85c6",
    ),
    "c9_qcb_classical": (
        ("qcb", "--transmitter", "classical", "--n-s", "0.1", "--eta", "0.5", "--n-b", "1",
         "--cutoff", "30"),
        "7d3fce6eaf3b30c637a7959be1a7ec15c29b19eb2bb90e9eee4aa00601707f58",
    ),
    "large_wigner_csv": (
        _WIGNER_LARGE,
        "5b0f70eaded21a07da2a6e5b4ccb024d1a870e84dca10eb2dff922a66e13ab83",
    ),
    "large_wigner_json": (
        _WIGNER_LARGE + ("--format", "json"),
        "2afa79315cdd970f51870f63cc5312a9de978f5a1c2c45f3a345fed97aa6b3e8",
    ),
    "large_spectrum": (
        ("spectrum", "--kappa-max", "3", "--steps", "100001"),
        "e4b4a07c9a60bd6416962cafbf181d262270707ac09857dadc0765379dbda2e5",
    ),
    "large_detect": (
        ("detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--t-int", "1e-3",
         "--bandwidth", "1e9", "--sweep-var", "n_b", "--sweep-from", "0.5", "--sweep-to", "100",
         "--sweep-steps", "20000"),
        "bc74d9401a8a343f75b9532b681bdf270f7ef9f3a68ab7f3b7325374df35461d",
    ),
    # eps * cond(cov) = 2e-9 at kappa = 4, still inside the 1e-8 limit
    "wigner_kappa_4": (
        ("wigner", "--kappa", "4", "--samples", "5"),
        "056183c1071280c77bb13af920d7dfd05f31d283a7b63e230cb6a4587714e104",
    ),
    # the criterion-5 sweeps, every cell, recorded at 3547efe (rho0 still
    # eigendecomposed as dense blocks)
    "c5_48_10_48": (
        _C5_SWEEP + ("--cutoff-signal", "48", "--cutoff-idler", "10", "--cutoff-noise", "48",
                     "--cutoff", "48"),
        "564c790a653722256e0e40d27fae5dbddbc4b34bfc07ebe0c4ac8f73b25faee4",
    ),
    "c5_72_15_72": (
        _C5_SWEEP + ("--cutoff-signal", "72", "--cutoff-idler", "15", "--cutoff-noise", "72",
                     "--cutoff", "72"),
        "68fcd08ce8368052b83c81c901ebb9d94033fac7c3fed94135d18fe989b77802",
    ),
}


# exponent_qi and exponent_cl of the benchmark's qcb_sweep points (n_b = 1, 2, 4)
# as printed at 79696d2.  They encode today's truncated Fock semantics: beam-splitter
# sectors above a cutoff are exponentials of the truncated generator, and truncated
# thermal laws are renormalized.  ROADMAP item 1 re-records them on purpose.
QCB_SWEEP_EXPONENTS = {
    "preset_48_12_48": (
        ("qcb", "--config", str(CONFIGS / "qcb_background_sweep.cfg")),
        ("0.00343469276", "0.00216287385", "0.00125466691"),
        ("0.00171572875", "0.00101020508", "0.000557156891"),
    ),
    "c5_48_10_48": (
        _C5_SWEEP + ("--cutoff-signal", "48", "--cutoff-idler", "10", "--cutoff-noise", "48",
                     "--cutoff", "48"),
        ("0.00343469276", "0.00216287385", "0.00125466691"),
        ("0.00171572875", "0.00101020508", "0.000557156891"),
    ),
    "c5_72_15_72": (
        _C5_SWEEP + ("--cutoff-signal", "72", "--cutoff-idler", "15", "--cutoff-noise", "72",
                     "--cutoff", "72"),
        ("0.00343469276", "0.00216287092", "0.00124653611"),
        ("0.00171572875", "0.00101020514", "0.00055728002"),
    ),
}


# a size of 10**15 float64 values (7.1 PiB), which numpy refuses at its first
# allocation without touching a page; a size the machine could grant would
# take its memory instead
HUGE = str(10**15)


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "mqisim", *args],
        capture_output=True, text=True, cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def csv_meta(text):
    meta = {}
    for ln in text.splitlines():
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(" = ")
            meta[key] = value
    return meta


class TestStateCommand:
    def test_vacuum_single_meaningful_row(self):
        code, out, _ = run_cli("state", "--kappa", "0", "--cutoff", "4")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["n", "re_c", "im_c", "prob"]
        assert rows[0] == ["0", "1", "0", "1"]
        assert all(row[3] == "0" for row in rows[1:])

    def test_kappa_half_pair_probability(self):
        code, out, _ = run_cli("state", "--kappa", "0.5", "--cutoff", "10")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[1][3]) == pytest.approx(0.167947696279, abs=1e-9)
        meta = csv_meta(out)
        assert float(meta["norm_deficit"]) == pytest.approx(4.21255949927e-08, rel=1e-6)

    def test_nine_significant_digits(self):
        _, out, _ = run_cli("state", "--kappa", "0.5", "--cutoff", "2")
        _, rows = csv_rows(out)
        assert rows[0][1] == "0.886818884"


class TestWignerCommand:
    def test_vacuum_peak(self):
        code, out, _ = run_cli("wigner", "--kappa", "0", "--samples", "41")
        assert code == 0
        _, rows = csv_rows(out)
        values = np.array([float(r[2]) for r in rows])
        assert values.max() == pytest.approx(0.0253302959106, rel=1e-8)

    def test_grid_mass_matches_metadata(self):
        code, out, _ = run_cli(
            "wigner", "--kappa", "0.5", "--plane", "qs,pi",
            "--range=-12,12", "--samples", "161",
        )
        assert code == 0
        _, rows = csv_rows(out)
        xs = sorted({float(r[0]) for r in rows})
        step = xs[1] - xs[0]
        total = sum(float(r[2]) for r in rows) * step * step
        assert total == pytest.approx(float(csv_meta(out)["slice_mass_analytic"]), rel=1e-3)

    @pytest.mark.parametrize("kappa", ["5", "7"])
    def test_ill_conditioned_covariance_fails_loudly(self, kappa, capsys):
        # det and solve lose eps * e^{4 kappa}: W(0) was printed 8.6e-9 (kappa 5)
        # and 1.1e-4 (kappa 7) off 1/(4 pi^2), with exit 0
        assert main(["wigner", "--kappa", kappa, "--samples", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "ill-conditioned" in err

    def test_row_major_order(self):
        _, out, _ = run_cli("wigner", "--kappa", "0", "--samples", "3", "--range=-1,1")
        _, rows = csv_rows(out)
        assert [r[0] for r in rows[:3]] == ["-1", "-1", "-1"]
        assert [r[1] for r in rows[:3]] == ["-1", "0", "1"]


class TestSpectrumCommand:
    def test_preset_minima(self):
        for kmax, want in (("0.5", -4.34294481903), ("1.5", -13.0288344571), ("3", -26.0576689142)):
            code, out, _ = run_cli("spectrum", "--kappa-max", kmax, "--steps", "81")
            assert code == 0
            _, rows = csv_rows(out)
            smin = min(float(r[3]) for r in rows)
            assert smin == pytest.approx(want, abs=1e-6)

    def test_two_step_sweep(self):
        code, out, _ = run_cli("spectrum", "--kappa-max", "1", "--steps", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2


    # the band is centred on nu_sum / 2, so a band too wide for the pump puts its lower
    # edge at or below 0 Hz and its upper edge at or above nu_p (3wm) or 2 nu_p (4wm)
    @pytest.mark.parametrize("flags", [
        ("--band-width", "13e9"),
        ("--band-width", "12e9"),
        ("--pump-freq", "6e9"),
        ("--pump-freq", "8e9"),
        ("--mixing", "4wm", "--band-width", "30e9"),
        ("--mixing", "4wm", "--band-width", "24e9"),
    ])
    def test_band_edges_must_keep_frequencies_positive(self, flags, capsys):
        argv = ["spectrum", "--kappa-max", "1", "--steps", "3", *flags]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "band [" in err

    def test_band_center_is_not_an_option(self, capsys):
        # an off-centre band printed kappa 0.5 for the pair (4, 8) GHz and 0 for
        # (8, 4) GHz, and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--kappa-max", "0.5", "--pump-freq", "12e9", "--band-width", "4e9",
                  "--band-center", "4e9", "--steps", "5"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "unrecognized arguments: --band-center 4e9" in err

    def test_sweep_range_is_not_an_option(self, capsys):
        # the sweep is the band: a range of its own swept a second grid, whose rows
        # outside the band printed kappa 0
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--kappa-max", "1", "--steps", "3", "--nu-start", "1e9",
                  "--nu-stop", "11e9"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "unrecognized arguments: --nu-start 1e9 --nu-stop 11e9" in err

    # kappa was rounded once per band edge and once per row: the rectangular edge rows
    # printed 0 and 1, the parabolic ones 0 and 5.68434189e-16 (1 - u^2 cancelled at a
    # rounded u), and 1 + cos(pi u) cancelled on the raised cosine's second row, which
    # printed 2.96088137e-09 for a 40-digit value at its detuning of 2.96088132e-09
    @pytest.mark.parametrize("flags, rows", [
        (("--kappa-max", "1", "--shape", "rectangular", "--pump-freq", "14220824468.600426",
          "--band-width", "3853899592.554933", "--steps", "5"), {0: "1", 4: "1"}),
        (("--kappa-max", "1.28", "--pump-freq", "8560000000.000001", "--band-width",
          "4750000000.0", "--steps", "5"), {0: "0", 4: "0"}),
        (("--kappa-max", "3", "--shape", "raised_cosine", "--steps", "100001"),
         {1: "2.96088132e-09", 99999: "2.96088132e-09"}),
    ], ids=["rectangular", "parabolic", "raised_cosine"])
    def test_band_edge_rows_print_their_exact_kappa(self, flags, rows, capsys):
        assert main(["spectrum", *flags]) == 0
        _, table = csv_rows(capsys.readouterr().out)
        assert {k: table[k][2] for k in rows} == rows

    def test_four_wave_band_may_exceed_the_pump(self, capsys):
        argv = ["spectrum", "--kappa-max", "1", "--steps", "3", "--mixing", "4wm",
                "--band-width", "20e9"]
        assert main(argv) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert [row[:2] for row in rows] == [["2e+09", "2.2e+10"], ["1.2e+10", "1.2e+10"],
                                             ["2.2e+10", "2e+09"]]


class TestDetectCommand:
    def test_unit_scenario(self):
        code, out, _ = run_cli(
            "detect", "--eta", "1", "--n-s", "1", "--n-b", "1", "--pulses", "10"
        )
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["pe_cl"]) == pytest.approx(0.0146449825619, rel=1e-8)
        assert float(row["pe_q"]) == pytest.approx(4.04995547804e-06, rel=1e-8)
        assert float(row["advantage_db"]) == pytest.approx(6.02059991328, abs=1e-8)
        assert row["valid_q"] == "false"

    def test_background_sweep_monotone(self):
        code, out, _ = run_cli(
            "detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1",
            "--t-int", "1e-3", "--bandwidth", "1e9",
            "--sweep-var", "n_b", "--sweep-values", "1,2,4,8",
        )
        assert code == 0
        header, rows = csv_rows(out)
        pe_cl = [float(dict(zip(header, r))["pe_cl"]) for r in rows]
        pe_q = [float(dict(zip(header, r))["pe_q"]) for r in rows]
        adv = {dict(zip(header, r))["advantage_db"] for r in rows}
        assert pe_cl == sorted(pe_cl) and pe_q == sorted(pe_q)
        assert adv == {"6.02059991"}

    @pytest.mark.parametrize("argv", [
        ("--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "1"),
        ("--eta", "1", "--n-s", "1", "--n-b", "1e308", "--pulses", "10"),
    ], ids=["envelope_5_63", "envelope_1e153"])
    def test_error_probability_is_at_most_one_half(self, argv, capsys):
        # the envelope printed pe_cl = 5.62780871 and pe_q = 2.79287902, and at
        # n_b = 1e308 pe_cl = 1.78412412e+153; valid_* still flags the row
        assert main(["detect", *argv]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert [row[k] for k in ("pe_cl", "pe_q", "valid_cl", "valid_q")] == [
            "0.5", "0.5", "false", "false"]

    def test_missing_pulse_information(self):
        code, _, err = run_cli("detect", "--eta", "1", "--n-s", "1", "--n-b", "1")
        assert code == 2
        assert "pulses" in err

    def test_pulses_conflict_with_swept_pulse_count(self):
        code, _, err = run_cli(
            "detect", "--eta", "1", "--n-s", "1", "--n-b", "1", "--pulses", "10",
            "--t-int", "1e-3", "--sweep-var", "bandwidth", "--sweep-values", "1e9,2e9",
        )
        assert code == 2
        assert "conflicts" in err


    def test_sweep_values_conflict_with_sweep_range(self, capsys):
        argv = ["detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "1e6",
                "--sweep-var", "n_b", "--sweep-values", "1,2",
                "--sweep-from", "5", "--sweep-to", "9", "--sweep-steps", "4"]
        assert main(argv) == 2
        assert "conflicts" in capsys.readouterr().err


class TestQcbCommand:
    def test_classical_against_closed_form(self):
        code, out, _ = run_cli(
            "qcb", "--transmitter", "classical", "--n-s", "0.1",
            "--eta", "0.5", "--n-b", "1", "--cutoff", "30",
        )
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["exponent"]) == pytest.approx(0.00857864376269, rel=1e-4)
        assert float(row["s_star"]) == pytest.approx(0.5, abs=1e-4)
        # nothing is clipped: +0, never -0
        assert (row["clipped_rho0"], row["clipped_rho1"]) == ("0", "0")
        meta = csv_meta(out)
        assert meta["cutoff_classical"] == "30"

    @pytest.mark.parametrize("argv", [
        ["--transmitter", "qi", "--n-s", "0.01", "--eta", "0.5", "--n-b", "3",
         "--cutoff-signal", "48", "--cutoff-idler", "12", "--cutoff-noise", "48"],
        ["--transmitter", "classical", "--n-s", "2", "--eta", "0.9", "--n-b", "0.3",
         "--cutoff", "60"],
    ], ids=["qi", "classical"])
    def test_clipped_mass_at_rounding_reads_zero(self, capsys, argv):
        # these printed clipped_rho1 = 1.03151134e-28 and 1.69712106e-21, below
        # dim * eps, digits that moved with the eigensolver
        assert main(["qcb", *argv]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        row = dict(zip(header, rows[0]))
        assert (row["clipped_rho0"], row["clipped_rho1"]) == ("0", "0")

    @pytest.mark.parametrize("n_b", ["1e-9", "1e-12"])
    def test_classical_s_star_near_pure_background(self, capsys, n_b):
        # rho1's spectrum taken by eigh of D diag(p0) D' printed 0.500000007 and
        # 0.500000009; from the factor D sqrt(p0) it is the exact 0.5
        assert main(["qcb", "--transmitter", "classical", "--n-s", "0.1", "--eta", "0.5",
                     "--n-b", n_b]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        assert dict(zip(header, rows[0]))["s_star"] == "0.5"

    @pytest.mark.parametrize("name", sorted(QCB_SWEEP_EXPONENTS))
    def test_sweep_exponents_pinned(self, tmp_path, name):
        argv, want_qi, want_cl = QCB_SWEEP_EXPONENTS[name]
        path = tmp_path / "out.csv"
        assert main([*argv, "--output", str(path), "--quiet"]) == 0
        header, rows = csv_rows(path.read_text())
        assert tuple(row[header.index("exponent_qi")] for row in rows) == want_qi
        assert tuple(row[header.index("exponent_cl")] for row in rows) == want_cl

    def test_qi_eta_sweep_matches_single_points(self, capsys):
        # the beam-splitter channel depends on eta: rebuilt where eta changes
        base = ["qcb", "--transmitter", "qi", "--n-s", "0.1", "--n-b", "0.5",
                "--cutoff-signal", "20", "--cutoff-idler", "6", "--cutoff-noise", "20"]
        assert main([*base, "--eta", "0.1", "--sweep-var", "eta",
                     "--sweep-values", "0.1,0.3,0.3,0.1"]) == 0
        _, swept = csv_rows(capsys.readouterr().out)
        single = {}
        for eta in ("0.1", "0.3"):
            assert main([*base, "--eta", eta]) == 0
            single[eta] = csv_rows(capsys.readouterr().out)[1][0]
        assert swept == [single["0.1"], single["0.3"], single["0.3"], single["0.1"]]

    def test_qi_no_return_degenerates(self):
        code, out, _ = run_cli(
            "qcb", "--transmitter", "qi", "--n-s", "0.1", "--eta", "0",
            "--n-b", "1", "--cutoff-signal", "20", "--cutoff-idler", "6",
            "--cutoff-noise", "20",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert float(dict(zip(header, rows[0]))["exponent"]) == pytest.approx(0.0, abs=1e-7)

    def test_identical_hypotheses_have_no_exponent(self):
        # eta = 0: nothing returns, so Q(s) = 1 to rounding, and s_star is
        # undetermined; the exponent once read 4.4e-16 and the ratio inf
        code, out, _ = run_cli("qcb", "--transmitter", "both", "--n-s", "0.1", "--eta", "0",
                               "--n-b", "0.5")
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert (row["s_star_qi"], row["exponent_qi"]) == ("nan", "0")
        assert (row["s_star_cl"], row["exponent_cl"]) == ("nan", "0")
        assert row["exponent_ratio"] == "nan"
        code, out, _ = run_cli("qcb", "--transmitter", "qi", "--n-s", "0.1", "--eta", "0",
                               "--n-b", "0.5")
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert (row["s_star"], row["q_min"], row["exponent"]) == ("nan", "1", "0")
        assert row["exponent_over_rate"] == "nan"

    def test_kappa_alternative(self):
        kappa = math.asinh(math.sqrt(0.1))
        code, out, _ = run_cli(
            "qcb", "--transmitter", "classical", "--kappa", repr(kappa),
            "--eta", "0.5", "--n-b", "1", "--cutoff", "20",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert float(dict(zip(header, rows[0]))["n_s"]) == pytest.approx(0.1, rel=1e-9)

    def test_negative_kappa_rejected(self, capsys):
        # sinh(-1)^2 once made this the table of kappa = +1, with exit 0
        argv = ["qcb", "--transmitter", "both", "--kappa", "-1", "--eta", "0.1", "--n-b", "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "kappa" in err

    def test_negative_cutoffs_rejected(self, capsys):
        argv = ["qcb", "--transmitter", "qi", "--n-s", "0.1", "--eta", "0.1", "--n-b", "1",
                "--cutoff-signal", "-1", "--cutoff-idler", "-2"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cutoff" in err

    def test_both_given_rejected(self):
        code, _, err = run_cli(
            "qcb", "--transmitter", "classical", "--n-s", "0.1", "--kappa", "0.3",
            "--eta", "0.5", "--n-b", "1",
        )
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize(
        "n_s, n_b",
        [("0.1", "100"), ("0.1", "20"), ("2", "1")],
        ids=["n_b_100", "n_b_20", "n_s_2"],
    )
    def test_truncated_distribution_fails_loudly(self, n_s, n_b):
        # these once exited 0 with exponents up to 450x off: the default
        # cutoffs discard 0.65, 0.12 and 5e-3 of a distribution's mass
        code, out, err = run_cli(
            "qcb", "--transmitter", "both", "--n-s", n_s, "--eta", "0.1",
            "--n-b", n_b, "--cutoff-idler", "12",
        )
        assert code == 3
        assert "discards" in err
        assert out == ""

    def test_sweep_values_conflict_with_sweep_range(self, capsys):
        argv = ["qcb", "--transmitter", "classical", "--n-s", "0.1", "--eta", "0.5",
                "--n-b", "1", "--cutoff", "20", "--sweep-var", "eta", "--sweep-values", "0.5",
                "--sweep-steps", "3"]
        assert main(argv) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_truncation_exit_code(self):
        code, _, err = run_cli(
            "qcb", "--transmitter", "classical", "--n-s", "10",
            "--eta", "1", "--n-b", "0.5", "--cutoff", "2",
        )
        assert code == 3
        assert "numerical failure" in err


class TestCliContract:
    @pytest.mark.parametrize(
        "args",
        [
            ("state", "--kappa", "0.7", "--cutoff", "12"),
            ("wigner", "--kappa", "0.5", "--samples", "21"),
            ("spectrum", "--kappa-max", "1.5", "--steps", "41"),
            ("detect", "--eta", "0.3", "--n-s", "0.2", "--n-b", "2", "--pulses", "1e4"),
            ("qcb", "--transmitter", "classical", "--n-s", "0.1", "--eta", "0.5",
             "--n-b", "1", "--cutoff", "20"),
        ],
        ids=["state", "wigner", "spectrum", "detect", "qcb"],
    )
    def test_runs_are_byte_identical(self, tmp_path, args):
        paths = [tmp_path / "a.out", tmp_path / "b.out"]
        for path in paths:
            code, _, _ = run_cli(*args, "--output", str(path), "--quiet")
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_config_equals_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\ncutoff = 8\n")
        f_flag = tmp_path / "flag.csv"
        f_cfg = tmp_path / "cfg.csv"
        assert run_cli("state", "--kappa", "0.5", "--cutoff", "8",
                       "--output", str(f_flag), "--quiet")[0] == 0
        assert run_cli("state", "--config", str(cfg),
                       "--output", str(f_cfg), "--quiet")[0] == 0
        assert f_flag.read_bytes() == f_cfg.read_bytes()

    @pytest.mark.parametrize("flags", [(), ("--kappa", "0.5")], ids=["config_only", "flag_too"])
    def test_config_byte_order_mark_is_skipped(self, tmp_path, flags):
        # some editors start a UTF-8 file with a byte-order mark, which once became part
        # of the first key: a missing --kappa, or with the flag an unknown config key
        text = b"kappa = 0.5\ncutoff = 8\n"
        written = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_bytes(data)
            code, _, err = run_cli("state", "--config", str(cfg), *flags,
                                   "--output", str(out), "--quiet")
            assert code == 0, err
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\ncutoff = 8\n")
        code, out, _ = run_cli("state", "--config", str(cfg), "--kappa", "0")
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][3] == "1"
        assert csv_meta(out)["param_kappa"] == "0.0"

    def test_json_mirrors_csv_schema(self):
        code, out, _ = run_cli("state", "--kappa", "0.5", "--cutoff", "3",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["n", "re_c", "im_c", "prob"]
        assert len(doc["rows"]) == 4
        assert doc["metadata"]["subcommand"] == "state"
        assert doc["rows"][1][3] == pytest.approx(0.167947696, abs=1e-8)

    def test_metadata_records_resolved_parameters(self):
        _, out, _ = run_cli("state", "--kappa", "0.5", "--cutoff", "3")
        meta = csv_meta(out)
        assert meta["tool"] == "mqisim"
        assert meta["version"] == "0.1.0"
        assert meta["param_kappa"] == "0.5"
        assert meta["param_cutoff"] == "3"
        assert meta["param_phase"] == "1.5707963267948966"

    @pytest.mark.parametrize("argv", [
        ("state", "--kappa", "1000"),
        ("wigner", "--kappa", "1000"),
        ("qcb", "--transmitter", "both", "--kappa", "1000", "--eta", "0.1", "--n-b", "1"),
    ], ids=["state", "wigner", "qcb"])
    def test_overflow_is_a_numerical_failure(self, argv, capsys):
        # cosh and sinh overflow near kappa = 710: once an uncaught traceback and exit 1
        assert main(list(argv)) == 3
        out, err = capsys.readouterr()
        assert out == "" and "numerical failure" in err

    @pytest.mark.parametrize("argv", [
        ("state", "--kappa", "400"),
        ("wigner", "--kappa", "400"),
        ("qcb", "--transmitter", "both", "--kappa", "400", "--eta", "0.1", "--n-b", "1"),
    ], ids=["state", "wigner", "qcb"])
    def test_overflow_message_names_kappa(self, argv, capsys):
        # cosh(2 kappa) overflows above kappa = 355.24, before cosh and sinh do
        assert main(list(argv)) == 3
        out, err = capsys.readouterr()
        assert out == "" and "kappa" in err and "355.24" in err

    @pytest.mark.parametrize("argv", [
        ("detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "1e6",
         "--sweep-var", "n_b", "--sweep-from", "1", "--sweep-to", "2", "--sweep-steps", HUGE),
        ("spectrum", "--kappa-max", "1", "--steps", HUGE),
        ("wigner", "--kappa", "1", "--samples", HUGE),
        ("state", "--kappa", "1", "--cutoff", HUGE),
        ("qcb", "--transmitter", "classical", "--n-s", "0.1", "--eta", "0.5", "--n-b", "1",
         "--cutoff", HUGE),
    ], ids=["detect", "spectrum", "wigner", "state", "qcb"])
    def test_unallocatable_size_is_a_numerical_failure(self, argv, capsys):
        # once numpy's MemoryError, a traceback and exit 1
        assert main(list(argv)) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical failure: ") and "allocate" in err

    def test_invalid_argument_exit_code(self):
        code, _, err = run_cli("state", "--kappa", "-1")
        assert code == 2 and "error" in err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\nbogus = 1\n")
        code, _, err = run_cli("state", "--config", str(cfg))
        assert code == 2 and "bogus" in err

    def test_bad_format_rejected(self):
        code, _, _ = run_cli("state", "--kappa", "0.5", "--format", "xml")
        assert code == 2

    def test_unknown_subcommand_rejected(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_preset_outputs_pinned(self, tmp_path, name):
        # byte-identical at 9 significant digits; a change that moves a digit
        # updates the digest and says why
        path = tmp_path / f"{name}.csv"
        argv = [name.split("_")[0], "--config", str(CONFIGS / f"{name}.cfg"),
                "--output", str(path), "--quiet"]
        assert main(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PRESET_SHA256[name]

    @pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
    def test_outputs_pinned(self, tmp_path, name):
        argv, digest = OUTPUT_SHA256[name]
        path = tmp_path / "out"
        assert main([*argv, "--output", str(path), "--quiet"]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("subcommand", sorted(HELP_SHA256), ids=lambda s: s or "parser")
    def test_help_pinned(self, subcommand, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"] if subcommand else ["--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[subcommand]

    def test_import_loads_no_scipy(self):
        # scipy is a test-only reference; the package never imports it
        probe = "import sys, mqisim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_pathlib(self):
        # without site (which may preload it), importing the CLI loads no pathlib
        site_packages = os.path.dirname(os.path.dirname(np.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), site_packages])}
        probe = "import sys, mqisim.cli; print('pathlib' in sys.modules)"
        proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_runs_without_scipy(self):
        # the Fock unitaries and the envelope inversion once imported scipy
        probe = ("import sys; sys.modules['scipy'] = None; import mqisim; "
                 "mqisim.build_classical_hypotheses(0.1, 0.5, 1.0, 30); "
                 "mqisim.required_pulses(1e-6, 1e-3)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


_DETECT = ("detect", "--eta", "0.1", "--n-s", "0.1", "--n-b", "1", "--pulses", "10")


class TestInputChecks:
    """Every rejected input exits 2 with no table and a message naming the fault.

    ``{tmp}`` in an argument is the test's temporary directory, where
    ``run.cfg`` holds the case's config text, if any.
    """

    @pytest.mark.parametrize("argv, config, message", [
        (("state", "--kappa", "abc"), None, "expected a number"),
        (("state", "--kappa", "0.5", "--cutoff", "1.5"), None, "expected an integer"),
        (("state", "--config", "{tmp}/run.cfg"), "kappa = 0.5\nquiet = maybe\n",
         "expected a boolean"),
        (("wigner", "--kappa", "0.5", "--range", "1"), None, "expected 'a,b'"),
        ((*_DETECT, "--sweep-var", "n_b", "--sweep-values", ","), None, "comma-separated"),
        (("qcb", "--transmitter", "quantum", "--n-s", "0.1", "--eta", "0.5", "--n-b", "1"),
         None, "expected one of ('qi', 'classical', 'both'), got 'quantum'"),
        (("state", "--config", "{tmp}/missing.cfg"), None, "cannot read config file"),
        (("state", "--config", "{tmp}/run.cfg"), b"\xff\xfe", "cannot read config file"),
        (("state", "--config", "{tmp}/run.cfg"), "kappa 0.5\n", "expected 'key = value'"),
        (("state",), None, "missing required parameter --kappa"),
        ((*_DETECT, "--sweep-from", "1"), None, "--sweep-from requires --sweep-var"),
        ((*_DETECT, "--sweep-var", "n_b", "--sweep-from", "1"), None, "detect sweep needs"),
        ((*_DETECT, "--sweep-var", "n_b", "--sweep-from", "1", "--sweep-to", "2",
          "--sweep-steps", "1"), None, "--sweep-steps must be an integer >= 2, got 1"),
        (("state", "--kappa", "0.5", "--output", "{tmp}/missing/out.csv"), None,
         "cannot write"),
        (("spectrum", "--kappa-max", "1", "--mixing", "5wm"), None,
         "mixing must be one of ('3wm', '4wm'), got '5wm'"),
        (("spectrum", "--kappa-max", "1", "--shape", "Square"), None,
         "shape must be one of ('parabolic', 'raised_cosine', 'rectangular'), got 'square'"),
        (("wigner", "--kappa", "0.5", "--range=inf,1"), None, "ranges must be finite"),
        (("wigner", "--kappa", "0.5", "--fixed=nan,0"), None, "fixed_values must be finite"),
        (("qcb", "--transmitter", "qi", "--kappa", "0.3", "--eta", "0.1", "--n-b", "1",
          "--sweep-var", "n_s", "--sweep-values", "0.1,0.2"), None,
         "sweeping n_s conflicts with --kappa"),
        (("state", "--kappa", "1", "--phase", "nan"), None, "phase must be finite"),
        (("spectrum", "--config", "{tmp}/run.cfg"), "kappa-max = 0.5\nband-center = 4e9\n",
         "unknown config keys: band_center"),
        (("wigner", "--config", "{tmp}/run.cfg"), "kappa = 0.5\nx-range = -1,1\n",
         "unknown config keys: x_range"),
        # a misspelt required key was reported as the missing key it was meant to be
        (("state", "--config", "{tmp}/run.cfg"), "kapa = 0.5\n", "unknown config keys: kapa"),
        # a key set twice silently took its last value; keys fold case and '-' to '_'
        (("state", "--config", "{tmp}/run.cfg"), "kappa = 0.5\nKAPPA = 3\ncutoff = 2\n",
         "run.cfg:2: key kappa is already set on line 1"),
        (("detect", "--config", "{tmp}/run.cfg"),
         "eta = 0.1\nn-s = 0.1\nn-b = 1\n# background\nn_b = 2\npulses = 10\n",
         "run.cfg:5: key n_b is already set on line 3"),
    ], ids=["number", "integer", "boolean", "pair", "list", "choice", "config_missing",
            "config_not_utf8", "config_line", "required", "sweep_var", "sweep_bounds", "sweep_steps", "output",
            "mixing", "shape", "wigner_range_inf", "wigner_fixed_nan", "qcb_kappa_sweep_n_s",
            "phase_nan", "config_band_center", "config_x_range", "config_misspelt_required",
            "config_repeated_key", "config_repeated_folded_key"])
    def test_rejected(self, argv, config, message, tmp_path, capsys):
        if isinstance(config, bytes):
            (tmp_path / "run.cfg").write_bytes(config)
        elif config is not None:
            (tmp_path / "run.cfg").write_text(config)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_config_quiet_suppresses_the_summary(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("kappa = 0.5\nquiet = true\n")
        path = tmp_path / "out.csv"
        assert main(["state", "--config", str(tmp_path / "run.cfg"), "--output", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_text().startswith("n,re_c,im_c,prob\n")

    def test_output_prints_a_summary(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(["state", "--kappa", "0.5", "--cutoff", "12", "--output", str(path)]) == 0
        assert capsys.readouterr() == ("", f"wrote {path}: state: 13 rows (csv)\n")


class TestOutput:
    """A table goes to --output or stdout block by block, the same bytes either way."""

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--kappa-max", "3", "--steps", "10001"),
        ("wigner", "--kappa", "0.5", "--samples", "101", "--format", "json"),
    ], ids=["spectrum_csv", "wigner_json"])
    def test_output_file_matches_stdout(self, argv, tmp_path, capsys):
        assert main(list(argv)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        path = tmp_path / "out"
        assert main([*argv, "--output", str(path), "--quiet"]) == 0
        assert path.read_bytes() == out.encode("ascii")
        rows = 10001 if argv[0] == "spectrum" else 101 * 101
        assert rows >= 2 * digits._BLOCK_ROWS + 1   # the table spans at least three blocks

    def test_failure_while_formatting_leaves_no_output(self, monkeypatch, tmp_path, capsys):
        # cells are formatted before the output file is opened
        def out_of_memory(*args):
            raise MemoryError("cannot allocate the cells")

        monkeypatch.setattr(digits, "format_floats", out_of_memory)
        path = tmp_path / "out.csv"
        assert main(["spectrum", "--kappa-max", "1", "--output", str(path)]) == 3
        assert capsys.readouterr() == ("", "numerical failure: cannot allocate the cells\n")
        assert not path.exists()

    @pytest.mark.parametrize("error, code, message", [
        (OSError("No space left on device"), 2, "error: cannot write "),
        (MemoryError("cannot allocate a block"), 3, "numerical failure: "),
    ], ids=["os_error", "memory_error"])
    def test_failure_while_blocks_are_written_keeps_its_exit_code(
            self, monkeypatch, tmp_path, capsys, error, code, message):
        def failing_emit(*args):
            yield b"n,re_c,im_c,prob\n"
            raise error

        monkeypatch.setattr(cli, "emit", failing_emit)
        path = tmp_path / "out.csv"
        assert main(["state", "--kappa", "0.5", "--output", str(path)]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and str(error) in err

    # a table within one buffer fails at the flush, a longer one in the write
    @pytest.mark.parametrize("steps", ["11", "2001"])
    def test_closed_pipe_ends_quietly(self, steps):
        # as `mqisim spectrum ... | head -1` leaves it once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "mqisim", "spectrum", "--kappa-max", "1",
                                   "--steps", steps], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("steps", ["11", "2001"])
    def test_full_device_is_a_failed_write(self, steps):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "mqisim", "spectrum", "--kappa-max", "1",
                                   "--steps", steps], stdout=full, stderr=subprocess.PIPE,
                                  text=True)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"
