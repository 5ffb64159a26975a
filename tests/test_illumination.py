import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqisim import (
    DetectionScenario,
    InvalidArgumentError,
    InvalidStateError,
    SqueezeParam,
    TruncationError,
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
    thermal_probabilities,
    tmsv_fock,
)
from mqisim.qcb import HypothesisPair
from conftest import trace_distance, truncated_beam_splitter_expm
from reference import (
    DensityMatrix,
    beam_splitter,
    beam_splitter_unitary,
    dense_rho0,
    dense_rho1,
    number_expectation,
    pair_from_states,
    partial_trace,
    thermal_density,
    unitarity_defect,
)

EPS = np.finfo(float).eps
CL_CLOSED_FORM = 0.00857864376269  # eta n_s (sqrt(n_b+1) - sqrt(n_b))^2 at (0.1, 0.5, 1)


def scenario(eta, n_s, n_b, **kw):
    return DetectionScenario(eta=eta, n_s=n_s, n_b=n_b, **kw)


class TestErrorRates:
    def test_unit_scenario(self):
        assert classical_error_rate(scenario(1.0, 1.0, 1.0)) == 0.25
        assert quantum_error_rate(scenario(1.0, 1.0, 1.0)) == 1.0

    def test_dark_target(self):
        assert classical_error_rate(scenario(0.0, 1.0, 1.0)) == 0.0

    def test_low_snr_point(self):
        scn = scenario(0.01, 0.01, 20.0)
        assert classical_error_rate(scn) == pytest.approx(1.25e-6, rel=1e-12)
        assert quantum_error_rate(scn) == pytest.approx(5.0e-6, rel=1e-12)

    def test_zero_background_rejected(self):
        with pytest.raises(InvalidArgumentError):
            classical_error_rate(scenario(0.5, 1.0, 0.0))
        with pytest.raises(InvalidArgumentError):
            quantum_error_rate(scenario(0.5, 1.0, 0.0))

    def test_snr_interpretation(self):
        assert scenario(0.3, 0.2, 20.0).snr == pytest.approx(0.01)

    @settings(deadline=None, max_examples=200)
    @given(
        eta=st.floats(1e-3, 1.0),
        n_s=st.floats(1e-3, 10.0),
        n_b=st.floats(1e-2, 100.0),
    )
    def test_rate_ratio_exactly_four(self, eta, n_s, n_b):
        scn = scenario(eta, n_s, n_b)
        assert quantum_error_rate(scn) / classical_error_rate(scn) == 4.0

    def test_out_of_range_scenario_rejected(self):
        with pytest.raises(InvalidArgumentError):
            scenario(1.5, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            scenario(0.5, -1.0, 1.0)


class TestAdvantage:
    def test_value(self):
        assert advantage_db() == pytest.approx(6.02059991328, abs=1e-10)

    def test_consistent_with_rates(self):
        scn = scenario(1.0, 1.0, 1.0)
        ratio = quantum_error_rate(scn) / classical_error_rate(scn)
        assert advantage_db() == 10.0 * math.log10(ratio)

    def test_scale_invariance(self):
        for scn in (scenario(0.2, 3.0, 7.0), scenario(0.9, 0.01, 40.0)):
            ratio = quantum_error_rate(scn) / classical_error_rate(scn)
            assert 10.0 * math.log10(ratio) == advantage_db()


class TestErrorProbability:
    def test_frozen_values(self):
        assert error_probability(1.0, 1.0) == pytest.approx(0.103776874355, rel=1e-10)
        assert error_probability(1.0, 10.0) == pytest.approx(4.04995547804e-6, rel=1e-10)

    def test_zero_arguments_rejected(self):
        with pytest.raises(InvalidArgumentError):
            error_probability(0.0, 10.0)
        with pytest.raises(InvalidArgumentError):
            error_probability(1.0, 0.0)

    @settings(deadline=None, max_examples=120)
    @given(rate=st.floats(1e-8, 1.0), pulses=st.floats(1e-2, 1e8))
    def test_monotone_in_pulses(self, rate, pulses):
        # restrict to the regime where exp(-MR) is representable in float64
        if 2 * rate * pulses > 700.0:
            pulses = 350.0 / rate
        assert error_probability(rate, 2 * pulses) < error_probability(rate, pulses)

    def test_quantum_envelope_dominates(self):
        for (eta, n_s, n_b, m) in ((1, 1, 1, 10), (0.1, 0.1, 4, 1e5), (0.01, 0.01, 20, 1e8)):
            scn = scenario(eta, n_s, n_b)
            assert error_probability(quantum_error_rate(scn), m) < error_probability(
                classical_error_rate(scn), m
            )

    def test_validity_flag(self):
        assert not is_asymptotic(1.0, 10.0)      # pulses below 100
        assert not is_asymptotic(1e-3, 200.0)    # MR below 1
        assert is_asymptotic(0.1, 200.0)


class TestPulseCount:
    def test_product(self):
        assert pulse_count(1e-3, 1e9) == 1e6

    def test_zero_bandwidth_flagged_downstream(self):
        assert pulse_count(1.0, 0.0) == 0.0
        with pytest.raises(InvalidArgumentError):
            error_probability(0.25, pulse_count(1.0, 0.0))

    def test_doubling_bandwidth_reduces_error(self):
        p1 = error_probability(2e-6, pulse_count(1e-3, 1e9))
        p2 = error_probability(2e-6, pulse_count(1e-3, 2e9))
        assert p2 < p1

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pulse_count(-1.0, 1e9)


class TestRequiredPulses:
    def test_anchor_point(self):
        req = required_pulses(1e-6, 1e-3)
        assert req.pulses == pytest.approx(4852496.498, rel=1e-8)
        assert req.exponent_arg == pytest.approx(4.85249649828, rel=1e-8)
        assert req.asymptotic_valid

    def test_round_trip(self):
        for rate, target in ((1e-6, 1e-3), (3e-4, 1e-7), (0.02, 1e-2)):
            req = required_pulses(rate, target)
            assert error_probability(rate, req.pulses) == pytest.approx(target, rel=1e-9)

    def test_monotone_in_rate(self):
        assert required_pulses(2e-6, 1e-3).pulses < required_pulses(1e-6, 1e-3).pulses

    def test_flagged_outside_asymptotic_window(self):
        # Pe = 0.2 is reached at MR < 1, where the envelope is not trustworthy
        req = required_pulses(1.0, 0.2)
        assert req.exponent_arg < 1.0
        assert not req.asymptotic_valid

    def test_target_domain(self):
        with pytest.raises(InvalidArgumentError):
            required_pulses(1e-6, 0.7)
        with pytest.raises(InvalidArgumentError):
            required_pulses(0.0, 1e-3)

    def test_pulse_count_overflow_names_the_quotient(self):
        # M = x / rate overflowed and was rejected as pulses = inf, a value never passed
        with pytest.raises(OverflowError, match="pulse count M = x / rate overflows"):
            required_pulses(1e-310, 0.1)

    def test_matches_brentq(self):
        from scipy.optimize import brentq

        for target in np.geomspace(0.49, 1e-300, 10):
            def log_resid(x):
                return -x - math.log(2.0 * math.sqrt(math.pi * x)) - math.log(target)

            hi = 1.0
            while log_resid(hi) > 0.0:
                hi *= 2.0
            x = brentq(log_resid, 1e-12, hi, xtol=1e-300, rtol=8.9e-16)
            for rate in np.logspace(-9, 1, 21):
                req = required_pulses(rate, target)
                assert req.exponent_arg == pytest.approx(x, rel=1e-14)
                assert req.pulses == pytest.approx(x / rate, rel=1e-14)


# one swept field each, across the regimes of the CLI's sweeps: M R from
# below 1 to where exp(-M R) underflows, M from below 100 to 1e9
SWEEPS = {
    "eta": dict(eta=np.linspace(0.002, 1.0, 500), n_s=0.1, n_b=1.0, t_int=1e-3, bandwidth=1e9),
    "n_s": dict(eta=0.5, n_s=np.geomspace(1e-4, 10.0, 501), n_b=2.0, t_int=1e-5, bandwidth=1e8),
    "n_b": dict(eta=0.1, n_s=0.1, n_b=np.linspace(0.5, 100.0, 2001), t_int=1e-3,
                bandwidth=1e9),
    "t_int": dict(eta=0.3, n_s=0.2, n_b=5.0, t_int=np.geomspace(1e-9, 1.0, 501),
                  bandwidth=1e9),
    "bandwidth": dict(eta=0.05, n_s=0.01, n_b=20.0, t_int=1e-2,
                      bandwidth=np.geomspace(1.0, 1e11, 501)),
}


def _envelope(rate: float, pulses: float) -> float:
    """Scalar reference for error_probability: the formula with math.exp."""
    mr = pulses * rate
    return math.exp(-mr) / (2.0 * math.sqrt(math.pi * mr))


class TestArraySweeps:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_matches_scalar_calls(self, name):
        fields = SWEEPS[name]
        sweep = DetectionScenario(**fields)
        r_cl, r_q, pulses = classical_error_rate(sweep), quantum_error_rate(sweep), sweep.pulses
        cols = {
            "snr": sweep.snr, "pulses": pulses, "r_cl": r_cl, "r_q": r_q,
            "valid_cl": is_asymptotic(r_cl, pulses), "valid_q": is_asymptotic(r_q, pulses),
            "pe_cl": error_probability(r_cl, pulses), "pe_q": error_probability(r_q, pulses),
        }
        cols = {k: np.broadcast_to(v, fields[name].shape).tolist() for k, v in cols.items()}
        for k, value in enumerate(fields[name].tolist()):
            one = DetectionScenario(**{**fields, name: value})
            r_cl, r_q = classical_error_rate(one), quantum_error_rate(one)
            want = {
                "snr": one.snr, "pulses": one.pulses, "r_cl": r_cl, "r_q": r_q,
                "valid_cl": is_asymptotic(r_cl, one.pulses),
                "valid_q": is_asymptotic(r_q, one.pulses),
            }
            assert {key: cols[key][k] for key in want} == want
            # np.exp and math.exp may differ by an ulp; the printed cell may not
            for key, rate in (("pe_cl", r_cl), ("pe_q", r_q)):
                text = f"{cols[key][k]:.9g}"
                assert text == f"{error_probability(rate, one.pulses):.9g}"
                assert text == f"{_envelope(rate, one.pulses):.9g}"

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(eta=np.array([0.5, 1.5, 2.0]), n_s=0.1, n_b=1.0), "eta=1.5 outside [0.0, 1.0]"),
            (dict(eta=0.5, n_s=np.array([0.1, np.nan]), n_b=1.0), "n_s=nan outside [0.0, inf]"),
            (dict(eta=0.5, n_s=0.1, n_b=np.array([1.0, -2.0])), "n_b=-2.0 outside [0.0, inf]"),
            (dict(eta=0.5, n_s=0.1, n_b=1.0, bandwidth=np.array([1e9, np.inf])),
             "bandwidth=inf outside [0.0, inf]"),
        ],
        ids=["eta", "n_s", "n_b", "bandwidth"],
    )
    def test_bad_scenario_value_named_as_scalar(self, fields, message):
        with pytest.raises(InvalidArgumentError) as exc:
            DetectionScenario(**fields)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: error_probability(np.array([1.0, 0.0, -1.0]), 10.0),
             "rate and pulses must be finite and > 0, got 0.0, 10.0"),
            (lambda: error_probability(0.25, np.array([10.0, np.inf])),
             "rate and pulses must be finite and > 0, got 0.25, inf"),
            (lambda: pulse_count(np.array([1e-3, -1.0]), 1e9),
             "t_int and bandwidth must be finite and >= 0, got -1.0, 1000000000.0"),
            (lambda: classical_error_rate(scenario(0.5, 1.0, np.array([1.0, 0.0]))),
             "rate formulas require n_b > 0"),
            (lambda: quantum_error_rate(scenario(0.5, 1.0, np.array([1.0, 0.0]))),
             "rate formulas require n_b > 0"),
            (lambda: scenario(0.5, 1.0, np.array([0.0, 1.0])).snr, "snr undefined for n_b = 0"),
        ],
        ids=["rate", "pulses", "pulse_count", "classical", "quantum", "snr"],
    )
    def test_bad_value_anywhere_in_a_column_rejected(self, call, message):
        with pytest.raises(InvalidArgumentError) as exc:
            call()
        assert str(exc.value) == message

    def test_fields_must_be_1d_and_broadcast(self):
        with pytest.raises(InvalidArgumentError):
            scenario(np.full((2, 2), 0.5), 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            scenario(np.array([0.1, 0.2]), np.array([1.0, 2.0, 3.0]), 1.0)
        with pytest.raises(InvalidArgumentError):
            error_probability(np.ones((2, 2)), 10.0)

    def test_scalar_calls_return_python_scalars(self):
        scn = scenario(0.3, 0.2, 2.0, t_int=1e-3, bandwidth=1e9)
        values = [scn.eta, scn.n_b, scn.snr, scn.pulses, classical_error_rate(scn),
                  quantum_error_rate(scn), pulse_count(1e-3, 1e9), error_probability(0.1, 200.0),
                  error_probability(np.float64(0.1), np.float64(200.0))]
        assert [type(v) for v in values] == [float] * len(values)
        assert type(is_asymptotic(0.1, 200.0)) is bool
        assert type(is_asymptotic(np.float64(1e-3), 200.0)) is bool

    def test_sweep_fields_are_read_only_copies(self):
        n_b = np.array([1.0, 2.0])
        scn = scenario(0.5, 1.0, n_b)
        n_b[0] = 0.0
        assert scn.n_b.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            scn.n_b[0] = 0.0


def dense_qi_rho1(sq, n_b, eta, cutoffs):
    """rho1 of the entangled transmitter by the dense engine: the beam splitter
    acts on signal (x) idler (x) noise, then the noise mode is traced out."""
    n_sig, n_idl, n_noise = cutoffs
    coeffs = tmsv_fock(sq, n_idl).coeffs
    psi = np.zeros((n_sig + 1, n_idl + 1), dtype=complex)
    psi[np.arange(n_idl + 1), np.arange(n_idl + 1)] = coeffs / np.linalg.norm(coeffs)
    p_noise, _ = thermal_probabilities(n_b / (1.0 - eta), n_noise)
    rho_in = np.kron(np.outer(psi.ravel(), psi.ravel().conj()), np.diag(p_noise))
    mixed = beam_splitter(DensityMatrix((n_sig + 1, n_idl + 1, n_noise + 1), rho_in), eta,
                          modes=(0, 2))
    return partial_trace(mixed, (0, 1)).matrix


class TestHypothesisBuilders:
    def test_qi_no_return_means_no_information(self):
        pair = build_qi_hypotheses(0.1, 1.0, qi_channel(0.0, 30, 10, 30))
        assert trace_distance(dense_rho0(pair).matrix, dense_rho1(pair).matrix) <= 1e-8

    def test_qi_vacuum_source_gives_zero_exponent(self):
        pair = build_qi_hypotheses(0.0, 1.0, qi_channel(0.3, 30, 6, 30))
        result = chernoff_exponent(pair)
        assert result.exponent == pytest.approx(0.0, abs=1e-8)

    def test_qi_returned_mode_occupancies(self):
        pair = build_qi_hypotheses(0.1, 1.0, qi_channel(0.1, 48, 10, 48))
        assert number_expectation(dense_rho0(pair), 0) == pytest.approx(1.0, abs=2e-3)
        assert number_expectation(dense_rho1(pair), 0) == pytest.approx(1.01, abs=2e-3)

    def test_qi_idler_marginal_identical(self):
        pair = build_qi_hypotheses(0.1, 1.0, qi_channel(0.1, 40, 10, 40))
        assert number_expectation(dense_rho0(pair), 1) == pytest.approx(
            number_expectation(dense_rho1(pair), 1), abs=1e-10
        )

    def test_qi_states_pass_invariants(self):
        pair = build_qi_hypotheses(math.sinh(0.3) ** 2, 0.7, qi_channel(0.2, 36, 8, 36))
        for rho in (dense_rho0(pair), dense_rho1(pair)):
            assert abs(np.trace(rho.matrix) - 1.0) <= 1e-8
            assert rho.min_eigenvalue() >= -1e-9

    def test_qi_rho1_matches_dense_engine(self):
        eta, n_b, n_sig, n_idl, n_noise = 0.3, 0.5, 10, 4, 10
        pair = build_qi_hypotheses(0.1, n_b, qi_channel(eta, n_sig, n_idl, n_noise))
        ref = dense_qi_rho1(SqueezeParam(math.asinh(math.sqrt(0.1)), 0.0), n_b, eta,
                            (n_sig, n_idl, n_noise))
        np.testing.assert_allclose(dense_rho1(pair).matrix, ref, rtol=0.0, atol=1e-12)
        s, i = np.divmod(np.arange(ref.shape[0]), n_idl + 1)
        off_block = (s - i)[:, None] != (s - i)[None, :]
        assert np.all(ref[off_block] == 0.0)
        p_ret, _ = thermal_probabilities(n_b, n_sig)
        p_idl, _ = thermal_probabilities(0.1, n_idl)
        np.testing.assert_allclose(dense_rho0(pair).matrix, np.diag(np.kron(p_ret, p_idl)),
                                   rtol=0.0, atol=1e-15)

    def test_qi_exponent_does_not_depend_on_the_tmsv_phase(self):
        # the builder leaves out the phase; the dense engine keeps the default pi/2
        cutoffs = (10, 4, 10)
        pair = build_qi_hypotheses(0.1, 0.5, qi_channel(0.3, *cutoffs))
        rho1 = dense_qi_rho1(SqueezeParam(math.asinh(math.sqrt(0.1))), 0.5, 0.3, cutoffs)
        dense = pair_from_states(dense_rho0(pair), DensityMatrix(pair.mode_dims, rho1))
        assert chernoff_exponent(pair).exponent == pytest.approx(
            chernoff_exponent(dense).exponent, rel=1e-12)

    # cutoffs (6, 3, 4) and (4, 2, 7): sectors of total photon number above either cutoff
    @pytest.mark.parametrize("cutoffs", [(6, 3, 4), (4, 2, 7)])
    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.5, 1.0])
    def test_qi_channel_matches_dense_exponential(self, cutoffs, eta):
        n_sig, n_idl, n_noise = cutoffs
        ref = truncated_beam_splitter_expm(n_sig + 1, n_noise + 1, eta)
        s, i, m = np.meshgrid(np.arange(n_sig + 1), np.arange(n_idl + 1),
                              np.arange(n_noise + 1), indexing="ij")
        out = i + m - s   # noise output
        inside = (out >= 0) & (out <= n_noise)
        rows, cols = s * (n_noise + 1) + np.clip(out, 0, n_noise), i * (n_noise + 1) + m
        want = np.where(inside, ref[rows, cols], 0.0)
        amp = qi_channel(eta, *cutoffs).amp
        assert np.max(np.abs(amp - want)) <= 1e-12
        # the dense reference scatters the same sector kernel with every input formed:
        # equal up to the rounding of the channel's narrower matrix products
        dense = beam_splitter_unitary(n_sig + 1, n_noise + 1, eta)
        assert unitarity_defect(dense) <= 1e-12
        assert np.max(np.abs(amp - np.where(inside, dense[rows, cols], 0.0))) <= 4 * EPS

    def test_qi_blocks_bounded_by_idler_cutoff(self):
        pair = build_qi_hypotheses(math.sinh(0.3) ** 2, 0.7, qi_channel(0.2, 36, 8, 36))
        assert sum(len(index) for index, _ in pair.stacks) == 36 + 8 + 1
        assert [index.shape[1] for index, _ in pair.stacks] == list(range(1, 8 + 2))
        assert sum(index.size for index, _ in pair.stacks) == pair.dim == 37 * 9

    def test_params_record_discarded_masses(self):
        def tail(nbar, cutoff):
            return (nbar / (1.0 + nbar)) ** (cutoff + 1)

        qi = build_qi_hypotheses(0.1, 0.5, qi_channel(0.3, 10, 4, 10)).params
        assert qi["idler_discarded"] == pytest.approx(tail(0.1, 4), rel=1e-12)
        assert qi["return_discarded"] == pytest.approx(tail(0.5, 10), rel=1e-12)
        assert qi["noise_discarded"] == pytest.approx(tail(0.5 / 0.7, 10), rel=1e-12)
        cl = build_classical_hypotheses(0.1, 0.5, 1.0, 30).params
        assert cl["background_discarded"] == pytest.approx(tail(1.0, 30), rel=1e-12)

    def test_qi_idler_truncation_rejected(self):
        # the idler law and the pair expansion discard (2 / 3)^11 = 1.2e-2
        with pytest.raises(TruncationError, match="idler"):
            build_qi_hypotheses(2.0, 1.0, qi_channel(0.1, 30, 10, 30))

    def test_classical_truncation_rejected(self):
        with pytest.raises(TruncationError, match="discards"):
            build_classical_hypotheses(0.1, 0.1, 100.0, 48)

    def test_qi_invalid_inputs(self):
        n_s = math.sinh(0.3) ** 2
        with pytest.raises(InvalidArgumentError):
            build_qi_hypotheses(n_s, 1.0, qi_channel(1.0, 30, 8, 30))   # eta=1 with background
        with pytest.raises(InvalidArgumentError):
            build_qi_hypotheses(n_s, 1.0, qi_channel(0.5, 8, 30, 30))   # signal cutoff below idler
        for bad in (-1.0, math.nan):
            with pytest.raises(InvalidArgumentError, match="n_s"):
                build_qi_hypotheses(bad, 1.0, qi_channel(0.1, 30, 8, 30))

    def test_classical_dark_target_identical(self):
        pair = build_classical_hypotheses(0.0, 0.5, 1.0, 20)
        np.testing.assert_allclose(dense_rho0(pair).matrix, dense_rho1(pair).matrix, atol=1e-14)

    def test_classical_mean_photon(self):
        pair = build_classical_hypotheses(0.1, 0.5, 1.0, 40)
        assert number_expectation(dense_rho1(pair), 0) == pytest.approx(0.05 + 1.0, abs=1e-6)

    def test_classical_states_pass_invariants(self):
        pair = build_classical_hypotheses(0.1, 0.5, 1.0, 40)
        for rho in (dense_rho0(pair), dense_rho1(pair)):
            assert abs(np.trace(rho.matrix) - 1.0) <= 1e-8
            assert rho.min_eigenvalue() >= -1e-9

    def test_blocks_must_partition_the_space(self):
        p0 = np.full(4, 0.25)
        with pytest.raises(InvalidArgumentError, match="partition"):
            HypothesisPair((4,), p0, (([np.arange(2)], [np.eye(2) / 2]),))
        with pytest.raises(InvalidArgumentError, match="partition"):
            HypothesisPair((4,), p0, (([np.arange(3)], [np.eye(3) / 4]),
                                      ([np.arange(2, 4)], [np.eye(2) / 8])))

    def test_non_hermitian_block_rejected(self):
        for block in ([[0.5, 0.1], [0.0, 0.5]], [[0.5, np.nan], [np.nan, 0.5]]):
            with pytest.raises(InvalidArgumentError):
                HypothesisPair((2,), np.full(2, 0.5), (([np.arange(2)], [block]),))

    @pytest.mark.parametrize("p0", [np.full(3, 1 / 3), np.full(4, 1 / 3), np.ones((2, 2)) / 4,
                                    np.array([0.5, 0.5, np.nan, 0.0])],
                             ids=["short", "trace", "shape", "nan"])
    def test_p0_must_be_a_unit_trace_diagonal_of_the_space(self, p0):
        with pytest.raises(InvalidArgumentError):
            HypothesisPair((4,), p0, (([np.arange(4)], [np.eye(4) / 4]),))

    def test_stack_must_match_its_index(self):
        with pytest.raises(InvalidArgumentError, match="does not match its index"):
            HypothesisPair((2,), np.full(2, 0.5), (([np.arange(2)], [np.eye(3) / 3]),))

    def test_fractional_classical_cutoff_rejected(self):
        # int(cutoff) truncated 30.7 to a 31-level pair
        with pytest.raises(InvalidArgumentError, match="cutoff"):
            build_classical_hypotheses(0.1, 0.5, 1.0, 30.7)

    def test_blocks_keep_their_dtype(self):
        # both transmitters' blocks are real symmetric and stay real
        qi = build_qi_hypotheses(0.1, 1.0, qi_channel(0.1, 20, 6, 20))
        assert all(stack.dtype == np.float64 for _, stack in qi.stacks)
        cl = build_classical_hypotheses(0.1, 0.5, 1.0, 20)
        assert cl.stacks[0][1].dtype == np.float64
        ints = HypothesisPair((2,), np.array([1.0, 0.0]), (([np.arange(2)], [np.diag([0, 1])]),))
        assert ints.stacks[0][1].dtype == np.float64

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pair_from_states(thermal_density(0.5, 4), thermal_density(0.5, 5))


class TestChernoffExponent:
    def test_identical_states(self):
        rho = thermal_density(0.8, 25)
        result = chernoff_exponent(pair_from_states(rho, rho))
        assert result.q_min == pytest.approx(1.0, abs=1e-12)
        assert result.exponent == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(result.s_star)

    def test_flat_q_leaves_s_star_undetermined(self):
        # Q(s) = |<0|+>|^2 = 1/2 for every s in (0, 1): the s-search once
        # walked to s = 0.99999999999909 and printed it
        zero = DensityMatrix.from_pure(np.array([1.0, 0.0]), (2,))
        plus = DensityMatrix.from_pure(np.array([1.0, 1.0]), (2,))
        result = chernoff_exponent(pair_from_states(zero, plus))
        assert math.isnan(result.s_star)
        assert result.exponent == pytest.approx(math.log(2.0), rel=1e-12)

    def test_overlap_within_rounding_of_one_is_no_exponent(self):
        # eta = 0: nothing returns, the hypotheses are identical, and Q
        # is 1 only to rounding; the exponent once read 4.4e-16
        pair = build_qi_hypotheses(0.1, 0.5, qi_channel(0.0, 48, 12, 48))
        result = chernoff_exponent(pair)
        assert (result.q_min, result.exponent) == (1.0, 0.0)
        assert math.isnan(result.s_star)
        result = chernoff_exponent(build_classical_hypotheses(0.1, 0.0, 0.5, 48))
        assert (result.q_min, result.exponent) == (1.0, 0.0)

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix.from_pure(np.array([1.0, 0.0]), (2,))
        one = DensityMatrix.from_pure(np.array([0.0, 1.0]), (2,))
        result = chernoff_exponent(pair_from_states(zero, one))
        assert result.q_min == 0.0
        assert math.isinf(result.exponent)

    def test_classical_closed_form(self):
        pair = build_classical_hypotheses(0.1, 0.5, 1.0, 40)
        result = chernoff_exponent(pair)
        assert result.exponent == pytest.approx(CL_CLOSED_FORM, rel=1e-6)
        assert result.s_star == pytest.approx(0.5, abs=1e-5)

    def test_swap_symmetry(self):
        pair = build_classical_hypotheses(0.2, 0.5, 1.0, 30)
        fwd = chernoff_exponent(pair)
        rev = chernoff_exponent(pair_from_states(dense_rho1(pair), dense_rho0(pair)))
        assert rev.q_min == pytest.approx(fwd.q_min, rel=1e-9)
        assert rev.s_star == pytest.approx(1.0 - fwd.s_star, abs=2e-6)

    def test_grid_is_log_convex(self):
        pair = build_qi_hypotheses(0.1, 1.0, qi_channel(0.1, 36, 8, 36))
        log_q = np.log(chernoff_exponent(pair).diagnostics["q_grid"])
        second_diff = log_q[:-2] - 2 * log_q[1:-1] + log_q[2:]
        assert np.all(second_diff >= -1e-10)

    def test_qi_beats_classical_at_unit_background(self):
        qi = chernoff_exponent(build_qi_hypotheses(0.1, 1.0, qi_channel(0.1, 36, 8, 36)))
        cl = chernoff_exponent(build_classical_hypotheses(0.1, 0.1, 1.0, 36))
        assert qi.exponent / cl.exponent > 1.0

    def test_block_sum_matches_dense_pair(self):
        pair = build_qi_hypotheses(0.1, 1.0, qi_channel(0.1, 48, 10, 48))
        dense = pair_from_states(dense_rho0(pair), dense_rho1(pair))
        blocked, single = chernoff_exponent(pair), chernoff_exponent(dense)
        assert blocked.diagnostics["dim"] == single.diagnostics["dim"] == 49 * 11
        assert blocked.exponent == pytest.approx(single.exponent, rel=1e-12)
        assert blocked.s_star == pytest.approx(single.s_star, abs=1e-9)

    @pytest.mark.parametrize("n_b", [1.0, 2.0, 4.0])
    def test_s_star_is_the_root_of_the_slope(self, n_b):
        # reference: bisection on the sign of Q'(s), summed block by block
        pair = build_qi_hypotheses(0.1, n_b, qi_channel(0.1, 48, 12, 48))
        parts = []
        for indices, stack in pair.stacks:
            for index, block1 in zip(indices, stack):
                lam0, vec0 = np.linalg.eigh(np.diag(pair.p0[index]))
                lam1, vec1 = np.linalg.eigh(block1)
                parts.append((lam0, np.abs(vec0.conj().T @ vec1) ** 2, lam1))

        def slope(s):
            total = 0.0
            for lam0, overlap, lam1 in parts:
                keep = np.outer(lam0 > 0.0, lam1 > 0.0)
                l0, l1 = np.where(lam0 > 0.0, lam0, 1.0), np.where(lam1 > 0.0, lam1, 1.0)
                term = overlap * np.outer(l0**s, l1 ** (1.0 - s)) * np.subtract.outer(
                    np.log(l0), np.log(l1))
                total += float(np.sum(term[keep]))
            return total

        lo, hi = 0.0, 1.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
        result = chernoff_exponent(pair)
        assert result.s_star == pytest.approx(lo, abs=1e-9)
        # Newton steps, not bisection, reach the root: a handful past the 11-point grid
        assert result.diagnostics["evaluations"] <= 11 + 8

    @pytest.mark.parametrize("n_b", [1.0, 2.0, 4.0])
    def test_classical_s_star_is_one_half(self, n_b):
        # the coherent pair's Q(s) is symmetric about s = 1/2
        result = chernoff_exponent(build_classical_hypotheses(0.1, 0.1, n_b, 72))
        assert result.s_star == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("n_b", [1.0, 4.0])
    @pytest.mark.parametrize("cutoff", [30, 72])
    def test_classical_q_grid_is_symmetric(self, n_b, cutoff):
        # Q(s) = sum_jk p_j^s D_jk^2 p_k^(1-s), and the real rotation D has
        # D_jk^2 = D_kj^2 (D' = P D P, P = diag((-1)^k)): Q(s) = Q(1 - s) to rounding
        result = chernoff_exponent(build_classical_hypotheses(0.1, 0.1, n_b, cutoff))
        q_grid = result.diagnostics["q_grid"]
        np.testing.assert_allclose(q_grid, q_grid[::-1], rtol=result.diagnostics["dim"] * EPS,
                                   atol=0.0)

    def test_block_s_star_matches_dense_pair_at_72(self):
        pair = build_qi_hypotheses(0.1, 4.0, qi_channel(0.1, 72, 15, 72))
        dense = pair_from_states(dense_rho0(pair), dense_rho1(pair))
        blocked, single = chernoff_exponent(pair), chernoff_exponent(dense)
        assert blocked.s_star == pytest.approx(single.s_star, abs=1e-9)
        # the dense 1168 x 1168 eigh resolves the smallest eigenvalues less
        # finely than the 16 x 16 blocks: about 1e-10 relative in the exponent
        assert blocked.exponent == pytest.approx(single.exponent, rel=1e-9)

    def test_dense_pair_matches_matrix_powers(self):
        # rho0 is not diagonal in the basis it is given in: pair_from_states rotates
        # the pair into rho0's eigenbasis, which must leave Q(s) unchanged
        rng = np.random.default_rng(7)

        def random_state(dim):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            return DensityMatrix((dim,), m / np.trace(m))

        def power(rho, s):
            lam, vec = np.linalg.eigh(rho.matrix)
            return (vec * lam**s) @ vec.conj().T

        rho0, rho1 = random_state(6), random_state(6)
        assert np.max(np.abs(rho0.matrix - np.diag(np.diag(rho0.matrix)))) > 0.1
        result = chernoff_exponent(pair_from_states(rho0, rho1))
        for s, q in zip(result.diagnostics["s_grid"], result.diagnostics["q_grid"]):
            assert q == pytest.approx(np.trace(power(rho0, s) @ power(rho1, 1.0 - s)).real,
                                      rel=1e-12)
        want = np.trace(power(rho0, result.s_star) @ power(rho1, 1.0 - result.s_star)).real
        assert result.q_min == pytest.approx(want, rel=1e-12)

    def test_zero_eigenvalues_raise_no_warning(self):
        # Q(s) = 0.75^(1-s) on the support of |0><0|: smallest at the end s = 0
        zero = DensityMatrix.from_pure(np.array([1.0, 0.0]), (2,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = chernoff_exponent(pair_from_states(zero, thermal_density(0.5, 1)))
        assert result.q_min == pytest.approx(0.75, rel=1e-12)
        assert result.s_star == pytest.approx(0.0, abs=1e-9)

    def test_non_psd_rejected(self):
        bad = np.diag([1.4, -0.4]).astype(complex)
        rho = DensityMatrix.__new__(DensityMatrix)
        object.__setattr__(rho, "mode_dims", (2,))
        object.__setattr__(rho, "matrix", bad)
        good = thermal_density(0.5, 1)
        with pytest.raises(InvalidStateError):
            chernoff_exponent(pair_from_states(rho, good))
