import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqisim import (
    InvalidArgumentError,
    SqueezeParam,
    TruncationError,
    build_classical_hypotheses,
    qi_channel,
    thermal_probabilities,
    tmsv_fock,
)
from mqisim.fock import _tridiagonal_expm
from conftest import (
    displacement_expm,
    trace_distance,
    truncated_beam_splitter_expm,
    truncated_squeeze_expm,
)
from reference import (
    DensityMatrix,
    amplitude_matrix,
    beam_splitter,
    beam_splitter_unitary,
    embed_operator,
    expectation,
    mode_ops,
    number_expectation,
    partial_trace,
    squeeze_vacuum_operator,
    thermal_density,
    unitarity_defect,
)


class TestModeOps:
    def test_annihilation_entries_exact(self):
        ops = mode_ops(5)
        for n in range(1, 6):
            assert ops.a[n - 1, n] == math.sqrt(n)
        assert np.count_nonzero(ops.a) == 5

    def test_commutator_deviation_confined_to_top(self):
        ops = mode_ops(7)
        comm = ops.a @ ops.adag - ops.adag @ ops.a
        np.testing.assert_allclose(comm[:7, :7], np.eye(7), atol=1e-14)
        assert comm[7, 7] == pytest.approx(-7.0)

    def test_quadrature_matrices(self):
        ops = mode_ops(4)
        np.testing.assert_allclose(ops.q, ops.q.conj().T)
        np.testing.assert_allclose(ops.p, ops.p.conj().T)


class TestTmsvFock:
    def test_vacuum_limit(self):
        state = tmsv_fock(SqueezeParam(0.0), 8)
        assert not state.coeffs.flags.writeable
        assert state.coeffs[0] == 1.0
        assert np.all(state.coeffs[1:] == 0.0)
        assert state.norm_deficit == pytest.approx(0.0, abs=1e-15)

    def test_kappa_half_coefficients(self):
        state = tmsv_fock(SqueezeParam(0.5), 10)
        assert abs(state.coeffs[0]) == pytest.approx(0.88681888397, rel=1e-10)
        assert abs(state.coeffs[1]) == pytest.approx(0.409814221665, rel=1e-10)
        assert np.angle(state.coeffs[1]) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_norm_deficit_closed_form(self):
        state = tmsv_fock(SqueezeParam(0.5), 10)
        assert state.norm_deficit == pytest.approx(4.21255949927e-08, rel=1e-6)

    def test_norm_deficit_keeps_its_digits(self):
        # 1 - sum |c_n|^2 was 1.6e-7 off here: it cancels to the tail's size
        state = tmsv_fock(SqueezeParam(0.5), 12)
        assert state.norm_deficit == pytest.approx(math.tanh(0.5) ** 26, rel=1e-12, abs=0.0)

    @settings(deadline=None, max_examples=60)
    @given(kappa=st.floats(0.0, 2.0), cutoff=st.integers(0, 60))
    def test_norm_deficit_is_geometric_tail(self, kappa, cutoff):
        state = tmsv_fock(SqueezeParam(kappa), cutoff)
        # the absolute floor covers subnormal tails
        assert state.norm_deficit == pytest.approx(
            math.tanh(kappa) ** (2 * (cutoff + 1)), rel=1e-12, abs=1e-300
        )

    def test_amplitude_matrix_is_diagonal(self):
        amp = amplitude_matrix(tmsv_fock(SqueezeParam(0.7), 6))
        off = amp - np.diag(np.diagonal(amp))
        assert np.all(off == 0.0)
        assert np.linalg.norm(amp) == pytest.approx(1.0, rel=1e-14)

    def test_amplitude_matrix_rejects_a_truncated_state(self):
        # tanh(1)^10 = 6.6e-2 of the mass lies beyond cutoff 4
        with pytest.raises(TruncationError, match="discards 6.565e-02"):
            amplitude_matrix(tmsv_fock(SqueezeParam(1.0), 4))


class TestSqueezeVacuumOperator:
    def test_vacuum_limit(self):
        amp = squeeze_vacuum_operator(SqueezeParam(0.0), 5)
        assert amp[0, 0] == 1.0
        assert np.sum(np.abs(amp)) == 1.0

    def test_matches_pair_expansion(self):
        amp = squeeze_vacuum_operator(SqueezeParam(0.5), 30)
        want = tmsv_fock(SqueezeParam(0.5), 30).coeffs
        assert np.max(np.abs(np.diagonal(amp) - want)) < 1e-10

    def test_matches_pair_expansion_other_phase(self):
        amp = squeeze_vacuum_operator(SqueezeParam(0.4, 1.1), 30)
        want = tmsv_fock(SqueezeParam(0.4, 1.1), 30).coeffs
        assert np.max(np.abs(np.diagonal(amp) - want)) < 1e-10

    def test_pair_creation_forces_diagonal(self):
        amp = squeeze_vacuum_operator(SqueezeParam(1.5), 75)
        off = amp - np.diag(np.diagonal(amp))
        assert np.max(np.abs(off)) < 1e-10
        # not renormalized: the exponential keeps the norm
        assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-14)

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(TruncationError, match=r"discards 5\.246e-06 .* tolerance 1e-06"):
            squeeze_vacuum_operator(SqueezeParam(1.5), 60)

    # kappa 0.9 at cutoff 24 discards 5.7e-8 of the pair law
    @pytest.mark.parametrize("kappa, phase", [(0.3, math.pi / 2), (0.5, 1.1), (0.9, 4.0)])
    def test_matches_full_space_exponential(self, kappa, phase):
        sq = SqueezeParam(kappa, phase)
        ref = truncated_squeeze_expm(sq, 24)
        # the truncated generator keeps the vacuum in the pair sector |n, n>
        assert np.max(np.abs(ref - np.diag(np.diagonal(ref)))) <= 1e-15
        assert np.max(np.abs(squeeze_vacuum_operator(sq, 24) - ref)) <= 1e-12


class TestMeanPhoton:
    def test_values(self):
        assert SqueezeParam(0.0).mean_photon == 0.0
        assert SqueezeParam(0.5).mean_photon == pytest.approx(0.271540317408, rel=1e-12)
        assert SqueezeParam(3.0).mean_photon == pytest.approx(100.357818061, rel=1e-10)

    def test_gain_consistency(self):
        # cosh^2(3) ~ 20.06 dB of phase-preserving gain
        gain_db = 10.0 * math.log10(1.0 + SqueezeParam(3.0).mean_photon)
        assert gain_db == pytest.approx(20.0585725288, abs=1e-8)

    def test_matches_number_sum(self):
        coeffs = tmsv_fock(SqueezeParam(0.5), 40).coeffs
        from_sum = float(np.sum(np.arange(41) * np.abs(coeffs) ** 2))
        assert from_sum == pytest.approx(SqueezeParam(0.5).mean_photon, abs=1e-12)


class TestThermalDensity:
    def test_vacuum(self):
        rho = thermal_density(0.0, 6)
        assert rho.matrix[0, 0] == 1.0
        assert np.trace(rho.matrix) == 1.0

    def test_geometric_probabilities(self):
        rho = thermal_density(1.0, 30)
        assert rho.matrix[0, 0].real == pytest.approx(0.5, abs=1e-9)
        assert rho.matrix[1, 1].real == pytest.approx(0.25, abs=1e-9)

    def test_trace_exactly_one(self):
        rho = thermal_density(2.5, 12)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)

    def test_discarded_mass(self):
        nbar, cutoff = 2.0, 10
        p, discarded = thermal_probabilities(nbar, cutoff)
        assert discarded == pytest.approx((nbar / (1.0 + nbar)) ** (cutoff + 1), rel=1e-12)
        raw = nbar ** np.arange(cutoff + 1) / (1.0 + nbar) ** np.arange(1, cutoff + 2)
        np.testing.assert_allclose(p, raw / (1.0 - discarded), rtol=1e-12)
        assert thermal_probabilities(0.0, cutoff)[1] == 0.0

    @pytest.mark.parametrize("nbar", [-1.0, math.nan], ids=["negative", "nan"])
    def test_bad_occupation_rejected(self, nbar):
        with pytest.raises(InvalidArgumentError, match="nbar must be finite and >= 0"):
            thermal_probabilities(nbar, 5)

    def test_mean_occupation(self):
        rho = thermal_density(1.5, 80)
        assert number_expectation(rho, 0) == pytest.approx(1.5, abs=1e-9)


def displacement(alpha: float, cutoff: int) -> np.ndarray:
    """The real displacement exp(alpha (a' - a)) that build_classical_hypotheses forms."""
    return _tridiagonal_expm(np.sqrt(np.arange(1.0, cutoff + 1)), alpha)


class TestDisplacement:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(displacement(0.0, 10), np.eye(11), atol=1e-15)

    def test_displaced_vacuum_mean_photon(self):
        d = displacement(0.3, 30)
        vec = d[:, 0]
        n_op = mode_ops(30).number
        assert expectation(n_op, vec).real == pytest.approx(0.09, abs=1e-8)

    def test_coherent_column(self):
        alpha, cutoff = 0.3, 30
        d = displacement(alpha, cutoff)
        n = np.arange(cutoff + 1)
        want = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(
            np.array([math.factorial(int(k)) for k in n], dtype=float)
        )
        assert np.max(np.abs(d[:, 0] - want)) < 1e-8

    def test_unitarity(self):
        assert unitarity_defect(displacement(0.45, 40)) < 1e-12

    def test_alpha_too_large_rejected(self):
        # alpha^2 = eta n_s = 9 > (8 + 1) / 4
        with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = 9 too large for cutoff 8"):
            build_classical_hypotheses(9.0, 1.0, 0.1, 8)

    def test_largest_alpha_rejected(self):
        # alpha = sqrt(eta n_s) at the largest double: its square stays finite
        with pytest.raises(TruncationError, match=r"\|alpha\|\^2 = 1.8e\+308 too large for cutoff 5"):
            build_classical_hypotheses(np.finfo(float).max, 1.0, 0.1, 5)

    # a complex alpha is the real displacement conjugated by R = diag(e^{i arg(alpha) n}),
    # which commutes with the diagonal rho0: the coherent pair's Q(s) needs only |alpha|
    @pytest.mark.parametrize("alpha", [0.3, -0.7, 1.2 + 0.5j, -2j, 0.4 - 1.1j])
    @pytest.mark.parametrize("cutoff", [20, 60])
    def test_matches_dense_exponential(self, alpha, cutoff):
        phase = np.exp(1j * np.angle(alpha) * np.arange(cutoff + 1))
        d = phase[:, None] * displacement(abs(alpha), cutoff) * phase.conj()
        assert np.max(np.abs(d - displacement_expm(alpha, cutoff))) <= 1e-12


class TestTridiagonalExpm:
    def test_identity_at_zero(self):
        off = np.sqrt(np.arange(1.0, 9))
        assert np.array_equal(_tridiagonal_expm(off, 0.0), np.eye(9))
        assert np.array_equal(_tridiagonal_expm(off, 0.0, 3), np.eye(9, 3))


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        rho = DensityMatrix((3, 3), np.kron(thermal_density(0.5, 2).matrix, np.diag([1, 0, 0.0])))
        out = beam_splitter(rho, 1.0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_zero_transmission_swaps_modes(self):
        th = thermal_density(0.8, 5).matrix
        vac = np.zeros((6, 6), dtype=complex)
        vac[0, 0] = 1.0
        rho = DensityMatrix((6, 6), np.kron(th, vac))
        out = beam_splitter(rho, 0.0)
        np.testing.assert_allclose(out.matrix, np.kron(vac, th), atol=1e-12)

    def test_unitary_properties(self):
        u = beam_splitter_unitary(12, 12, 0.3)
        assert unitarity_defect(u) < 1e-12

    def test_returned_mode_mean_photon(self):
        # reduced TMSV signal (thermal, 0.1 photons) mixed with thermal
        # noise at the occupancy that makes the returned background n_b
        eta, n_b = 0.1, 1.0
        sig = thermal_density(0.1, 24).matrix
        noise = thermal_density(n_b / (1.0 - eta), 40).matrix
        rho = DensityMatrix((25, 41), np.kron(sig, noise))
        out = beam_splitter(rho, eta)
        assert number_expectation(out, 0) == pytest.approx(eta * 0.1 + n_b, abs=2e-3)

    def test_trace_preserved(self):
        rho = DensityMatrix((8, 8), np.kron(thermal_density(0.4, 7).matrix,
                                            thermal_density(1.2, 7).matrix))
        out = beam_splitter(rho, 0.37)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-8)

    def test_vector_and_density_paths_agree(self):
        amp = amplitude_matrix(tmsv_fock(SqueezeParam(0.4), 7))
        vec_out = beam_splitter(amp.reshape(-1), 0.6, modes=(0, 1), mode_dims=(8, 8))
        dm_out = beam_splitter(DensityMatrix.from_pure(amp.reshape(-1), (8, 8)), 0.6)
        np.testing.assert_allclose(
            np.outer(vec_out, vec_out.conj()), dm_out.matrix, atol=1e-12
        )

    def test_three_mode_pure_state(self):
        # mix mode 0 with mode 2, leaving the idler (mode 1) untouched
        amp = amplitude_matrix(tmsv_fock(SqueezeParam(0.4), 5))
        psi = np.zeros((6, 6, 4), dtype=complex)
        psi[:, :, 2] = amp
        out = beam_splitter(psi, 0.5, modes=(0, 2), mode_dims=(6, 6, 4))
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
        assert number_expectation(out.reshape(-1), 1, mode_dims=(6, 6, 4)) == pytest.approx(
            number_expectation(psi.reshape(-1), 1, mode_dims=(6, 6, 4)), abs=1e-10
        )

    def test_invalid_transmissivity(self):
        with pytest.raises(InvalidArgumentError):
            beam_splitter_unitary(4, 4, 1.5)

    # dims (7, 5) and (5, 9): sectors of total photon number above either cutoff
    @pytest.mark.parametrize("dims", [(7, 5), (5, 9)])
    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.5, 1.0])
    def test_unitary_matches_dense_exponential(self, dims, eta):
        ref = truncated_beam_splitter_expm(*dims, eta)
        assert np.max(np.abs(beam_splitter_unitary(*dims, eta) - ref)) <= 1e-12

    @pytest.mark.parametrize("dims", [(7, 5), (5, 9)])
    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.5, 1.0])
    def test_sector_columns_match_dense_exponential(self, dims, eta):
        dim_a, dim_b = dims
        ref = truncated_beam_splitter_expm(dim_a, dim_b, eta).reshape(dim_a, dim_b, dim_a, dim_b)
        amp = qi_channel(eta, dim_a - 1, 2, dim_b - 1).amp
        assert amp.shape == (dim_a, 3, dim_b)
        s, i, m = np.indices(amp.shape)
        out_b = i + m - s
        inside = (out_b >= 0) & (out_b < dim_b)
        want = np.where(inside, ref[s, np.clip(out_b, 0, dim_b - 1), i, m], 0.0)
        assert np.max(np.abs(amp - want)) <= 1e-12


class TestPartialTrace:
    def test_product_state_exact(self):
        a = thermal_density(0.7, 6).matrix
        b = thermal_density(1.3, 5).matrix
        rho = DensityMatrix((7, 6), np.kron(a, b))
        np.testing.assert_allclose(partial_trace(rho, [0]).matrix, a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, [1]).matrix, b, atol=1e-14)

    def test_tmsv_reduces_to_thermal(self):
        for kappa in (0.5, 1.0):
            amp = amplitude_matrix(tmsv_fock(SqueezeParam(kappa), 40))
            rho = DensityMatrix.from_pure(amp.reshape(-1), (41, 41))
            reduced = partial_trace(rho, [0])
            want = thermal_density(math.sinh(kappa) ** 2, 40)
            probs_got = np.real(np.diagonal(reduced.matrix))
            probs_want = np.real(np.diagonal(want.matrix))
            assert 0.5 * np.sum(np.abs(probs_got - probs_want)) <= 1e-8
            assert trace_distance(reduced.matrix, want.matrix) <= 1e-8

    def test_trace_preserved(self):
        rho = DensityMatrix((4, 4, 3), np.kron(np.kron(thermal_density(0.3, 3).matrix,
                                                       thermal_density(0.6, 3).matrix),
                                               thermal_density(0.2, 2).matrix))
        out = partial_trace(rho, [0, 2])
        assert abs(np.trace(out.matrix) - np.trace(rho.matrix)) <= 1e-12
        assert out.mode_dims == (4, 3)

    def test_invalid_modes_rejected(self):
        rho = thermal_density(0.5, 4)
        with pytest.raises(InvalidArgumentError):
            partial_trace(rho, [2])


class TestExpectation:
    def test_number_on_vacuum(self):
        vac = np.zeros(9)
        vac[0] = 1.0
        assert expectation(mode_ops(8).number, vac) == 0.0

    def test_signal_quadrature_second_moment(self):
        amp = amplitude_matrix(tmsv_fock(SqueezeParam(0.5), 40))
        q_s = embed_operator(mode_ops(40).q, 0, (41, 41))
        got = expectation(q_s @ q_s, amp.reshape(-1))
        assert got.real == pytest.approx(1.54308063482, rel=1e-10)
        assert abs(got.imag) < 1e-12

    def test_identity_on_density_matrix(self):
        rho = thermal_density(1.0, 20)
        assert expectation(np.eye(21), rho).real == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            expectation(np.eye(3), thermal_density(0.5, 4))


class TestDensityMatrixInvariants:
    def test_non_hermitian_rejected(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[0, 1] = 0.5
        with pytest.raises(InvalidArgumentError):
            DensityMatrix((2,), m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DensityMatrix((2,), np.diag([0.7, 0.7]).astype(complex))

    def test_constructed_states_positive(self):
        for rho in (
            thermal_density(1.7, 25),
            beam_splitter(
                DensityMatrix((6, 6), np.kron(thermal_density(0.2, 5).matrix,
                                              thermal_density(0.9, 5).matrix)),
                0.4,
            ),
        ):
            assert rho.min_eigenvalue() >= -1e-9
