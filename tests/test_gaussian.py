import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqisim import (
    DegenerateStateError,
    InvalidArgumentError,
    InvalidStateError,
    SqueezeParam,
    TwoModeGaussianState,
    quadrature_variance,
    slice_mass,
    tmsv_covariance,
    uncertainty_check,
    vacuum_state,
    wigner_density,
    wigner_grid,
)
from conftest import fock_second_moments, moment_cutoff, riemann_mass

WIGNER_PEAK = 0.0253302959106  # 1 / (4 pi^2)
MAX = sys.float_info.max


class TestSqueezeParam:
    def test_phase_normalized(self):
        assert SqueezeParam(1.0, 2 * math.pi + 0.25).phase == pytest.approx(0.25)
        assert SqueezeParam(1.0, -0.5).phase == pytest.approx(2 * math.pi - 0.5)

    def test_negative_kappa_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SqueezeParam(-0.1)

    def test_mean_photon(self):
        assert SqueezeParam(0.5).mean_photon == pytest.approx(0.271540317408, rel=1e-12)

    def test_kappa_beyond_cosh_overflow_rejected(self):
        # cosh(2 kappa) is finite up to acosh(float max) / 2 = 355.2379...
        assert math.isfinite(math.cosh(2.0 * 355.23))
        SqueezeParam(355.23)
        with pytest.raises(OverflowError, match="kappa = 355.24 is above 355.24"):
            SqueezeParam(355.24)


class TestTmsvCovariance:
    def test_vacuum_limit(self):
        state = tmsv_covariance(SqueezeParam(0.0))
        np.testing.assert_array_equal(state.cov, np.eye(4))

    def test_kappa_half_structure(self):
        # diagonals cosh(1); cross correlations of magnitude sinh(1) in
        # the (q_s, p_i) and (p_s, q_i) entries for the default phase
        cov = tmsv_covariance(SqueezeParam(0.5)).cov
        np.testing.assert_allclose(np.diag(cov), np.full(4, math.cosh(1.0)), rtol=1e-12)
        assert cov[0, 3] == pytest.approx(math.sinh(1.0), rel=1e-12)
        assert cov[1, 2] == pytest.approx(math.sinh(1.0), rel=1e-12)
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert abs(cov[a, b]) < 1e-15

    def test_phase_zero_orientation(self):
        cov = tmsv_covariance(SqueezeParam(0.5, 0.0)).cov
        assert cov[0, 2] == pytest.approx(math.sinh(1.0), rel=1e-12)
        assert cov[1, 3] == pytest.approx(-math.sinh(1.0), rel=1e-12)
        assert abs(cov[0, 3]) < 1e-12 and abs(cov[1, 2]) < 1e-12

    def test_squeezed_joint_quadrature(self):
        state = tmsv_covariance(SqueezeParam(0.5))
        coeffs = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
        assert quadrature_variance(state, coeffs) == pytest.approx(0.367879441171, rel=1e-10)

    def test_matches_fock_moments(self):
        for kappa in (0.3, 0.5, 1.0):
            cutoff = moment_cutoff(kappa)
            got = tmsv_covariance(SqueezeParam(kappa)).cov
            want = fock_second_moments(kappa, cutoff)
            np.testing.assert_allclose(got, want, atol=1e-8)


class TestQuadratureVariance:
    def test_vacuum_convention(self):
        assert quadrature_variance(vacuum_state(), [1.0, 0.0, 0.0, 0.0]) == 1.0

    def test_antisqueezed_single_quadrature(self):
        state = tmsv_covariance(SqueezeParam(1.5))
        assert quadrature_variance(state, [1, 0, 0, 0]) == pytest.approx(10.0676619958, rel=1e-10)

    def test_squeezed_combination(self):
        state = tmsv_covariance(SqueezeParam(1.5))
        coeffs = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
        assert quadrature_variance(state, coeffs) == pytest.approx(0.0497870683679, rel=1e-10)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(InvalidArgumentError):
            quadrature_variance(vacuum_state(), np.zeros(4))


class TestWignerDensity:
    def test_vacuum_peak(self):
        assert wigner_density(vacuum_state(), np.zeros(4)) == pytest.approx(WIGNER_PEAK, abs=1e-12)

    def test_pure_tmsv_peak(self):
        # det cov = 1 for any pure TMSV, so the origin value equals the vacuum peak
        state = tmsv_covariance(SqueezeParam(1.5))
        assert wigner_density(state, np.zeros(4)) == pytest.approx(WIGNER_PEAK, rel=1e-9)

    def test_isotropic_decay(self):
        val = wigner_density(vacuum_state(), [2.0, 0.0, 0.0, 0.0])
        assert val == pytest.approx(0.00342808277153, rel=1e-10)

    def test_degenerate_covariance_rejected(self):
        state = TwoModeGaussianState(np.zeros((4, 4)))
        with pytest.raises(DegenerateStateError):
            wigner_density(state, np.zeros(4))

    def test_determinant_beyond_the_double_range_gives_the_exact_mass(self):
        # the fixed marginal cosh(2 kappa) I passes the condition gate, but its det is beyond
        # the largest double: once an OverflowError, though 1 / (2 pi cosh 400) = 6.1e-175
        for kappa in (200.0, 300.0):
            mass = slice_mass(tmsv_covariance(SqueezeParam(kappa)), (0, 1))
            assert mass == pytest.approx(1 / (2 * math.pi * math.cosh(2 * kappa)), rel=1e-13)


class TestUncertaintyCheck:
    def test_vacuum_saturates(self):
        report = uncertainty_check(vacuum_state())
        assert report.passed
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_subvacuum_isotropic_fails(self):
        state = TwoModeGaussianState(0.5 * np.eye(4))
        report = uncertainty_check(state)
        assert not report.passed
        assert report.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_strong_squeezing_passes(self):
        assert uncertainty_check(tmsv_covariance(SqueezeParam(3.0))).passed


class TestWignerGrid:
    def test_vacuum_peak_at_center(self):
        grid = wigner_grid(vacuum_state(), plane=(0, 1), samples=81)
        assert grid.values.max() == pytest.approx(WIGNER_PEAK, rel=1e-12)
        assert grid.values[40, 40] == grid.values.max()

    def test_cross_plane_diagonal_axes(self):
        # In the (q_s, p_i) slice the conditional precision matrix has
        # eigenvectors along the +-45 degree diagonals with eigenvalues
        # e^{-2 kappa} and e^{+2 kappa} (axis ratio e^{2 kappa}).
        kappa = 0.5
        state = tmsv_covariance(SqueezeParam(kappa))
        precision = np.linalg.inv(state.cov)[np.ix_([0, 3], [0, 3])]
        eigvals, eigvecs = np.linalg.eigh(precision)
        assert eigvals[0] == pytest.approx(math.exp(-2 * kappa), rel=1e-12)
        assert eigvals[1] == pytest.approx(math.exp(2 * kappa), rel=1e-12)
        assert abs(eigvecs[:, 0] @ [1, 1]) / math.sqrt(2) == pytest.approx(1.0, abs=1e-12)

        grid = wigner_grid(state, plane=(0, 3), axis_range=(-4, 4), samples=81)
        center = grid.values[40, 40]
        x = float(grid.axis[60])
        along = -math.log(grid.values[60, 60] / center) / x**2
        across = -math.log(grid.values[60, 20] / center) / x**2
        assert along == pytest.approx(math.exp(-2 * kappa), rel=1e-9)
        assert across == pytest.approx(math.exp(2 * kappa), rel=1e-9)
        assert across / along == pytest.approx(math.exp(4 * kappa), rel=1e-9)

    @pytest.mark.parametrize("kappa,plane", [(0.0, (0, 1)), (0.5, (0, 3)), (1.5, (0, 3))])
    def test_slice_mass_matches_analytic(self, kappa, plane):
        state = tmsv_covariance(SqueezeParam(kappa))
        sigma = math.sqrt(max(state.cov[plane[0], plane[0]], state.cov[plane[1], plane[1]]))
        lim = 6.0 * sigma
        grid = wigner_grid(state, plane=plane, axis_range=(-lim, lim), samples=201)
        assert riemann_mass(grid) == pytest.approx(slice_mass(state, plane), rel=1e-3)

    def test_nonphysical_state_rejected(self):
        state = TwoModeGaussianState(0.25 * np.eye(4))
        with pytest.raises(InvalidStateError):
            wigner_grid(state)

    def test_arrays_are_read_only(self):
        grid = wigner_grid(vacuum_state(), samples=5)
        for name in ("axis", "values"):
            array = getattr(grid, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidArgumentError):
            wigner_grid(vacuum_state(), samples=1)

    def test_fractional_samples_rejected(self):
        # numpy's linspace raised TypeError on 2.5 points
        with pytest.raises(InvalidArgumentError, match="samples must be an integer"):
            wigner_grid(vacuum_state(), samples=2.5)

    def test_descending_axis_accepted(self):
        grid = wigner_grid(vacuum_state(), axis_range=(2.0, -2.0), samples=5)
        np.testing.assert_array_equal(grid.axis, [2.0, 1.0, 0.0, -1.0, -2.0])


@pytest.mark.parametrize("call, message", [
    (lambda: TwoModeGaussianState(np.eye(3)), "cov must have shape (4, 4)"),
    (lambda: TwoModeGaussianState(np.diag([1.0, 1.0, 1.0, math.inf])), "cov must be finite"),
    (lambda: TwoModeGaussianState(np.eye(4) + np.eye(4, k=1)), "cov must be symmetric"),
    # cov - cov.T overflowed with a RuntimeWarning before the inf asymmetry failed the check
    (lambda: TwoModeGaussianState([[1.0, MAX, 0.0, 0.0], [-MAX, 1.0, 0.0, 0.0],
                                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
     "cov must be symmetric within 1e-12, asymmetry inf"),
    (lambda: quadrature_variance(vacuum_state(), [1.0, 0.0, 0.0]), "coeffs must have shape (4,)"),
    (lambda: wigner_density(vacuum_state(), [0.0, 0.0, 0.0]), "point must be 4 finite numbers"),
    (lambda: wigner_density(vacuum_state(), [0.0, math.nan, 0.0, 0.0]),
     "point must be 4 finite numbers"),
    (lambda: wigner_grid(vacuum_state(), plane=(0, 0)), "plane must be two distinct indices"),
    (lambda: wigner_grid(vacuum_state(), plane=(0, 4)), "plane must be two distinct indices"),
    # a fractional index passed the range check and raised numpy's bare IndexError
    (lambda: wigner_grid(vacuum_state(), plane=(0.5, 1)), "plane must be two distinct indices"),
    # one sample count serves both axes
    (lambda: wigner_grid(vacuum_state(), samples=(3,)), "samples must be an integer >= 2"),
    # slice_mass raised a bare numpy broadcast ValueError on these two planes
    (lambda: slice_mass(vacuum_state(), (0, 0)), "plane must be two distinct indices"),
    (lambda: slice_mass(vacuum_state(), (0, 7)), "plane must be two distinct indices"),
    # and returned 0.0 for a NaN fixed value
    (lambda: slice_mass(vacuum_state(), (0, 1), (math.nan, 0)), "fixed_values must be finite"),
], ids=["cov_shape", "cov_inf", "cov_asymmetric", "cov_asymmetry_overflow", "coeffs_shape",
        "point_shape", "point_nan", "plane_repeated", "plane_out_of_range", "plane_fractional",
        "samples_pair", "slice_plane_repeated", "slice_plane_out_of_range", "slice_fixed_nan"])
def test_malformed_input_rejected(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert message in str(exc.value)


# a third value was ignored, and a single one raised a bare unpacking or broadcast ValueError
@pytest.mark.parametrize("call, name", [
    (lambda: wigner_grid(vacuum_state(), axis_range=(-4, 4, 9)), "axis_range"),
    (lambda: wigner_grid(vacuum_state(), fixed_values=(0, 0, 5)), "fixed_values"),
    (lambda: wigner_grid(vacuum_state(), plane=(0,)), "plane"),
    (lambda: wigner_grid(vacuum_state(), plane=(0, 1, 2)), "plane"),
    (lambda: slice_mass(vacuum_state(), (0, 1), (0, 0, 7)), "fixed_values"),
    (lambda: slice_mass(vacuum_state(), (0, 1, 2)), "plane"),
], ids=["axis_range", "fixed", "plane_short", "plane_long",
        "slice_fixed", "slice_plane"])
def test_pair_of_another_length_rejected(call, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be a pair, got "):
        call()


@settings(deadline=None, max_examples=80)
@given(kappa=st.floats(0.0, 3.0), phase=st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_tmsv_passes_physicality_invariants(kappa, phase):
    state = tmsv_covariance(SqueezeParam(kappa, phase))
    assert uncertainty_check(state).passed
    assert abs(np.linalg.det(state.cov) - 1.0) <= 1e-9


@settings(deadline=None, max_examples=80)
@given(kappa=st.floats(0.0, 3.0))
def test_joint_quadrature_variance_product(kappa):
    state = tmsv_covariance(SqueezeParam(kappa))
    minus = quadrature_variance(state, np.array([1, 0, 0, -1]) / math.sqrt(2))
    plus = quadrature_variance(state, np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert minus * plus == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, max_examples=80)
@given(
    kappa=st.floats(0.0, 2.0),
    noise=st.floats(0.0, 5.0),
    point=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
)
def test_wigner_nonnegative_for_physical_states(kappa, noise, point):
    base = tmsv_covariance(SqueezeParam(kappa))
    state = TwoModeGaussianState(base.cov + noise * np.eye(4))
    assert uncertainty_check(state).passed
    assert wigner_density(state, np.array(point)) >= 0.0


# largest kappa within the condition gate eps * cond(cov) <= 1e-8, cond = e^{4 kappa}
_KAPPA_GATE = 4.4
_ENDS = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).filter(lambda r: r[0] != r[1])


@settings(deadline=None, max_examples=200, derandomize=True, database=None)
@given(
    kappa=st.floats(0.0, _KAPPA_GATE),
    phase=st.floats(0.0, 2 * math.pi, exclude_max=True),
    plane=st.sampled_from(list(itertools.permutations(range(4), 2))),
    fixed=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    axis_range=_ENDS,
    samples=st.integers(2, 9),
)
def test_slice_form_matches_point_form(kappa, phase, plane, fixed, axis_range, samples):
    # the slice's 2-D quadratic form, summed over the axes, against the 4-D form
    # solved at every grid point; each rounds its terms, of size up to cond(cov)
    # times the form, so the two agree to a multiple of eps * cond(cov) * (1 + quad)
    # (the worst seen in 15,000 random slices was 88 of it)
    state = tmsv_covariance(SqueezeParam(kappa, phase))
    grid = wigner_grid(state, plane, axis_range, samples, fixed)
    points = np.empty((samples, samples, 4))
    points[..., plane[0]] = grid.axis[:, None]
    points[..., plane[1]] = grid.axis[None, :]
    points[..., [k for k in range(4) if k not in plane]] = fixed
    diff = points.reshape(-1, 4)
    quad = np.einsum("ni,ni->n", diff, np.linalg.solve(state.cov, diff.T).T)
    want = np.exp(-quad / 2) / (4 * math.pi**2 * math.sqrt(np.linalg.det(state.cov)))
    bound = 256 * np.finfo(float).eps * np.linalg.cond(state.cov) * (1.0 + quad)
    # a density below the normal range keeps fewer digits: a subnormal step is its floor
    slack = bound * want + 2 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(grid.values.ravel() - want) <= slack)
