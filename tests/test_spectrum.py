import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqisim import (
    InvalidArgumentError,
    SqueezeParam,
    SpectrumProfile,
    antisqueezing_magnitude_db,
    gain_db,
    kappa_profile,
    spectrum_sweep,
    squeezing_magnitude_db,
)


def profile(kappa_max=3.0, **kw):
    kw.setdefault("pump_freq", 12e9)
    kw.setdefault("band_width", 8e9)
    return SpectrumProfile(kappa_max=kappa_max, **kw)


class TestSpectrumProfile:
    def test_default_band_centers(self):
        assert profile().band_center == 6e9
        assert profile(mixing="4wm").band_center == 12e9

    def test_band_edges(self):
        assert profile().band_edges == (2e9, 10e9)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            profile(kappa_max=-1.0)
        with pytest.raises(InvalidArgumentError):
            profile(band_width=0.0)
        with pytest.raises(InvalidArgumentError):
            profile(mixing="5wm")
        with pytest.raises(InvalidArgumentError):
            profile(shape="gaussian")
        with pytest.raises(InvalidArgumentError, match="band"):
            profile(band_width=12e9)   # edges at 0 Hz and at the pump, 12e9 Hz
        with pytest.raises(InvalidArgumentError, match="band"):
            profile(band_width=30e9, mixing="4wm")   # edges -3e9 Hz and 27e9 Hz > 2 nu_p

    def test_four_wave_frequency_sum_overflow_is_named(self):
        # 2 nu_p overflowed to inf, and the band check then rejected a band [inf, inf]
        # that was never given
        with pytest.raises(OverflowError,
                           match=r"^nu_s \+ nu_i = 2 nu_p overflows at 2.0 \* 1e\+308$"):
            profile(kappa_max=1.0, pump_freq=1e308, band_width=1e300, mixing="4wm")
        # three-wave mixing sums to nu_p itself, which is finite
        assert profile(kappa_max=1.0, pump_freq=1e308, band_width=1e300).frequency_sum == 1e308


class TestPairRule:
    """A signal at nu and its idler at nu_sum - nu are one pair of the TMSV, so
    they share one kappa: the band is centred on the degenerate frequency."""

    def test_band_center_is_not_a_field(self):
        # an off-centre band gave the pair (4, 8) GHz kappa 0.5 and (8, 4) GHz kappa 0
        with pytest.raises(TypeError, match="band_center"):
            profile(band_center=4e9)

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(mixing=st.sampled_from(["3wm", "4wm"]),
           shape=st.sampled_from(["parabolic", "raised_cosine", "rectangular"]),
           kappa_max=st.floats(0.01, 5.0), pump=st.floats(1e9, 2e10),
           width=st.floats(0.01, 0.99), u=st.floats(-1.0, 1.0))
    def test_signal_and_idler_share_kappa(self, mixing, shape, kappa_max, pump, width, u):
        total = pump if mixing == "3wm" else 2.0 * pump
        p = profile(kappa_max, pump_freq=pump, band_width=width * total, mixing=mixing,
                    shape=shape)
        if shape == "rectangular":
            # kappa jumps at a rectangular edge, and within a rounding of it nu and
            # nu_sum - nu may fall on two sides (CHANGES.md, the FOUND line on the
            # rectangular band edge); keep nu 1e-9 band widths inside the band
            u = max(-1.0 + 2e-9, min(u, 1.0 - 2e-9))
        nu = p.band_center + u * p.band_width / 2.0
        signal, idler = kappa_profile(np.array([nu, p.frequency_sum - nu]), p)
        assert abs(signal - idler) <= 1e-12 * kappa_max

    def test_mirrored_rows_share_kappa(self):
        table = spectrum_sweep(profile(0.5, band_width=4e9), nu_range=(2e9, 10e9), steps=5)
        np.testing.assert_array_equal(table.nu_s, table.nu_i[::-1])
        np.testing.assert_array_equal(table.kappa, table.kappa[::-1])


class TestKappaProfile:
    def test_apex_and_edges(self):
        p = profile()
        assert kappa_profile(6e9, p) == 3.0
        assert kappa_profile(2e9, p) == 0.0
        assert kappa_profile(10e9, p) == 0.0
        assert kappa_profile(11e9, p) == 0.0

    def test_parabola_value(self):
        assert kappa_profile(4e9, profile()) == pytest.approx(2.25, rel=1e-12)

    def test_raised_cosine(self):
        p = profile(shape="raised_cosine")
        assert kappa_profile(6e9, p) == 3.0
        assert kappa_profile(2e9, p) == pytest.approx(0.0, abs=1e-12)
        assert kappa_profile(4e9, p) == pytest.approx(1.5, rel=1e-12)

    def test_rectangular(self):
        p = profile(shape="rectangular")
        assert kappa_profile(4e9, p) == 3.0
        assert kappa_profile(10.1e9, p) == 0.0

    def test_edge_continuity_of_smooth_shapes(self):
        for shape in ("parabolic", "raised_cosine"):
            p = profile(shape=shape)
            inside = kappa_profile(np.array([2e9 + 1e3, 10e9 - 1e3]), p)
            assert np.all(inside < 1e-5 * p.kappa_max)

    def test_vectorized(self):
        vals = kappa_profile(np.array([2e9, 6e9, 10e9]), profile())
        np.testing.assert_allclose(vals, [0.0, 3.0, 0.0])


class TestDecibelMaps:
    def test_zero_point(self):
        assert squeezing_magnitude_db(0.0) == 0.0
        assert gain_db(0.0) == 0.0

    def test_squeezing_values(self):
        assert squeezing_magnitude_db(0.5) == pytest.approx(-4.34294481903, rel=1e-10)
        assert squeezing_magnitude_db(1.5) == pytest.approx(-13.0288344571, rel=1e-10)
        assert squeezing_magnitude_db(3.0) == pytest.approx(-26.0576689142, rel=1e-10)

    def test_squeezing_near_reported_anchors(self):
        # device-model anchors: -4.5 / -13.2 / -26.5 dB, matched within 0.5 dB
        for kappa, anchor in ((0.5, -4.5), (1.5, -13.2), (3.0, -26.5)):
            assert abs(squeezing_magnitude_db(kappa) - anchor) <= 0.5

    def test_gain_values(self):
        assert gain_db(3.0) == pytest.approx(20.0585725288, rel=1e-10)
        assert gain_db(0.5) == pytest.approx(1.04330135137, rel=1e-10)
        assert gain_db(1.5) == pytest.approx(7.43025891739, rel=1e-10)

    @pytest.mark.parametrize("kappa", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_gain_keeps_its_digits_at_small_kappa(self, kappa):
        # 20 log10(cosh kappa) lost cosh kappa - 1 ~ kappa^2 / 2 to rounding: 6.9e-9
        # relative at kappa = 1e-4, and 0 dB for 4.3e-16 dB at kappa = 1e-8
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            k = decimal.Decimal(kappa)
            cosh = (k.exp() + (-k).exp()) / 2
            want = float(10 * (cosh * cosh).log10())
        assert gain_db(kappa) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert gain_db(np.array([kappa])).tolist() == [gain_db(kappa)]

    def test_gain_near_reported_anchors(self):
        assert abs(gain_db(3.0) - 20.0) <= 0.3
        assert abs(gain_db(0.5) - 1.1) <= 0.35
        assert abs(gain_db(1.5) - 7.2) <= 0.35

    @settings(deadline=None, max_examples=100)
    @given(kappa=st.floats(0.0, 10.0))
    def test_squeezed_antisqueezed_cancel_exactly(self, kappa):
        assert squeezing_magnitude_db(kappa) + antisqueezing_magnitude_db(kappa) == 0.0

    def test_squeezed_antisqueezed_cancel_exactly_on_arrays(self):
        kappa = np.linspace(0.0, 10.0, 101)
        squeezed, antisqueezed = squeezing_magnitude_db(kappa), antisqueezing_magnitude_db(kappa)
        assert antisqueezed.shape == kappa.shape
        assert np.all(squeezed + antisqueezed == 0.0)
        assert antisqueezing_magnitude_db([1.0, 2.0]).tolist() == [
            antisqueezing_magnitude_db(1.0), antisqueezing_magnitude_db(2.0)]

    def test_high_gain_asymptote(self):
        # cosh^2 k -> e^{2k}/4, so G(k) approaches 8.6859 k - 6.0206 dB
        diff = gain_db(3.0) - (antisqueezing_magnitude_db(3.0) - 10.0 * math.log10(4.0))
        assert abs(diff) < 0.1

    def test_gain_finite_beyond_cosh_overflow(self):
        # cosh overflows near kappa = 710; above kappa = 20 the gain is closed form
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gain_db(800.0) == pytest.approx(6942.69111, abs=1e-5)
            below, at = gain_db(np.array([np.nextafter(20.0, 0.0), 20.0]))
        assert at == pytest.approx(below, rel=1e-14)

    def test_gain_photon_number_identity(self):
        for kappa in (0.2, 1.0, 2.5):
            linear_gain = math.cosh(kappa) ** 2
            assert SqueezeParam(kappa).mean_photon == pytest.approx(linear_gain - 1.0, rel=1e-12)

    def test_negative_kappa_rejected(self):
        with pytest.raises(InvalidArgumentError):
            squeezing_magnitude_db(-0.1)
        with pytest.raises(InvalidArgumentError):
            gain_db(-0.1)

    @pytest.mark.parametrize("fn", [squeezing_magnitude_db, antisqueezing_magnitude_db, gain_db])
    @pytest.mark.parametrize("kappa", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
    def test_nan_kappa_rejected(self, fn, kappa):
        with pytest.raises(InvalidArgumentError):
            fn(kappa)

    @pytest.mark.parametrize("fn", [squeezing_magnitude_db, gain_db])
    def test_rejected_kappa_message_shows_the_whole_input(self, fn):
        with pytest.raises(InvalidArgumentError, match=r"^kappa must be >= 0, got \[0\.5, nan\]$"):
            fn([0.5, math.nan])
        with pytest.raises(InvalidArgumentError, match=r"^kappa must be >= 0, got \[ 1\. -2\.\]$"):
            fn(np.array([1.0, -2.0]))


class TestSpectrumSweep:
    def test_zero_kappa_gives_flat_table(self):
        table = spectrum_sweep(profile(kappa_max=0.0), steps=31)
        assert np.all(table.squeezing_db == 0.0)
        assert np.all(table.gain_db == 0.0)

    def test_minimum_at_band_center(self):
        table = spectrum_sweep(profile(), steps=161)
        k = int(np.argmin(table.squeezing_db))
        assert table.nu_s[k] == 6e9
        assert table.squeezing_db[k] == pytest.approx(-26.0576689142, rel=1e-10)

    def test_symmetry_about_center(self):
        table = spectrum_sweep(profile(), steps=81)
        np.testing.assert_allclose(table.squeezing_db, table.squeezing_db[::-1], atol=1e-9)

    def test_row_count(self):
        # a NamedTuple's len is its field count; the rows are a column's length
        assert len(spectrum_sweep(profile(), steps=2).nu_s) == 2

    def test_columns_are_read_only(self):
        table = spectrum_sweep(profile(), steps=5)
        for name in ("nu_s", "nu_i", "kappa", "squeezing_db", "gain_db"):
            column = getattr(table, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0

    def test_out_of_band_rows_are_zero(self):
        table = spectrum_sweep(profile(), nu_range=(0.5e9, 11.5e9), steps=23)
        outside = (table.nu_s < 2e9) | (table.nu_s > 10e9)
        assert np.any(outside)
        assert np.all(table.kappa[outside] == 0.0)
        assert np.all(table.squeezing_db[outside] == 0.0)

    def test_frequency_conservation_exact(self):
        # integer-hertz grids make the conservation identity exact in floats
        t3 = spectrum_sweep(profile(), steps=81)
        assert np.all(t3.nu_s + t3.nu_i == 12e9)
        t4 = spectrum_sweep(profile(mixing="4wm"), steps=81)
        assert np.all(t4.nu_s + t4.nu_i == 24e9)

    def test_bad_steps_rejected(self):
        with pytest.raises(InvalidArgumentError):
            spectrum_sweep(profile(), steps=1)

    def test_fractional_steps_rejected(self):
        # int(steps) truncated 2.5 to a 2-row table
        with pytest.raises(InvalidArgumentError, match="steps must be an integer"):
            spectrum_sweep(profile(), steps=2.5)

    # a range reaching 0 Hz or nu_s + nu_i (nu_p for 3wm, 2 nu_p for 4wm) gives a
    # signal or idler frequency at or below 0 Hz
    @pytest.mark.parametrize("mixing, nu_range", [
        ("3wm", (0.0, 11e9)), ("3wm", (-1e9, 13e9)), ("3wm", (1e9, 12e9)),
        ("4wm", (0.0, 23e9)), ("4wm", (8e9, 24e9)), ("4wm", (8e9, 30e9)),
    ])
    def test_range_must_keep_frequencies_positive(self, mixing, nu_range):
        with pytest.raises(InvalidArgumentError, match="sweep range"):
            spectrum_sweep(profile(kappa_max=1.0, mixing=mixing), nu_range=nu_range, steps=3)

    def test_four_wave_range_may_exceed_the_pump(self):
        table = spectrum_sweep(profile(mixing="4wm"), nu_range=(1e9, 23e9), steps=3)
        assert table.nu_i.tolist() == [23e9, 12e9, 1e9]
