import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from bathforge import (NoiseSpec, Quadrature, TimeGrid, ValidationError,
                       analytic_psd, estimate_psd, fit_tooth_powerlaw, pm_sidebands,
                       powerlaw_map_pm, realize, to_dbc, tooth_weights)

TWO_PI = 2.0 * math.pi


def make_spec(quadrature, p, alpha=0.5, omega0=2.0, teeth=12, seed=4):
    return NoiseSpec(quadrature=quadrature, alpha=alpha, omega0=omega0,
                     teeth=teeth, p=p, seed=seed)


def total_power(est, n):
    """Sum of density * bin width over the full two-sided set of bins.

    Interior bins count twice (mirror at negative frequency); DC and, for
    even record lengths ``n``, the unpaired Nyquist bin count once.
    """
    w = np.full(est.density.shape, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return float(np.sum(w * est.density) * est.rbw)


def ensemble(spec, n, periods=2, spp=None):
    spp = spp or (4 * spec.teeth + 1)
    grid = TimeGrid.periods_of(spec.omega0, periods, spp)
    return [realize(spec, grid, i) for i in range(n)]


class TestEstimatePsd:
    @pytest.mark.parametrize("periods,spp", [(2, 49), (1, 49)])
    def test_parseval_single_realization(self, periods, spp):
        # covers both even (98) and odd (49) record lengths
        spec = make_spec(Quadrature.DEPHASING, p=0)
        reals = ensemble(spec, 1, periods=periods, spp=spp)
        est = estimate_psd(reals)
        var = float(np.mean(reals[0].beta**2))
        assert total_power(est, reals[0].grid.n) == pytest.approx(var, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(quadrature=st.sampled_from(list(Quadrature)), p=st.floats(-2.0, 2.0),
           teeth=st.integers(1, 30), periods=st.integers(1, 3),
           extra=st.integers(-1, 20), seed=st.integers(0, 2**32 - 1))
    def test_total_power_is_sample_variance(self, quadrature, p, teeth, periods, extra,
                                            seed):
        # Parseval on whole base periods: the comb has zero mean there, so the
        # two-sided integrated density is the record's variance; extra = -1
        # puts the highest tooth on the Nyquist bin
        spec = NoiseSpec(quadrature=quadrature, alpha=0.1 / teeth**2, omega0=2.0,
                         teeth=teeth, p=p, seed=seed)
        grid = TimeGrid.periods_of(spec.omega0, periods, 2 * teeth + 1 + extra)
        real = realize(spec, grid, 0)
        assert total_power(estimate_psd([real]), grid.n) == pytest.approx(
            float(np.var(real.beta)), rel=1e-9)

    def test_positive_half_is_half_variance(self):
        spec = make_spec(Quadrature.AMPLITUDE, p=0, alpha=0.01)
        reals = ensemble(spec, 1)
        est = estimate_psd(reals)
        var = float(np.mean(reals[0].beta**2))
        positive = float(np.sum(est.density[1:]) * est.rbw)
        assert positive == pytest.approx(var / 2.0, rel=1e-9)

    def test_zero_alpha_estimate_is_zero(self):
        spec = make_spec(Quadrature.DEPHASING, p=0, alpha=0.0)
        est = estimate_psd(ensemble(spec, 3))
        assert np.max(est.density) < 1e-30

    def test_teeth_on_bins_and_weights(self):
        # rectangular window + integer periods: tooth powers are exact
        for quad, p in ((Quadrature.DEPHASING, 0), (Quadrature.DEPHASING, -2),
                        (Quadrature.AMPLITUDE, 0), (Quadrature.AMPLITUDE, -2)):
            spec = make_spec(quad, p=p, alpha=0.05)
            est = estimate_psd(ensemble(spec, 20))
            measured = tooth_weights(est, spec)
            expect = analytic_psd(spec).weights
            assert np.allclose(measured, expect, rtol=1e-9)

    def test_tooth_slope_matches_p(self):
        spec = make_spec(Quadrature.AMPLITUDE, p=-2, teeth=20, alpha=0.02)
        est = estimate_psd(ensemble(spec, 10))
        slope = fit_tooth_powerlaw(spec.tooth_frequencies(), tooth_weights(est, spec))
        assert slope == pytest.approx(-2.0, abs=0.02)

    def test_grid_mismatch_rejected(self):
        spec = make_spec(Quadrature.DEPHASING, p=0)
        g1 = TimeGrid.periods_of(spec.omega0, 2, 64)
        g2 = TimeGrid.periods_of(spec.omega0, 3, 64)
        with pytest.raises(ValidationError):
            estimate_psd([realize(spec, g1, 0), realize(spec, g2, 1)])

    def test_spec_mismatch_rejected(self):
        deph = make_spec(Quadrature.DEPHASING, p=0)
        amp = make_spec(Quadrature.AMPLITUDE, p=0, alpha=0.01)
        grid = TimeGrid.periods_of(deph.omega0, 2, 64)
        with pytest.raises(ValidationError, match="same spec"):
            estimate_psd([realize(deph, grid, 0), realize(amp, grid, 0)])

    def test_short_record_rejected(self):
        spec = make_spec(Quadrature.DEPHASING, p=0, omega0=1.0, teeth=4)
        short = TimeGrid(0.01, 32)  # 0.32 s << one period
        with pytest.raises(ValidationError):
            estimate_psd([realize(spec, short, 0)])

    def test_non_integer_periods_rejected(self):
        spec = make_spec(Quadrature.DEPHASING, p=0, omega0=1.0, teeth=4)
        grid = TimeGrid(TWO_PI / 64 * 1.5, 64)  # 1.5 base periods
        with pytest.raises(ValidationError):
            estimate_psd([realize(spec, grid, 0)])

    def test_mc_convergence_against_autocorrelation(self):
        # averaged total power approaches C(0) (it is exact per realization
        # up to cross terms that vanish with averaging)
        spec = make_spec(Quadrature.DEPHASING, p=-1, alpha=0.4, teeth=10)
        reals = ensemble(spec, 50)
        est = estimate_psd(reals)
        c0 = float(np.sum(0.5 * spec.tooth_amplitudes() ** 2))  # C(0) of the comb
        assert total_power(est, reals[0].grid.n) == pytest.approx(c0, rel=0.05)


class TestPmSidebands:
    def test_zero_depth_only_carrier(self):
        comb = pm_sidebands(1.0, 0.0, 5.0, n_max=4)
        nonzero = np.abs(comb.amplitudes) > 0
        assert np.count_nonzero(nonzero) == 1
        assert comb.offsets[nonzero][0] == 0.0
        assert comb.amplitudes[nonzero][0] == 1.0

    @pytest.mark.parametrize("depth", [0.3, 1.0, 2.0])
    def test_power_conservation(self, depth):
        comb = pm_sidebands(1.0, depth, 5.0, n_max=50)
        assert np.sum(comb.amplitudes**2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("depth", [0.05, 0.1, 0.2])
    def test_small_depth_first_order(self, depth):
        comb = pm_sidebands(2.0, depth, 5.0, n_max=1)
        upper = comb.amplitudes[comb.offsets == 5.0][0]
        assert abs(upper / (2.0 * depth / 2.0) - 1.0) < depth**2 / 4.0

    def test_magnitude_symmetry_exact(self):
        comb = pm_sidebands(1.0, 1.3, 2.0, n_max=12)
        for n in range(1, 13):
            up = comb.amplitudes[comb.offsets == n * 2.0][0]
            dn = comb.amplitudes[comb.offsets == -n * 2.0][0]
            assert abs(up) == abs(dn)

    def test_fft_oracle(self):
        # phase-modulated tone: measured comb matches A_mu * J_n(depth)
        n = 8192
        T = 1.0
        t = np.arange(n) * (T / n)
        f_mu, f_m, depth = 100.0, 4.0, 0.8
        s = np.sin(TWO_PI * f_mu * t + depth * np.sin(TWO_PI * f_m * t))
        amp = 2.0 * np.abs(np.fft.rfft(s)) / n
        comb = pm_sidebands(1.0, depth, TWO_PI * f_m, n_max=5)
        for k in range(-5, 6):
            assert amp[100 + 4 * k] == pytest.approx(
                abs(float(jv(k, depth))), abs=2e-3)

    def test_rejects_zero_order(self):
        with pytest.raises(ValidationError):
            pm_sidebands(1.0, 0.1, 1.0, n_max=0)


class TestPowerlawMapping:
    def test_dephasing_shifts_by_two(self):
        assert powerlaw_map_pm(0, Quadrature.DEPHASING) == -2.0
        assert powerlaw_map_pm(-2, Quadrature.DEPHASING) == -4.0

    def test_amplitude_identity(self):
        assert powerlaw_map_pm(-1, Quadrature.AMPLITUDE) == -1.0

    @pytest.mark.parametrize("p", [0, -1, -2])
    def test_pm_sideband_power_slope(self, p):
        # the first-order PM sideband powers of a dephasing comb's phase
        # teeth scale as j^(p-2): regression recovers the mapped exponent
        spec = make_spec(Quadrature.DEPHASING, p=p, alpha=0.05, teeth=40)
        depths = spec.alpha * spec.envelope_table()
        powers = np.array([
            pm_sidebands(1.0, d, w, n_max=1).amplitudes[-1] ** 2
            for d, w in zip(depths, spec.tooth_frequencies())])
        slope = fit_tooth_powerlaw(spec.tooth_frequencies(), powers)
        assert slope == pytest.approx(powerlaw_map_pm(p, spec.quadrature), abs=0.1)


class TestDbc:
    def test_reference_levels(self):
        assert to_dbc(1.0, 1.0) == 0.0
        assert to_dbc(1e-8, 1.0) == pytest.approx(-80.0, abs=1e-12)

    def test_round_trip(self):
        vals = np.array([1e-9, 2.5e-4, 0.1, 3.0])
        back = 2.0 * 10.0 ** (to_dbc(vals, 2.0) / 10.0)
        assert np.allclose(back, vals, rtol=1e-12)

    def test_floor_for_nonpositive(self):
        out = to_dbc(np.array([0.0, -1.0, 1.0, 1e-30]), 1.0)
        assert out[0] == -200.0 and out[1] == -200.0 and out[2] == 0.0
        # a density below the floor (a bin at the rounding floor) is floored too
        assert out[3] == -200.0

    def test_rejects_bad_carrier(self):
        with pytest.raises(ValidationError):
            to_dbc(1.0, 0.0)

    @pytest.mark.parametrize("carrier", [math.nan, math.inf, -2.0])
    def test_rejects_nonfinite_or_negative_carrier(self, carrier):
        with pytest.raises(ValidationError, match="carrier power"):
            to_dbc(np.array([1.0, 2.0]), carrier)
