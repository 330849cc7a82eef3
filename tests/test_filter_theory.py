import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathforge import (NoiseSpec, Quadrature, ValidationError, analytic_psd,
                       chi_fid_comb, chi_white_analytic, coherence_curve,
                       fidelity_from_chi, predicted_t2)

TWO_PI = 2.0 * math.pi


def deph(alpha, omega0_hz, teeth, p=0):
    return NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=alpha,
                     omega0=TWO_PI * omega0_hz, teeth=teeth, p=p)


PAPER_COMB = dict(omega0_hz=4.0, teeth=750)      # white comb, cutoff 3 kHz
DENSE_COMB = dict(omega0_hz=0.1, teeth=30_000)   # same cutoff, near-continuum


class TestChiFidComb:
    def test_zero_tau(self):
        assert chi_fid_comb(deph(1.0, **PAPER_COMB), 0.0) == 0.0

    def test_single_tooth(self):
        # one tooth of depth alpha: the accumulated Ramsey phase has variance
        # 2 alpha^2 sin^2(omega0 tau/2), and chi is half of that
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.7, omega0=2.0,
                         teeth=1, p=0)
        tau = 0.9
        assert chi_fid_comb(spec, tau) == pytest.approx(
            0.7**2 * math.sin(0.9)**2, rel=1e-14)

    def test_requires_dephasing(self):
        amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=1, omega0=1, teeth=2, p=0)
        with pytest.raises(ValidationError):
            chi_fid_comb(amp, 0.1)

    def test_takes_no_phase_draw(self):
        # chi is an ensemble statement: the API admits no PhaseDraw input
        params = inspect.signature(chi_fid_comb).parameters
        assert set(params) == {"spec", "tau"}

    def test_paper_comb_near_linear(self):
        # chi/tau drifts by the low-frequency deficit of the comb: about 18%
        # across [1, 50] ms and under 5% across [0.5, 8] ms
        spec = deph(1.0, **PAPER_COMB)
        taus = np.linspace(1e-3, 50e-3, 300)
        ratio = chi_fid_comb(spec, taus) / taus
        assert 1.0 - ratio.min() / ratio.max() < 0.20
        taus = np.linspace(0.5e-3, 8e-3, 300)
        ratio = chi_fid_comb(spec, taus) / taus
        assert 1.0 - ratio.min() / ratio.max() < 0.055

    def test_monotone_on_linear_window(self):
        spec = deph(1.0, **PAPER_COMB)
        chis = chi_fid_comb(spec, np.linspace(1e-4, 20e-3, 400))
        assert np.all(np.diff(chis) >= 0)

    def test_general_integral_consistency(self):
        # the FID filter integrated against the delta comb is the discrete
        # sum (2/pi) sum_j w_j sin^2(omega_j tau/2) / omega_j^2, term by term
        spec = deph(0.8, omega0_hz=3.0, teeth=40, p=-1)
        comb = analytic_psd(spec)
        for tau in (1e-3, 7e-3, 0.11):
            direct = (2.0 / math.pi) * math.fsum(
                w * math.sin(om * tau / 2.0) ** 2 / om**2
                for om, w in zip(comb.omega, comb.weights))
            assert chi_fid_comb(spec, tau) == pytest.approx(direct, rel=1e-14)

    def test_vectorized_filter_matches_scalar_calls(self):
        spec = deph(0.8, omega0_hz=3.0, teeth=40, p=-1)
        taus = np.array([[1e-3, 7e-3, 0.11], [0.0, 0.02, 0.5]])
        chis = chi_fid_comb(spec, taus)
        assert chis.shape == taus.shape
        for idx, tau in np.ndenumerate(taus):
            assert chis[idx] == pytest.approx(chi_fid_comb(spec, float(tau)),
                                              rel=1e-14, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.01, 10.0), omega0=st.floats(0.1, 1e3),
           teeth=st.integers(1, 3000), x=st.floats(0.0, math.pi))
    def test_white_comb_closed_form(self, alpha, omega0, teeth, x):
        # sum_j sin^2(j x)/j^2 = x (pi - x)/2 on 0 <= x = omega0 tau/2 <= pi, so
        # chi = alpha^2 (pi omega0 tau/4 - omega0^2 tau^2/8); the teeth beyond J
        # carry less than sum_{j>J} 1/j^2 < 1/J of it
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=alpha, omega0=omega0,
                         teeth=teeth, p=0)
        tau = 2.0 * x / omega0
        exact = alpha**2 * (math.pi * omega0 * tau / 4.0 - omega0**2 * tau**2 / 8.0)
        assert abs(chi_fid_comb(spec, tau) - exact) <= alpha**2 / teeth


class TestWhiteLimit:
    def test_zero_alpha(self):
        assert chi_white_analytic(0.0, 1.0) == 0.0

    def test_unity_crossing_defines_t2(self):
        alpha = 0.37
        assert chi_white_analytic(alpha, 2.0 / alpha**2) == pytest.approx(1.0, rel=1e-15)

    def test_dense_comb_converges_to_continuum(self):
        # a dense comb at omega0 = 2*pi*0.1 Hz carries an equivalent two-sided
        # continuum level of pi*alpha^2*omega0/2 ~ 0.987 alpha^2, so the same-
        # alpha comparison against alpha^2 tau/2 holds within 5% until the
        # low-frequency deficit omega0*tau/(2 pi) grows at long tau
        spec = deph(1.0, **DENSE_COMB)
        taus = np.linspace(5e-3, 300e-3, 60)
        rel = chi_fid_comb(spec, taus) / chi_white_analytic(1.0, taus) - 1.0
        assert np.max(np.abs(rel)) < 0.05


class TestQuadraticLimit:
    def test_matches_full_sum_in_window(self):
        # small-angle limit: sin^2(x) -> x^2 gives chi = C(0) tau^2 / 2 while
        # the highest tooth satisfies J*omega0*tau << 1
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.0, omega0=1.0,
                         teeth=10, p=0)
        tau = 0.1 / spec.omega_cutoff
        quadratic = 0.5 * np.sum(analytic_psd(spec).weights) / np.pi * tau**2
        assert chi_fid_comb(spec, tau) / quadratic == pytest.approx(1.0, abs=0.01)


class TestFidelity:
    def test_endpoints(self):
        assert fidelity_from_chi(0.0) == 1.0
        assert fidelity_from_chi(1e6) == pytest.approx(0.5, abs=1e-12)

    def test_unity_chi(self):
        assert fidelity_from_chi(1.0) == pytest.approx(0.5 * (1 + math.exp(-1)), rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            fidelity_from_chi(-0.1)

    @pytest.mark.parametrize("chi", [math.nan, [0.5, math.nan]])
    def test_rejects_nan(self, chi):
        with pytest.raises(ValidationError, match="chi"):
            fidelity_from_chi(chi)


class TestPredictedT2:
    def test_root_is_unity_crossing(self):
        spec = deph(2.0, **PAPER_COMB)
        t2 = predicted_t2(spec)
        assert abs(chi_fid_comb(spec, t2) - 1.0) < 1e-9

    def test_alpha_doubling_quarters_t2(self):
        # in the balanced linear window both cutoff corrections are ~1%
        t_lo = predicted_t2(deph(2.6, **PAPER_COMB))
        t_hi = predicted_t2(deph(5.2, **PAPER_COMB))
        assert t_lo / t_hi == pytest.approx(4.0, rel=0.02)

    def test_zero_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            predicted_t2(deph(0.0, omega0_hz=4.0, teeth=20))

    def test_dense_white_comb_matches_continuum_t2(self):
        # at omega0 = 2*pi*0.1 Hz the comb and continuum alphas coincide, so
        # T2 ~ 2/alpha^2 (3.7% high from the low-frequency deficit)
        spec = deph(3.0, **DENSE_COMB)
        assert predicted_t2(spec) == pytest.approx(2.0 / 9.0, rel=0.05)


def brent_t2(spec):
    """Reference T2: the same geometric bracket scan, polished by scipy's brentq."""
    from scipy.optimize import brentq
    f = lambda t: chi_fid_comb(spec, t) - 1.0
    lo, tau_max = 1e-9 * TWO_PI / spec.omega_cutoff, 1e4 * TWO_PI / spec.omega0
    if f(lo) >= 0:
        raise ValidationError("chi already exceeds 1 at the lower search bound")
    hi = lo
    while f(hi) < 0:
        if hi >= tau_max:
            raise ValidationError("chi(tau) does not reach 1 within the search window")
        lo, hi = hi, min(hi * 1.5, tau_max)
    return brentq(f, lo, hi, xtol=1e-18, rtol=8.9e-16, maxiter=200)


class TestPredictedT2AgainstBrent:
    @pytest.mark.parametrize("spec", [
        deph(2.0, **PAPER_COMB), deph(2.6, **PAPER_COMB), deph(5.2, **PAPER_COMB),
        deph(3.0, **DENSE_COMB),
        # the four noise strengths of the benchmark's Ramsey T2 study
        deph(1.8, **PAPER_COMB), deph(2.4, **PAPER_COMB), deph(3.2, **PAPER_COMB),
        deph(4.4, **PAPER_COMB),
        # few teeth and coloured combs, where chi oscillates
        deph(2.0, omega0_hz=50.0, teeth=1), deph(2.0, omega0_hz=50.0, teeth=10, p=-2),
        deph(20.0, omega0_hz=4.0, teeth=10, p=1),
    ], ids=lambda spec: f"a{spec.alpha:g}_J{spec.teeth}_p{spec.p:g}")
    def test_root_matches_brentq(self, spec):
        assert predicted_t2(spec) == pytest.approx(brent_t2(spec), rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", [deph(0.0, omega0_hz=4.0, teeth=20),
                                      deph(0.05, omega0_hz=50.0, teeth=1),
                                      deph(1e13, **PAPER_COMB)],
                             ids=["zero", "weak_single_tooth", "past_one_at_lower_bound"])
    def test_same_rejections_as_brentq(self, spec):
        with pytest.raises(ValidationError) as ours:
            predicted_t2(spec)
        with pytest.raises(ValidationError) as reference:
            brent_t2(spec)
        assert str(ours.value).split(";")[0] == str(reference.value)


class TestCoherenceCurve:
    def test_regimes(self):
        spec = deph(1.0, **PAPER_COMB)
        lin = coherence_curve(spec, np.linspace(1e-4, 8e-3, 50))
        assert lin.regime == "linear"
        quad = coherence_curve(spec, np.linspace(1e-6, 2e-5, 20))
        assert quad.regime == "quadratic"
        mixed = coherence_curve(spec, np.linspace(5e-3, 0.5, 80))
        assert mixed.regime == "mixed"
        assert np.all(lin.chi >= 0) and lin.chi[0] < lin.chi[-1]

    @pytest.mark.parametrize("tau", [[], [1e-3, np.nan], [1e-3, np.inf]],
                             ids=["empty", "nan", "inf"])
    def test_empty_or_nonfinite_tau_rejected(self, tau):
        with pytest.raises(ValidationError, match="tau"):
            coherence_curve(deph(1.0, **PAPER_COMB), tau)
