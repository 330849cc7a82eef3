import math

import numpy as np
import pytest

from bathforge import (REFERENCE_CALIBRATION, CountCalibration, ThetaPosterior,
                       ValidationError, bayes_update, population_from_theta,
                       simple_normalize, simulate_counts, uniform_prior)

CAL = REFERENCE_CALIBRATION


class TestCalibration:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CountCalibration(bright_mean=1.0, dark_mean=2.0, bright_std=1, dark_std=1)
        with pytest.raises(ValidationError):
            CountCalibration(bright_mean=2.0, dark_mean=1.0, bright_std=0, dark_std=1)

    @pytest.mark.parametrize("field,value", [
        ("bright_std", math.nan), ("dark_std", math.inf), ("bright_mean", math.inf),
        ("bright_mean", math.nan), ("dark_mean", math.nan),
    ])
    def test_nonfinite_rejected(self, field, value):
        kwargs = dict(bright_mean=10.0, dark_mean=1.0, bright_std=3.0, dark_std=1.0)
        kwargs[field] = value
        with pytest.raises(ValidationError):
            CountCalibration(**kwargs)

    def test_interpolation_endpoints(self):
        assert CAL.mean_at(0.0) == CAL.dark_mean
        assert CAL.mean_at(math.pi) == CAL.bright_mean
        assert CAL.std_at(0.0) == CAL.dark_std
        assert CAL.std_at(math.pi) == CAL.bright_std


class TestSimulateCounts:
    def test_dark_and_bright_statistics(self):
        rng = np.random.default_rng(1)
        for theta, mean, std in ((0.0, CAL.dark_mean, CAL.dark_std),
                                 (math.pi, CAL.bright_mean, CAL.bright_std)):
            draws = np.array([simulate_counts(theta, CAL, rng) for _ in range(20_000)])
            assert abs(draws.mean() - mean) < 3 * std / math.sqrt(len(draws))
            assert draws.std(ddof=1) == pytest.approx(std, rel=0.05)

    def test_equator_mean(self):
        rng = np.random.default_rng(2)
        draws = np.array([simulate_counts(math.pi / 2, CAL, rng) for _ in range(100_000)])
        sigma = float(CAL.std_at(math.pi / 2))
        expect = 0.5 * (CAL.bright_mean + CAL.dark_mean)
        assert abs(draws.mean() - expect) < 3 * sigma / math.sqrt(len(draws))

    def test_theta_bounds(self):
        with pytest.raises(ValidationError):
            simulate_counts(-0.1, CAL, 0)


class TestBayesUpdate:
    def test_bright_count_pulls_posterior_bright(self):
        post = bayes_update(uniform_prior(), CAL.bright_mean, CAL)
        assert post.mean > 0.8 * math.pi

    def test_repeated_update_sharpens(self):
        first = bayes_update(uniform_prior(), 12.0, CAL)
        second = bayes_update(first, 12.0, CAL)
        assert second.std < first.std

    def test_normalized_after_updates(self):
        post = uniform_prior()
        rng = np.random.default_rng(3)
        for _ in range(20):
            post = bayes_update(post, simulate_counts(0.4 * math.pi, CAL, rng), CAL)
        assert np.trapezoid(post.density, post.theta) == pytest.approx(1.0, abs=1e-9)

    def test_grid_refinement(self):
        coarse = bayes_update(uniform_prior(2001), 10.0, CAL)
        fine = bayes_update(uniform_prior(20001), 10.0, CAL)
        assert abs(coarse.mean - fine.mean) < 1e-4

    def test_wild_count_returns_prior(self):
        prior = uniform_prior()
        with pytest.warns(UserWarning):
            post = bayes_update(prior, 1e6, CAL)
        assert post is prior

    def test_consistency_many_updates(self):
        # posterior mean converges to the true declination
        theta_true = 0.6 * math.pi
        rng = np.random.default_rng(11)
        post = uniform_prior()
        for _ in range(1000):
            post = bayes_update(post, simulate_counts(theta_true, CAL, rng), CAL)
        assert abs(post.mean - theta_true) < 0.02


class TestPopulationFromTheta:
    def _concentrated(self, center, width=0.002):
        theta = np.linspace(0.0, math.pi, 2001)
        dens = np.exp(-0.5 * ((theta - center) / width) ** 2)
        dens /= np.trapezoid(dens, theta)
        return ThetaPosterior(theta=theta, density=dens)

    def test_poles(self):
        p0, _ = population_from_theta(self._concentrated(0.0))
        p1, _ = population_from_theta(self._concentrated(math.pi))
        assert p0 < 1e-3 and p1 > 1 - 1e-3

    def test_uniform_gives_half(self):
        mean, std = population_from_theta(uniform_prior())
        assert mean == pytest.approx(0.5, abs=1e-9)
        # E[sin^4(x/2)] over [0, pi] is 3/8, so the std is sqrt(1/8)
        assert std == pytest.approx(math.sqrt(0.125), abs=1e-6)


class TestSimpleNormalize:
    def test_endpoints_and_midpoint(self):
        assert simple_normalize(CAL.dark_mean, CAL)[0] == 0.0
        assert simple_normalize(CAL.bright_mean, CAL)[0] == 1.0
        mid = 0.5 * (CAL.bright_mean + CAL.dark_mean)
        assert simple_normalize(mid, CAL)[0] == pytest.approx(0.5, rel=1e-12)

    def test_clamping_keeps_raw(self):
        clamped, raw = simple_normalize(CAL.dark_mean - 5.0, CAL)
        assert clamped == 0.0 and raw < 0.0


class TestEstimatorQuality:
    def test_single_shot_assignment_fidelity(self):
        # bright/dark discrimination from one count each: >= 98% fidelity
        rng = np.random.default_rng(21)
        n = 2000
        errors = 0
        for theta_true in (0.0, math.pi):
            for _ in range(n):
                c = simulate_counts(theta_true, CAL, rng)
                post = bayes_update(uniform_prior(501), c, CAL)
                p1, _ = population_from_theta(post)
                bright = p1 > 0.5
                errors += bright != (theta_true == math.pi)
        fidelity = 1.0 - errors / (2 * n)
        assert fidelity >= 0.98

    @pytest.mark.parametrize("theta_true", [0.05 * math.pi, 0.95 * math.pi])
    def test_bayes_beats_simple_near_poles(self, theta_true):
        rng = np.random.default_rng(17)
        p_true = math.sin(theta_true / 2.0) ** 2
        n_rep, n_trials = 25, 200
        se_bayes, se_simple = [], []
        for _ in range(n_trials):
            counts = [simulate_counts(theta_true, CAL, rng) for _ in range(n_rep)]
            post = uniform_prior(501)
            for c in counts:
                post = bayes_update(post, c, CAL)
            p_b, _ = population_from_theta(post)
            p_s, _ = simple_normalize(float(np.mean(counts)), CAL)
            se_bayes.append((p_b - p_true) ** 2)
            se_simple.append((p_s - p_true) ** 2)
        assert np.mean(se_bayes) <= np.mean(se_simple)
