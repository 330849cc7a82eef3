import math

import numpy as np
import pytest

from bathforge import (ExperimentRecord, FitError, NoiseSpec, Quadrature,
                       ValidationError, alpha_scaling, fit_decay,
                       fit_rate_exponent, predicted_t2, rabi, ramsey)
from bathforge.analysis import _initial_frequency, _jacobian, _model_eval, export_scan_csv

TWO_PI = 2.0 * math.pi


def synthetic_record(model="exponential", T=10e-3, freq=TWO_PI * 1000.0,
                     amp=0.5, phase=0.4, offset=0.5, n=100, t_max=25e-3,
                     noise=0.0, stderr=1e-3, seed=0):
    t = np.linspace(t_max / n, t_max, n)
    env = np.exp(-((t / T) ** 2)) if model == "gaussian" else np.exp(-t / T)
    y = amp * env * np.cos(freq * t + phase) + offset
    if noise:
        y = y + np.random.default_rng(seed).normal(0.0, noise, n)
    y = np.clip(y, 0.0, 1.0)
    return ExperimentRecord(kind="ramsey", sweep=t, mean=y,
                            stderr=np.full(n, stderr), n_realizations=1,
                            spec_hash="synthetic")


class TestFitDecay:
    def test_recovers_exponential_ground_truth(self):
        rec = synthetic_record()
        fit = fit_decay(rec, model="exponential")
        assert fit.t2 == pytest.approx(10e-3, rel=1e-3)
        assert fit.params["frequency"] == pytest.approx(TWO_PI * 1000.0, rel=1e-4)
        assert fit.r_squared > 0.999999

    def test_recovers_gaussian_ground_truth(self):
        rec = synthetic_record(model="gaussian", T=8e-3, t_max=20e-3)
        fit = fit_decay(rec, model="gaussian")
        assert fit.t2 == pytest.approx(8e-3, rel=1e-3)

    def test_constant_signal_rejected(self):
        t = np.linspace(1e-3, 10e-3, 20)
        rec = ExperimentRecord(kind="ramsey", sweep=t, mean=np.full(20, 0.5),
                               stderr=np.full(20, 1e-3), n_realizations=1,
                               spec_hash="x")
        with pytest.raises(FitError):
            fit_decay(rec)

    def test_too_few_points_rejected(self):
        rec = synthetic_record(n=5)
        with pytest.raises(FitError):
            fit_decay(rec)

    def test_degenerate_stderr_flagged(self):
        rec = synthetic_record()
        rec.stderr = np.zeros_like(rec.stderr)
        fit = fit_decay(rec)
        assert not fit.weighted

    def test_decreasing_sweep_rejected(self):
        rec = synthetic_record()
        rec.sweep, rec.mean, rec.stderr = rec.sweep[::-1], rec.mean[::-1], rec.stderr[::-1]
        with pytest.raises(ValidationError, match="sweep"):
            fit_decay(rec)

    def test_residuals_zero_mean(self):
        rec = synthetic_record(noise=0.005, stderr=0.005, seed=3)
        fit = fit_decay(rec)
        from bathforge.analysis import _model_eval
        p = np.array([fit.params[k] for k in
                      ("amplitude", "t_decay", "frequency", "phase", "offset")])
        resid = rec.mean - _model_eval(fit.model, rec.sweep, p)
        assert abs(resid.mean()) < 0.1 * float(np.median(rec.stderr))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            fit_decay(synthetic_record(), model="lorentzian")

    def test_unexpected_solver_error_propagates(self, monkeypatch):
        import bathforge.analysis

        def broken(*args, **kwargs):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(bathforge.analysis, "least_squares", broken)
        with pytest.raises(RuntimeError, match="solver bug"):
            fit_decay(synthetic_record())

    def test_solver_value_error_skips_start(self, monkeypatch):
        import bathforge.analysis

        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(bathforge.analysis, "least_squares", refuse)
        with pytest.raises(FitError, match="did not converge"):
            fit_decay(synthetic_record())

    @pytest.mark.parametrize("model", ["exponential", "gaussian"])
    @pytest.mark.parametrize("param", ["amplitude", "offset"])
    def test_out_of_range_fit_rejected(self, model, param):
        if param == "amplitude":
            # one bright point on a flat record: the fitted amplitude runs away
            rec = ExperimentRecord(kind="ramsey", sweep=np.linspace(1e-3, 20e-3, 20),
                                   mean=np.r_[1.0, np.full(19, 0.02)],
                                   stderr=np.full(20, 1e-3), n_realizations=1,
                                   spec_hash="x")
        else:
            rec = synthetic_record(model=model, T=8e-3, t_max=20e-3)
            rec.mean = rec.mean + 1.5
        with pytest.raises(FitError, match=param):
            fit_decay(rec, model=model)

    def test_two_starts_over_two_parameters(self, monkeypatch):
        import bathforge.analysis

        x0s = []
        orig = bathforge.analysis.least_squares

        def counting(fun, x0, *args, **kwargs):
            x0s.append(np.asarray(x0))
            return orig(fun, x0, *args, **kwargs)

        monkeypatch.setattr(bathforge.analysis, "least_squares", counting)
        fit_decay(synthetic_record())
        assert [x.shape for x in x0s] == [(5,), (5,)]

    @pytest.mark.parametrize("model", ["exponential", "gaussian"])
    def test_jacobian_matches_central_difference(self, model):
        from bathforge.analysis import _jacobian, _model_eval
        t = np.linspace(0.5e-3, 25e-3, 40)
        p = np.array([0.4, 9e-3, TWO_PI * 800.0, 0.7, 0.45])
        h = 1e-6 * np.abs(p)
        fd = np.column_stack([(_model_eval(model, t, p + dp) - _model_eval(model, t, p - dp))
                              / (2.0 * hk) for hk, dp in zip(h, np.diag(h))])
        assert np.allclose(_jacobian(model, t, p), fd, rtol=1e-6, atol=1e-9)

    def test_decay_time_within_its_error_rejected(self):
        # 8 noisy points over 1 s of a 1.59 s decay: without the check the fit
        # returns T = 2.9e11 s at R^2 = 0.961, with a standard error far above T
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 1.0, 8)
        y = np.clip(0.5 + 0.4 * np.exp(-t / 1.59) * np.cos(6.0 * t)
                    + rng.normal(0.0, 0.078, 8), 0.0, 1.0)
        rec = ExperimentRecord(kind="ramsey", sweep=t, mean=y, stderr=np.full(8, 0.078),
                               n_realizations=1, spec_hash="x")
        with pytest.raises(FitError, match="standard error"):
            fit_decay(rec)

    def test_param_errors_scale_with_noise(self):
        quiet = fit_decay(synthetic_record(noise=0.002, stderr=0.002, seed=1))
        loud = fit_decay(synthetic_record(noise=0.02, stderr=0.02, seed=1))
        assert loud.param_errors["t_decay"] > quiet.param_errors["t_decay"]


def criterion7_record(alpha):
    """Criterion 7's Gaussian-decay Rabi record: 72 durations x 500 realizations."""
    omega = TWO_PI * 1000.0
    spec = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=alpha, omega0=TWO_PI * 2.0,
                     teeth=10, p=0, seed=300)
    t_dec = 2.0 / (omega * alpha * math.sqrt(10.0))
    return rabi(spec, drive_rabi=omega, durations=np.linspace(t_dec / 36, 2.5 * t_dec, 72),
                n_realizations=500)


def t2_study_record(alpha):
    """One record shaped as alpha_scaling takes it: 36 taus over 2.5 predicted T2
    with 4 fringes, on the white 4 Hz, 750-tooth comb (200 realizations)."""
    spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=alpha, omega0=TWO_PI * 4.0,
                     teeth=750, p=0, seed=11)
    tau_max = 2.5 * predicted_t2(spec)
    return ramsey(spec, fringe_detuning=TWO_PI * 4.0 / tau_max, pulse_rabi=TWO_PI * 1e4,
                  taus=np.linspace(tau_max / 36, tau_max, 36), n_realizations=200)


@pytest.fixture(scope="module")
def oracle_records():
    records = [(criterion7_record(a), "gaussian") for a in (0.025, 0.045, 0.08)]
    return records + [(t2_study_record(2.4), "exponential")]


def fitted_params(fit):
    return np.array([fit.params[k] for k in
                     ("amplitude", "t_decay", "frequency", "phase", "offset")])


def test_frequency_seed_within_a_bin_of_the_fit(oracle_records):
    # rabi snaps its durations to whole steps, so the criterion-7 sweeps are not
    # uniform to rounding; the seed still lands within one bin, 2*pi/span
    for rec, model in oracle_records[:3]:
        seed = _initial_frequency(rec.sweep, rec.mean)
        fitted = fit_decay(rec, model=model).params["frequency"]
        assert abs(seed - fitted) <= TWO_PI / (rec.sweep[-1] - rec.sweep[0])


class TestSolverOracles:
    """fit_decay reaches the stationary point of its weighted residual, checked
    against MINPACK's Levenberg-Marquardt (scipy) and against rounding."""

    def test_minpack_polish_does_not_move_t(self, oracle_records):
        from scipy.optimize import least_squares as minpack
        for rec, model in oracle_records:
            fit = fit_decay(rec, model=model)
            t, y, sigma = rec.sweep, rec.mean, rec.stderr
            sol = minpack(lambda p: (_model_eval(model, t, p) - y) / sigma,
                          fitted_params(fit), method="lm",
                          jac=lambda p: _jacobian(model, t, p) / sigma[:, None],
                          ftol=1e-15, xtol=1e-15, gtol=1e-15)
            assert sol.x[1] == pytest.approx(fit.t2, rel=1e-12, abs=0)

    def test_rounding_of_the_means_does_not_move_t(self, oracle_records):
        signs = np.random.default_rng(5).choice([-1.0, 1.0], 72)
        for rec, model in oracle_records:
            nudged = ExperimentRecord(kind=rec.kind, sweep=rec.sweep,
                                      mean=rec.mean + 1e-16 * rec.mean * signs[:len(rec.mean)],
                                      stderr=rec.stderr, n_realizations=rec.n_realizations,
                                      spec_hash=rec.spec_hash)
            assert np.any(nudged.mean != rec.mean)
            assert fit_decay(nudged, model=model).t2 == pytest.approx(
                fit_decay(rec, model=model).t2, rel=1e-12, abs=0)


class TestRateExponent:
    def test_exact_power_law(self):
        alphas = np.array([1.0, 1.5, 2.2, 3.0])
        t2 = 0.05 / alphas**2
        exp, err = fit_rate_exponent(alphas, t2, 0.01 * t2)
        assert exp == pytest.approx(2.0, abs=1e-12)
        # error bar propagates the assumed 1% T2 uncertainties
        assert 0.0 < err < 0.05

    def test_all_equal_alphas_rejected(self):
        with pytest.raises(ValidationError):
            fit_rate_exponent(np.array([2.0, 2.0, 2.0]), np.ones(3), np.ones(3))

    @pytest.mark.parametrize("name, alphas, t2, t2_err", [
        ("t2", [1.0, 2.0, 3.0], [-1.0, 1.0, 0.5], [0.1, 0.1, 0.1]),
        ("t2", [1.0, 2.0, 3.0], [1.0, math.nan, 0.5], [0.1, 0.1, 0.1]),
        ("t2", [1.0, 2.0, 3.0], [1.0, math.inf, 0.5], [0.1, 0.1, 0.1]),
        ("alphas", [0.0, 2.0, 3.0], [1.0, 0.8, 0.5], [0.1, 0.1, 0.1]),
        ("alphas", [1.0, -2.0, 3.0], [1.0, 0.8, 0.5], [0.1, 0.1, 0.1]),
        ("alphas", [1.0, math.nan, 3.0], [1.0, 0.8, 0.5], [0.1, 0.1, 0.1]),
        ("t2_err", [1.0, 2.0, 3.0], [1.0, 0.8, 0.5], [0.1, math.nan, 0.1]),
        ("t2_err", [1.0, 2.0, 3.0], [1.0, 0.8, 0.5], [0.1, -0.1, 0.1]),
    ])
    def test_bad_inputs_rejected_by_name(self, name, alphas, t2, t2_err):
        with pytest.raises(ValidationError, match=rf"^{name} must"):
            fit_rate_exponent(alphas, t2, t2_err)

    def test_zero_errors_accepted(self):
        alphas = np.array([1.0, 1.5, 2.2, 3.0])
        exp, _ = fit_rate_exponent(alphas, 0.05 / alphas**2, np.zeros(4))
        assert exp == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariance(self):
        alphas = np.array([1.0, 1.4, 2.0, 2.9])
        t2 = 0.05 / alphas**1.7
        e1, _ = fit_rate_exponent(alphas, t2, 0.01 * t2)
        e2, _ = fit_rate_exponent(2.0 * alphas, t2 / 2.0**1.7, 0.01 * t2 / 2**1.7)
        assert e1 == pytest.approx(e2, rel=1e-9)
        assert e1 == pytest.approx(1.7, abs=1e-9)

    def test_order_invariance(self):
        alphas = np.array([1.0, 1.4, 2.0, 2.9])
        t2 = 0.05 / alphas**2
        perm = [2, 0, 3, 1]
        e1, _ = fit_rate_exponent(alphas, t2, 0.02 * t2)
        e2, _ = fit_rate_exponent(alphas[perm], t2[perm], 0.02 * t2[perm])
        assert e1 == pytest.approx(e2, rel=1e-12)


class TestCrossModule:
    def test_fitted_t2_matches_prediction(self):
        # Monte-Carlo Ramsey at the standard white comb, fitted exponential
        # decay time vs the analytic chi = 1 crossing
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=3.0,
                         omega0=TWO_PI * 4.0, teeth=750, p=0, seed=7)
        t2_pred = predicted_t2(spec)
        taus = np.linspace(0.08 * t2_pred, 2.5 * t2_pred, 30)
        rec = ramsey(spec, fringe_detuning=TWO_PI * 1.6 / t2_pred,
                     pulse_rabi=TWO_PI * 2e4, taus=taus, n_realizations=400)
        fit = fit_decay(rec, model="exponential")
        sigma = max(fit.param_errors["t_decay"], 0.02 * t2_pred)
        assert abs(fit.t2 - t2_pred) < 3 * sigma

    def test_alpha_scaling_small(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.0,
                         omega0=TWO_PI * 4.0, teeth=750, p=0, seed=13)
        result = alpha_scaling(spec, [2.5, 3.2, 4.0, 5.0], n_realizations=120,
                               n_tau=24)
        assert result.exponent == pytest.approx(2.0, abs=0.15)
        assert np.all(np.diff(result.t2) < 0)

    def test_scan_needs_spread(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.0,
                         omega0=TWO_PI * 4.0, teeth=10, p=0)
        with pytest.raises(ValidationError):
            alpha_scaling(spec, [1.0, 1.0, 1.0, 1.0], n_realizations=10)
        with pytest.raises(ValidationError):
            alpha_scaling(spec, [1.0, 2.0, 3.0], n_realizations=10)

    @pytest.mark.parametrize("last,n_tau,message", [
        (math.nan, 36, "got nan$"), (-4.0, 36, "got -4$"), (0.0, 36, "got 0$"),
        (1e-3, 36, "no predicted T2 at alpha=0.001"), (4.0, 4, "n_tau must be >= 8"),
    ], ids=["nan", "negative", "zero", "too_weak", "few_taus"])
    def test_rejected_before_any_simulation(self, monkeypatch, last, n_tau, message):
        # a bad last alpha must not wait for every earlier alpha to be simulated
        import bathforge.analysis
        calls = []
        monkeypatch.setattr(bathforge.analysis, "ramsey", lambda *a, **k: calls.append(a))
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.0,
                         omega0=TWO_PI * 4.0, teeth=10, p=0)
        with pytest.raises(ValidationError, match=message):
            alpha_scaling(spec, [1.8, 2.4, 3.2, last], n_realizations=10, n_tau=n_tau)
        assert calls == []

    def test_scan_csv(self, tmp_path):
        res_path = tmp_path / "scan.csv"
        from bathforge.analysis import AlphaScanResult
        res = AlphaScanResult(alphas=np.array([1.0, 2.0]), t2=np.array([4e-3, 1e-3]),
                              t2_err=np.array([1e-4, 2e-5]), exponent=2.0,
                              exponent_err=0.05)
        export_scan_csv(res, res_path)
        lines = res_path.read_text().splitlines()
        assert lines[0] == "alpha,t2,t2_err"
        assert lines[-1].startswith("# exponent = 2.0")
