"""Acceptance suite: one test (or tightly grouped set) per shipping criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
Criteria 3a and 3b encode stated tolerances that the exact analytic curves
miss by construction (see the assertion messages, which carry the measured
values); they are kept faithful rather than loosened.
"""

import math
import sys

import numpy as np

from bathforge import (REFERENCE_CALIBRATION, NoiseSpec, Quadrature, TimeGrid,
                       analytic_psd, bayes_update, chi_fid_comb,
                       chi_white_analytic, estimate_psd,
                       fit_decay, fit_tooth_powerlaw, pm_sidebands,
                       population_from_theta, powerlaw_map_pm, predicted_t2,
                       rabi, ramsey, realize, simple_normalize, simulate_counts,
                       to_iq, tooth_weights, uniform_prior)
from bathforge.analysis import alpha_scaling
from bathforge.noise import (detuning_waveform_at, draw_phases,
                             phase_waveform_at)
from bathforge.qubit import HamiltonianSamples, ket0, propagate

TWO_PI = 2.0 * math.pi


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance [{criterion}]: {status}  {detail}", file=sys.stderr)
    assert ok, f"[{criterion}] {detail}"


def white_dephasing(alpha, omega0_hz=4.0, teeth=750, seed=100):
    return NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=alpha,
                     omega0=TWO_PI * omega0_hz, teeth=teeth, p=0, seed=seed)


class TestCriterion1T2Scaling:
    def test_rate_scales_as_alpha_squared(self):
        # white comb omega0 = 2*pi*4 Hz, J = 750; five strengths whose T2
        # all land in [2, 100] ms; 500 realizations each
        alphas = [1.8, 2.2, 2.8, 3.5, 4.4]
        base = white_dephasing(1.0)
        result = alpha_scaling(base, alphas, n_realizations=500, n_tau=36)
        in_window = np.all((result.t2 > 2e-3) & (result.t2 < 100e-3))
        ok = in_window and abs(result.exponent - 2.0) <= 0.1
        report("1: T2^-1 ~ alpha^2", ok,
               f"exponent = {result.exponent:.3f} +- {result.exponent_err:.3f}, "
               f"T2 range [{result.t2.min()*1e3:.2f}, {result.t2.max()*1e3:.2f}] ms")


class TestCriterion2McVsFilterFunction:
    def test_visibility_matches_exp_minus_chi(self):
        # three strengths, tau windows reaching chi = 1.5, 500 realizations:
        # pointwise agreement within 3 standard errors
        worst = 0.0
        ok = True
        for alpha in (2.0, 3.0, 5.0):
            spec = white_dephasing(alpha, seed=200)
            t2 = predicted_t2(spec)
            taus = np.linspace(0.1 * t2, 1.5 * t2, 16)
            rec = ramsey(spec, fringe_detuning=TWO_PI * 2.0 / t2,
                         pulse_rabi=TWO_PI * 2e4, taus=taus,
                         n_realizations=500, noise_during_pulses=False)
            target = np.exp(-chi_fid_comb(spec, taus))
            pulls = np.abs(rec.visibility - target) / rec.visibility_err
            worst = max(worst, float(np.max(pulls)))
            ok = ok and bool(np.all(pulls <= 3.0))
        report("2: MC vs filter function", ok, f"worst pull = {worst:.2f} sigma")


class TestCriterion3AppendixCWhiteLimit:
    def test_3a_dense_comb_matches_continuum(self):
        # dense comb omega0 = 2*pi*0.1 Hz, cutoff 3 kHz, same-alpha comparison
        # against alpha^2 tau / 2 over [5, 500] ms at 5%
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.0,
                         omega0=TWO_PI * 0.1, teeth=30_000, p=0)
        taus = np.linspace(5e-3, 500e-3, 100)
        rel = chi_fid_comb(spec, taus) / chi_white_analytic(1.0, taus) - 1.0
        worst = float(np.max(np.abs(rel)))
        crossing = taus[np.argmax(np.abs(rel) > 0.05)] if worst > 0.05 else None
        detail = f"max |rel dev| = {worst:.4f} over [5, 500] ms"
        if crossing is not None:
            detail += (f"; exceeds 5% beyond tau = {crossing*1e3:.0f} ms because the "
                       f"comb has no power below omega0 (deficit ~ omega0*tau/2pi)")
        report("3a: dense comb -> alpha^2 tau/2 within 5%", worst <= 0.05, detail)

    def test_3b_coarse_comb_linearity(self):
        # paper comb: linear fit R^2 over [1, 50] ms (OLS with intercept)
        spec = white_dephasing(1.0)
        taus = np.linspace(1e-3, 50e-3, 100)
        chis = chi_fid_comb(spec, taus)
        A = np.vstack([taus, np.ones_like(taus)]).T
        coef, *_ = np.linalg.lstsq(A, chis, rcond=None)
        resid = chis - A @ coef
        r2 = 1.0 - float(np.sum(resid**2) / np.sum((chis - chis.mean()) ** 2))
        report("3b: coarse comb linear R^2 > 0.999 on [1, 50] ms", r2 > 0.999,
               f"R^2 = {r2:.6f}; chi/tau drifts ~18% across this window "
               f"(low-frequency comb deficit), R^2 > 0.999 holds only for "
               f"tau <~ 10 ms")

    def test_3c_omega0_dependence(self):
        # larger omega0 departs from linearity earlier (fixed 3 kHz cutoff)
        r2s = []
        taus = np.linspace(1e-3, 50e-3, 100)
        for f0 in (4.0, 40.0, 400.0):
            teeth = int(round(3000.0 / f0))
            spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.0,
                             omega0=TWO_PI * f0, teeth=teeth, p=0)
            chis = chi_fid_comb(spec, taus)
            A = np.vstack([taus, np.ones_like(taus)]).T
            coef, *_ = np.linalg.lstsq(A, chis, rcond=None)
            resid = chis - A @ coef
            r2s.append(1.0 - float(np.sum(resid**2) /
                                   np.sum((chis - chis.mean()) ** 2)))
        ok = r2s[0] > r2s[1] > r2s[2]
        report("3c: larger omega0 departs from linearity earlier", ok,
               "R^2 at 2pi*{4,40,400} Hz = " + ", ".join(f"{r:.4f}" for r in r2s))


class TestCriterion4TableEnvelopes:
    def test_all_eight_entries(self):
        j = np.arange(1.0, 9.0)
        cases = [(Quadrature.DEPHASING, -2, j**-2.0),
                 (Quadrature.DEPHASING, -1, j**-1.5),
                 (Quadrature.DEPHASING, 0, j**-1.0),
                 (Quadrature.DEPHASING, 1, j**-0.5),
                 (Quadrature.AMPLITUDE, -2, j**-1.0),
                 (Quadrature.AMPLITUDE, -1, j**-0.5),
                 (Quadrature.AMPLITUDE, 0, j**0.0),
                 (Quadrature.AMPLITUDE, 1, j**0.5)]
        ok = True
        for quad, p, expect in cases:
            spec = NoiseSpec(quadrature=quad, alpha=1.0, omega0=1.0, teeth=8, p=p)
            ok = ok and np.array_equal(spec.envelope_table(), expect)
        report("4: Table of power-law envelopes", ok, "8/8 entries exact")


class TestCriterion5SpectralVerification:
    def test_tooth_powers_and_slopes(self):
        ok = True
        details = []
        for quad in (Quadrature.DEPHASING, Quadrature.AMPLITUDE):
            for p in (-2, 0):
                spec = NoiseSpec(quadrature=quad, alpha=0.02, omega0=2.0,
                                 teeth=40, p=p, seed=5)
                grid = TimeGrid.periods_of(spec.omega0, 4, 4 * spec.teeth + 1)
                reals = [realize(spec, grid, i) for i in range(200)]
                measured = tooth_weights(estimate_psd(reals), spec)
                expect = analytic_psd(spec).weights
                dev = float(np.max(np.abs(measured / expect - 1.0)))
                ok = ok and dev < 0.10
                details.append(f"{quad.value[:4]} p={p}: {100*dev:.2e}%")
                if quad is Quadrature.AMPLITUDE:
                    slope = fit_tooth_powerlaw(spec.tooth_frequencies(), measured)
                    ok = ok and abs(slope - p) < 0.1
        report("5: empirical PSD teeth within 10% + amplitude slope = p", ok,
               "; ".join(details))

    def test_pm_mapping_consistency(self):
        # PM sideband powers of the dephasing comb's phase teeth scale with
        # the mapped exponent p - 2
        p = 0
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.05,
                         omega0=2.0, teeth=40, p=p)
        depths = spec.alpha * spec.envelope_table()
        powers = np.array([pm_sidebands(1.0, d, w, n_max=1).amplitudes[-1] ** 2
                           for d, w in zip(depths, spec.tooth_frequencies())])
        slope = fit_tooth_powerlaw(spec.tooth_frequencies(), powers)
        target = powerlaw_map_pm(p, spec.quadrature)
        ok = abs(slope - target) < 0.1
        report("5: p <-> p-2 PM mapping", ok,
               f"fitted slope {slope:.3f} vs mapped {target}")


class TestCriterion6Sidebands:
    def test_am_fft(self):
        n, T = 4096, 1.0
        t = np.arange(n) * (T / n)
        a_mu, a_m = 1.0, 0.25
        s = (a_mu + a_m * np.sin(TWO_PI * 5 * t)) * np.sin(TWO_PI * 40 * t)
        amp = 2.0 * np.abs(np.fft.rfft(s)) / n
        dev = max(abs(amp[35] / (a_m / 2) - 1.0), abs(amp[45] / (a_m / 2) - 1.0))
        report("6: AM sidebands A_m/2 within 1%", dev < 0.01,
               f"max sideband deviation {100*dev:.3f}%")

    def test_pm_bessel_identities(self):
        ok = True
        for depth in (0.5, 1.0, 2.0):
            comb = pm_sidebands(1.0, depth, 3.0, n_max=50)
            ok = ok and abs(float(np.sum(comb.amplitudes**2)) - 1.0) < 1e-9
        for depth in (0.05, 0.1, 0.2):
            comb = pm_sidebands(1.0, depth, 3.0, n_max=1)
            first = comb.amplitudes[comb.offsets == 3.0][0]
            ok = ok and abs(first / (depth / 2.0) - 1.0) < depth**2 / 4.0
        report("6: PM Bessel comb power + first-order limit", ok,
               "sum J_n^2 = 1 at 1e-9; |J_1/(d/2)-1| < d^2/4")


class TestCriterion7RabiAmplitudeNoise:
    OMEGA = TWO_PI * 1000.0

    def amp_spec(self, alpha):
        # low cutoff keeps the noise quasi-static over a decay time, the
        # regime in which white amplitude noise gives a Gaussian envelope
        return NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=alpha,
                         omega0=TWO_PI * 2.0, teeth=10, p=0, seed=300)

    def expected_decay(self, alpha):
        # quasi-static limit: W(t) = exp(-(t/T)^2), T = 2/(Omega alpha sqrt(J))
        return 2.0 / (self.OMEGA * alpha * math.sqrt(10.0))

    def test_zero_alpha_exact(self):
        durations = np.linspace(0.0, 5e-3, 64)
        rec = rabi(self.amp_spec(0.0), drive_rabi=self.OMEGA,
                   durations=durations, n_realizations=1)
        err = np.max(np.abs(rec.mean - np.sin(0.5 * self.OMEGA * rec.sweep) ** 2))
        report("7: alpha = 0 gives exact sin^2(Omega t / 2)", err < 1e-12,
               f"max deviation {err:.2e}")

    def test_gaussian_decay_strictly_faster_with_alpha(self):
        fitted = []
        r2s = []
        for alpha in (0.025, 0.045, 0.08):
            spec = self.amp_spec(alpha)
            t_dec = self.expected_decay(alpha)
            durations = np.linspace(t_dec / 36, 2.5 * t_dec, 72)
            rec = rabi(spec, drive_rabi=self.OMEGA, durations=durations,
                       n_realizations=500)
            fit = fit_decay(rec, model="gaussian")
            fitted.append(fit.t2)
            r2s.append(fit.r_squared)
        ok = (all(r > 0.99 for r in r2s)
              and fitted[0] > fitted[1] > fitted[2])
        report("7: Gaussian envelopes, decay constants strictly decreasing", ok,
               f"T = {[f'{t*1e3:.2f}ms' for t in fitted]}, R^2 = "
               f"{[f'{r:.4f}' for r in r2s]}")

    def test_step_refinement(self):
        spec = self.amp_spec(0.045)
        durations = np.linspace(5e-4, 4e-3, 8)
        coarse = rabi(spec, drive_rabi=self.OMEGA, durations=durations,
                      n_realizations=50)
        fine = rabi(spec, drive_rabi=self.OMEGA, durations=coarse.sweep,
                    n_realizations=50, dt=coarse.meta["dt"] / 10.0)
        err = float(np.max(np.abs(coarse.mean - fine.mean)))
        report("7: dt refinement stable to 1e-6", err < 1e-6, f"max shift {err:.2e}")


class TestCriterion8Estimators:
    def test_single_shot_fidelity(self):
        rng = np.random.default_rng(77)
        cal = REFERENCE_CALIBRATION
        n = 2500
        errors = 0
        for theta in (0.0, math.pi):
            for _ in range(n):
                post = bayes_update(uniform_prior(501),
                                    simulate_counts(theta, cal, rng), cal)
                p1, _ = population_from_theta(post)
                errors += (p1 > 0.5) != (theta == math.pi)
        fidelity = 1.0 - errors / (2 * n)
        report("8: single-shot assignment fidelity >= 98%", fidelity >= 0.98,
               f"fidelity = {100*fidelity:.2f}%")

    def test_bayes_mse_near_poles(self):
        rng = np.random.default_rng(78)
        cal = REFERENCE_CALIBRATION
        ok = True
        details = []
        for theta in (0.05 * math.pi, 0.95 * math.pi):
            p_true = math.sin(theta / 2.0) ** 2
            mse_b, mse_s = 0.0, 0.0
            trials = 200
            for _ in range(trials):
                counts = [simulate_counts(theta, cal, rng) for _ in range(25)]
                post = uniform_prior(501)
                for c in counts:
                    post = bayes_update(post, c, cal)
                p_b, _ = population_from_theta(post)
                p_s, _ = simple_normalize(float(np.mean(counts)), cal)
                mse_b += (p_b - p_true) ** 2 / trials
                mse_s += (p_s - p_true) ** 2 / trials
            ok = ok and mse_b <= mse_s
            details.append(f"theta={theta/math.pi:.2f}pi: {mse_b:.2e} vs {mse_s:.2e}")
        report("8: Bayesian MSE <= simple normalization near poles", ok,
               "; ".join(details))

    def test_uniform_prior_population(self):
        mean, _ = population_from_theta(uniform_prior())
        report("8: uniform prior population = 1/2", abs(mean - 0.5) < 1e-9,
               f"deviation {abs(mean-0.5):.2e}")


class TestCriterion9StructuralInvariants:
    def test_unitarity_over_1e6_steps(self):
        rng = np.random.default_rng(9)
        m = 1_000_000
        samples = HamiltonianSamples(z_coeff=rng.uniform(-1.0, 1.0, m),
                                     rabi=rng.uniform(0.0, 2.0, m),
                                     phase=rng.uniform(0.0, TWO_PI, m))
        out = propagate(ket0(), samples, dt=0.02)
        drift = abs(float(np.linalg.norm(out)) - 1.0)
        report("9: unitarity drift < 1e-9 over 1e6 steps", drift < 1e-9,
               f"drift = {drift:.2e}")

    def test_realization_determinism(self):
        spec = white_dephasing(1.3, seed=55)
        grid = TimeGrid(1e-4, 512)
        a = realize(spec, grid, 7)
        b = realize(spec, grid, 7)
        ok = (a.beta.tobytes() == b.beta.tobytes()
              and a.phi_n.tobytes() == b.phi_n.tobytes())
        report("9: bit-identical realization reruns", ok, "")

    def test_derivative_consistency(self):
        spec = white_dephasing(2.0, teeth=100, seed=56)
        psi = draw_phases(spec, 0)
        t = np.linspace(0.0, 0.25, 400)
        h = 1e-6 * TWO_PI / spec.omega_cutoff
        fd = (phase_waveform_at(spec, psi, t + h)
              - phase_waveform_at(spec, psi, t - h)) / (2.0 * h)
        beta = detuning_waveform_at(spec, psi, t)
        rel = float(np.max(np.abs(fd - beta)) / np.max(np.abs(beta)))
        report("9: beta_z is the derivative of phi_N (1e-6 relative)",
               rel <= 1e-6, f"relative deviation {rel:.2e}")

    def test_iq_magnitude_identity(self):
        rng = np.random.default_rng(10)
        om = rng.uniform(0.0, 5.0, 4096)
        phi = rng.uniform(-20.0, 20.0, 4096)
        w = to_iq(om, phi, 1.0)
        rel = float(np.max(np.abs(w.i**2 + w.q**2 - om**2))
                    / max(np.max(om**2), 1.0))
        report("9: I^2 + Q^2 = Omega^2 at 1e-12", rel < 1e-12,
               f"relative deviation {rel:.2e}")
