import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bathforge import (AmplitudeRangeWarning, NoiseSpec, NyquistError, Quadrature,
                       TimeGrid, ValidationError, analytic_psd, draw_phases, realize)
from bathforge import noise
from bathforge.noise import (amplitude_waveform_at, detuning_waveform_at,
                             draw_phase_matrix, export_realization_csv,
                             phase_waveform_at, phasors)

TWO_PI = 2.0 * math.pi


def white_dephasing(alpha=0.5, omega0=1.0, teeth=8, seed=11):
    return NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=alpha,
                     omega0=omega0, teeth=teeth, p=0, seed=seed)


def white_amplitude(alpha=0.01, omega0=1.0, teeth=8, seed=11):
    return NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=alpha,
                     omega0=omega0, teeth=teeth, p=0, seed=seed)


def analytic_autocorrelation(spec, tau):
    """Exact autocorrelation C(tau) = sum_j (a_j^2 / 2) cos(omega_j tau) of the comb."""
    return float(np.sum(0.5 * spec.tooth_amplitudes() ** 2
                        * np.cos(spec.tooth_frequencies() * tau)))


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1, teeth=0, p=0)
        with pytest.raises(ValidationError):
            NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=0, teeth=1, p=0)
        with pytest.raises(ValidationError):
            NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=-1, omega0=1, teeth=1, p=0)
        with pytest.raises(ValidationError):
            NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1, teeth=1)
        with pytest.raises(ValidationError):
            NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1, teeth=1,
                      p=0, envelope=(1.0,))

    def test_nonfinite_envelope_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1, teeth=2,
                      envelope=(1.0, math.inf))

    @pytest.mark.parametrize("field,value", [
        ("alpha", math.nan), ("alpha", math.inf),
        ("omega0", math.nan), ("omega0", math.inf),
        ("p", math.nan), ("p", math.inf), ("p", -math.inf),
        ("teeth", 2.5), ("teeth", 3.0), ("teeth", True),
        ("seed", 1.5), ("seed", 2.0), ("seed", True),
    ])
    def test_nonfinite_or_fractional_rejected(self, field, value):
        kwargs = dict(quadrature=Quadrature.DEPHASING, alpha=1.0, omega0=1.0,
                      teeth=3, p=0.0)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=field):
            NoiseSpec(**kwargs)

    def test_numpy_integer_teeth_accepted(self):
        assert white_dephasing(teeth=np.int64(5)).teeth == 5

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            white_dephasing(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = white_dephasing(seed=np.uint64(2**64 - 1))
        assert draw_phases(spec, 0).shape == (spec.teeth,)

    def test_cutoff_derived(self):
        spec = white_dephasing(omega0=3.0, teeth=7)
        assert spec.omega_cutoff == 7 * 3.0

    def test_hash_distinguishes(self):
        a = white_dephasing(alpha=0.5)
        b = white_dephasing(alpha=0.25)
        assert a.spec_hash() != b.spec_hash()
        assert a.spec_hash() == white_dephasing(alpha=0.5).spec_hash()


class TestTimeGrid:
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_nonfinite_rejected(self, dt):
        with pytest.raises(ValidationError):
            TimeGrid(dt, 3)

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValidationError, match="integer"):
            TimeGrid(0.1, n)

    def test_numpy_integer_n_accepted(self):
        assert TimeGrid(0.1, np.int64(4)).times().shape == (4,)


class TestEnvelopeValues:
    # the eight well-known power laws: p -> F(j) per quadrature
    @pytest.mark.parametrize("p,exponent", [(-2, -2.0), (-1, -1.5), (0, -1.0), (1, -0.5)])
    def test_dephasing_table(self, p, exponent):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1,
                         teeth=6, p=p)
        j = np.arange(1, 7, dtype=float)
        assert np.array_equal(spec.envelope_table(), j**exponent)

    @pytest.mark.parametrize("p,exponent", [(-2, -1.0), (-1, -0.5), (0, 0.0), (1, 0.5)])
    def test_amplitude_table(self, p, exponent):
        spec = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=1, omega0=1,
                         teeth=6, p=p)
        j = np.arange(1, 7, dtype=float)
        assert np.array_equal(spec.envelope_table(), j**exponent)

    def test_white_dephasing_example(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1,
                         teeth=3, p=0)
        assert np.allclose(spec.envelope_table(), [1.0, 0.5, 1.0 / 3.0], rtol=0, atol=0)

    def test_one_over_f2_single_tooth(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1,
                         teeth=4, p=-2)
        assert spec.envelope_table()[3] == 4.0**-2

    def test_explicit_envelope_passed_through(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1,
                         teeth=2, envelope=(1.0, 0.5))
        assert np.array_equal(spec.envelope_table(), [1.0, 0.5])


class TestToothAmplitudes:
    # a_j = alpha*omega0*j*F(j) = alpha*omega0*j^(p/2) (dephasing), alpha*j^(p/2) (amplitude)
    @pytest.mark.parametrize("p", [-2.0, -1.0, 0.0, 1.0, 2.5])
    def test_power_law(self, p):
        j = np.arange(1, 10, dtype=float)
        deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.3, omega0=2.5,
                         teeth=9, p=p)
        amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.3, omega0=2.5,
                        teeth=9, p=p)
        assert deph.tooth_amplitudes() == pytest.approx(0.3 * 2.5 * j ** (p / 2), rel=1e-14)
        assert amp.tooth_amplitudes() == pytest.approx(0.3 * j ** (p / 2), rel=1e-14)

    def test_explicit_envelope(self):
        deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.5, omega0=2.0,
                         teeth=2, envelope=(1.0, -0.25))
        amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.5, omega0=2.0,
                        teeth=2, envelope=(1.0, -0.25))
        assert np.array_equal(deph.tooth_amplitudes(), [1.0, -0.5])
        assert np.array_equal(amp.tooth_amplitudes(), [0.5, -0.125])


class TestDrawPhases:
    def test_deterministic(self):
        spec = white_dephasing(seed=7)
        a = draw_phases(spec, 0)
        b = draw_phases(spec, 0)
        assert np.array_equal(a, b)

    def test_stream_separation(self):
        spec = white_dephasing(seed=7)
        assert not np.array_equal(draw_phases(spec, 0), draw_phases(spec, 1))

    def test_order_independent(self):
        spec = white_dephasing(seed=3)
        late = draw_phases(spec, 5)
        _ = draw_phases(spec, 2)
        assert np.array_equal(draw_phases(spec, 5), late)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           indices=st.lists(st.integers(0, 10**9), min_size=1, max_size=8, unique=True),
           data=st.data())
    def test_rows_independent_of_index_order(self, seed, indices, data):
        spec = white_dephasing(teeth=5, seed=seed)
        order = data.draw(st.permutations(indices))
        rows = dict(zip(order, draw_phase_matrix(spec, order)))
        for i, row in zip(indices, draw_phase_matrix(spec, indices)):
            assert np.array_equal(rows[i], row)

    def test_range_and_length(self):
        spec = white_dephasing(teeth=40)
        psi = draw_phases(spec, 0)
        assert psi.shape == (40,)
        assert np.all((psi >= 0) & (psi < TWO_PI))

    def test_uniform_moments(self):
        # mean of cos(psi) over 1e5 single-tooth draws: 0 within 3 sigma
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1, omega0=1,
                         teeth=1, p=0, seed=123)
        psis = draw_phase_matrix(spec, range(100_000))[:, 0]
        sigma = 1.0 / math.sqrt(2 * 100_000)
        assert abs(np.mean(np.cos(psis))) < 3 * sigma


def numpy_stream(seed, index, teeth):
    """numpy's own Generator draw for one row: the stream definition, bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    return rng.uniform(0.0, TWO_PI, teeth)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestPhaseStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_matches_numpy_generator(self, seed):
        spec = white_dephasing(teeth=13, seed=seed)
        indices = [0, 2**32 - 1, 2**32, 2**64 - 1]
        want = np.stack([numpy_stream(seed, i, spec.teeth) for i in indices])
        assert np.array_equal(bits(draw_phase_matrix(spec, indices)), bits(want))
        for i, row in zip(indices, want):
            assert np.array_equal(bits(draw_phases(spec, i)), bits(row))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           indices=st.lists(st.integers(0, 2**64 - 1), max_size=6),
           teeth=st.integers(1, 20))
    def test_matches_numpy_generator_property(self, seed, indices, teeth):
        spec = white_dephasing(teeth=teeth, seed=seed)
        got = draw_phase_matrix(spec, indices)
        assert got.shape == (len(indices), teeth)
        for i, row in zip(indices, got):
            assert np.array_equal(bits(row), bits(numpy_stream(seed, i, teeth)))

    def test_interleaved_seeds_keep_their_own_pool(self):
        # draws that alternate between two seeds (one past 32 bits) must not mix
        # their pools
        specs = [white_dephasing(teeth=9, seed=seed) for seed in (11, 2**40 + 3)]
        for i in (0, 7, 2**32 + 5):
            for spec in specs + specs[::-1]:
                want = numpy_stream(spec.seed, i, spec.teeth)
                assert np.array_equal(bits(draw_phases(spec, i)), bits(want))

    def test_one_seed_sequence_per_call(self, monkeypatch):
        # the seed's pool comes from one SeedSequence per call and every row's
        # state words are hashed out of it: no row builds a SeedSequence, and
        # nothing goes through default_rng
        spec = white_dephasing(teeth=16, seed=5)
        want = np.stack([numpy_stream(spec.seed, i, spec.teeth) for i in range(500)])
        built = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("default_rng was called")

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert np.array_equal(bits(draw_phase_matrix(spec, range(500))), bits(want))
        assert built == [(5,)]

    def test_block_peaks_at_its_output(self):
        # each row is written in place and the block scaled in place, so a
        # (500, 750) draw peaks within 10 % of its own 3.0 MB
        spec = white_dephasing(teeth=750, seed=3)
        draw_phase_matrix(spec, range(2))  # numpy.random's imports stay outside the trace
        tracemalloc.start()
        try:
            psi = draw_phase_matrix(spec, range(500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.nbytes == 3_000_000
        assert peak <= 1.1 * psi.nbytes

    def test_empty_block(self):
        assert draw_phase_matrix(white_dephasing(teeth=7), []).shape == (0, 7)

    @pytest.mark.parametrize("index", [1.7, 1.0, True, np.bool_(True), -1, 2**64, 2**70])
    def test_bad_index_rejected(self, index):
        spec = white_dephasing()
        with pytest.raises(ValidationError, match="realization_index"):
            draw_phase_matrix(spec, [0, index])
        with pytest.raises(ValidationError, match="realization_index"):
            draw_phases(spec, index)

    def test_plain_int_block_checked_without_per_index_calls(self, monkeypatch):
        spec = white_dephasing()
        calls = []
        inner = noise.require_int
        monkeypatch.setattr(noise, "require_int",
                            lambda *args: calls.append(args) or inner(*args))
        draw_phase_matrix(spec, range(500))
        assert calls == []
        with pytest.raises(ValidationError, match="realization_index"):
            draw_phase_matrix(spec, [0, 2**64])
        with pytest.raises(ValidationError, match="realization_index"):
            draw_phase_matrix(spec, [3, True])

    def test_numpy_integer_indices_accepted(self):
        spec = white_dephasing()
        rows = draw_phase_matrix(spec, np.arange(3, dtype=np.int64))
        assert np.array_equal(rows, draw_phase_matrix(spec, [0, 1, 2]))
        assert np.array_equal(draw_phases(spec, np.uint64(2)), rows[2])


class TestWaveforms:
    def test_zero_alpha_all_zero(self):
        grid = TimeGrid(0.01, 64)
        deph = realize(white_dephasing(alpha=0.0), grid, 0)
        assert np.all(deph.beta == 0.0) and np.all(deph.phi_n == 0.0)
        assert np.all(realize(white_amplitude(alpha=0.0), grid, 0).beta == 0.0)

    def test_single_tooth_phase_peak(self):
        # J=1, F(1)=1, psi=0: phi_N(pi/(2 omega0)) = alpha
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.3, omega0=2.0,
                         teeth=1, envelope=(1.0,))
        out = phase_waveform_at(spec, np.zeros(1), np.array([math.pi / 4.0]))
        assert out[0] == pytest.approx(0.3, rel=1e-15)

    def test_two_tooth_example(self):
        # white dephasing, psi = (0, 0), alpha = 0.1, omega0 = 1, t = 1
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.1, omega0=1.0,
                         teeth=2, p=0)
        out = phase_waveform_at(spec, np.zeros(2), np.array([1.0]))
        assert out[0] == pytest.approx(0.1 * (math.sin(1) + 0.5 * math.sin(2)), rel=1e-14)

    def test_detuning_at_zero(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.3, omega0=2.0,
                         teeth=1, envelope=(1.0,))
        out = detuning_waveform_at(spec, np.zeros(1), np.array([0.0]))
        assert out[0] == pytest.approx(0.3 * 2.0, rel=1e-15)

    def test_amplitude_at_zero(self):
        spec = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.02, omega0=2.0,
                         teeth=1, envelope=(0.7,))
        out = amplitude_waveform_at(spec, np.zeros(1), np.array([0.0]))
        assert out[0] == pytest.approx(0.02 * 0.7, rel=1e-15)

    def test_nyquist_rejected(self):
        spec = white_dephasing(omega0=1.0, teeth=10)  # cutoff 10 rad/s
        coarse = TimeGrid(1.0, 16)  # dt > pi/10
        with pytest.raises(NyquistError):
            realize(spec, coarse, 0)
        with pytest.raises(NyquistError):
            realize(white_amplitude(omega0=1.0, teeth=10), coarse, 0)

    def test_quadrature_mismatch(self):
        amp = white_amplitude()
        t = TimeGrid(0.01, 8).times()
        for build in (phase_waveform_at, detuning_waveform_at):
            with pytest.raises(ValidationError):
                build(amp, draw_phases(amp, 0), t)
        deph = white_dephasing()
        with pytest.raises(ValidationError):
            amplitude_waveform_at(deph, draw_phases(deph, 0), t)

    def test_derivative_consistency(self):
        # central difference of phi_N reproduces beta_z to 1e-6 relative
        spec = white_dephasing(alpha=0.8, omega0=2.0, teeth=12, seed=5)
        psi = draw_phases(spec, 0)
        t = np.linspace(0.0, TWO_PI / spec.omega0, 200)
        h = 1e-6 * TWO_PI / spec.omega_cutoff
        fd = (phase_waveform_at(spec, psi, t + h) -
              phase_waveform_at(spec, psi, t - h)) / (2 * h)
        beta = detuning_waveform_at(spec, psi, t)
        assert np.max(np.abs(fd - beta)) <= 1e-6 * np.max(np.abs(beta))

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.01, 10.0), omega0=st.floats(0.1, 1e3),
           teeth=st.integers(1, 40), p=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2**32 - 1), start=st.floats(0.0, 1.0))
    def test_beta_is_centred_difference_of_phi(self, alpha, omega0, teeth, p, seed, start):
        # on a grid of 1e-4 of the highest tooth's period the centred
        # difference errs by (omega_c dt)^2 / 6 ~ 7e-8 of that tooth's share
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=alpha, omega0=omega0,
                         teeth=teeth, p=p, seed=seed)
        psi = draw_phases(spec, 0)
        dt = 1e-4 * TWO_PI / spec.omega_cutoff
        t = start * TWO_PI / omega0 + TimeGrid(dt, 201).times()
        phi = phase_waveform_at(spec, psi, t)
        fd = (phi[2:] - phi[:-2]) / (2.0 * dt)
        beta = detuning_waveform_at(spec, psi, t[1:-1])
        scale = float(np.sum(np.abs(spec.tooth_amplitudes())))
        assert np.max(np.abs(fd - beta)) <= 1e-6 * scale

    def test_amplitude_overdrive_warning(self):
        spec = white_amplitude(alpha=0.2, teeth=8)  # alpha * sum|F| = 1.6
        grid = TimeGrid(0.01, 16)
        for sample in (lambda: realize(spec, grid, 0),
                       lambda: amplitude_waveform_at(spec, np.zeros(8), grid.times())):
            with pytest.warns(AmplitudeRangeWarning) as caught:
                sample()
            # one warning, attributed to the code that asked for the waveform
            assert [w.filename for w in caught] == [__file__]

    def test_amplitude_variance_over_period(self):
        # white amplitude comb: variance over one period is alpha^2 * J / 2
        spec = white_amplitude(alpha=0.001, omega0=3.0, teeth=100, seed=2)
        grid = TimeGrid.periods_of(spec.omega0, 1, 4 * spec.teeth + 1)
        beta = realize(spec, grid, 0).beta
        expect = spec.alpha**2 * spec.teeth / 2.0
        assert np.mean(beta**2) == pytest.approx(expect, rel=1e-9)


class TestAnalyticOracles:
    def test_white_dephasing_psd_weights(self):
        spec = white_dephasing(alpha=0.5, omega0=2.0, teeth=6)
        comb = analytic_psd(spec)
        expect = math.pi * 0.5**2 * 2.0**2 / 2.0
        assert np.allclose(comb.weights, expect, rtol=1e-15)
        assert np.array_equal(comb.omega, 2.0 * np.arange(1, 7))

    def test_white_amplitude_psd_weights(self):
        spec = white_amplitude(alpha=0.5, teeth=6)
        comb = analytic_psd(spec)
        assert np.allclose(comb.weights, math.pi * 0.5**2 / 2.0, rtol=1e-15)

    def test_zero_alpha_psd(self):
        comb = analytic_psd(white_dephasing(alpha=0.0))
        assert np.all(comb.weights == 0.0)

    def test_autocorrelation_at_zero(self):
        spec = white_dephasing(alpha=0.5, omega0=2.0, teeth=6)
        expect = 0.5**2 * 2.0**2 / 2.0 * 6  # (jF)^2 = 1 per tooth
        assert analytic_autocorrelation(spec, 0.0) == pytest.approx(expect, rel=1e-15)

    def test_autocorrelation_periodicity(self):
        spec = white_dephasing(alpha=0.5, omega0=2.0, teeth=6)
        c0 = analytic_autocorrelation(spec, 0.0)
        assert analytic_autocorrelation(spec, TWO_PI / 2.0) == pytest.approx(c0, rel=1e-12)

    def test_psd_weights_reproduce_variance(self):
        # delta-comb convention check: sum over both signs / (2 pi) gives C(0)
        for spec in (white_dephasing(alpha=0.7, omega0=3.0, teeth=9),
                     white_amplitude(alpha=0.02, omega0=3.0, teeth=9)):
            comb = analytic_psd(spec)
            assert np.sum(comb.weights) / np.pi == pytest.approx(
                analytic_autocorrelation(spec, 0.0), rel=1e-12)

    def test_autocorrelation_monte_carlo(self):
        # ensemble average of beta(t) beta(t+tau) over 1e4 draws, 3 sigma
        spec = white_dephasing(alpha=0.5, omega0=2.0, teeth=5, seed=99)
        psi = draw_phase_matrix(spec, range(10_000))
        t, tau = 0.37, 0.81
        vals = detuning_waveform_at(spec, psi, np.array([t, t + tau]))
        prods = vals[:, 0] * vals[:, 1]
        se = prods.std(ddof=1) / math.sqrt(len(prods))
        assert abs(prods.mean() - analytic_autocorrelation(spec, tau)) < 3 * se


def _draws(spec, rows):
    """One (J,) draw when ``rows`` is None, else an (rows, J) block."""
    if rows is None:
        return draw_phases(spec, 0)
    return draw_phase_matrix(spec, range(rows))


class TestPhasors:
    """``phasors`` against cos and sin in long double, on the phases a draw can
    take (the 53-bit lattice ``k * 2pi * 2**-53``) and on harmonic arguments
    ``j omega0 t`` up to 1e4 rad, each as hypothesis values plus a bulk block."""

    TOL = 1e-15  # each component, and |z| - 1

    def check(self, psi):
        z = phasors(psi)
        assert z.shape == psi.shape and z.dtype == complex
        ld = psi.astype(np.longdouble)
        assert float(np.max(np.abs(z.real - np.cos(ld)))) <= self.TOL
        assert float(np.max(np.abs(z.imag - np.sin(ld)))) <= self.TOL
        modulus = np.hypot(z.real.astype(np.longdouble), z.imag.astype(np.longdouble))
        assert float(np.max(np.abs(modulus - 1))) <= self.TOL

    @settings(max_examples=150, deadline=None)
    @given(k=st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=64),
           seed=st.integers(0, 2**32 - 1))
    def test_draw_lattice_against_long_double(self, k, seed):
        unit = TWO_PI * 2.0**-53
        self.check(np.array(k, dtype=float) * unit)
        bulk = np.random.default_rng(seed).integers(0, 2**53, (8, 512))
        self.check(bulk.astype(float) * unit)

    @settings(max_examples=150, deadline=None)
    @given(args=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=64),
           seed=st.integers(0, 2**32 - 1))
    def test_harmonic_arguments_against_long_double(self, args, seed):
        self.check(np.array(args))
        self.check(np.random.default_rng(seed).uniform(-1e4, 1e4, (8, 512)))

    @pytest.mark.parametrize("rows", [None, 5])
    def test_phasors_are_cos_and_sin(self, rows):
        self.check(_draws(white_dephasing(teeth=40, seed=9), rows))

    def test_zero_is_exactly_one(self):
        assert phasors(np.zeros((2, 3))).tolist() == [[1.0 + 0.0j] * 3] * 2
        assert phasors(0.0) == 1.0

    @pytest.mark.parametrize("rows", [None, 5])
    def test_evaluators_bit_identical_on_phasors(self, rows):
        t = np.linspace(0.0, 3.0, 37)
        cases = ((white_dephasing(teeth=40, seed=9), (phase_waveform_at, detuning_waveform_at)),
                 (white_amplitude(teeth=40, seed=9), (amplitude_waveform_at,)))
        for spec, evaluators in cases:
            psi = _draws(spec, rows)
            z = phasors(psi)
            for evaluate in evaluators:
                assert np.array_equal(evaluate(spec, psi, t), evaluate(spec, z, t))


def _longdouble_comb(omega0, amps, psi, times, trig):
    """Direct sum of ``amps[j] * trig(j*omega0*t + psi[..., j])`` in long double."""
    t = times.astype(np.longdouble)
    psi = np.asarray(psi, dtype=np.longdouble)
    out = np.zeros(psi.shape[:-1] + t.shape, dtype=np.longdouble)
    for j, a in enumerate(amps.astype(np.longdouble), start=1):
        phase = (j * np.longdouble(omega0)) * t + psi[..., j - 1, None]
        out += a * trig(phase)
    return out


class TestCombAgainstLongDouble:
    """The three evaluators against an independent long-double direct sum.

    J crosses the doubling boundaries of the harmonic table and m the block
    boundary of the time side; the times are non-uniform within four base
    periods.
    """

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 1023, 1024, 1025, 3001])
    @pytest.mark.parametrize("teeth", [1, 2, 3, 4, 5, 8, 9, 750])
    def test_within_1e12_of_amplitude_sum(self, teeth, m):
        omega0 = TWO_PI * 50.0
        times = np.random.default_rng(teeth * 10_000 + m).uniform(
            0.0, 8.0 * math.pi / omega0, m)
        deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.3, omega0=omega0,
                         teeth=teeth, p=-1.0, seed=teeth)
        amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.5 / teeth,
                        omega0=omega0, teeth=teeth, p=-1.0, seed=teeth)
        cases = ((phase_waveform_at, deph, deph.alpha * deph.envelope_table(), np.sin),
                 (detuning_waveform_at, deph, deph.tooth_amplitudes(), np.cos),
                 (amplitude_waveform_at, amp, amp.tooth_amplitudes(), np.cos))
        for evaluate, spec, amps, trig in cases:
            tol = 1e-12 * float(np.sum(np.abs(amps)))
            # the single draw is row 0 of the batch, so one reference serves both
            ref = _longdouble_comb(omega0, amps, _draws(spec, 2), times, trig)
            for rows, expect in ((None, ref[0]), (2, ref)):
                out = evaluate(spec, _draws(spec, rows), times)
                assert out.shape == expect.shape
                assert float(np.max(np.abs(out - expect))) <= tol, (evaluate.__name__, rows)

    def test_phasor_blocks_past_one_time_block(self):
        # a (3, J) phasor block, as ramsey passes it, at times spanning three tables
        omega0, teeth = TWO_PI * 50.0, 40
        m = 2 * noise._TIME_BLOCK + 3
        times = np.random.default_rng(m).uniform(0.0, 8.0 * math.pi / omega0, m)
        deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.3, omega0=omega0,
                         teeth=teeth, p=-1.0, seed=4)
        amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.5 / teeth,
                        omega0=omega0, teeth=teeth, p=-1.0, seed=4)
        cases = ((phase_waveform_at, deph, deph.alpha * deph.envelope_table(), np.sin),
                 (detuning_waveform_at, deph, deph.tooth_amplitudes(), np.cos),
                 (amplitude_waveform_at, amp, amp.tooth_amplitudes(), np.cos))
        for evaluate, spec, amps, trig in cases:
            psi = _draws(spec, 3)
            out = evaluate(spec, phasors(psi), times)
            ref = _longdouble_comb(omega0, amps, psi, times, trig)
            assert out.shape == (3, m)
            assert float(np.max(np.abs(out - ref))) <= 1e-12 * float(np.sum(np.abs(amps)))


class TestEvaluatorMemory:
    """An evaluator on a (500, 750) phasor block scales its (m, 750) tables by
    the amplitudes and forms no (500, 750) coefficient block (6 MB)."""

    @pytest.mark.parametrize("evaluate, m, limit", [(phase_waveform_at, 2, 1e6),
                                                    (detuning_waveform_at, 84, 4e6)])
    def test_peak_below_one_block(self, evaluate, m, limit):
        spec = white_dephasing(omega0=TWO_PI * 50.0, teeth=750, seed=3)
        z = phasors(draw_phase_matrix(spec, range(500)))
        times = np.linspace(0.0, 1e-3, m)
        tracemalloc.start()
        try:
            out = evaluate(spec, z, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (500, m)
        assert peak < limit


class TestRealizeAgainstLongDouble:
    """``realize`` against the long-double direct sum at the grid's exact times.

    n crosses the time block of the shifted evaluation and reaches the CLI's
    record lengths.  Three spacings are commensurate and sampled by inverse FFT:
    the CLI's record spacing (whole base periods at 4J + 1 samples per period),
    its export spacing 1/rate, with the rate at 20 times the top tooth, and
    that rate's spacing 1e-10 longer, which drifts far enough to take the
    first-order term.  Two are not and keep the block shift: a rate of
    60,001 Hz, and sqrt(2)/1000 of a base period.
    """

    F0 = 30.0
    OMEGA0 = TWO_PI * F0

    def check(self, grid, teeth):
        times = np.longdouble(grid.dt) * np.arange(grid.n)
        deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.3, omega0=self.OMEGA0,
                         teeth=teeth, p=-1.0, seed=grid.n)
        amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.5 / teeth,
                        omega0=self.OMEGA0, teeth=teeth, p=-1.0, seed=grid.n)
        real_d, real_a = realize(deph, grid, 5), realize(amp, grid, 5)
        assert real_a.phi_n is None
        cases = ((real_d.beta, deph, deph.tooth_amplitudes(), np.cos),
                 (real_d.phi_n, deph, deph.alpha * deph.envelope_table(), np.sin),
                 (real_a.beta, amp, amp.tooth_amplitudes(), np.cos))
        for out, spec, amps, trig in cases:
            ref = _longdouble_comb(self.OMEGA0, amps, draw_phases(spec, 5), times, trig)
            assert out.shape == (grid.n,)
            assert float(np.max(np.abs(out - ref))) <= 1e-12 * float(np.sum(np.abs(amps)))

    def grid(self, kind, per, n, teeth):
        """n samples, ``per`` to a base period ("periods", "rate", "near"), or at a
        spacing near that which no whole number of samples per period fits
        ("rate_off", "irrational"); checked to take the path its kind and length
        call for."""
        dt = {"periods": TimeGrid.periods_of(self.OMEGA0, 1, per).dt,
              "rate": 1.0 / (per * self.F0), "near": (1.0 + 1e-10) / (per * self.F0),
              "rate_off": 1.0 / (per * self.F0 + 1.0),
              "irrational": 1.0 / (per * self.F0 * math.sqrt(2.0))}[kind]
        grid = TimeGrid(dt, n)
        fft, slope = noise._fft_period(white_dephasing(omega0=self.OMEGA0, teeth=teeth), grid)
        # one sample, at t = 0, has no drift on any spacing, so takes either path
        if n > 1:
            commensurate = kind in ("periods", "rate", "near")
            assert fft == (per if commensurate and per <= 4 * n else 0)
            assert slope != 0.0 or not (fft and kind == "near")
        return grid

    @pytest.mark.parametrize("spacing", ["periods", "rate", "near", "rate_off", "irrational"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3001, 12004])
    def test_within_1e12_of_amplitude_sum(self, n, spacing):
        teeth = 100
        # 2000 samples per period is a 60 kHz rate ("rate", "near") or 60,001 Hz
        # ("rate_off")
        per = {"periods": 4 * teeth + 1, "irrational": 500}.get(spacing, 2000)
        self.check(self.grid(spacing, per, n, teeth), teeth)

    def test_offsets_past_one_table(self):
        # past _TIME_BLOCK**2 samples a block holds more than _TIME_BLOCK offsets:
        # here 256 blocks of 258, so the offsets span two tables, the second of
        # two offsets, and the last block holds four samples, at 60,001 Hz
        block = noise._TIME_BLOCK
        self.check(self.grid("rate_off", 2000, block * block + block + 2, 3), teeth=3)

    def test_long_block_shift_record_tail(self):
        # 5e5 samples at 60,001 Hz, f0 = 4 Hz, J = 750: start phases at t ~ 8 s
        # must be exact turns, or tooth j's phase errs by j ulp(omega0 t)
        spec = white_dephasing(omega0=TWO_PI * 4.0, teeth=750, seed=2)
        grid = TimeGrid(1.0 / 60_001.0, 500_000)
        assert noise._fft_period(spec, grid) == (0, 0.0)
        real = realize(spec, grid, 0)
        tail = np.arange(grid.n - 800, grid.n)
        times = np.longdouble(grid.dt) * tail
        psi = draw_phases(spec, 0)
        for out, amps, trig in ((real.beta, spec.tooth_amplitudes(), np.cos),
                                (real.phi_n, spec.alpha * spec.envelope_table(), np.sin)):
            ref = _longdouble_comb(spec.omega0, amps, psi, times, trig)
            assert float(np.max(np.abs(out[tail] - ref))) <= 1e-12 * float(np.sum(np.abs(amps)))

    @settings(max_examples=40, deadline=None)
    @given(per=st.integers(3, 400), teeth=st.integers(1, 60), periods=st.integers(1, 6),
           tail=st.floats(0.0, 1.0),
           kind=st.sampled_from(["periods", "rate", "near", "rate_off", "irrational"]))
    def test_both_paths_property(self, per, teeth, periods, tail, kind):
        # n reaches into the last of ``periods`` base periods
        teeth = min(teeth, (per - 1) // 2)
        n = (periods - 1) * per + max(1, round(tail * per))
        self.check(self.grid(kind, per, n, teeth), teeth)


# the grids cli_synth_export's commands sample: white dephasing, f0 = 4 Hz, J = 750
CLI_GRIDS = {"synth": TimeGrid.periods_of(TWO_PI * 4.0, 1, 3001),
             "verify-psd": TimeGrid.periods_of(TWO_PI * 4.0, 4, 3001),
             "export": TimeGrid(1.0 / 60_000.0, 6000)}


def _count_transforms(monkeypatch):
    """Record the size of every phasor transform ``realize`` takes, and whether it
    called the comb evaluator."""
    transformed, comb_calls = [], []
    phasors_inner, comb_inner = noise.phasors, noise._comb_eval

    def counting(psi):
        transformed.append(np.size(psi))
        return phasors_inner(psi)

    def comb(*args, **kwargs):
        comb_calls.append(1)
        return comb_inner(*args, **kwargs)

    monkeypatch.setattr(noise, "phasors", counting)
    monkeypatch.setattr(noise, "_comb_eval", comb)
    return transformed, comb_calls


def test_one_transform_per_time_sample(monkeypatch):
    # block shift, on a grid whose rate is not a multiple of f0: phases once, the
    # block offsets once and each block start once, shared by beta and phi_N; no
    # J x m trig table
    spec = white_dephasing(omega0=TWO_PI * 50.0, teeth=750, seed=3)
    grid = TimeGrid(1.0 / 150_001.0, 3001)
    transformed, comb_calls = _count_transforms(monkeypatch)
    realize(spec, grid, 0)
    assert sum(transformed) == 750 + 256 + math.ceil(3001 / 256)
    assert len(comb_calls) == 1


@pytest.mark.parametrize("command", sorted(CLI_GRIDS))
def test_commensurate_grid_transforms_phases_only(monkeypatch, command):
    # one inverse FFT per period: the J phases are the only transform, no comb call
    spec = white_dephasing(omega0=TWO_PI * 4.0, teeth=750, seed=3)
    grid = CLI_GRIDS[command]
    assert noise._fft_period(spec, grid)[0] == {"export": 15_000}.get(command, 3001)
    transformed, comb_calls = _count_transforms(monkeypatch)
    real = realize(spec, grid, 0)
    assert transformed == [750] and comb_calls == []
    # the realization keeps the record's n samples, not a longer tiled array
    assert real.beta.base.shape == (2, grid.n)


def test_cli_grids_take_fft_at_every_f0():
    # synth, verify-psd and export grids at J = 750 for f0 from 1 to 100 Hz in
    # 0.1 Hz steps, the export rate a whole multiple (15,000) of f0: a float
    # step is a few roundings off 2*pi/N, well inside the corrected drift bound
    spec = white_dephasing(teeth=750)
    for f0 in np.arange(10, 1001) / 10:
        omega0 = TWO_PI * f0
        spec = dataclasses.replace(spec, omega0=omega0)
        for grid, per in ((TimeGrid.periods_of(omega0, 1, 3001), 3001),
                          (TimeGrid.periods_of(omega0, 4, 3001), 3001),
                          (TimeGrid(1.0 / (15_000 * f0), 6000), 15_000)):
            assert noise._fft_period(spec, grid)[0] == per, (f0, grid)


def test_short_record_of_a_long_period_keeps_block_shift():
    # 700,000 samples per base period over a 20,000-sample record: the transform
    # would allocate a (2, 350,001) complex spectrum and a (2, 700,000) period,
    # 23 MB at its peak, where the block shift's peak is about 7 MB
    spec = white_dephasing(omega0=TWO_PI, teeth=750, seed=2)
    grid = TimeGrid(1.0 / 700_000, 20_000)
    assert noise._fft_period(spec, grid) == (0, 0.0)
    tracemalloc.start()
    try:
        real = realize(spec, grid, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert real.beta.shape == (20_000,)
    assert peak < 12_000_000


def test_period_past_float_range_keeps_block_shift():
    # omega0*dt = 6e-320: the period, about 1e320 samples, is past float range
    # and is taken in ints
    spec = white_dephasing(omega0=6e-160, teeth=3)
    grid = TimeGrid(1e-160, 8)
    assert noise._fft_period(spec, grid) == (0, 0.0)
    assert realize(spec, grid, 0).beta.shape == (8,)


@settings(max_examples=40, deadline=None)
@given(per=st.integers(3, 500), teeth=st.integers(1, 40), periods=st.integers(2, 6),
       seed=st.integers(0, 2**64 - 1))
def test_commensurate_record_repeats_bit_exactly(per, teeth, periods, seed):
    teeth = min(teeth, (per - 1) // 2)
    spec = white_dephasing(omega0=TWO_PI * 30.0, teeth=teeth, seed=seed)
    grid = TimeGrid.periods_of(spec.omega0, periods, per)
    fft, slope = noise._fft_period(spec, grid)
    assert fft == per
    # a record whose drift is within _MAX_DRIFT is the period as it is
    assume(slope == 0.0)
    real = realize(spec, grid, 7)
    for wave in (real.beta, real.phi_n):
        rows = bits(wave).reshape(periods, per)
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))


class TestRealizationInvariants:
    def test_zero_mean_over_periods(self):
        spec = white_dephasing(alpha=0.5, omega0=2.0, teeth=25, seed=8)
        grid = TimeGrid.periods_of(spec.omega0, 3, 4 * spec.teeth + 3)
        real = realize(spec, grid, 0)
        tol = 1e-9 * spec.alpha * 1.0 * spec.omega0  # max|jF| = 1 for white
        assert abs(np.mean(real.beta)) < tol

    def test_variance_identity(self):
        spec = white_dephasing(alpha=0.5, omega0=2.0, teeth=25, seed=8)
        grid = TimeGrid.periods_of(spec.omega0, 1, 4 * spec.teeth + 3)
        real = realize(spec, grid, 0)
        assert np.mean(real.beta**2) == pytest.approx(
            analytic_autocorrelation(spec, 0.0), rel=1e-9)

    def test_bit_identical_realizations(self):
        spec = white_dephasing(seed=21)
        grid = TimeGrid(0.05, 128)
        a = realize(spec, grid, 3)
        _ = realize(spec, grid, 1)  # interleave another index
        b = realize(spec, grid, 3)
        assert a.beta.tobytes() == b.beta.tobytes()
        assert a.phi_n.tobytes() == b.phi_n.tobytes()

    def test_csv_export(self, tmp_path):
        spec = white_dephasing()
        grid = TimeGrid(0.05, 16)
        path = tmp_path / "real.csv"
        export_realization_csv(realize(spec, grid, 0), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# bathforge realization spec=")
        assert lines[1] == "t,beta,phi_n"
        assert len(lines) == 2 + 16
