import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bathforge import (ControlProgram, IQWaveform, NoiseSpec, Quadrature, Segment,
                       TimeGrid, ValidationError, compose, continuity_report, quantize,
                       realize, to_iq)
from bathforge.waveform import export_binary, export_csv

TWO_PI = 2.0 * math.pi


class TestControlProgram:
    def test_segment_validation(self):
        for duration in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                Segment(duration=duration)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                Segment(duration=1.0, omega_c=bad)
            with pytest.raises(ValidationError):
                Segment(duration=1.0, phi_c=bad)
        with pytest.raises(ValidationError):
            ControlProgram(())


class TestCompose:
    def test_pi_pulse_no_noise(self):
        omega = TWO_PI * 1e4
        prog = ControlProgram((Segment(duration=math.pi / omega, omega_c=omega),))
        grid = TimeGrid(prog.duration / 64, 64)
        om, phi = compose(prog, grid)
        assert np.all(om == omega)
        assert np.all(phi == 0.0)

    def test_free_evolution_with_dephasing(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.2, omega0=50.0,
                         teeth=4, p=0, seed=3)
        prog = ControlProgram((Segment(duration=0.5),))
        grid = TimeGrid(0.5 / 256, 256)
        real = realize(spec, grid, 0)
        om, phi = compose(prog, grid, real)
        assert np.all(om == 0.0)
        assert np.array_equal(phi, real.phi_n)

    @pytest.mark.parametrize("detuning", [TWO_PI * 500.0, -1e-9, math.nan])
    def test_nonzero_detuning_rejected(self, detuning):
        prog = ControlProgram((Segment(duration=0.5, omega_c=10.0),
                               Segment(duration=0.5, omega_c=10.0, detuning=detuning)))
        with pytest.raises(ValidationError, match="detuning"):
            compose(prog, TimeGrid(1.0 / 64, 64))

    def test_multiplicative_amplitude(self):
        spec = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.02, omega0=50.0,
                         teeth=4, p=0, seed=3)
        omega = TWO_PI * 500.0
        prog = ControlProgram((Segment(duration=0.5, omega_c=omega),))
        grid = TimeGrid(0.5 / 256, 256)
        real = realize(spec, grid, 0)
        om, _ = compose(prog, grid, real)
        assert np.allclose(om / omega - 1.0, real.beta, rtol=0, atol=1e-15)

    def test_zero_noise_reproduces_program(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.0, omega0=50.0,
                         teeth=4, p=0)
        prog = ControlProgram((Segment(duration=0.1, omega_c=1.0, phi_c=0.3),
                               Segment(duration=0.2, omega_c=0.5, phi_c=-0.1)))
        grid = TimeGrid(0.3 / 300, 300)
        real = realize(spec, grid, 0)
        om_ref, phi_ref = compose(prog, grid)
        om, phi = compose(prog, grid, real)
        assert np.array_equal(om, om_ref)
        assert np.array_equal(phi, phi_ref)

    def test_segment_boundaries(self):
        prog = ControlProgram((Segment(duration=0.1, omega_c=1.0),
                               Segment(duration=0.1, omega_c=2.0)))
        grid = TimeGrid(0.2 / 20, 20)
        om, _ = compose(prog, grid)
        assert np.all(om[:10] == 1.0) and np.all(om[10:] == 2.0)

    def test_grid_mismatch_rejected(self):
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.1, omega0=50.0,
                         teeth=4, p=0)
        prog = ControlProgram((Segment(duration=0.5),))
        grid = TimeGrid(0.5 / 256, 256)
        other = TimeGrid(0.5 / 128, 128)
        with pytest.raises(ValidationError):
            compose(prog, grid, realize(spec, other, 0))

    def test_grid_past_program_end_rejected(self):
        # the grid must end inside the program
        prog = ControlProgram((Segment(duration=0.5, omega_c=1.0),))
        with pytest.raises(ValidationError, match="end"):
            compose(prog, TimeGrid(0.01, 51))
        om, _ = compose(prog, TimeGrid(0.01, 50))
        assert np.all(om == 1.0)


class TestIQ:
    def test_cardinal_points(self):
        w = to_iq(np.array([1.0, 1.0]), np.array([0.0, math.pi / 2.0]), 100.0)
        assert w.i[0] == 1.0 and abs(w.q[0]) == 0.0
        assert abs(w.i[1]) < 1e-16 and w.q[1] == pytest.approx(1.0, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        om = rng.uniform(0.1, 2.0, 200)
        phi = rng.uniform(0.0, TWO_PI, 200)
        w = to_iq(om, phi, 1.0)
        assert np.allclose(np.hypot(w.i, w.q), om, rtol=1e-12)
        dphi = np.mod(np.arctan2(w.q, w.i) - phi, TWO_PI)
        assert np.allclose(np.minimum(dphi, TWO_PI - dphi), 0.0, atol=1e-10)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match="sample rate"):
            to_iq(np.ones(2), np.zeros(2), rate)

    def test_empty_rejected(self):
        # an empty record used to reach continuity_report's IndexError and a
        # quantized block with snr_db = inf
        with pytest.raises(ValidationError, match="at least one sample"):
            to_iq(np.zeros(0), np.zeros(0), 1.0)
        with pytest.raises(ValidationError, match="at least one sample"):
            IQWaveform(sample_rate=1.0, i=np.zeros(0), q=np.zeros(0))

    def test_magnitude_identity(self):
        rng = np.random.default_rng(1)
        om = rng.uniform(0.0, 3.0, 500)
        phi = rng.uniform(-10.0, 10.0, 500)
        w = to_iq(om, phi, 1.0)
        assert np.allclose(w.i**2 + w.q**2, om**2, rtol=1e-12)


class TestQuantize:
    def test_half_scale_code(self):
        # a peak of 1 - 2**-15 sets the full scale to exactly 1
        w = to_iq(np.array([1.0 - 2.0**-15, 0.5]), np.array([0.0, 0.0]), 1.0)
        q = quantize(w, bits=16).quantized
        assert q.full_scale == 1.0
        assert q.codes_i[1] == 16384
        assert abs(q.codes_i[1] * (q.full_scale / 2**(q.bits - 1)) - 0.5) < 2.0**-16

    def test_zero_waveform(self):
        w = to_iq(np.zeros(8), np.zeros(8), 1.0)
        q = quantize(w, bits=16).quantized
        assert np.all(q.codes_i == 0) and np.all(q.codes_q == 0)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        w = to_iq(rng.uniform(0, 0.9, 64), rng.uniform(0, TWO_PI, 64), 1.0)
        q1 = quantize(w, bits=16)
        q2 = quantize(q1, bits=16)
        assert np.array_equal(q1.quantized.codes_i, q2.quantized.codes_i)
        assert np.array_equal(q1.quantized.codes_q, q2.quantized.codes_q)

    def test_error_bounded_by_half_lsb(self):
        rng = np.random.default_rng(3)
        w = to_iq(rng.uniform(0, 0.99, 512), rng.uniform(0, TWO_PI, 512), 1.0)
        wq = quantize(w, bits=16)
        q = wq.quantized
        step = q.full_scale / 2**(q.bits - 1)
        assert np.max(np.abs(w.i - q.codes_i * step)) <= step / 2.0
        assert np.max(np.abs(w.q - q.codes_q * step)) <= step / 2.0
        assert q.snr_db > 60.0

    def test_overrange_rejected(self):
        # the step of the smallest subnormal peak underflows to 0; the error
        # comes before any division by it, so no RuntimeWarning precedes it
        w = to_iq(np.array([5e-324]), np.array([0.0]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="refusing to clip"):
                quantize(w, bits=16)

    def test_huge_peak_fits_top_code(self):
        # peak * 2**15 overflows; the step peak / (2**15 - 1) does not
        w = to_iq(np.array([1e305, -0.5e305]), np.zeros(2), 1.0)
        q = quantize(w, bits=16).quantized
        assert math.isfinite(q.full_scale)
        assert q.codes_i.tolist() == [2**15 - 1, -16384]

    @pytest.mark.parametrize("peak", [1e-150, 1e-160, 1e-200])
    def test_snr_independent_of_scale(self, peak):
        rng = np.random.default_rng(5)
        w = to_iq(rng.uniform(0, 0.9, 256), rng.uniform(0, TWO_PI, 256), 1.0)
        small = IQWaveform(sample_rate=1.0, i=w.i * peak, q=w.q * peak)
        # an underflowed error sum read inf below a peak of about 1e-155
        assert abs(quantize(small).quantized.snr_db - quantize(w).quantized.snr_db) <= 1e-9

    @pytest.mark.parametrize("sample", [math.nan, -math.inf])
    def test_nonfinite_rejected(self, sample):
        w = IQWaveform(sample_rate=1.0, i=np.array([sample, 0.5]), q=np.zeros(2))
        with pytest.raises(ValidationError, match="finite"):
            quantize(w, bits=16)

    @pytest.mark.parametrize("bits", [1, 17, 32])
    def test_bits_outside_2_to_16_rejected(self, bits):
        w = to_iq(np.array([0.5]), np.zeros(1), 1.0)
        with pytest.raises(ValidationError, match="bits"):
            quantize(w, bits=bits)

    @pytest.mark.parametrize("bits", [8.5, 16.0, True])
    def test_non_integer_bits_rejected(self, bits):
        w = to_iq(np.array([0.5]), np.zeros(1), 1.0)
        with pytest.raises(ValidationError, match="bits"):
            quantize(w, bits=bits)

    @given(peak=st.floats(1e-300, 1e300), bits=st.integers(2, 16))
    def test_full_scale_is_peak_times_levels_over_top(self, peak, bits):
        # the value the binary sidecar records, bit for bit
        levels = 2 ** (bits - 1)
        q = quantize(to_iq(np.array([peak, -0.3 * peak]), np.zeros(2), 1.0), bits).quantized
        assert q.full_scale == peak * levels / (levels - 1)
        assert q.codes_i[0] == levels - 1

    def test_default_full_scale_fits_peak(self):
        w = to_iq(np.array([1.0, 0.25]), np.zeros(2), 1.0)
        q = quantize(w, bits=16).quantized
        assert q.codes_i[0] == 2**15 - 1


class TestContinuity:
    def test_constant(self):
        w = to_iq(np.ones(16), np.zeros(16), 1.0)
        rep = continuity_report(w)
        assert rep.max_jump_i == 0.0 and rep.boundary_jump_i == 0.0
        assert not rep.flagged

    def test_step_flagged(self):
        i = np.concatenate([np.zeros(8), np.ones(8)])
        w = to_iq(i, np.zeros(16), 1.0)
        rep = continuity_report(w, threshold=0.5)
        assert rep.max_jump_i == 1.0 and rep.flagged

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_bad_threshold_rejected(self, threshold):
        w = to_iq(np.arange(4.0), np.zeros(4), 1.0)
        with pytest.raises(ValidationError, match="jump threshold"):
            continuity_report(w, threshold=threshold)

    def test_zero_threshold_flags_any_jump(self):
        w = to_iq(np.array([0.0, 0.0, 1e-9, 0.0]), np.zeros(4), 1.0)
        assert continuity_report(w, threshold=0.0).flagged
        assert not continuity_report(w).flagged

    def test_period_matched_comb_boundary(self):
        # grid snapped to whole periods: the wrap-around jump obeys the
        # derivative bound sum(amplitudes) * omega_cutoff * dt
        spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.1, omega0=20.0,
                         teeth=5, p=0, seed=9)
        grid = TimeGrid.periods_of(spec.omega0, 1, 512)
        real = realize(spec, grid, 0)
        prog = ControlProgram((Segment(duration=grid.duration, omega_c=1.0),))
        om, phi = compose(prog, grid, real)
        rep = continuity_report(to_iq(om, phi, 1.0 / grid.dt))
        amp_sum = spec.alpha * np.sum(spec.envelope_table())
        bound = amp_sum * spec.omega_cutoff * grid.dt
        assert max(rep.boundary_jump_i, rep.boundary_jump_q) < bound


class TestExport:
    def test_csv(self, tmp_path):
        w = to_iq(np.array([1.0, 0.5]), np.array([0.0, 0.1]), 10.0)
        path = tmp_path / "wave.csv"
        export_csv(w, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,i,q"
        assert len(lines) == 3

    def test_csv_rows_exact(self, tmp_path):
        w = to_iq(np.array([1.0, 0.5, 0.25]), np.array([0.0, 0.1, 2.0]), 3.0)
        path = tmp_path / "wave.csv"
        export_csv(w, path)
        rows = ["%.17g,%.17g,%.17g" % (k * (1.0 / 3.0), w.i[k], w.q[k]) for k in range(3)]
        assert path.read_text() == "t,i,q\n" + "\n".join(rows) + "\n"

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        w = quantize(to_iq(rng.uniform(0, 0.9, 128), rng.uniform(0, TWO_PI, 128), 50.0),
                     bits=16)
        path = tmp_path / "wave.iq"
        export_binary(w, path, spec_hash="abc123")
        # interleaved little-endian int16 I/Q codes
        raw = np.fromfile(path, dtype="<i2")
        assert np.array_equal(raw[0::2], w.quantized.codes_i)
        assert np.array_equal(raw[1::2], w.quantized.codes_q)
        header = (tmp_path / "wave.iq.hdr").read_text()
        assert "spec_hash = abc123" in header
        assert "sample_rate_hz = 50.0" in header

    def test_binary_requires_quantization(self, tmp_path):
        w = to_iq(np.ones(4), np.zeros(4), 1.0)
        with pytest.raises(ValidationError):
            export_binary(w, tmp_path / "x.iq")
