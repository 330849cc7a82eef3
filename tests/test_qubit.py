import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from bathforge import (ExperimentRecord, HamiltonianSamples, NoiseSpec, NyquistError,
                       Quadrature, ValidationError, chi_fid_comb, ket0, propagate, rabi,
                       ramsey)
from bathforge.noise import (amplitude_waveform_at, detuning_waveform_at,
                             draw_phase_matrix, draw_phases, phase_waveform_at, phasors)
from bathforge import qubit
from bathforge.qubit import export_record_csv

TWO_PI = 2.0 * math.pi


def deph_spec(alpha, omega0_hz=4.0, teeth=750, seed=17):
    return NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=alpha,
                     omega0=TWO_PI * omega0_hz, teeth=teeth, p=0, seed=seed)


def amp_spec(alpha, omega0_hz=2.0, teeth=20, seed=17):
    return NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=alpha,
                     omega0=TWO_PI * omega0_hz, teeth=teeth, p=0, seed=seed)


def su2_step(state, vx, vy, vz, dt):
    """Apply exp(-i dt (vx sx + vy sy + vz sz)/2) to (..., 2) states in place.

    Closed-form Pauli exponential: with theta = |v| dt,
    U = cos(theta/2) I - i sin(theta/2) (v_hat . sigma).
    """
    norm = np.sqrt(vx * vx + vy * vy + vz * vz)
    half = 0.5 * norm * dt
    c = np.cos(half)
    # sin(half)/norm, safe at norm == 0 where the step is the identity
    safe = np.where(norm > 0, norm, 1.0)
    s_over = np.where(norm > 0, np.sin(half) / safe, 0.5 * dt)
    a = state[..., 0]
    b = state[..., 1]
    kx = -1j * s_over * vx
    ky = s_over * vy
    kz = -1j * s_over * vz
    new_a = (c + kz) * a + (kx - ky) * b
    new_b = (kx + ky) * a + (c - kz) * b
    state[..., 0] = new_a
    state[..., 1] = new_b
    return state


def population_1(state):
    """P(|1>) of a (..., 2) state array."""
    return np.abs(state[..., 1]) ** 2


def rotate_z(state, angle):
    """exp(-i angle sigma_z / 2) applied to (..., 2) states, as a new array."""
    phase = np.exp(-0.5j * np.asarray(angle))
    return np.stack((state[..., 0] * phase, state[..., 1] * np.conj(phase)), axis=-1)


def ket0_rows(n):
    """|0> replicated into an (n, 2) block."""
    return np.tile(ket0(), (n, 1))


def loop_propagate(state, samples, dt):
    """Reference integrator: one exact SU(2) step at a time, earliest first."""
    states = np.array(state, dtype=complex, copy=True)
    om = np.asarray(samples.rabi, dtype=float)
    ph = np.asarray(samples.phase, dtype=float)
    vx, vy, vz = np.broadcast_arrays(om * np.cos(ph), om * np.sin(ph),
                                     2.0 * np.asarray(samples.z_coeff, dtype=float))
    for k in range(vx.shape[-1]):
        su2_step(states, vx[..., k], vy[..., k], vz[..., k], dt)
    return states


def random_samples(rng, shape, dt):
    """Samples filling up to 80 % of both per-step rotation limits."""
    limit = 0.8 * qubit._STEP_LIMIT / dt
    return HamiltonianSamples(z_coeff=rng.uniform(-0.5, 0.5, shape) * limit,
                              rabi=rng.uniform(0.0, 1.0, shape) * limit,
                              phase=rng.uniform(0.0, TWO_PI, shape))


def random_states(rng, batch=None):
    shape = (2,) if batch is None else (batch, 2)
    s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return s / np.linalg.norm(s, axis=-1, keepdims=True)


def rotation(theta, nx, ny, nz):
    """exp(-i theta (n . sigma)/2) as a 2x2 matrix."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([[c - 1j * s * nz, -1j * s * nx - s * ny],
                     [-1j * s * nx + s * ny, c + 1j * s * nz]])


class TestTreeProduct:
    """The pairwise quaternion product against the one-step-at-a-time loop."""

    CHUNK = qubit._CHUNK

    @pytest.mark.parametrize("m", [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_matches_step_loop(self, m):
        rng = np.random.default_rng(m)
        state, samples = random_states(rng), random_samples(rng, m, 0.01)
        tree = propagate(state, samples, 0.01)
        assert np.max(np.abs(tree - loop_propagate(state, samples, 0.01))) <= 1e-12

    def test_batch_block_matches_step_loop(self):
        rng = np.random.default_rng(5)
        states, samples = random_states(rng, 6), random_samples(rng, (6, 700), 1e-3)
        tree = propagate(states, samples, 1e-3)
        assert tree.shape == (6, 2)
        assert np.max(np.abs(tree - loop_propagate(states, samples, 1e-3))) <= 1e-12

    @pytest.mark.parametrize("batched", ["z_coeff", "rabi"])
    def test_scalar_broadcast_matches_step_loop(self, batched):
        # Ramsey pulses batch only z_coeff, Rabi segments only rabi
        rng = np.random.default_rng(6)
        full = random_samples(rng, (4, 300), 1e-3)
        samples = HamiltonianSamples(**{
            name: getattr(full, name) if name == batched else getattr(full, name)[0, 0]
            for name in ("z_coeff", "rabi", "phase")})
        states = random_states(rng, 4)
        tree = propagate(states, samples, 1e-3)
        assert np.max(np.abs(tree - loop_propagate(states, samples, 1e-3))) <= 1e-12

    @pytest.mark.parametrize("m", [0, 1, 50, CHUNK + 3])
    def test_zero_steps_exact_identity(self, m):
        state = random_states(np.random.default_rng(7), 3)
        out = propagate(state, HamiltonianSamples(
            z_coeff=np.zeros(m), rabi=np.zeros(m), phase=np.zeros(m)), dt=0.5)
        assert np.array_equal(out, state)

    def test_later_step_on_the_left(self):
        # an x pi/2 pulse then a y pi/2 pulse is R_y R_x, which differs from R_x R_y
        m, dt = 40, 1e-3
        rabi_ = 0.5 * math.pi / (m * dt)
        samples = HamiltonianSamples(z_coeff=np.zeros(2 * m), rabi=np.full(2 * m, rabi_),
                                     phase=np.repeat([0.0, 0.5 * math.pi], m))
        state = random_states(np.random.default_rng(8))
        rx, ry = rotation(0.5 * math.pi, 1, 0, 0), rotation(0.5 * math.pi, 0, 1, 0)
        out = propagate(state, samples, dt)
        assert np.max(np.abs(out - ry @ rx @ state)) <= 1e-12
        assert np.max(np.abs(out - rx @ ry @ state)) > 0.1

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(0.0, 5.0),
                                    st.floats(0.0, TWO_PI)), min_size=1, max_size=40),
           theta=st.floats(0.0, math.pi), phi=st.floats(0.0, TWO_PI))
    def test_random_sequence_matches_loop(self, steps, theta, phi):
        z, om, ph = (np.array(col) for col in zip(*steps))
        samples = HamiltonianSamples(z_coeff=z, rabi=om, phase=ph)
        state = np.array([math.cos(0.5 * theta), np.exp(1j * phi) * math.sin(0.5 * theta)])
        tree = propagate(state, samples, 0.01)
        assert np.max(np.abs(tree - loop_propagate(state, samples, 0.01))) <= 1e-12
        assert abs(np.linalg.norm(tree) - 1.0) <= 1e-14

    def test_batched_levels_keep_each_chunks_bits(self, monkeypatch):
        # the narrow levels of many full chunks run as one batch; every pair is
        # the one the chunk's own tree takes, so the product keeps its bits
        m = (self.CHUNK // qubit._WIDTH + 1) * self.CHUNK + 5  # two batches
        samples = random_samples(np.random.default_rng(10), (2, m), 0.01)
        batched = qubit._unitary(samples, 0.01)
        monkeypatch.setattr(qubit, "_WIDTH", self.CHUNK)  # each chunk's tree alone
        assert qubit._unitary(samples, 0.01).tobytes() == batched.tobytes()

    def test_pair_products_per_chunk(self, monkeypatch):
        # a full chunk is paired down alone to _WIDTH, the narrow levels of up
        # to _CHUNK // _WIDTH full chunks run as one batch, and the last,
        # partial chunk is paired down alone: a few vectorised products per
        # chunk, where a per-step loop would take one per step
        shapes = []
        real = qubit._compose

        def counting(later, earlier, out=None):
            shapes.append(later.shape)
            return real(later, earlier, out)

        monkeypatch.setattr(qubit, "_compose", counting)
        width = qubit._WIDTH
        full, tail = self.CHUNK // width + 1, 5  # two batches, the second of one chunk
        m = full * self.CHUNK + tail
        propagate(ket0(), random_samples(np.random.default_rng(9), m, 0.01), 0.01)
        chunks = full + 1
        # tree products carry step axes; the fold of each chunk's quaternion
        # into the running product does not
        merges = [math.prod(shape[1:]) for shape in shapes if len(shape) > 1]
        assert len(shapes) - len(merges) == chunks
        assert len(merges) == (full * round(math.log2(self.CHUNK // width))
                               + 2 * round(math.log2(width)) + math.ceil(math.log2(tail)))
        assert len(shapes) <= chunks * (math.ceil(math.log2(self.CHUNK)) + 1)
        # every product merges pairs of neighbours, down to one quaternion per
        # chunk: with the folds, m - 1 merges beyond the identity
        assert sum(merges) == m - chunks


class TestPropagate:
    def test_scratch_flat_in_step_count(self):
        # steps are tabled a chunk at a time and full chunks wait at _WIDTH
        # quaternions, so the scratch beyond the samples is a few (4, _CHUNK)
        # step tables at any step count
        bound = 6 * 4 * 8 * qubit._CHUNK
        peaks = []
        for m in (200_000, 1_000_000):
            samples = random_samples(np.random.default_rng(m), m, 0.01)
            tracemalloc.start()
            try:
                propagate(ket0(), samples, 0.01)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < bound
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    def test_zero_hamiltonian_identity(self):
        state = np.array([0.6, 0.8j])
        out = propagate(state, HamiltonianSamples(
            z_coeff=np.zeros(50), rabi=np.zeros(50), phase=np.zeros(50)), dt=1.0)
        assert np.allclose(out, state, atol=1e-15)

    def test_resonant_pi_pulse(self):
        omega = TWO_PI * 1e3
        duration = math.pi / omega
        m = 80
        out = propagate(ket0(), HamiltonianSamples(
            z_coeff=np.zeros(m), rabi=np.full(m, omega), phase=np.zeros(m)),
            dt=duration / m)
        assert population_1(out) == pytest.approx(1.0, abs=1e-12)

    def test_pure_dephasing_azimuth(self):
        # stepped propagation under beta_z reproduces the closed-form
        # azimuth change -[phi_N(end) - phi_N(start)] of the exact z rotation
        spec = deph_spec(0.5, omega0_hz=0.3, teeth=3, seed=5)
        psi = draw_phases(spec, 0)
        t0, tau, m = 0.0, 0.3, 4000
        dt = tau / m
        mids = t0 + dt * (np.arange(m) + 0.5)
        from bathforge.noise import detuning_waveform_at
        beta = detuning_waveform_at(spec, psi, mids)
        plus_x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        out = propagate(plus_x, HamiltonianSamples(
            z_coeff=-0.5 * beta, rabi=np.zeros(m), phase=np.zeros(m)), dt=dt)
        coherence = 2.0 * np.conj(out[0]) * out[1]  # <sx> + i <sy>
        azimuth = math.atan2(np.imag(coherence), np.real(coherence))
        ends = phase_waveform_at(spec, psi, np.array([t0, t0 + tau]))
        expect = -(ends[1] - ends[0])
        assert azimuth == pytest.approx(expect, abs=1e-6)

    def test_exact_z_rotation_matches_stepping(self):
        state = np.array([1.0, 1.0]) / math.sqrt(2.0)
        direct = rotate_z(state, 0.7)
        stepped = propagate(state, HamiltonianSamples(
            z_coeff=np.full(100, 0.35 / 100 / 0.001), rabi=np.zeros(100),
            phase=np.zeros(100)), dt=0.001)
        assert np.allclose(direct / direct[0], stepped / stepped[0], atol=1e-12)

    def test_step_limit_enforced(self):
        with pytest.raises(ValidationError):
            propagate(ket0(), HamiltonianSamples(
                z_coeff=np.zeros(2), rabi=np.full(2, 10.0), phase=np.zeros(2)), dt=0.1)
        with pytest.raises(ValidationError):
            propagate(ket0(), HamiltonianSamples(
                z_coeff=np.full(2, 10.0), rabi=np.zeros(2), phase=np.zeros(2)), dt=0.1)

    @pytest.mark.parametrize("name", ["z_coeff", "rabi", "phase"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, name, bad):
        # NaN fails no `>` comparison: a limit checked as `x > limit` lets it
        # through to a NaN state
        values = {"z_coeff": [0.0, 0.0], "rabi": [0.0, 1.0], "phase": [0.0, 0.0]}
        values[name] = [bad, 0.0]
        samples = HamiltonianSamples(**{k: np.array(v) for k, v in values.items()})
        with pytest.raises(ValidationError, match=name):
            propagate(ket0(), samples, dt=0.01)

    @pytest.mark.parametrize("dt", [-0.01, 0.0, math.nan, math.inf])
    def test_bad_dt_rejected(self, dt):
        samples = HamiltonianSamples(z_coeff=np.zeros(3), rabi=np.zeros(3),
                                     phase=np.zeros(3))
        with pytest.raises(ValidationError, match="dt"):
            propagate(ket0(), samples, dt=dt)

    @pytest.mark.parametrize("state", [np.array([1.0, 0.0, 0.0]), np.ones((2, 3)),
                                       np.array(1.0), np.zeros((2, 0))])
    def test_state_without_two_amplitudes_rejected(self, state):
        samples = HamiltonianSamples(z_coeff=np.zeros(5), rabi=np.ones(5), phase=0.0)
        with pytest.raises(ValidationError, match="^state"):
            propagate(state, samples, dt=0.01)

    @pytest.mark.parametrize("fields, state, names", [
        ({"z_coeff": np.zeros(5), "rabi": np.ones(6)}, ket0(), "^z_coeff, rabi, phase"),
        ({"phase": np.zeros((3, 4))}, ket0(), "^z_coeff, rabi, phase"),
        ({"rabi": np.ones((3, 5))}, ket0_rows(4), "^state"),
        ({}, ket0_rows(4)[:, None, :] * np.ones((1, 2, 1)), None)])
    def test_mismatched_shapes_rejected(self, fields, state, names):
        # one step count across the fields, and a state batch that broadcasts
        # against their leading axes; the last case broadcasts and runs
        samples = HamiltonianSamples(**{"z_coeff": np.zeros(5), "rabi": np.ones(5),
                                        "phase": 0.0, **fields})
        if names is None:
            assert propagate(state, samples, dt=0.01).shape == (4, 2, 2)
            return
        with pytest.raises(ValidationError, match=names):
            propagate(state, samples, dt=0.01)

    def test_batch_states(self):
        m = 40
        omega = 0.05 / 0.01
        states = ket0_rows(3)
        out = propagate(states, HamiltonianSamples(
            z_coeff=np.zeros(m), rabi=np.full(m, omega), phase=np.zeros(m)), dt=0.01)
        assert out.shape == (3, 2)
        assert np.allclose(population_1(out), population_1(out)[0])

    def test_norm_preserved_many_steps(self):
        m = 10_000
        rng = np.random.default_rng(0)
        samples = HamiltonianSamples(z_coeff=rng.uniform(-1, 1, m),
                                     rabi=rng.uniform(0, 2, m),
                                     phase=rng.uniform(0, TWO_PI, m))
        out = propagate(ket0(), samples, dt=0.02)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-11


class TestRamsey:
    def test_zero_alpha_full_visibility(self):
        spec = deph_spec(0.0)
        taus = np.linspace(1e-3, 10e-3, 6)
        rec = ramsey(spec, fringe_detuning=TWO_PI * 250.0,
                     pulse_rabi=TWO_PI * 1e4, taus=taus, n_realizations=3)
        assert np.all(rec.visibility > 0.999)
        assert np.all(rec.stderr < 1e-12)

    @pytest.mark.parametrize("delta_hz, rabi_hz", [(250.0, 2e4), (3000.0, 1e4),
                                                   (-700.0, 5e3), (40000.0, 1e4)])
    def test_clean_pulses_match_rotation_closed_form(self, delta_hz, rabi_hz):
        # at alpha = 0 a noise-free shot is P_phi Rz(delta tau) P_0, where P_phi
        # is the pulse's exact rotation about (Omega cos phi, Omega sin phi,
        # delta); both quadratures hold to 1e-15 in P1, so the visibility,
        # built from u = 2 P1 - 1, holds to 2e-15
        delta, omega = TWO_PI * delta_hz, TWO_PI * rabi_hz
        taus = np.linspace(0.0, 4e-3, 17)
        rec = ramsey(deph_spec(0.0, omega0_hz=50.0, teeth=20), fringe_detuning=delta,
                     pulse_rabi=omega, taus=taus, n_realizations=1,
                     noise_during_pulses=False)
        assert rec.meta["pulse_steps"] == 1
        norm = math.hypot(omega, delta)
        angle = norm * 0.5 * math.pi / omega
        p_x = rotation(angle, omega / norm, 0.0, delta / norm)
        p_y = rotation(angle, 0.0, omega / norm, delta / norm)
        p = np.array([[abs((second @ rotation(delta * tau, 0, 0, 1) @ p_x)[1, 0]) ** 2
                       for second in (p_x, p_y)] for tau in taus])
        assert np.max(np.abs(rec.mean - p[:, 0])) <= 1e-15
        assert np.max(np.abs(rec.visibility - np.hypot(*(2 * p.T - 1)))) <= 2e-15

    def test_zero_alpha_fringe_pattern(self):
        spec = deph_spec(0.0)
        taus = np.linspace(0.5e-3, 8e-3, 16)
        delta = TWO_PI * 250.0
        rec = ramsey(spec, fringe_detuning=delta, pulse_rabi=TWO_PI * 2e4,
                     taus=taus, n_realizations=1, noise_during_pulses=False)
        # ideal-pulse fringe: P = (1 - cos(delta tau + phi0)) / 2 for some
        # fixed pulse-induced offset phi0; fit the offset from the first point
        span = np.ptp(rec.mean)
        assert span > 0.9  # fringes swing nearly full scale
        phi0 = math.acos(1.0 - 2.0 * rec.mean[0]) - delta * taus[0]
        model = 0.5 * (1.0 - np.cos(delta * taus + phi0))
        flipped = 0.5 * (1.0 - np.cos(delta * taus - phi0 - 2 * delta * taus[0]))
        err = min(np.max(np.abs(rec.mean - model)), np.max(np.abs(rec.mean - flipped)))
        assert err < 1e-3

    def test_first_order_visibility_agreement(self):
        # chi <= 1: |V_mc - exp(-chi)| <= max(3 SE, 0.02) pointwise
        spec = deph_spec(3.0, seed=23)
        from bathforge import predicted_t2
        t2 = predicted_t2(spec)
        taus = np.linspace(0.1 * t2, t2, 8)
        rec = ramsey(spec, fringe_detuning=TWO_PI * 2.0 / t2,
                     pulse_rabi=TWO_PI * 2e4, taus=taus, n_realizations=300,
                     noise_during_pulses=False)
        target = np.exp(-chi_fid_comb(spec, taus))
        bound = np.maximum(3.0 * rec.visibility_err, 0.02)
        assert np.all(np.abs(rec.visibility - target) <= bound)

    def test_stderr_scales_inverse_sqrt_n(self):
        spec = deph_spec(2.0, seed=31)
        taus = [3e-3]
        ses = []
        for n in (100, 400, 1600):
            rec = ramsey(spec, fringe_detuning=TWO_PI * 300.0,
                         pulse_rabi=TWO_PI * 1e4, taus=taus, n_realizations=n,
                         noise_during_pulses=False)
            ses.append(rec.stderr[0])
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.2)
        assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.2)

    def test_deterministic(self):
        spec = deph_spec(1.5, seed=7)
        kwargs = dict(fringe_detuning=TWO_PI * 500.0, pulse_rabi=TWO_PI * 1e4,
                      taus=[1e-3, 2e-3], n_realizations=40)
        a = ramsey(spec, **kwargs)
        b = ramsey(spec, **kwargs)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.visibility.tobytes() == b.visibility.tobytes()

    def test_frozen_phases_single_trajectory(self):
        # one deterministic trajectory keeps unit coherence, noisy or not, and
        # its errors are 0; meta["freeze_phases"] records when alpha = 0 made
        # every shot that one trajectory
        kwargs = dict(fringe_detuning=TWO_PI * 500.0, pulse_rabi=TWO_PI * 1e4,
                      taus=[1e-3, 3e-3])
        frozen = ramsey(deph_spec(0.0, seed=7), n_realizations=25, **kwargs)
        single = ramsey(deph_spec(1.5, seed=7), n_realizations=1, **kwargs)
        for rec in (frozen, single):
            assert np.all(rec.stderr == 0.0)
            assert np.all(rec.visibility > 0.999)
        assert frozen.meta["freeze_phases"] is True
        assert single.meta["freeze_phases"] is False

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 7, 8])
    def test_frozen_phases_errors_exactly_zero(self, seed):
        # the mean of n copies of one value is not always that value, so
        # repeating the one alpha = 0 row would leave std ~1e-17 instead of 0;
        # the seed picks the trajectory through the fringe detuning and taus
        rng = np.random.default_rng(seed)
        spec = deph_spec(0.0, omega0_hz=50.0, teeth=20, seed=seed)
        rec = ramsey(spec, fringe_detuning=TWO_PI * rng.uniform(200.0, 800.0),
                     pulse_rabi=TWO_PI * 1e4, taus=np.sort(rng.uniform(0.0, 4e-3, 2)),
                     n_realizations=25)
        assert np.all(rec.stderr == 0.0)
        assert np.all(rec.visibility_err == 0.0)
        assert rec.n_realizations == 25

    @pytest.mark.parametrize("pulse_noise", [True, False])
    def test_zero_alpha_one_trajectory(self, pulse_noise):
        # every draw is the same trajectory at alpha = 0: 500 realizations give
        # the bits of one, where averaging 500 copies used to round the mean
        spec = deph_spec(0.0, omega0_hz=50.0, teeth=20)
        kwargs = dict(fringe_detuning=TWO_PI * 500.0, pulse_rabi=TWO_PI * 1e4,
                      taus=np.linspace(0.0, 4e-3, 9), noise_during_pulses=pulse_noise)
        many = ramsey(spec, n_realizations=500, **kwargs)
        one = ramsey(spec, n_realizations=1, **kwargs)
        assert many.mean.tobytes() == one.mean.tobytes()
        assert many.visibility.tobytes() == one.visibility.tobytes()
        assert np.all(many.stderr == 0.0)
        assert np.all(many.visibility_err == 0.0)
        assert many.n_realizations == 500

    def test_zero_realizations_rejected(self):
        with pytest.raises(ValidationError):
            ramsey(deph_spec(1.0), fringe_detuning=1.0, pulse_rabi=1e4,
                   taus=[1e-3], n_realizations=0)

    def test_fractional_realizations_rejected(self):
        with pytest.raises(ValidationError, match="n_realizations"):
            ramsey(deph_spec(1.0), fringe_detuning=1.0, pulse_rabi=1e4,
                   taus=[1e-3], n_realizations=2.5)

    def test_zero_detuning_warns(self):
        with pytest.warns(UserWarning):
            ramsey(deph_spec(0.0), fringe_detuning=0.0, pulse_rabi=TWO_PI * 1e4,
                   taus=[1e-3], n_realizations=2)

    def test_requires_dephasing_spec(self):
        with pytest.raises(ValidationError):
            ramsey(amp_spec(0.1), fringe_detuning=1.0, pulse_rabi=1e4,
                   taus=[1e-3], n_realizations=2)

    @pytest.mark.parametrize("pulse_rabi", [0.0, -6e4, math.nan, math.inf])
    def test_bad_pulse_rabi_rejected(self, pulse_rabi):
        with pytest.raises(ValidationError, match="pulse_rabi"):
            ramsey(deph_spec(1.0), fringe_detuning=TWO_PI * 100.0,
                   pulse_rabi=pulse_rabi, taus=[1e-3], n_realizations=2)

    @pytest.mark.parametrize("taus", [[], [math.nan], [1e-3, math.inf], [-1e-3]])
    def test_bad_taus_rejected(self, taus):
        with pytest.raises(ValidationError, match="taus"):
            ramsey(deph_spec(1.0), fringe_detuning=TWO_PI * 100.0,
                   pulse_rabi=TWO_PI * 1e4, taus=taus, n_realizations=2)


class TestAnalysisPhase:
    """The 90 degree analysis pulse read as a 0 degree pulse on Rz(-pi/2) states."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(0.0, 5.0)),
                          min_size=1, max_size=40),
           theta=st.floats(0.0, math.pi), phi=st.floats(0.0, TWO_PI))
    def test_conjugated_pulse_same_population(self, steps, theta, phi):
        # |2 z| dt and Omega dt stay within the 0.05 rad step limit at dt = 0.01
        z, om = (np.array(col) for col in zip(*steps))
        state = np.array([math.cos(0.5 * theta), np.exp(1j * phi) * math.sin(0.5 * theta)])
        y = propagate(state, HamiltonianSamples(z_coeff=z, rabi=om, phase=0.5 * math.pi), 0.01)
        x = propagate(rotate_z(state, -0.5 * math.pi),
                      HamiltonianSamples(z_coeff=z, rabi=om, phase=0.0), 0.01)
        assert abs(population_1(y) - population_1(x)) <= 1e-14

    def test_ramsey_matches_explicit_pulses(self):
        # each row's pulse noise rebuilt from its own draw, stepped one step at a
        # time through pulse 1, the exact free rotation and explicit 0 and 90
        # degree second pulses; teeth up to 10 kHz vary within a 25 us pulse
        spec = deph_spec(1.5, omega0_hz=2000.0, teeth=5, seed=13)
        delta, pulse_rabi, n = TWO_PI * 500.0, TWO_PI * 1e4, 6
        taus = [0.0, 1e-4, 3e-4]
        rec = ramsey(spec, fringe_detuning=delta, pulse_rabi=pulse_rabi, taus=taus,
                     n_realizations=n)
        t_pulse = 0.5 * math.pi / pulse_rabi
        dt = t_pulse / rec.meta["pulse_steps"]
        mids = dt * (np.arange(rec.meta["pulse_steps"]) + 0.5)

        def pulse(beta, phase):
            return HamiltonianSamples(z_coeff=0.5 * (delta - beta), rabi=pulse_rabi,
                                      phase=phase)

        for it, tau in enumerate(taus):
            p = np.empty((n, 2))
            for row in range(n):
                psi = draw_phases(spec, it * n + row)
                state = loop_propagate(ket0(), pulse(
                    detuning_waveform_at(spec, psi, mids), 0.0), dt)
                ends = phase_waveform_at(spec, psi, np.array([t_pulse, t_pulse + tau]))
                state = rotate_z(state, delta * tau - (ends[1] - ends[0]))
                beta = detuning_waveform_at(spec, psi, (t_pulse + tau) + mids)
                p[row] = [population_1(loop_propagate(state, pulse(beta, phase), dt))
                          for phase in (0.0, 0.5 * math.pi)]
            u = 2.0 * p - 1.0
            u_mean = u.mean(axis=0)
            vis = np.hypot(*u_mean)
            expect = (p[:, 0].mean(), p[:, 0].std(ddof=1) / math.sqrt(n), vis,
                      (u @ (u_mean / vis)).std(ddof=1) / math.sqrt(n))
            got = (rec.mean[it], rec.stderr[it], rec.visibility[it], rec.visibility_err[it])
            assert np.max(np.abs(np.subtract(got, expect))) <= 1e-12


def count_phasors(monkeypatch, passthrough=False):
    """Shapes of the blocks ``qubit`` turns into phasors, recorded per call.

    With ``passthrough`` the real phases of the (rows, J) draw blocks go to the
    evaluators unconverted; a pulse's drive phase is converted either way.
    """
    shapes = []
    real = qubit.phasors

    def counting(psi):
        shapes.append(np.shape(psi))
        return psi if passthrough and np.ndim(psi) == 2 else real(psi)

    monkeypatch.setattr(qubit, "phasors", counting)
    return shapes


class TestPhasorReuse:
    RAMSEY = dict(fringe_detuning=TWO_PI * 500.0, pulse_rabi=TWO_PI * 1e4,
                  taus=[1e-3, 2e-3, 3e-3], n_realizations=4)
    # each noisy pulse takes the one phasor of its constant drive phase
    PULSES = [(1,), (1,)]

    @pytest.mark.parametrize("frozen", [False, True])
    def test_ramsey_once_per_draw_block(self, monkeypatch, frozen):
        # alpha = 0 simulates one trajectory, from one draw row
        shapes = count_phasors(monkeypatch)
        ramsey(deph_spec(0.0 if frozen else 1.5, teeth=20, seed=7), **self.RAMSEY)
        assert shapes == ([(1, 20)] + self.PULSES * 3 if frozen
                          else ([(4, 20)] + self.PULSES) * 3)

    def test_rabi_once(self, monkeypatch):
        shapes = count_phasors(monkeypatch)
        rabi(amp_spec(0.02), drive_rabi=TWO_PI * 100.0, durations=[0.0, 1e-3, 2e-3],
             n_realizations=3)
        assert shapes == [(3, 20)]

    def test_zero_alpha_draws_one_row(self, monkeypatch):
        shapes = count_phasors(monkeypatch)
        ramsey(deph_spec(0.0, teeth=20), **self.RAMSEY)
        rabi(amp_spec(0.0), drive_rabi=TWO_PI * 100.0, durations=[0.0, 1e-3, 2e-3],
             n_realizations=3)
        assert shapes == [(1, 20)] + self.PULSES * 3 + [(1, 20)]

    def test_ramsey_bits_match_per_call_trig(self, monkeypatch):
        spec = deph_spec(1.5, teeth=20, seed=7)
        shared = ramsey(spec, **self.RAMSEY)
        count_phasors(monkeypatch, passthrough=True)
        per_call = ramsey(spec, **self.RAMSEY)
        for name in ("mean", "stderr", "visibility", "visibility_err"):
            assert getattr(shared, name).tobytes() == getattr(per_call, name).tobytes()


def rabi_closed_form(spec, drive_rabi, times, psi):
    """Commuting sigma_x evolution: exact P1 for resonant amplitude noise.

    theta(t) = Omega0 [t + alpha sum_j F(j) (sin(w_j t + psi_j) - sin(psi_j)) / w_j]
    """
    F = spec.envelope_table()
    wj = spec.tooth_frequencies()
    out = np.empty((psi.shape[0], len(times)))
    for i, t in enumerate(times):
        integral = np.sum(spec.alpha * F * (np.sin(wj * t + psi) - np.sin(psi)) / wj,
                          axis=1)
        out[:, i] = np.sin(0.5 * drive_rabi * (t + integral)) ** 2
    return out


def rabi_midpoint_sum(spec, drive_rabi, dt, marks, psi):
    """P1 at each mark from the explicit step-by-step midpoint sum, in long double.

    theta_n = Omega0 dt sum_{k<n} [1 + sum_j a_j cos(j omega0 (k + 1/2) dt + psi_j)]
    """
    ld = np.longdouble
    t = (np.arange(max(marks), dtype=ld) + ld(0.5)) * ld(dt)
    w = ld(spec.omega0) * np.arange(1, spec.teeth + 1, dtype=ld)
    a = spec.tooth_amplitudes().astype(ld)
    phase = w[None, :, None] * t + psi.astype(ld)[:, :, None]
    drive = ld(drive_rabi) * ld(dt) * (1 + np.sum(a[:, None] * np.cos(phase), axis=1))
    theta = np.concatenate((np.zeros((len(psi), 1), dtype=ld), np.cumsum(drive, axis=-1)),
                           axis=-1)
    return np.sin(theta[:, marks] / 2) ** 2


class TestRabi:
    def test_zero_alpha_exact(self):
        spec = amp_spec(0.0)
        omega = TWO_PI * 1e3
        durations = np.linspace(0.0, 4e-3, 9)
        rec = rabi(spec, drive_rabi=omega, durations=durations, n_realizations=1)
        expect = np.sin(0.5 * omega * rec.sweep) ** 2
        assert np.allclose(rec.mean, expect, atol=1e-12)

    def test_closed_form_oracle(self):
        # the propagator result matches the exact commuting-rotation solution
        spec = amp_spec(0.03, seed=41)
        omega = TWO_PI * 1e3
        durations = np.linspace(0.5e-3, 4e-3, 5)
        n = 20
        rec = rabi(spec, drive_rabi=omega, durations=durations, n_realizations=n)
        from bathforge.noise import draw_phase_matrix
        psi = draw_phase_matrix(spec, range(n))
        exact = rabi_closed_form(spec, omega, rec.sweep, psi).mean(axis=0)
        assert np.max(np.abs(rec.mean - exact)) < 2e-7

    def test_bessel_oracle(self):
        # with constant drive phase theta = Omega0 t + sum_j r_j cos(psi_j'),
        # r_j = 2 Omega0 a_j sin(w_j t/2)/w_j, and uniform independent phases give
        # E[cos theta] = cos(Omega0 t) prod_j J0(r_j) exactly; the bound is fixed
        # at 4.5 standard errors per point
        spec = amp_spec(0.3, teeth=3, seed=61)
        omega = TWO_PI * 1e3
        a = spec.tooth_amplitudes()[:, None]
        wj = spec.tooth_frequencies()[:, None]
        t_dec = 2.0 / (omega * math.sqrt(np.sum(a**2)))
        rec = rabi(spec, drive_rabi=omega, durations=np.linspace(0.05, 4.0, 60) * t_dec,
                   n_realizations=5000)
        r = 2.0 * omega * a * np.sin(0.5 * wj * rec.sweep) / wj
        exact = 0.5 * (1.0 - np.cos(omega * rec.sweep) * np.prod(j0(r), axis=0))
        assert np.max(np.abs(rec.mean - exact) / rec.stderr) <= 4.5
        # the Gaussian form J0(r) ~ exp(-r^2/4) misses the same bound
        gauss = 0.5 * (1.0 - np.cos(omega * rec.sweep) * np.exp(-0.25 * np.sum(r**2, axis=0)))
        assert np.max(np.abs(rec.mean - gauss) / rec.stderr) > 4.5

    def test_dt_refinement_converges(self):
        spec = amp_spec(0.03, seed=43)
        omega = TWO_PI * 1e3
        durations = np.linspace(0.5e-3, 3e-3, 4)
        coarse = rabi(spec, drive_rabi=omega, durations=durations, n_realizations=10)
        fine = rabi(spec, drive_rabi=omega, durations=coarse.sweep,
                    n_realizations=10, dt=coarse.meta["dt"] / 10.0)
        assert np.allclose(coarse.sweep, fine.sweep, rtol=1e-12)
        assert np.max(np.abs(coarse.mean - fine.mean)) < 1e-6

    def test_means_match_closed_form_from_single_draws(self):
        # theta = Omega0 [t + alpha sum_j F_j/w_j (sin(w_j t + psi_j) - sin psi_j)],
        # built from one draw_phases call per realization
        spec = amp_spec(0.04, seed=47)
        omega = TWO_PI * 1e3
        n = 12
        rec = rabi(spec, drive_rabi=omega, durations=np.linspace(0.2e-3, 5e-3, 9),
                   n_realizations=n)
        F = spec.envelope_table()
        wj = spec.omega0 * np.arange(1, spec.teeth + 1)
        p1 = np.zeros(len(rec.sweep))
        for i in range(n):
            psi = draw_phases(spec, i)
            for k, t in enumerate(rec.sweep):
                wiggle = np.sum(F / wj * (np.sin(wj * t + psi) - np.sin(psi)))
                p1[k] += math.sin(0.5 * omega * (t + spec.alpha * wiggle)) ** 2 / n
        assert np.max(np.abs(rec.mean - p1)) < 1e-6

    def test_matches_step_loop_at_every_mark(self):
        # the summed angle against the one-step-at-a-time reference integrator,
        # fed the same sampled drive rows; teeth up to 1 kHz make the drive vary
        spec = amp_spec(0.15, omega0_hz=200.0, teeth=5, seed=29)
        omega = TWO_PI * 1e3
        n = 4
        rec = rabi(spec, drive_rabi=omega, durations=np.linspace(0.0, 3e-3, 13),
                   n_realizations=n)
        dt = rec.meta["dt"]
        mids = dt * (np.arange(rec.meta["n_steps"]) + 0.5)
        drive = omega * (1.0 + amplitude_waveform_at(
            spec, phasors(draw_phase_matrix(spec, range(n))), mids))
        states = ket0_rows(n)
        p1 = np.empty((n, len(rec.sweep)))
        done = 0
        for k, mark in enumerate(np.round(rec.sweep / dt).astype(int)):
            states = loop_propagate(states, HamiltonianSamples(
                z_coeff=0.0, rabi=drive[:, done:mark], phase=0.0), dt)
            p1[:, k] = population_1(states)
            done = mark
        assert np.max(np.abs(rec.mean - p1.mean(axis=0))) < 1e-12
        assert np.max(np.abs(rec.stderr - p1.std(axis=0, ddof=1) / math.sqrt(n))) < 1e-12

    def test_zero_alpha_errors_exactly_zero(self):
        # without noise every member follows one trajectory, simulated once
        rec = rabi(amp_spec(0.0), drive_rabi=TWO_PI * 1e3,
                   durations=np.linspace(0.0, 4e-3, 9), n_realizations=5)
        assert np.all(rec.stderr == 0.0)
        assert rec.n_realizations == 5

    def test_dt_above_step_limit_rejected(self):
        # 2 pi x 1 kHz x (1 + beta) x 1e-4 s is about 0.6 rad per step
        with pytest.raises(ValidationError, match="Omega"):
            rabi(amp_spec(0.03), drive_rabi=TWO_PI * 1e3, durations=[1e-3],
                 n_realizations=2, dt=1e-4)

    def test_unsorted_duplicate_zero_durations(self):
        spec = amp_spec(0.03, seed=9)
        kwargs = dict(drive_rabi=TWO_PI * 1e3, n_realizations=15)
        durations = np.array([3e-3, 0.0, 1e-3, 3e-3, 2e-3, 0.0])
        ordered = np.unique(durations)
        shuffled = rabi(spec, durations=durations, **kwargs)
        ref = rabi(spec, durations=ordered, **kwargs)
        where = np.searchsorted(ordered, durations)
        for field in ("sweep", "mean", "stderr"):
            assert np.array_equal(getattr(shuffled, field), getattr(ref, field)[where])
        assert np.all(shuffled.mean[durations == 0.0] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(teeth=st.integers(1, 24), rows=st.integers(1, 6), strength=st.floats(0.0, 0.9),
           dt_frac=st.floats(0.05, 1.0), drive_frac=st.floats(0.05, 1.0),
           marks=st.lists(st.integers(0, 2000), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_long_double_midpoint_sum(self, teeth, rows, strength, dt_frac,
                                              drive_frac, marks, seed):
        # a user dt up to the Nyquist limit, and the strongest drive the per-step
        # bound allows; the marks include 0 and a duplicate
        spec = amp_spec(strength / teeth, teeth=teeth, seed=seed)
        dt = dt_frac * math.pi / spec.omega_cutoff
        drive = drive_frac * qubit._STEP_LIMIT / (dt * (1.0 + strength))
        marks = [0] + marks + marks[:1]
        rec = rabi(spec, drive_rabi=drive, durations=dt * np.array(marks),
                   n_realizations=rows, dt=dt)
        exact = rabi_midpoint_sum(spec, drive, dt, marks, draw_phase_matrix(spec, range(rows)))
        assert np.max(np.abs(rec.mean - exact.mean(axis=0))) < 1e-12

    def test_dt_past_nyquist_rejected(self, monkeypatch):
        spec = amp_spec(0.03)
        limit = math.pi / spec.omega_cutoff
        kwargs = dict(drive_rabi=1.0, durations=[1.0], n_realizations=2)
        assert rabi(spec, dt=limit, **kwargs).meta["dt"] == limit
        monkeypatch.setattr(qubit, "draw_phase_matrix", None)  # rejected before any draw
        with pytest.raises(NyquistError, match="Nyquist"):
            rabi(spec, dt=limit * (1 + 1e-9), **kwargs)

    def test_step_bound_rejected_before_any_draw(self, monkeypatch):
        # 0.045 rad per step without noise, 0.045 x (1 + 0.6) at the noise bound
        monkeypatch.setattr(qubit, "draw_phase_matrix", None)
        with pytest.raises(ValidationError, match="Omega"):
            rabi(amp_spec(0.03), drive_rabi=TWO_PI * 1e3, durations=[1e-3],
                 n_realizations=2, dt=0.045 / (TWO_PI * 1e3))

    def test_memory_flat_in_step_count(self):
        # 50 rows over ~1.2e5 steps: one (rows, n_steps) float table would be 48 MB
        spec = amp_spec(0.03)
        tracemalloc.start()
        try:
            rec = rabi(spec, drive_rabi=TWO_PI * 100.0, durations=np.linspace(0.0, 6.0, 64),
                       n_realizations=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rec.meta["n_steps"] > 1.1e5
        assert peak < 5e6

    def test_deterministic(self):
        spec = amp_spec(0.02, seed=3)
        kwargs = dict(drive_rabi=TWO_PI * 500.0, durations=[1e-3, 2e-3],
                      n_realizations=25)
        assert rabi(spec, **kwargs).mean.tobytes() == rabi(spec, **kwargs).mean.tobytes()

    def test_zero_realizations_rejected(self):
        with pytest.raises(ValidationError):
            rabi(amp_spec(0.1), drive_rabi=1.0, durations=[1e-3], n_realizations=0)

    def test_fractional_realizations_rejected(self):
        with pytest.raises(ValidationError, match="n_realizations"):
            rabi(amp_spec(0.1), drive_rabi=1.0, durations=[1e-3], n_realizations=2.5)

    def test_requires_amplitude_spec(self):
        with pytest.raises(ValidationError):
            rabi(deph_spec(0.1), drive_rabi=1.0, durations=[1e-3], n_realizations=1)

    @pytest.mark.parametrize("drive_rabi", [0.0, -TWO_PI * 1e3, math.nan, math.inf])
    def test_bad_drive_rabi_rejected(self, drive_rabi):
        with pytest.raises(ValidationError, match="drive_rabi"):
            rabi(amp_spec(0.03), drive_rabi=drive_rabi, durations=[1e-3],
                 n_realizations=2)

    @pytest.mark.parametrize("dt", [-1e-6, 0.0, math.nan, math.inf])
    def test_bad_user_dt_rejected(self, dt):
        with pytest.raises(ValidationError, match="dt"):
            rabi(amp_spec(0.03), drive_rabi=TWO_PI * 1e3, durations=[1e-3],
                 n_realizations=2, dt=dt)

    @pytest.mark.parametrize("durations", [[], [math.nan], [1e-3, math.inf], [-1e-3]])
    def test_bad_durations_rejected(self, durations):
        with pytest.raises(ValidationError, match="durations"):
            rabi(amp_spec(0.03), drive_rabi=TWO_PI * 1e3, durations=durations,
                 n_realizations=2)


class TestRecordExport:
    def test_csv_round_numbers(self, tmp_path):
        spec = deph_spec(0.0)
        rec = ramsey(spec, fringe_detuning=TWO_PI * 100.0, pulse_rabi=TWO_PI * 1e4,
                     taus=[1e-3, 2e-3], n_realizations=2)
        path = tmp_path / "rec.csv"
        export_record_csv(rec, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "sweep,mean,stderr,visibility,visibility_err"
        assert len(lines) == 4


class TestRecordChecks:
    @pytest.mark.parametrize("name, values", [("mean", [0.5, math.nan]),
                                              ("mean", [0.5, 1.5]),
                                              ("mean", [-0.1, 0.5]),
                                              ("stderr", [0.1, math.nan]),
                                              ("stderr", [0.1, -1e-3]),
                                              ("stderr", [0.01, math.inf]),
                                              ("mean", [0.5, 0.5, 0.5]),
                                              ("mean", [[0.5, 0.5]]),
                                              ("stderr", [0.01])])
    def test_bad_values_rejected(self, name, values):
        # NaN fails no `<` or `>` comparison, so each check is written as the
        # range the values must lie in; means and errors sit one per sweep
        # point, so a mismatch fails here and not in a later fit
        fields = {"mean": np.full(2, 0.5), "stderr": np.full(2, 0.01)}
        fields[name] = np.array(values)
        with pytest.raises(ValidationError, match=name):
            ExperimentRecord(kind="ramsey", sweep=np.array([1e-3, 2e-3]),
                             n_realizations=2, spec_hash="x", **fields)
