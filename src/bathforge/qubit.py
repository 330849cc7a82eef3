"""Single-qubit evolution under engineered noise; Ramsey and Rabi ensembles.

The interaction-picture Hamiltonian is

    H(t) = c_z(t) * sigma_z + (Omega(t)/2) [cos(phi_C) sigma_x + sin(phi_C) sigma_y]

with ``c_z = (Delta - beta_z)/2``: a static fringe detuning Delta plus the
engineered detuning noise, which enters with a minus sign because it derives
from phase modulation of the local oscillator.  Every unitary is an SU(2)
element held as a unit quaternion (w, x, y, z), U = w I - i (x sx + y sy + z sz).
``_unitary`` writes the exact Pauli exponential of each piecewise-constant
sample and multiplies the steps pairwise down to one quaternion, which
``propagate`` applies to a state.  A Ramsey shot forms no state: it is one
product U = U_2 Rz(theta) U_1 with P1 = x^2 + y^2.  sigma_z terms at different
times commute, so free evolution is the exact rotation Rz(theta) by
theta = Delta tau - [phi_N(t_pulse + tau) - phi_N(t_pulse)].  A noise-free
pulse has a constant Hamiltonian and is one exact rotation; with pulse noise
each draw block samples both pulse windows in one comb call.  The 90 degree
analysis pulse is Rz(pi/2) U_2 Rz(-pi/2) and P1 cannot see the final Rz, so
that phase is the same product at theta - pi/2.  The Rabi drive commutes
with itself too (sigma_x at every step), so each trajectory is one x rotation;
its midpoint sum is a geometric series per tooth, one comb call for every
mark.  At alpha = 0 every realization is the same trajectory, so Ramsey and
Rabi simulate one row and report standard errors of exactly 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError, require_int, require_sweep
from .grid import write_csv
from .noise import (NoiseSpec, Quadrature, _require_nyquist, amplitude_waveform_at,
                    detuning_waveform_at, draw_phase_matrix, phase_waveform_at, phasors)

_STEP_LIMIT = 0.05  # max rotation angle per piecewise-constant step, rad
_CHUNK = 4096  # steps reduced to one unitary at a time, so scratch memory stays flat


@dataclass(frozen=True)
class HamiltonianSamples:
    """Piecewise-constant Hamiltonian coefficients, one entry per step.

    ``z_coeff`` multiplies sigma_z (rad/s), ``rabi`` is the drive amplitude
    Omega (rad/s) and ``phase`` the drive phase phi_C (rad).  Each is a scalar
    or an array whose last axis runs over the m steps, with any leading axes
    over an ensemble; the three broadcast together, and all-scalar samples
    are one step.
    """

    z_coeff: np.ndarray
    rabi: np.ndarray
    phase: np.ndarray


@dataclass
class ExperimentRecord:
    """Ensemble-averaged experiment output on a sweep grid."""

    kind: str
    sweep: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_realizations: int
    spec_hash: str
    visibility: Optional[np.ndarray] = None
    visibility_err: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # written so that NaN fails them
        if not np.all((self.mean >= -1e-9) & (self.mean <= 1 + 1e-9)):
            raise ValidationError("mean: populations must lie in [0, 1]")
        if not np.all(self.stderr >= 0):
            raise ValidationError("stderr: standard errors must be >= 0")


def ket0() -> np.ndarray:
    """|0> state."""
    return np.array([1.0 + 0.0j, 0.0j])


def propagate(state: np.ndarray, samples: HamiltonianSamples, dt: float) -> np.ndarray:
    """Evolve a copy of ``state`` through every piecewise-constant sample.

    The product of the samples' exact step unitaries is applied to the state
    once, so norm is preserved to rounding regardless of step count.  Steps
    must satisfy Omega*dt <= 0.05 and |2 z_coeff|*dt <= 0.05 so that sampling
    the time-dependent coefficients once per step is accurate, and every
    coefficient, the phases included, must be finite.
    """
    _require_positive("dt", dt)
    # written so that NaN fails them
    if not np.max(np.abs(samples.rabi), initial=0.0) * dt <= _STEP_LIMIT * (1 + 1e-9):
        raise ValidationError(f"rabi: Omega*dt must be finite and <= {_STEP_LIMIT} rad per step")
    if not np.max(np.abs(samples.z_coeff), initial=0.0) * 2.0 * dt <= _STEP_LIMIT * (1 + 1e-9):
        raise ValidationError(
            f"z_coeff: |2 z_coeff|*dt must be finite and <= {_STEP_LIMIT} rad per step")
    if not np.all(np.isfinite(samples.phase)):
        raise ValidationError("phase: drive phases must be finite")
    w, x, y, z = _unitary(samples, dt)
    state = np.asarray(state, dtype=complex)
    a, b = state[..., 0], state[..., 1]
    return np.stack(((w - 1j * z) * a - (y + 1j * x) * b,
                     (y - 1j * x) * a + (w + 1j * z) * b), axis=-1)


def _unitary(samples: HamiltonianSamples, dt: float) -> np.ndarray:
    """Product of the samples' step unitaries as a (4, ...) unit quaternion.

    Step k is exp(-i dt v_k.sigma/2) = w I - i (x sx + y sy + z sz) with
    w = cos(|v_k| dt/2) and (x, y, z) = sin(|v_k| dt/2) v_k/|v_k|.  Each run of
    ``_CHUNK`` steps is multiplied pairwise, later step on the left, down to
    one quaternion, which is folded into a product that starts at the
    identity.  The step is exact at any ``dt``; only :func:`propagate` needs
    the per-step rotation limit.
    """
    z = np.atleast_1d(np.asarray(samples.z_coeff, dtype=float))
    om = np.atleast_1d(np.asarray(samples.rabi, dtype=float))
    ph = np.atleast_1d(np.asarray(samples.phase, dtype=float))
    # per-step rotation vector, computed once for the whole call
    vx, vy, vz = np.broadcast_arrays(om * np.cos(ph), om * np.sin(ph), 2.0 * z)
    u = np.zeros((4,) + vx.shape[:-1])
    u[0] = 1.0
    for start in range(0, vx.shape[-1], _CHUNK):
        block = slice(start, start + _CHUNK)
        v = np.stack((vx[..., block], vy[..., block], vz[..., block]))
        norm = np.sqrt(np.sum(v * v, axis=0))
        half = 0.5 * norm * dt
        # sin(half)/norm, safe at norm == 0 where the step is the identity
        s_over = np.where(norm > 0, np.sin(half) / np.where(norm > 0, norm, 1.0), 0.5 * dt)
        q = np.concatenate((np.cos(half)[None], s_over * v))
        while q.shape[-1] > 1:
            even = q.shape[-1] // 2 * 2
            q = np.concatenate((_compose(q[..., 1:even:2], q[..., 0:even:2]),
                                q[..., even:]), axis=-1)
        u = _compose(q[..., 0], u)
    return u


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Unit-quaternion product ``later * earlier`` of (4, ...) arrays: the
    unitary of ``earlier`` followed by ``later``."""
    w2, x2, y2, z2 = later
    w1, x1, y1, z1 = earlier
    return np.stack((w2 * w1 - (x2 * x1 + y2 * y1 + z2 * z1),
                     w2 * x1 + w1 * x2 + (y2 * z1 - z2 * y1),
                     w2 * y1 + w1 * y2 + (z2 * x1 - x2 * z1),
                     w2 * z1 + w1 * z2 + (x2 * y1 - y2 * x1)))


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and > 0, got {value}")


def _mean_stderr(p: np.ndarray):
    """Mean and standard error over axis 0; the error is exactly 0 for one row."""
    rows = len(p)
    se = p.std(axis=0, ddof=1) / math.sqrt(rows) if rows > 1 else np.zeros(p.shape[1:])
    return p.mean(axis=0), se


def ramsey(spec: NoiseSpec, *, fringe_detuning: float, pulse_rabi: float,
           taus: Sequence[float], n_realizations: int,
           noise_during_pulses: bool = True) -> ExperimentRecord:
    """Ramsey fringes under engineered dephasing noise.

    Protocol per realization: pi/2 drive about x, free evolution for tau
    under ``c_z = (Delta - beta_z)/2``, then a second pi/2 pulse.  The
    engineered noise acts during free evolution and, by default, during the
    pulses as well.  Populations come from noiseless projection of the exact
    final state; the per-point scatter is purely the noise ensemble's.

    Each shot is one quaternion product U = U_2 Rz(theta) U_1 with
    theta = Delta tau - [phi_N(t_pulse + tau) - phi_N(t_pulse)], read as
    P1 = x^2 + y^2.  The 90 degree analysis phase is the same product at
    theta - pi/2; with the 0 degree phase it gives the record's pointwise
    visibility.  A noisy pulse is stepped at its midpoints within the 0.05
    rad step limit, a noise-free one is one exact rotation, and
    ``meta["pulse_steps"]`` counts the steps per pulse.

    Each (tau point, ensemble member) pair uses an independent phase draw,
    like repeated shots on hardware with a free-running noise source.  At
    alpha = 0 every draw gives the same trajectory, so that one trajectory
    is simulated once and its standard errors are 0; ``meta["freeze_phases"]``
    records whether it was (``spec.alpha == 0``).
    """
    if spec.quadrature is not Quadrature.DEPHASING:
        raise ValidationError("ramsey requires a dephasing noise spec")
    require_int("n_realizations", n_realizations, 1)
    _require_positive("pulse_rabi", pulse_rabi)
    taus = require_sweep("taus", taus)
    if not math.isfinite(fringe_detuning):
        raise ValidationError(f"fringe_detuning must be finite, got {fringe_detuning}")
    if fringe_detuning == 0:
        warnings.warn("fringe detuning of 0 makes the decay fit degenerate",
                      UserWarning, stacklevel=2)
    t_pulse = 0.5 * math.pi / pulse_rabi
    pulse = HamiltonianSamples(z_coeff=0.5 * fringe_detuning, rabi=pulse_rabi, phase=0.0)
    if noise_during_pulses:
        # |2 c_z| <= |Delta| + sum_j |a_j| bounds the z rotation rate
        z_bound = float(np.sum(np.abs(spec.tooth_amplitudes()))) + abs(fringe_detuning)
        n_steps = max(4, math.ceil(max(pulse_rabi, z_bound) * t_pulse / _STEP_LIMIT))
        dt = t_pulse / n_steps
        mids = dt * (np.arange(n_steps) + 0.5)
    else:
        # a constant Hamiltonian: each pulse is one exact rotation
        n_steps = 1
        first = second = _unitary(pulse, t_pulse)
    n = n_realizations
    mean, se, vis, vis_se = np.empty((4, len(taus)))
    # at alpha = 0 every realization is the same trajectory
    frozen = spec.alpha == 0
    for it, tau in enumerate(taus):
        if it == 0 or not frozen:
            # the comb evaluations below share this block's phasors; the
            # previous block is released before this one is drawn
            z = None
            z = phasors(draw_phase_matrix(spec, [0] if frozen else range(it * n, (it + 1) * n)))
        if noise_during_pulses:
            # one comb call samples the noise of both pulse windows; each
            # pulse is reduced in its own call, so one step table is live
            beta = detuning_waveform_at(spec, z,
                                        np.concatenate((mids, (t_pulse + tau) + mids)))
            first, second = (_unitary(replace(pulse, z_coeff=0.5 * (fringe_detuning - b)), dt)
                             for b in np.split(beta, [n_steps], axis=-1))
        # free evolution is exact: integral of beta_z is a phi_N difference
        ends = phase_waveform_at(spec, z, np.array([t_pulse, t_pulse + tau]))
        theta = fringe_detuning * tau - (ends[..., 1] - ends[..., 0])
        # Rz(a) = (cos(a/2), 0, 0, sin(a/2)); the 90 degree phase takes
        # sqrt(2) Rz(theta - pi/2) = (c + s, 0, 0, s - c), exact in pi/2, and
        # halves its P1, which is quadratic in the Rz factor
        c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
        zero = np.zeros((2,) + c.shape)
        rz = np.stack((np.stack((c, c + s)), zero, zero, np.stack((s, s - c))))
        _, x, y, _ = _compose(second, _compose(rz, first))
        p_a, p_b = (x * x + y * y) * [[1.0], [0.5]]
        # statistics over the rows simulated: one row when frozen
        mean[it], se[it] = _mean_stderr(p_a)
        u = np.stack([2 * p_a - 1, 2 * p_b - 1], axis=1)
        u_mean = u.mean(axis=0)
        v = float(np.hypot(*u_mean))
        vis[it] = v
        vis_se[it] = _mean_stderr(u @ (u_mean / v))[1] if v > 0 else 0.0
    return ExperimentRecord(
        kind="ramsey", sweep=taus, mean=mean, stderr=se,
        n_realizations=n, spec_hash=spec.spec_hash(),
        visibility=vis, visibility_err=vis_se,
        meta={"freeze_phases": frozen, "pulse_steps": n_steps})


def rabi(spec: NoiseSpec, *, drive_rabi: float, durations: Sequence[float],
         n_realizations: int, dt: float | None = None) -> ExperimentRecord:
    """Driven Rabi flopping under engineered amplitude noise.

    Each ensemble member is one continuous drive trajectory with
    Omega(t) = Omega_0 (1 + beta(t)) at step midpoints; populations are
    recorded when the running time crosses each requested duration (snapped
    to the step grid, the snapped values are returned as the sweep).  The
    default step keeps both the drive rotation per step below 0.05 rad and
    the sample rate at >= 20x the highest comb tooth.  A user ``dt`` with
    Omega_0 (1 + sum_j |a_j|) dt > 0.05 rad is rejected, and one past
    pi/(J omega0) raises ``NyquistError``.  At alpha = 0 every member is the
    same trajectory, so it is simulated once and the standard errors are 0.
    """
    if spec.quadrature is not Quadrature.AMPLITUDE:
        raise ValidationError("rabi requires an amplitude noise spec")
    require_int("n_realizations", n_realizations, 1)
    _require_positive("drive_rabi", drive_rabi)
    durations = require_sweep("durations", durations)
    om_bound = drive_rabi * (1.0 + float(np.sum(np.abs(spec.tooth_amplitudes()))))
    if dt is None:
        dt = min(_STEP_LIMIT / om_bound, math.pi / (10.0 * spec.omega_cutoff))
    _require_positive("dt", dt)
    if om_bound * dt > _STEP_LIMIT * (1 + 1e-9):
        raise ValidationError(f"Omega*dt can exceed {_STEP_LIMIT} rad per step")
    _require_nyquist(spec, dt)  # below it, no sin(w_j dt/2) is 0
    t_max = float(np.max(durations))
    n_steps = max(1, int(math.ceil(t_max / dt - 1e-12)))
    marks = np.clip(np.round(durations / dt).astype(int), 0, n_steps)
    # distinct marks, sorted and with 0 first, so no value depends on sweep order
    steps, where = np.unique(np.concatenate(([0], marks)), return_inverse=True)
    # at alpha = 0 every realization is the same trajectory
    z = phasors(draw_phase_matrix(spec, range(n_realizations if spec.alpha > 0 else 1)))
    # theta_n = Omega_0 dt [n + Re sum_j a_j z_j (e^{i w_j n dt} - 1) / (2i sin(w_j dt/2))]
    wiggle = amplitude_waveform_at(
        spec, z / (2j * np.sin(0.5 * dt * spec.tooth_frequencies())), dt * steps)
    theta = drive_rabi * dt * (steps + (wiggle - wiggle[:, :1]))[:, where[1:]]
    mean, se = _mean_stderr(np.sin(0.5 * theta) ** 2)
    return ExperimentRecord(
        kind="rabi", sweep=marks * dt, mean=mean, stderr=se,
        n_realizations=n_realizations, spec_hash=spec.spec_hash(),
        meta={"dt": dt, "n_steps": n_steps})


def export_record_csv(record: ExperimentRecord, path) -> None:
    """CSV of (sweep value, mean, stderr[, visibility, visibility_err])."""
    cols = [record.sweep, record.mean, record.stderr]
    names = "sweep,mean,stderr"
    if record.visibility is not None:
        cols += [record.visibility, record.visibility_err]
        names += ",visibility,visibility_err"
    write_csv(path, cols, f"# bathforge {record.kind} spec={record.spec_hash} "
                          f"n={record.n_realizations}\n{names}")
