"""Single-qubit evolution under engineered noise; Ramsey and Rabi ensembles.

The interaction-picture Hamiltonian is

    H(t) = c_z(t) * sigma_z + (Omega(t)/2) [cos(phi_C) sigma_x + sin(phi_C) sigma_y]

with ``c_z = (Delta - beta_z)/2``: a static fringe detuning Delta plus the
engineered detuning noise, which enters with a minus sign because it derives
from phase modulation of the local oscillator.  ``propagate`` and the Ramsey
pulses evolve through ``_evolve``, which writes the exact, unconditionally
unitary 2x2 Pauli exponential of each piecewise-constant sample as a unit
quaternion, multiplies each run of steps pairwise down to one unitary and
applies that to the states once.  Each Ramsey draw block samples the noise
of both pulses in one comb call and reduces the second pulse once for both
analysis phases: the 90 degree pulse is Rz(pi/2) U_0 Rz(-pi/2), and a
population readout cannot see the final Rz.  Free evolution under pure
sigma_z terms is applied in closed form through differences of the
accumulated phase phi_N (sigma_z terms at different times commute), so it
carries no discretization error.  The Rabi drive commutes with itself too
(sigma_x at every step), so each trajectory is one x rotation; its midpoint
sum is a geometric series per tooth, one comb call for every mark.  At
alpha = 0 every realization is the same trajectory, so Ramsey and Rabi
simulate one row and report standard errors of exactly 0.
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
    Omega (rad/s) and ``phase`` the drive phase phi_C (rad).  Arrays are
    (m,) for a single trajectory or (batch, m) for an ensemble.
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
        if np.any(self.mean < -1e-9) or np.any(self.mean > 1 + 1e-9):
            raise ValidationError("populations must lie in [0, 1]")
        if np.any(self.stderr < 0):
            raise ValidationError("standard errors must be >= 0")


def ket0(batch: int | None = None) -> np.ndarray:
    """|0> state, optionally replicated into a (batch, 2) block."""
    s = np.array([1.0 + 0.0j, 0.0j])
    return s if batch is None else np.tile(s, (batch, 1))


def population_1(state: np.ndarray) -> np.ndarray:
    """P(|1>) of a (..., 2) state array."""
    return np.abs(state[..., 1]) ** 2


def rotate_z(state: np.ndarray, angle) -> np.ndarray:
    """Exact z rotation exp(-i angle sigma_z / 2) applied to (..., 2) states."""
    phase = np.exp(-0.5j * np.asarray(angle))
    state[..., 0] = state[..., 0] * phase
    state[..., 1] = state[..., 1] * np.conj(phase)
    return state


def propagate(state: np.ndarray, samples: HamiltonianSamples, dt: float) -> np.ndarray:
    """Evolve a copy of ``state`` through every piecewise-constant sample.

    Each sample contributes the exact unitary of its Hamiltonian, and the
    product of those unitaries is applied to the state, so norm is preserved to
    rounding regardless of step count.  Steps must satisfy Omega*dt <= 0.05 and
    |2 z_coeff|*dt <= 0.05 so that sampling the time-dependent coefficients
    once per step is accurate.
    """
    return _evolve(np.array(state, dtype=complex, copy=True), samples, dt)


def _evolve(states: np.ndarray, samples: HamiltonianSamples, dt: float) -> np.ndarray:
    """In-place core of :func:`propagate`, the only place a state evolves.

    Step k is exp(-i dt v_k.sigma/2) = w I - i (x sx + y sy + z sz) with
    w = cos(|v_k| dt/2) and (x, y, z) = sin(|v_k| dt/2) v_k/|v_k|.  Each run of
    ``_CHUNK`` steps is multiplied pairwise, later step on the left, down to
    one quaternion, which is applied before the next run is built.
    """
    _require_positive("dt", dt)
    z = np.atleast_1d(np.asarray(samples.z_coeff, dtype=float))
    om = np.atleast_1d(np.asarray(samples.rabi, dtype=float))
    ph = np.atleast_1d(np.asarray(samples.phase, dtype=float))
    if np.max(np.abs(om), initial=0.0) * dt > _STEP_LIMIT * (1 + 1e-9):
        raise ValidationError(f"Omega*dt exceeds {_STEP_LIMIT} rad per step")
    if np.max(np.abs(2.0 * z), initial=0.0) * dt > _STEP_LIMIT * (1 + 1e-9):
        raise ValidationError(f"|2 z_coeff|*dt exceeds {_STEP_LIMIT} rad per step")
    # per-step rotation vector, computed once for the whole call
    vx, vy, vz = np.broadcast_arrays(om * np.cos(ph), om * np.sin(ph), 2.0 * z)
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
        w, qx, qy, qz = q[..., 0]
        a = states[..., 0]
        b = states[..., 1]
        new_a = (w - 1j * qz) * a - (qy + 1j * qx) * b
        new_b = (qy - 1j * qx) * a + (w + 1j * qz) * b
        states[..., 0] = new_a
        states[..., 1] = new_b
    return states


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Unit-quaternion product ``later * earlier`` of (4, ...) arrays: the
    unitary of ``earlier`` followed by ``later``."""
    w2, x2, y2, z2 = later
    w1, x1, y1, z1 = earlier
    return np.stack((w2 * w1 - (x2 * x1 + y2 * y1 + z2 * z1),
                     w2 * x1 + w1 * x2 + (y2 * z1 - z2 * y1),
                     w2 * y1 + w1 * y2 + (z2 * x1 - x2 * z1),
                     w2 * z1 + w1 * z2 + (x2 * y1 - y2 * x1)))


def _pulse_steps(duration: float, rabi: float, z_bound: float) -> int:
    """Step count keeping both rotation rates below the per-step limit."""
    need = max(rabi, z_bound) * duration / _STEP_LIMIT
    return max(4, int(math.ceil(need)))


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

    Each (tau point, ensemble member) pair uses an independent phase draw,
    like repeated shots on hardware with a free-running noise source.  At
    alpha = 0 every draw gives the same trajectory, so that one trajectory
    is simulated once and its standard errors are 0; ``meta["freeze_phases"]``
    records whether it was (``spec.alpha == 0``).

    Besides the fringe populations the record carries a pointwise visibility,
    the ensemble average of the 0 and 90 degree fringe quadratures, both read
    through one second-pulse product on the state and its Rz(-pi/2) copy.
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
    # deterministic bound on |beta_z|
    z_bound = float(np.sum(np.abs(spec.tooth_amplitudes()))) + abs(fringe_detuning)
    n_steps = _pulse_steps(t_pulse, pulse_rabi, z_bound if noise_during_pulses
                           else abs(fringe_detuning))
    dt = t_pulse / n_steps
    mids = dt * (np.arange(n_steps) + 0.5)
    # n_steps entries, so _evolve takes n_steps steps even without pulse noise
    pulse = HamiltonianSamples(z_coeff=np.full(n_steps, 0.5 * fringe_detuning),
                               rabi=pulse_rabi, phase=0.0)
    first = second = pulse
    n = n_realizations
    mean, se, vis, vis_se = np.empty((4, len(taus)))
    # at alpha = 0 every realization is the same trajectory
    frozen = spec.alpha == 0
    for it, tau in enumerate(taus):
        if it == 0 or not frozen:
            # the two comb evaluations below share this block's phasors; the
            # previous block is released before this one is drawn
            z = None
            z = phasors(draw_phase_matrix(spec, [0] if frozen else range(it * n, (it + 1) * n)))
        if noise_during_pulses:
            # one comb call samples the noise of both pulse windows
            beta = detuning_waveform_at(spec, z,
                                        np.concatenate((mids, (t_pulse + tau) + mids)))
            first, second = (replace(pulse, z_coeff=0.5 * (fringe_detuning - b))
                             for b in np.split(beta, [n_steps], axis=-1))
        states = _evolve(ket0(z.shape[0]), first, dt)
        # free evolution is exact: integral of beta_z is a phi_N difference
        ends = phase_waveform_at(spec, z, np.array([t_pulse, t_pulse + tau]))
        dphi = ends[..., 1] - ends[..., 0]
        rotate_z(states, fringe_detuning * tau - dphi)
        # U_90 = Rz(pi/2) U_0 Rz(-pi/2) and P1 ignores the final Rz; Rz(-pi/2) is
        # diag(1, -i) up to a global phase, and the product with -i is exact
        both = np.stack((states, states * [1.0, -1j]))
        p_a, p_b = population_1(_evolve(both, second, dt))
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
