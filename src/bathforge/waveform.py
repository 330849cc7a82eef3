"""Control programs, noise composition, IQ conversion, quantization, export.

A control program is an ordered list of segments with constant Rabi
amplitude and drive phase.  Each segment also has a static detuning field
that must be 0: the phase ramp it would add is not implemented, so
``compose`` rejects a nonzero value instead of ignoring it.  Composition
samples the program on a grid, folds in at most one noise realization, whose
quadrature decides where it enters (a dephasing realization adds to the
phase, an amplitude realization scales the drive), and yields the polar pair
(Omega(t), phi(t));
``to_iq`` converts to the Cartesian baseband pair I = Omega cos(phi),
Q = Omega sin(phi) that a vector signal generator consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError, require_int
from .grid import TimeGrid, output_file, write_csv
from .noise import NoiseRealization, Quadrature


@dataclass(frozen=True)
class Segment:
    """One constant-control interval."""

    duration: float
    omega_c: float = 0.0     # Rabi amplitude, rad/s
    phi_c: float = 0.0       # drive phase, rad
    detuning: float = 0.0    # static detuning, rad/s; compose requires 0

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValidationError(
                f"segment durations must be finite and positive, got {self.duration}")
        if not (math.isfinite(self.omega_c) and math.isfinite(self.phi_c)):
            raise ValidationError(f"segment Rabi amplitude and phase must be finite, "
                                  f"got {self.omega_c}, {self.phi_c}")


@dataclass(frozen=True)
class ControlProgram:
    """Contiguous sequence of segments starting at t = 0."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValidationError("a control program needs at least one segment")

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum([s.duration for s in self.segments])])


@dataclass(frozen=True)
class QuantizedIQ:
    """Integer sample codes for an IQ pair at a given bit depth."""

    codes_i: np.ndarray
    codes_q: np.ndarray
    bits: int
    full_scale: float
    snr_db: float


@dataclass(frozen=True)
class IQWaveform:
    """Uniformly sampled baseband I/Q pair, optionally with quantized codes."""

    sample_rate: float
    i: np.ndarray
    q: np.ndarray
    quantized: Optional[QuantizedIQ] = None

    def __post_init__(self):
        if len(self.i) != len(self.q):
            raise ValidationError("I and Q must have equal length")
        if len(self.i) == 0:
            raise ValidationError("an IQ waveform needs at least one sample")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValidationError(
                f"sample rate must be finite and positive, got {self.sample_rate}")


def compose(program: ControlProgram, grid: TimeGrid,
            noise: Optional[NoiseRealization] = None):
    """Sample the program with one noise realization folded in; returns (Omega, phi).

    The realization's quadrature decides where it enters: dephasing noise
    adds its accumulated phase, phi = phi_C + phi_N, and amplitude noise
    scales the drive, Omega = Omega_C (1 + beta).  The realization must be
    sampled on the same grid used here.  A segment with a nonzero detuning
    is rejected.
    """
    if any(seg.detuning != 0 for seg in program.segments):
        raise ValidationError("segment detuning is not implemented; it must be 0")
    t = grid.times()
    if grid.duration > program.duration * (1 + 1e-12):
        raise ValidationError("grid extends beyond the program's end")
    if noise is not None and noise.grid != grid:
        raise ValidationError("noise grid does not match the sampling grid")
    bounds = program.boundaries()
    idx = np.clip(np.searchsorted(bounds, t, side="right") - 1, 0, len(program.segments) - 1)
    omega = np.array([s.omega_c for s in program.segments], dtype=float)[idx]
    phi = np.array([s.phi_c for s in program.segments], dtype=float)[idx]
    if noise is not None:
        if noise.spec.quadrature is Quadrature.DEPHASING:
            phi = phi + noise.phi_n
        else:
            omega = omega * (1.0 + noise.beta)
    return omega, phi


def to_iq(omega: np.ndarray, phi: np.ndarray, sample_rate: float) -> IQWaveform:
    """Polar-to-Cartesian transform: I = Omega cos(phi), Q = Omega sin(phi)."""
    omega = np.asarray(omega, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if omega.shape != phi.shape:
        raise ValidationError("Omega and phi must have equal length")
    return IQWaveform(sample_rate=sample_rate,
                      i=omega * np.cos(phi), q=omega * np.sin(phi))


def quantize(w: IQWaveform, bits: int = 16) -> IQWaveform:
    """Symmetric mid-tread quantization to ``2**bits`` levels.

    Codes are round(x / step) with step = full_scale / 2**(bits-1), and the
    full scale is chosen so the waveform peak maps exactly to the top code
    +-(2**(bits-1) - 1); an all-zero waveform gets full scale 1.  A sample
    that would round outside that range, as when the step of a subnormal peak
    underflows, raises instead of clipping silently.  The injected error is at
    most half a step per sample; the resulting SNR is reported on the
    quantized block.  ``bits`` is at most 16, the width of the binary export
    format.
    """
    require_int("bits", bits, 2, 16)
    if not (np.all(np.isfinite(w.i)) and np.all(np.isfinite(w.q))):
        raise ValidationError("IQ samples must be finite to quantize")
    levels = 2 ** (bits - 1)
    peak = float(max(np.max(np.abs(w.i)), np.max(np.abs(w.q))))
    top = levels - 1
    # peak/top is exactly full_scale/levels, and cannot overflow for a huge peak
    step = peak / top if peak > 0 else 1.0 / levels
    full_scale = step * levels
    overrange = (f"samples exceed the representable range +-{top * step:g} "
                 f"(full scale {full_scale:g}, {bits} bits); refusing to clip")
    if step == 0:  # a subnormal peak's step underflows, and no nonzero sample fits
        raise ValidationError(overrange)
    # in units of the step, so the sums of squares below cannot underflow
    i, q = w.i / step, w.q / step
    ci, cq = np.round(i), np.round(q)
    if np.any(np.abs(ci) > top) or np.any(np.abs(cq) > top):
        raise ValidationError(overrange)
    err = np.sum((i - ci) ** 2) + np.sum((q - cq) ** 2)
    sig = np.sum(i**2) + np.sum(q**2)
    snr_db = math.inf if err == 0 else 10.0 * math.log10(sig / err)
    qz = QuantizedIQ(codes_i=ci.astype(np.int16), codes_q=cq.astype(np.int16),
                     bits=bits, full_scale=full_scale, snr_db=snr_db)
    return IQWaveform(sample_rate=w.sample_rate, i=w.i, q=w.q, quantized=qz)


@dataclass(frozen=True)
class ContinuityReport:
    """Worst inter-sample jumps and the record-boundary discontinuity."""

    max_jump_i: float
    max_jump_q: float
    boundary_jump_i: float
    boundary_jump_q: float
    flagged: bool


def continuity_report(w: IQWaveform, threshold: Optional[float] = None) -> ContinuityReport:
    """Report discontinuities that an interpolating baseband generator would ring on.

    The boundary jump compares the last sample against the first, which is
    what matters when a waveform is looped.
    """
    if threshold is not None and not (math.isfinite(threshold) and threshold >= 0):
        raise ValidationError(f"jump threshold must be finite and >= 0, got {threshold}")
    ji = float(np.max(np.abs(np.diff(w.i)))) if len(w.i) > 1 else 0.0
    jq = float(np.max(np.abs(np.diff(w.q)))) if len(w.q) > 1 else 0.0
    bi = float(abs(w.i[-1] - w.i[0]))
    bq = float(abs(w.q[-1] - w.q[0]))
    flagged = threshold is not None and max(ji, jq, bi, bq) > threshold
    return ContinuityReport(max_jump_i=ji, max_jump_q=jq,
                            boundary_jump_i=bi, boundary_jump_q=bq, flagged=flagged)


def export_csv(w: IQWaveform, path) -> None:
    """CSV of (t, I, Q) rows, t = k * dt with dt = 1 / sample_rate."""
    t = np.arange(len(w.i)) * (1.0 / w.sample_rate)
    write_csv(path, [t, w.i, w.q], "t,i,q")


def export_binary(w: IQWaveform, path, header_path=None, spec_hash: str = "") -> None:
    """Interleaved little-endian signed 16-bit I,Q codes plus a text sidecar.

    The sidecar records everything needed to reconstruct physical units:
    sample rate, full scale, bit depth, sample count and the source spec
    hash.  The waveform must already be quantized.
    """
    if w.quantized is None:
        raise ValidationError("quantize the waveform before binary export")
    inter = np.empty(2 * len(w.i), dtype="<i2")
    inter[0::2] = w.quantized.codes_i
    inter[1::2] = w.quantized.codes_q
    with output_file(path, "wb") as fh:
        fh.write(inter.tobytes())
    if header_path is None:
        header_path = str(path) + ".hdr"
    with output_file(header_path) as fh:
        fh.write(f"format = interleaved_iq_int16_le\n"
                 f"sample_rate_hz = {w.sample_rate!r}\n"
                 f"full_scale = {w.quantized.full_scale!r}\n"
                 f"bits = {w.quantized.bits}\n"
                 f"n_samples = {len(w.i)}\n"
                 f"spec_hash = {spec_hash}\n")
