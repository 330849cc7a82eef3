"""Frequency-comb noise: specifications, stochastic realizations, analytic oracles.

A noise bath is a finite comb of J equally spaced sinusoids with random
phases.  Every quantity downstream of a spec reads one table, the tooth
amplitudes ``a_j`` (:meth:`NoiseSpec.tooth_amplitudes`) of the physical noise

    beta(t) = sum_j a_j cos(j*omega0*t + psi_j) = Re sum_j a_j z_j e^{i j omega0 t},

with ``j = 1..J`` and phasors ``z_j = e^{i psi_j}``:

* dephasing quadrature: ``a_j = alpha*omega0*j*F(j)`` in rad/s.  ``beta`` is
  the instantaneous detuning ``beta_z = d(phi_N)/dt`` of the carrier phase
  modulation ``phi_N(t) = alpha * sum_j F(j) sin(j*omega0*t + psi_j)``,
* amplitude quadrature: ``a_j = alpha*F(j)``, dimensionless.  ``beta`` is the
  fractional drive modulation ``beta_Omega``.

The envelope F(j) sets the power law of the PSD, whose delta teeth carry
weight ``(pi/2) a_j**2``.  For ``S(j*omega0) ~ (j*omega0)**p`` the envelopes
are ``F(j) = j**(p/2 - 1)`` (dephasing) and ``F(j) = j**(p/2)`` (amplitude),
so ``a_j ~ j**(p/2)`` in both quadratures.

Every waveform is ``Re sum_j b_j z_j e^{i j omega0 t}``, an amplitude row
``b_j`` times the phasors: ``b_j = a_j`` for beta, and ``b_j = -i alpha F(j)``
for phi_N, whose sine sum is the real part of a row times ``-i``.
Every tooth is a harmonic of ``omega0``, so a table ``e^{i j omega0 t}`` is
built from one transform ``e^{i omega0 t}`` per time by complex doubling.
:func:`_comb_eval` has one form: each block of ``_TIME_BLOCK`` times takes one
real product of the rows with its table, real and imaginary parts interleaved
along j, written straight into the output.  The ``*_waveform_at`` evaluators
pass the phasors as rows, given as ``psi`` or as ``phasors(psi)`` by a caller
that evaluates one draw block twice, and the amplitudes scale each
(<= _TIME_BLOCK, J) table.
:func:`realize` samples a uniform grid one of two ways, both read from the
step in turns ``omega0*dt/(2*pi) = x/y``, an exact ratio of ints (2*pi to 40
digits); beta and phi_N of a dephasing spec are two rows of one result either way.

* Commensurate grid, ``N = round(y/x)`` samples per base period
  ``T0 = 2*pi/omega0`` with ``2J + 1 <= N <= 4n`` and a step that is T0/N up
  to rounding, ``|x*N - y| <= c*y`` with ``c = 2**-50`` (twice the four float
  roundings of a grid from :meth:`TimeGrid.periods_of` or at a rate that is a
  whole multiple of f0): the record is the exact period at ``t_k = k*T0/N``,
  as a generator plays it when it loops N samples, one inverse real FFT of
  length N with ``X_j = (N/2) b_j z_j`` for ``1 <= j <= J`` wrapped to n
  samples (Timmer & Koenig 1995, with the comb's phases), so it repeats bit
  for bit.  With ``omega0*dt = 2*pi/N + s`` it lies at most
  ``J*(n - 1)*|s|*sum_j |b_j|`` from sampling at the float times ``k*dt``,
  where ``|s| <= 2*pi*c/N``.  The upper bound on N keeps the transform's
  arrays within a few records' memory.
* Any other grid, by block shift in :func:`realize`: sample ``q*B + r`` is
  ``e^{i j omega0 q B dt} e^{i j omega0 r dt}``, with ``B = max(min(256, n),
  ceil(n/256))`` offsets and ``Q = ceil(n/B) <= 256`` starts.  The start side
  is folded into the rows ``b_j z_j e^{i j omega0 q B dt}``, so a record is one
  comb call of (k*Q, 2J) rows on B offsets, and J teeth on n samples
  transform ``J + B + Q`` values.  Each start phase is taken in exact turns,
  ``(q*B*x mod y)/y``, so its rounding does not grow with t.

Phase stream.  Row ``(seed, i)`` of every draw is numpy's stable stream
(NEP 19): ``default_rng(SeedSequence(seed, spawn_key=(i,))).uniform(0, 2*pi, J)``,
bit for bit, for seeds and indices in [0, 2**64 - 1].  numpy computes every
step of it but one: ``SeedSequence(seed).pool`` is the seed's pool, PCG64
seeds itself from any seed sequence's ``generate_state(4, uint64)`` words, and
``Generator.random`` writes the row, which times 2*pi is ``uniform(0, 2*pi)``.
:func:`draw_phase_matrix` keeps the step between, for all rows at once: the
index's low word, and its high word when nonzero, are mixed into every word of
the seed's pool, and the row's state words are hashed out of the result, by
SeedSequence's uint32 hash.  So a block builds one SeedSequence, not one per row.
"""

from __future__ import annotations

import enum
import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AmplitudeRangeWarning, NyquistError, ValidationError, require_int
from .grid import TimeGrid, write_csv

_MAX_U64 = 2**64 - 1
# numpy SeedSequence's hash constants (pool of 4 uint32 words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# times per harmonic table in _comb_eval: (750, 256) complex is 3 MB
_TIME_BLOCK = 256
# 2*pi * 10**39 to the nearest integer (2*pi to 40 digits): a grid's step in turns,
# omega0*dt/(2*pi), is taken against it as an exact ratio of ints
_TWO_PI_E39 = 6283185307179586476925286766559005768394
# a commensurate step may miss T0/N by c = 2**-_STEP_ROUNDING_BITS relative: dt from
# periods_of (2*pi, /omega0, k*T0, /n) or at a rate N*f0 (2*pi, 2*pi*f0, f0 or N*f0
# as a float, 1/rate) is four roundings of 2**-53 off T0/N, and c is twice that
_STEP_ROUNDING_BITS = 50


class Quadrature(enum.Enum):
    DEPHASING = "dephasing"
    AMPLITUDE = "amplitude"


@dataclass(frozen=True)
class NoiseSpec:
    """Full description of an engineered comb bath.

    Parameters
    ----------
    quadrature : Quadrature
        Which control quadrature the noise enters.
    alpha : float
        Global dimensionless noise strength, finite and >= 0.
    omega0 : float
        Base (lowest) angular frequency of the comb in rad/s, finite and
        > 0.  The upper cutoff is the derived quantity ``teeth * omega0``,
        never stored.
    teeth : int
        Number of comb teeth J >= 1.
    p : float, optional
        Finite power-law exponent of the target PSD.  Mutually exclusive with
        ``envelope``.
    envelope : tuple of float, optional
        Explicit tabulated F(j) values, length ``teeth``, all finite.
    seed : int
        64-bit seed from which every realization's phases derive.
    """

    quadrature: Quadrature
    alpha: float
    omega0: float
    teeth: int
    p: Optional[float] = None
    envelope: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.quadrature, Quadrature):
            raise ValidationError(f"quadrature must be a Quadrature, got {self.quadrature!r}")
        require_int("teeth", self.teeth, 1)
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ValidationError(f"omega0 must be finite and positive, got {self.omega0}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.p is not None and not math.isfinite(self.p):
            raise ValidationError(f"p must be finite, got {self.p}")
        require_int("seed", self.seed, 0, _MAX_U64)
        if (self.p is None) == (self.envelope is None):
            raise ValidationError("exactly one of p or envelope must be given")
        if self.envelope is not None:
            object.__setattr__(self, "envelope", tuple(float(v) for v in self.envelope))
            if len(self.envelope) != self.teeth:
                raise ValidationError(
                    f"envelope length {len(self.envelope)} != teeth {self.teeth}")
            if not all(math.isfinite(v) for v in self.envelope):
                raise ValidationError("explicit envelope entries must be finite")

    @property
    def omega_cutoff(self) -> float:
        """Upper frequency cutoff J*omega0 (rad/s), always derived."""
        return self.teeth * self.omega0

    def tooth_frequencies(self) -> np.ndarray:
        """Angular frequencies j*omega0 for j = 1..J."""
        return self.omega0 * np.arange(1, self.teeth + 1)

    def envelope_table(self) -> np.ndarray:
        """F(j) for j = 1..J, from the explicit table or the power law.

        Dephasing combs use ``F(j) = j**(p/2 - 1)`` because the physical noise is
        the time derivative of the phase modulation, which promotes each tooth by
        one power of frequency; amplitude combs use ``F(j) = j**(p/2)`` directly.
        """
        if self.envelope is not None:
            return np.asarray(self.envelope, dtype=float)
        j = np.arange(1, self.teeth + 1, dtype=float)
        if self.quadrature is Quadrature.DEPHASING:
            return j ** (self.p / 2.0 - 1.0)
        return j ** (self.p / 2.0)

    def tooth_amplitudes(self) -> np.ndarray:
        """Tooth amplitudes a_j, j = 1..J, of the physical noise (see the module docstring)."""
        amps = self.alpha * self.envelope_table()
        if self.quadrature is Quadrature.DEPHASING:
            return amps * self.tooth_frequencies()
        return amps

    def spec_hash(self) -> str:
        """Short stable hash identifying this spec in file headers."""
        env = "p=%r" % self.p if self.p is not None else "env=%r" % (self.envelope,)
        key = "|".join([self.quadrature.value, repr(float(self.alpha)),
                        repr(float(self.omega0)), str(self.teeth), env, str(self.seed)])
        return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class NoiseRealization:
    """A sampled noise trajectory plus the realization index and grid that produced it.

    ``beta`` is beta_z in rad/s for dephasing specs and the dimensionless
    fractional modulation beta_Omega for amplitude specs.  ``phi_n`` holds
    the accumulated phase waveform (rad) for dephasing specs only.
    """

    spec: NoiseSpec
    realization_index: int
    grid: TimeGrid
    beta: np.ndarray
    phi_n: Optional[np.ndarray] = None


def draw_phases(spec: NoiseSpec, realization_index: int) -> np.ndarray:
    """Deterministic (J,) phase draw in [0, 2*pi) for one ensemble member.

    Streams are keyed by (seed, realization_index) so distinct indices are
    statistically independent and any subset can be generated in any order,
    on any number of workers, with identical results.
    """
    return draw_phase_matrix(spec, [realization_index])[0]


def draw_phase_matrix(spec: NoiseSpec, indices: Sequence[int]) -> np.ndarray:
    """Stack of phase vectors, shape (len(indices), J), one row per index.

    Each row is the stream defined in the module docstring.  One pass hashes
    out every row's state words; a PCG64 seeded from them writes the row.
    """
    indices = list(indices)
    # plain ints in range need no per-index check; anything else gets one, for its message
    if indices and not (set(map(type, indices)) == {int}
                        and 0 <= min(indices) and max(indices) <= _MAX_U64):
        for i in indices:
            require_int("realization_index", i, 0, _MAX_U64)
    # registered here rather than at import, so importing bathforge loads no numpy.random
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    psi = np.empty((len(indices), spec.teeth))
    for row, words in zip(psi, _spawn_states(spec.seed, indices)):
        np.random.Generator(np.random.PCG64(_StateWords(words))).random(out=row)
    psi *= 2.0 * math.pi
    return psi


class _StateWords:
    """A row's ``generate_state(4, uint64)`` words, as the seed sequence PCG64 reads."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype):
        return self.words


def _hasher(const: int, mult: int):
    """SeedSequence's running hash: xor the constant, step it by ``mult``, multiply, fold.
    The constant it will use next is ``hashed.const``."""
    def hashed(value):
        value = value ^ hashed.const
        hashed.const = hashed.const * mult & 0xFFFFFFFF
        value = value * hashed.const
        return value ^ value >> 16
    hashed.const = const
    return hashed


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _spawn_states(seed: int, indices: list) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` per index, (n, 4)."""
    index = np.array(indices, dtype=np.uint64)
    lo = (index & 0xFFFFFFFF).astype(np.uint32)
    hi = (index >> 32).astype(np.uint32)
    # the seed's pool took 16 hashes (4 words in, 12 cross-mixes): the index's start there
    hashmix = _hasher(_INIT_A * _MULT_A**16 & 0xFFFFFFFF, _MULT_A)
    with np.errstate(over="ignore"):
        pool = [_mix(p, hashmix(lo)) for p in np.random.SeedSequence(seed).pool]
        pool = [np.where(hi > 0, _mix(p, hashmix(hi)), p) for p in pool]
        hashed = _hasher(_INIT_B, _MULT_B)
        words = np.stack([hashed(pool[k % _POOL]) for k in range(2 * _POOL)], axis=-1)
    return words.astype("<u4").view("<u8")


def phasors(psi: np.ndarray) -> np.ndarray:
    """Complex phasors ``z = e^{i psi}`` of a (J,) draw or an (n, J) block, computed
    in place from ``t = tan(psi/2)`` as ``2/(1+t^2) - 1 + i t*2/(1+t^2)``: one tangent
    per phase and no temporaries (on AVX-512 hosts numpy's float64 ``tan`` is a
    SIMD loop, ``cos`` and ``sin`` scalar ones)."""
    psi = np.asarray(psi, dtype=float)
    z = np.empty(psi.shape, dtype=complex)
    re, im = z.real, z.imag
    np.tan(np.multiply(psi, 0.5, out=im), out=im)
    np.divide(2.0, np.add(np.square(im, out=re), 1.0, out=re), out=re)
    im *= re
    re -= 1.0
    return z


def _harmonics(omega0: float, times: np.ndarray, teeth: int) -> np.ndarray:
    """Complex (m, J) table whose column j-1 is ``e^{i j omega0 t}``.

    Only column 0 takes a transform.  Doubling fills columns k..2k-1 as
    columns 0..k-1 times column k-1, so each entry is a product of at most
    ceil(log2 J) rounded factors instead of the J of a running product.
    """
    h = np.empty((times.size, teeth), dtype=complex)
    h[:, 0] = phasors(omega0 * times)
    k = 1
    while k < teeth:
        n = min(k, teeth - k)
        np.multiply(h[:, :n], h[:, k - 1:k], out=h[:, k:k + n])
        k += n
    return h


def _comb_eval(times: np.ndarray, omega0: float, amps: Optional[np.ndarray],
               psi: np.ndarray) -> np.ndarray:
    """``Re sum_j amps[j] z[..., j] e^{i j omega0 t}`` at ``times``, for phases ``psi``
    or their phasors ``z``, (J,) or (..., J); ``amps`` is None when the rows already
    carry the amplitudes (see the module docstring)."""
    z = np.ascontiguousarray(psi, dtype=complex) if np.iscomplexobj(psi) else phasors(psi)
    times = np.asarray(times, dtype=float)
    teeth = z.shape[-1]
    rows = z.view(float).reshape(-1, 2 * teeth)
    out = np.empty(z.shape[:-1] + (times.size,))
    flat = out.reshape(len(rows), times.size)
    for first in range(0, times.size, _TIME_BLOCK):
        block = slice(first, first + _TIME_BLOCK)
        table = _harmonics(omega0, times[block], teeth)
        if amps is not None:
            table *= amps
        # Re(row . table) = (Re row, Im row) . (Re table, -Im table): half the work
        table = np.conjugate(table, out=table).view(float).T
        np.matmul(rows, table, out=flat[:, block])
    return out


def _phase_amplitudes(spec: NoiseSpec) -> np.ndarray:
    """``-i alpha F(j)``: phi_N's sine sum is the real part of this row times ``z_j``."""
    return -1j * spec.alpha * spec.envelope_table()


def phase_waveform_at(spec: NoiseSpec, psi: np.ndarray, times: np.ndarray) -> np.ndarray:
    """phi_N evaluated at arbitrary times (no Nyquist check); batch-aware."""
    if spec.quadrature is not Quadrature.DEPHASING:
        raise ValidationError("phase waveform is defined for dephasing specs only")
    return _comb_eval(times, spec.omega0, _phase_amplitudes(spec), psi)


def detuning_waveform_at(spec: NoiseSpec, psi: np.ndarray, times: np.ndarray) -> np.ndarray:
    """beta_z = d(phi_N)/dt in rad/s at arbitrary times (no Nyquist check); batch-aware."""
    if spec.quadrature is not Quadrature.DEPHASING:
        raise ValidationError("detuning waveform is defined for dephasing specs only")
    return _comb_eval(times, spec.omega0, spec.tooth_amplitudes(), psi)


def amplitude_waveform_at(spec: NoiseSpec, psi: np.ndarray, times: np.ndarray) -> np.ndarray:
    """beta_Omega at arbitrary times (no Nyquist check); batch-aware; psi may be scaled phasors."""
    if spec.quadrature is not Quadrature.AMPLITUDE:
        raise ValidationError("amplitude waveform is defined for amplitude specs only")
    return _comb_eval(times, spec.omega0, _drive_amplitudes(spec), psi)


def _drive_amplitudes(spec: NoiseSpec) -> np.ndarray:
    """Tooth amplitudes of an amplitude spec; warns (at the caller's caller) when
    ``1 + beta_Omega`` can go negative."""
    amps = spec.tooth_amplitudes()
    total = np.sum(np.abs(amps))
    if total >= 1.0:
        warnings.warn(
            f"sum_j |a_j| = {total:.3g} >= 1: the modulated field amplitude "
            "can go negative", AmplitudeRangeWarning, stacklevel=3)
    return amps


def _require_nyquist(spec: NoiseSpec, dt: float) -> None:
    """Reject a step past pi/(J*omega0), where the highest comb tooth aliases."""
    limit = math.pi / spec.omega_cutoff
    if dt > limit:
        raise NyquistError(
            f"dt={dt:g} s exceeds the Nyquist limit pi/(J*omega0)={limit:g} s "
            f"for the highest comb tooth")


def _turns_per_sample(spec: NoiseSpec, grid: TimeGrid) -> tuple:
    """``omega0*dt / (2*pi)`` as an exact ratio of ints ``(x, y)``, with 2*pi to 40 digits."""
    a, b = float(spec.omega0).as_integer_ratio()
    c, d = float(grid.dt).as_integer_ratio()
    return a * c * 10**39, _TWO_PI_E39 * b * d


def _fft_period(spec: NoiseSpec, grid: TimeGrid) -> int:
    """N when ``realize`` samples ``grid`` as its exact period, one inverse FFT of
    N samples per base period; 0 when it samples the grid by block shift (see the
    module docstring)."""
    x, y = _turns_per_sample(spec, grid)
    per = (2 * y + x) // (2 * x)  # round(y/x), in ints
    if 2 * spec.teeth + 1 <= per <= 4 * grid.n and abs(x * per - y) <= y >> _STEP_ROUNDING_BITS:
        return per
    return 0


def realize(spec: NoiseSpec, grid: TimeGrid, realization_index: int) -> NoiseRealization:
    """Draw phases for one ensemble member and sample its waveforms on the grid.

    A grid whose step is T0/N up to rounding is sampled as its exact period, one
    inverse real FFT wrapped to the record; any other grid is one comb call by
    block shift, whose start phases are exact turns.  Either way beta and phi_N
    of a dephasing spec come together (see the module docstring).
    """
    _require_nyquist(spec, grid.dt)
    z = phasors(draw_phases(spec, realization_index))
    if spec.quadrature is Quadrature.DEPHASING:
        amps = np.stack([spec.tooth_amplitudes(), _phase_amplitudes(spec)])
    else:
        amps = _drive_amplitudes(spec)
    per = _fft_period(spec, grid)
    if per:
        spectrum = np.zeros(amps.shape[:-1] + (per // 2 + 1,), dtype=complex)
        np.multiply(amps * (per / 2), z, out=spectrum[..., 1:spec.teeth + 1])
        waves = np.take(np.fft.irfft(spectrum, n=per), np.arange(grid.n), axis=-1, mode="wrap")
    else:
        block = max(min(_TIME_BLOCK, grid.n), -(-grid.n // _TIME_BLOCK))
        x, y = _turns_per_sample(spec, grid)
        step = block * x % y
        turns = np.array([q * step % y / y for q in range(-(-grid.n // block))])
        rows = (amps * z)[..., None, :] * _harmonics(2.0 * math.pi, turns, spec.teeth)
        waves = _comb_eval(grid.dt * np.arange(block), spec.omega0, None, rows)
        waves = waves.reshape(amps.shape[:-1] + (-1,))[..., :grid.n]
    if spec.quadrature is Quadrature.DEPHASING:
        return NoiseRealization(spec, realization_index, grid, beta=waves[0], phi_n=waves[1])
    return NoiseRealization(spec, realization_index, grid, beta=waves)


@dataclass(frozen=True)
class AnalyticComb:
    """Positive-frequency delta-comb of a spec's PSD.

    ``weights[j]`` is the coefficient multiplying ``delta(omega - omega[j])``
    in the two-sided PSD; a mirror tooth of equal weight at ``-omega[j]`` is
    implied.  With the transform pair
    ``C(tau) = (1/2pi) int S(omega) e^{i omega tau} d omega`` each tooth pair
    contributes ``weights[j]/pi`` to the variance C(0).
    """

    omega: np.ndarray
    weights: np.ndarray


def analytic_psd(spec: NoiseSpec) -> AnalyticComb:
    """Exact delta-comb PSD of the spec.

    S(omega) = (pi/2) sum_j a_j^2 [delta(omega - omega_j) + delta(omega + omega_j)].
    """
    return AnalyticComb(omega=spec.tooth_frequencies(),
                        weights=0.5 * np.pi * spec.tooth_amplitudes() ** 2)


def export_realization_csv(realization: NoiseRealization, path) -> None:
    """Write (t, beta[, phi_n]) rows with a header naming the spec hash."""
    cols = [realization.grid.times(), realization.beta]
    names = "t,beta"
    if realization.phi_n is not None:
        cols.append(realization.phi_n)
        names += ",phi_n"
    write_csv(path, cols, f"# bathforge realization spec={realization.spec.spec_hash()} "
                          f"index={realization.realization_index}\n{names}")
