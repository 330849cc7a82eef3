"""Empirical PSD estimation and analytic AM/PM sideband models.

The estimator uses rectangular windows on records spanning an integer number
of comb base periods: every tooth then falls exactly on an FFT bin and there
is no leakage to correct for.  Densities are two-sided and normalized so
that summing density * bin width over all (positive and negative) bins
returns the sample variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, require_int
from .grid import write_csv
from .noise import NoiseRealization, NoiseSpec, Quadrature


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged periodogram on the non-negative frequency bins.

    ``density`` is the two-sided density (units x^2 per rad/s); the mirror
    bins at negative frequency carry the same values.  ``rbw`` is the bin
    spacing 2*pi/T.
    """

    omega: np.ndarray
    density: np.ndarray
    rbw: float


@dataclass(frozen=True)
class SidebandComb:
    """Carrier-relative sideband list: amplitudes at offsets from the carrier."""

    offsets: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if np.asarray(self.amplitudes).size and np.iscomplexobj(self.amplitudes):
            raise ValidationError("sideband amplitudes must be real")


def estimate_psd(realizations: Sequence[NoiseRealization]) -> PsdEstimate:
    """Averaged rectangular-window periodogram of beta over an ensemble.

    All realizations must share one spec and one uniform grid whose length
    is an integer number of base periods 2*pi/omega0 (teeth on bins, zero
    leakage).
    """
    if len(realizations) == 0:
        raise ValidationError("need at least one realization")
    grid = realizations[0].grid
    spec = realizations[0].spec
    for r in realizations[1:]:
        if r.grid != grid:
            raise ValidationError("all realizations must share the same grid")
        if r.spec != spec:
            raise ValidationError("all realizations must share the same spec")
    periods = grid.duration * spec.omega0 / (2.0 * math.pi)
    if periods < 1.0 - 1e-9:
        raise ValidationError("record shorter than one base period")
    if abs(periods - round(periods)) > 1e-6 * max(1.0, periods):
        raise ValidationError(
            f"record spans {periods:g} base periods; an integer count is required")
    x = np.stack([r.beta for r in realizations])
    n = grid.n
    T = grid.duration
    X = np.fft.rfft(x, axis=1)
    # two-sided density: S_k = dt^2 |X_k|^2 / (2*pi*T); see module docstring
    dens = (grid.dt**2 / (2.0 * math.pi * T)) * np.mean(np.abs(X) ** 2, axis=0)
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, grid.dt)
    return PsdEstimate(omega=omega, density=dens, rbw=2.0 * math.pi / T)


def tooth_weights(estimate: PsdEstimate, spec: NoiseSpec) -> np.ndarray:
    """Empirical delta-comb weights at the spec's teeth, shape (J,).

    Converts bin density to the delta-function convention of
    :func:`bathforge.noise.analytic_psd`: a tooth pair of weight w at
    +-omega_j contributes w/pi to the variance, while an on-bin tone of
    amplitude A carries A^2/4 of two-sided integrated power per side, so
    w_hat = 2*pi * density(bin_j) * rbw.  Tooth bins must exist exactly.
    """
    idx = spec.tooth_frequencies() / estimate.rbw
    nearest = np.round(idx).astype(int)
    if np.any(np.abs(idx - nearest) > 1e-6):
        raise ValidationError("comb teeth do not land on PSD bins; "
                              "use a record of integer base periods")
    if nearest[-1] >= len(estimate.density):
        raise ValidationError("comb extends beyond the estimate's Nyquist bin")
    return 2.0 * math.pi * estimate.density[nearest] * estimate.rbw


def pm_sidebands(carrier_amp: float, mod_depth: float, omega_m: float,
                 n_max: int) -> SidebandComb:
    """Bessel comb of a single-tone PM carrier, truncated at order n_max.

    A_mu sin(w_mu t + Phi sin(w_m t)) = A_mu sum_n J_n(Phi) sin((w_mu+n w_m)t);
    teeth at n*w_m for n in [-n_max, n_max] with amplitudes A_mu*J_n(Phi).
    Negative orders are mirrored via J_{-n} = (-1)^n J_n so the magnitude
    symmetry about the carrier is exact by construction.
    """
    from scipy.special import jv  # on first use, so import bathforge loads no scipy
    require_int("n_max", n_max, 1)
    n_pos = np.arange(0, n_max + 1)
    amps_pos = carrier_amp * jv(n_pos, mod_depth)
    n = np.concatenate([-n_pos[:0:-1], n_pos])
    signs = (-1.0) ** n_pos[:0:-1]
    amps = np.concatenate([signs * amps_pos[:0:-1], amps_pos])
    return SidebandComb(offsets=n * omega_m, amplitudes=amps)


def powerlaw_map_pm(p: float, quadrature) -> float:
    """Exponent observed in carrier phase-noise for a comb of exponent p.

    Phase modulation maps each tooth's phase depth to a first-order sideband
    amplitude, shifting the observed power law to p - 2; amplitude modulation
    maps tooth amplitudes directly, leaving p unchanged.
    """
    if quadrature is Quadrature.DEPHASING:
        return p - 2.0
    if quadrature is Quadrature.AMPLITUDE:
        return float(p)
    raise ValidationError(f"unknown quadrature {quadrature!r}")


def to_dbc(power, carrier_power: float):
    """Convert power density (or tooth power) to dBc/Hz relative to a carrier.

    Every density below a fixed floor of -200 dBc maps to it, non-positive
    ones included.
    """
    if not (math.isfinite(carrier_power) and carrier_power > 0):
        raise ValidationError(f"carrier power must be finite and > 0, got {carrier_power}")
    ratio = np.asarray(power, dtype=float) / carrier_power
    out = np.full(ratio.shape, -200.0)
    good = ratio > 1e-20
    out[good] = 10.0 * np.log10(ratio[good])
    return float(out) if np.ndim(power) == 0 else out


def fit_tooth_powerlaw(omega: np.ndarray, powers: np.ndarray) -> float:
    """Least-squares slope of log(power) vs log(omega); ignores zero teeth."""
    omega = np.asarray(omega, dtype=float)
    powers = np.asarray(powers, dtype=float)
    good = powers > 0
    if np.count_nonzero(good) < 2:
        raise ValidationError("need at least two positive tooth powers")
    x = np.log(omega[good])
    y = np.log(powers[good])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


def export_psd_csv(estimate: PsdEstimate, path, carrier_power: float | None = None):
    """CSV of (omega, density[, dbc]) rows."""
    cols = [estimate.omega, estimate.density]
    names = "omega,density"
    if carrier_power:
        cols.append(to_dbc(estimate.density, carrier_power))
        names += ",dbc"
    write_csv(path, cols, names)
