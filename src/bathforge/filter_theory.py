"""Analytic coherence predictions for free evolution under comb dephasing.

Ramsey fringe visibility decays as ``W(tau) = exp(-chi(tau))``.  For a
two-sided PSD the coherence integral is

    chi(tau) = (2/pi) * int_0^inf  S(omega)/omega^2 * sin^2(omega*tau/2) domega

and for a delta-comb the integral collapses to a finite sum over the teeth.
With the tooth weights (pi/2) a_j^2 of :func:`bathforge.noise.analytic_psd`
this gives

    chi(tau) = sum_j a_j^2 sin^2(omega_j tau / 2) / omega_j^2

which equals half the ensemble variance of the phase accumulated between the
Ramsey pulses, the quantity the Monte-Carlo visibility actually measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_sweep
from .noise import NoiseSpec, Quadrature, analytic_psd

_ROOT_STEPS = 200  # predicted_t2's cap on Newton-bisection steps inside the bracket


@dataclass(frozen=True)
class CoherenceCurve:
    """chi(tau) on a grid with a coarse regime annotation."""

    tau: np.ndarray
    chi: np.ndarray
    regime: str  # "linear" | "quadratic" | "mixed"


def chi_fid_comb(spec: NoiseSpec, tau) -> np.ndarray | float:
    """Exact free-evolution chi(tau) for a dephasing comb: the FID filter on its PSD."""
    if spec.quadrature is not Quadrature.DEPHASING:
        raise ValidationError("chi_fid_comb requires a dephasing spec")
    comb = analytic_psd(spec)
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    fid = np.sin(comb.omega * tau_arr[..., None] / 2.0) ** 2
    out = (fid @ (comb.weights / comb.omega**2)) * (2.0 / np.pi)
    return float(out[0]) if np.ndim(tau) == 0 else out


def chi_white_analytic(alpha: float, tau) -> np.ndarray | float:
    """Continuum white-noise result chi = tau * alpha^2 / 2.

    Here alpha^2 is the flat two-sided PSD level S(omega) = alpha^2.  A comb
    with strength a approximates this continuum with
    alpha^2 = pi a^2 omega0 / 2, so the same-symbol identification is exact
    only when pi*omega0/2 = 1 (omega0 ~ 2*pi*0.101 rad/s).
    """
    tau_arr = np.asarray(tau, dtype=float)
    out = 0.5 * alpha**2 * tau_arr
    return float(out) if np.ndim(tau) == 0 else out


def fidelity_from_chi(chi) -> np.ndarray | float:
    """First-order averaged operation fidelity F_av = (1 + exp(-chi)) / 2."""
    chi_arr = np.asarray(chi, dtype=float)
    if not np.all(chi_arr >= 0):  # NaN fails the comparison too
        raise ValidationError(f"chi must be >= 0, got {chi}")
    out = 0.5 * (1.0 + np.exp(-chi_arr))
    return float(out) if np.ndim(chi) == 0 else out


def predicted_t2(spec: NoiseSpec) -> float:
    """1/e coherence time: the first crossing of chi(tau) = 1.

    The search window runs from 1e-9 periods of the highest tooth,
    ``1e-9 * 2*pi / omega_cutoff``, to 1e4 base periods, ``1e4 * 2*pi / omega0``.
    It is scanned geometrically for a bracket, inside which a safeguarded
    Newton iteration on the closed-form slope
    ``chi'(tau) = sum_j a_j^2 sin(omega_j tau) / (2 omega_j)`` polishes the root,
    bisecting whenever a Newton step would leave the bracket.  So the result
    satisfies |chi(T2) - 1| < 1e-9 even though the comb chi is oscillatory at
    long tau.  Raises ValidationError when chi never reaches 1 in the window
    (alpha too small: the comb variance bounds chi).
    """
    tau_min = 1e-9 * 2.0 * np.pi / spec.omega_cutoff
    tau_max = 1e4 * 2.0 * np.pi / spec.omega0
    f = lambda t: chi_fid_comb(spec, t) - 1.0
    lo = tau_min
    if f(lo) >= 0:
        raise ValidationError("chi already exceeds 1 at the lower search bound")
    hi = lo
    while True:
        hi_next = min(hi * 1.5, tau_max)
        if f(hi_next) >= 0:
            lo, hi = hi, hi_next
            break
        lo = hi = hi_next
        if hi >= tau_max:
            raise ValidationError(
                "chi(tau) does not reach 1 within the search window; "
                "noise too weak for a T2 in range")
    comb = analytic_psd(spec)
    slope_weights = comb.weights / (np.pi * comb.omega)  # (2/pi) w_j / (2 omega_j)
    t2 = 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        value = f(t2)
        if value == 0.0:
            break
        lo, hi = (t2, hi) if value < 0 else (lo, t2)
        slope = float(np.sin(comb.omega * t2) @ slope_weights)
        newton = t2 - value / slope if slope else np.nan
        t_next = newton if lo < newton < hi else 0.5 * (lo + hi)
        if abs(t_next - t2) <= 2.0 * np.spacing(t2):
            break
        t2 = t_next
    if abs(chi_fid_comb(spec, t2) - 1.0) > 1e-9:
        raise ValidationError("T2 root did not converge to |chi-1| < 1e-9")
    return float(t2)


def coherence_curve(spec: NoiseSpec, tau: np.ndarray) -> CoherenceCurve:
    """chi over a grid, annotated linear/quadratic/mixed by simple heuristics."""
    tau = require_sweep("tau", tau)
    chi = chi_fid_comb(spec, tau)
    if spec.omega_cutoff * float(np.max(tau)) <= 0.5:
        regime = "quadratic"
    else:
        # linear if a straight line through the data explains it tightly
        A = np.vstack([tau, np.ones_like(tau)]).T
        coef, *_ = np.linalg.lstsq(A, chi, rcond=None)
        resid = chi - A @ coef
        ss_tot = float(np.sum((chi - chi.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
        regime = "linear" if r2 > 0.995 else "mixed"
    return CoherenceCurve(tau=tau, chi=chi, regime=regime)
