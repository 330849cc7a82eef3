"""Decay-envelope fitting of fringe records and the noise-strength scaling study."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FitError, ValidationError, require_int
from .filter_theory import predicted_t2
from .grid import write_csv
from .noise import NoiseSpec
from .qubit import ExperimentRecord, ramsey

_MODELS = ("exponential", "gaussian")
_PARAM_NAMES = ("amplitude", "t_decay", "frequency", "phase", "offset")
_TAU_SPAN_T2 = 2.5     # alpha_scaling's tau window, in predicted T2
_FRINGE_PERIODS = 4.0  # alpha_scaling's fringe oscillations across that window
_MIN_FIT_POINTS = 8    # fewest sweep points fit_decay accepts
_MIN_DECAY = 1e-12     # fit_decay's lower bound on T, in s
_MAX_STEPS = 100       # least_squares' cap on proposed steps
_STEP_ULPS = 4         # least_squares stops at a step of this many ulp or fewer
_LAM_FIRST = 1e-3      # least_squares' damping after a refused undamped step


@dataclass
class DecayFit:
    """Fitted decaying fringe A * env(t/T) * cos(delta t + phi0) + c.

    ``env`` is exp(-t/T) for the exponential model and exp(-(t/T)^2) for the
    Gaussian model; either way ``t_decay`` is the 1/e time of the envelope.
    """

    model: str
    params: dict
    covariance: np.ndarray
    r_squared: float
    weighted: bool

    @property
    def t2(self) -> float:
        return self.params["t_decay"]

    @property
    def param_errors(self) -> dict:
        err = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return dict(zip(_PARAM_NAMES, err))


def _envelope(model: str, t: np.ndarray, T: float) -> np.ndarray:
    return np.exp(-((t / T) ** 2)) if model == "gaussian" else np.exp(-t / T)


def _model_eval(model: str, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    a, T, f, ph, c = p
    return a * _envelope(model, t, T) * np.cos(f * t + ph) + c


def _jacobian(model: str, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d(model)/d(amplitude, t_decay, frequency, phase, offset), shape (len(t), 5)."""
    a, T, f, ph, _ = p
    k = 2.0 if model == "gaussian" else 1.0
    env = _envelope(model, t, T)
    ec, es = env * np.cos(f * t + ph), env * np.sin(f * t + ph)
    return np.column_stack([ec, a * ec * k * (t / T) ** k / T, -a * t * es, -a * es,
                            np.ones_like(t)])


def _initial_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Fringe frequency seed: the periodogram peak of the record interpolated onto
    ``len(t)`` uniform points across its span (a uniform sweep is that grid)."""
    grid = np.linspace(t[0], t[-1], len(t))
    spec = np.abs(np.fft.rfft(np.interp(grid, t, y) - y.mean()))
    k = 1 + int(np.argmax(spec[1:]))
    return float(2.0 * math.pi * np.fft.rfftfreq(len(t), grid[1] - grid[0])[k])


def _initial_decay(t: np.ndarray, y: np.ndarray) -> float:
    """Decay-time seed from the envelope of |signal - mean|."""
    env = np.abs(y - y.mean())
    t_span = t[-1] - t[0]
    head = env[: max(3, len(env) // 4)].mean()
    tail = env[-max(3, len(env) // 4):].mean()
    if head > 0 and 0 < tail < head:
        # env ~ exp(-t/T): one e-folding across the window scaled by the drop
        return float(t_span / max(math.log(head / tail), 0.5))
    return float(t_span / 2.0)


class _Solution(NamedTuple):
    """What ``least_squares`` hands back: the last point it took, and how."""

    x: np.ndarray
    cost: float     # 0.5 * |r(x)|^2
    nfev: int       # calls of ``fun``
    success: bool   # False when the step cap ended the loop


def least_squares(fun, x0, lower) -> _Solution:
    """Minimize 0.5*|r(x)|^2 for ``fun(x) -> (r, J)`` by Levenberg-Marquardt.

    Each step solves [J; sqrt(lam) D] dx = [-r; 0] with ``np.linalg.lstsq``, an
    orthogonal factorization of J rather than the normal equations; D holds the
    column norms of J (Marquardt, SIAM J. Appl. Math. 11, 431, 1963).  The loop
    starts undamped, lam = 0.  A step is taken when it keeps ``x >= lower`` and
    lowers the cost, or, undamped, when its length |J dx| is below that of every
    step taken before it (once one has been): near the optimum rounding hides a
    Gauss-Newton step's gain in cost long before the step itself is negligible.
    A taken step cuts lam tenfold, to 0 below ``_LAM_FIRST``; a refused one sets
    lam to ``_LAM_FIRST`` or multiplies it by ten.  It stops with ``success``
    once a proposed step is at most ``_STEP_ULPS`` ulp in every parameter, or
    without after ``_MAX_STEPS`` proposals; either way it hands back the last
    point taken.
    """
    x = np.asarray(x0, dtype=float)
    r, jac = fun(x)
    cost, nfev, lam, shortest = 0.5 * float(r @ r), 1, 0.0, math.inf
    for _ in range(_MAX_STEPS):
        damping = np.diag(np.sqrt(lam) * np.linalg.norm(jac, axis=0))
        dx = np.linalg.lstsq(np.vstack([jac, damping]), np.r_[-r, np.zeros(len(x))],
                             rcond=None)[0]
        if np.all(np.abs(dx) <= _STEP_ULPS * np.spacing(np.abs(x))):
            return _Solution(x, cost, nfev, True)
        x_new = x + dx
        if np.all(x_new >= lower):
            r_new, jac_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)
            length = float(np.linalg.norm(jac @ dx))
            if cost_new < cost or lam == 0.0 and length < shortest < math.inf:
                x, r, jac, cost = x_new, r_new, jac_new, cost_new
                shortest = min(shortest, length)
                lam = lam / 10.0 if lam > _LAM_FIRST else 0.0
                continue
        lam = max(10.0 * lam, _LAM_FIRST)
    return _Solution(x, cost, nfev, False)


def fit_decay(record: ExperimentRecord, model: str = "exponential") -> DecayFit:
    """Weighted least-squares fit of a decaying fringe to a record.

    Two starts, from the periodogram-peak frequency (of the record
    interpolated onto a uniform sweep) with the rectified-envelope decay time
    and with 0.35 of it.  At each start the fringe is linear in
    (u, v, c) = (A cos phi0, A sin phi0, c), so weighted linear least squares
    solves those; ``least_squares`` then runs on all five parameters with the
    closed-form Jacobian, keeping T >= 1e-12 s and delta >= 0, to the point
    where its steps are a few ulp.  The converged start of lower cost wins,
    and the reported (A, phi0, c) are solved linearly again at its
    (T, delta), so A >= 0 and phi0 in (-pi, pi].  An amplitude above 1.05
    or an offset outside [-0.5, 1.5] raises FitError naming it, checked on
    the best point even when no start converged; past that check, FitError
    is raised when no start converged, when the amplitude is consistent with
    zero, and when T is no larger than its standard error.  Weights are
    1/stderr^2; any non-positive stderr falls back to an unweighted fit, with
    ``weighted`` False.  A sweep that decreases anywhere raises ValidationError.
    """
    if model not in _MODELS:
        raise ValidationError(f"model must be one of {_MODELS}")
    t = np.asarray(record.sweep, dtype=float)
    y = np.asarray(record.mean, dtype=float)
    se = np.asarray(record.stderr, dtype=float)
    if np.any(np.diff(t) < 0):
        raise ValidationError("record sweep must be non-decreasing to fit a decay")
    if len(t) < _MIN_FIT_POINTS:
        raise FitError(f"need at least {_MIN_FIT_POINTS} points to fit a decaying fringe")
    if float(np.ptp(y)) < 1e-12:
        raise FitError("constant signal: fringe amplitude ~ 0, decay time unidentifiable")
    if np.any(se <= 0):
        sigma = np.ones_like(y)
        weighted = False
    else:
        sigma = se
        weighted = True

    def project(T, f):
        """(u, v, c) of the fringe at (T, f), by weighted linear least squares on
        the basis [env cos(f t), -env sin(f t), 1]."""
        env = _envelope(model, t, T)
        basis = np.column_stack([env * np.cos(f * t), -env * np.sin(f * t), np.ones_like(t)])
        return np.linalg.lstsq(basis / sigma[:, None], y / sigma, rcond=None)[0]

    def fun(p):
        return (_model_eval(model, t, p) - y) / sigma, _jacobian(model, t, p) / sigma[:, None]

    f0 = _initial_frequency(t, y)
    T0 = _initial_decay(t, y)
    lower = np.array([-np.inf, _MIN_DECAY, 0.0, -np.inf, -np.inf])
    sols = []
    for T_start in (T0, 0.35 * T0):
        try:
            u, v, c = project(T_start, f0)
            sols.append(least_squares(
                fun, [math.hypot(u, v), T_start, f0, math.atan2(v, u), c], lower))
        except ValueError:  # includes LinAlgError: this start is skipped
            pass
    if not sols:
        raise FitError("fit did not converge from any start")
    # a converged start wins; without one, the best point still gets the range checks
    best = min(sols, key=lambda sol: (not sol.success, sol.cost))
    T, f = best.x[1:3]
    u, v, c = project(T, f)
    p = np.array([math.hypot(u, v), T, f, math.atan2(v, u), c])
    params = dict(zip(_PARAM_NAMES, (float(x) for x in p)))
    for name, lo, hi in (("amplitude", 0.0, 1.05), ("offset", -0.5, 1.5)):
        if not lo <= params[name] <= hi:
            raise FitError(f"fitted {name} {params[name]:.3g} outside [{lo:g}, {hi:g}]")
    if not best.success:
        raise FitError("fit did not converge from any start")
    fit_y = _model_eval(model, t, p)
    r = (fit_y - y) / sigma
    jac = _jacobian(model, t, p) / sigma[:, None]
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    if not weighted:
        cov = cov * float(r @ r) / max(len(t) - len(p), 1)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - fit_y) ** 2)) / ss_tot if ss_tot > 0 else 0.0
    if params["amplitude"] < 3.0 * math.sqrt(max(cov[0, 0], 0.0)) and params["amplitude"] < 0.05:
        raise FitError("fringe amplitude consistent with zero: decay time unidentifiable")
    if math.sqrt(max(cov[1, 1], 0.0)) >= T:
        raise FitError(f"decay time {T:.3g} s no larger than its standard error: "
                       "decay time unidentifiable")
    return DecayFit(model=model, params=params, covariance=cov, r_squared=r2,
                    weighted=weighted)


@dataclass
class AlphaScanResult:
    """T2 versus noise strength plus the fitted power-law exponent."""

    alphas: np.ndarray
    t2: np.ndarray
    t2_err: np.ndarray
    exponent: float
    exponent_err: float
    records: list = field(default_factory=list)


def fit_rate_exponent(alphas: np.ndarray, t2: np.ndarray,
                      t2_err: np.ndarray) -> tuple[float, float]:
    """Weighted log-log regression of the decay rate 1/T2 against alpha; every
    alpha and T2 must be finite and > 0, every error finite and >= 0."""
    alphas, t2, t2_err = (np.asarray(v, dtype=float) for v in (alphas, t2, t2_err))
    for name, values in (("alphas", alphas), ("t2", t2)):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError(f"{name} must be finite and > 0, got {values}")
    if not np.all(np.isfinite(t2_err) & (t2_err >= 0)):
        raise ValidationError(f"t2_err must be finite and >= 0, got {t2_err}")
    if len(alphas) < 2 or np.ptp(alphas) == 0:
        raise ValidationError("need at least two distinct alpha values")
    x = np.log(alphas)
    y = np.log(1.0 / t2)
    sig = t2_err / t2
    sig = np.where(sig > 0, sig, np.max(sig, initial=1e-6) or 1e-6)
    w = 1.0 / sig**2
    A = np.vstack([x, np.ones_like(x)]).T
    Aw = A * np.sqrt(w)[:, None]
    yw = y * np.sqrt(w)
    coef, *_ = np.linalg.lstsq(Aw, yw, rcond=None)
    cov = np.linalg.inv(Aw.T @ Aw)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


def alpha_scaling(base_spec: NoiseSpec, alphas: Sequence[float], *,
                  n_realizations: int = 500, pulse_rabi: float = 2.0 * math.pi * 1e4,
                  n_tau: int = 36) -> AlphaScanResult:
    """Measure T2(alpha) by Monte-Carlo Ramsey plus exponential fits.

    For each alpha the tau grid spans ``_TAU_SPAN_T2`` = 2.5 predicted decay
    times and the fringe detuning is set to put ``_FRINGE_PERIODS`` = 4
    oscillations in the window, so every fit sees both fringes and decay
    regardless of scale.  ``n_tau`` (at least the fit's 8 points) and every
    alpha (finite, > 0, strong enough for a predicted T2) are checked before
    the first simulation.  A failure is re-raised with the alpha it occurred at.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if len(alphas) < 4:
        raise ValidationError("need at least 4 alpha values for a scaling fit")
    if np.ptp(alphas) == 0:
        raise ValidationError("alpha values must not all be equal")
    require_int("n_tau", n_tau, _MIN_FIT_POINTS)
    windows = []
    for a in alphas:
        if not (math.isfinite(a) and a > 0):
            raise ValidationError(f"alpha values must be finite and > 0, got {a:g}")
        spec = replace(base_spec, alpha=float(a))
        try:
            windows.append((spec, _TAU_SPAN_T2 * predicted_t2(spec)))
        except ValidationError as exc:
            raise ValidationError(f"no predicted T2 at alpha={a:g}: {exc}") from exc
    t2s, errs, records = [], [], []
    for a, (spec, tau_max) in zip(alphas, windows):
        taus = np.linspace(tau_max / n_tau, tau_max, n_tau)
        detuning = 2.0 * math.pi * _FRINGE_PERIODS / tau_max
        rec = ramsey(spec, fringe_detuning=detuning, pulse_rabi=pulse_rabi,
                     taus=taus, n_realizations=n_realizations)
        try:
            fit = fit_decay(rec, model="exponential")
        except FitError as exc:
            raise FitError(f"decay fit failed at alpha={a:g}: {exc}") from exc
        t2s.append(fit.t2)
        errs.append(fit.param_errors["t_decay"])
        records.append(rec)
    exponent, exp_err = fit_rate_exponent(alphas, np.array(t2s), np.array(errs))
    return AlphaScanResult(alphas=alphas, t2=np.array(t2s), t2_err=np.array(errs),
                           exponent=exponent, exponent_err=exp_err,
                           records=records)


def export_scan_csv(result: AlphaScanResult, path) -> None:
    """CSV of (alpha, t2, t2_err) plus a trailing exponent summary line."""
    write_csv(path, [result.alphas, result.t2, result.t2_err], "alpha,t2,t2_err",
              footer=f"# exponent = {result.exponent:.6f} +- {result.exponent_err:.6f}")
