"""Output oracles for the benchmark.

Each oracle recomputes what it checks from closed forms, from the workload's
own inputs or from raw bytes, and imports nothing from bathforge, so that a
defect in the package cannot cancel out of the comparison.  Tolerances are
set so that a change of random stream (different phase draws) cannot trip
them: the deterministic checks are tight, the statistical ones sit several
standard errors out.
"""

from __future__ import annotations

import math

import numpy as np


def white_comb_chi(alpha: float, omega0: float, tau) -> np.ndarray:
    """Closed form of the infinite white dephasing comb.

    ``sum_j sin^2(j x)/j^2 = x (pi - x)/2`` for ``0 <= x = omega0 tau/2 <= pi``
    gives ``chi = alpha^2 (pi omega0 tau/4 - omega0^2 tau^2/8)``; truncating
    the comb at J teeth changes it by at most ``alpha^2/J``.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(omega0 * tau / 2.0 > math.pi) or np.any(tau < 0):
        raise ValueError("closed form holds only for 0 <= omega0 tau/2 <= pi")
    return alpha**2 * (math.pi * omega0 * tau / 4.0 - omega0**2 * tau**2 / 8.0)


def chi_within_tail(chi, alpha: float, omega0: float, teeth: int, tau):
    """Truncated-comb chi against the closed form, within ``alpha^2/J``."""
    dev = float(np.max(np.abs(np.asarray(chi) - white_comb_chi(alpha, omega0, tau))))
    bound = alpha**2 / teeth
    return dev <= bound, f"max |chi - closed form| = {dev:.3e} <= alpha^2/J = {bound:.3e}"


def rate_exponent_near_two(exponent: float, tol: float = 0.4):
    """T2^-1 ~ alpha^x with x near 2 (chi is exactly quadratic in alpha)."""
    return abs(exponent - 2.0) <= tol, f"exponent {exponent:.4f}, |x - 2| <= {tol}"


def rabi_zero_alpha(sweep, mean, drive_rabi: float, tol: float = 1e-9):
    """Noiseless Rabi flopping is exactly sin^2(Omega t / 2)."""
    dev = float(np.max(np.abs(np.asarray(mean) - np.sin(0.5 * drive_rabi * np.asarray(sweep)) ** 2)))
    return dev <= tol, f"max |P1 - sin^2(Omega t/2)| = {dev:.2e} <= {tol:g}"


def norm_drift(state, tol: float = 1e-9):
    """A product of exact SU(2) steps keeps the state normalized."""
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    return drift < tol, f"norm drift {drift:.2e} < {tol:g}"


def gaussian_decays(t_decay, r_squared, min_r2: float = 0.98):
    """Stronger amplitude noise decays strictly faster, with clean Gaussian fits."""
    ok = all(r > min_r2 for r in r_squared) and all(
        a > b for a, b in zip(t_decay, t_decay[1:]))
    return ok, (f"T = {[f'{t * 1e3:.3f}ms' for t in t_decay]}, "
                f"R^2 = {[f'{r:.4f}' for r in r_squared]}")


def read_csv_columns(path) -> dict:
    """Numeric CSV with one header row (comment lines skipped) as named columns."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


def psd_tooth_weights(psd_csv, alpha: float, omega0: float, teeth: int, p: float,
                      tol: float = 1e-6):
    """Tooth weights of a verify-psd CSV against the analytic dephasing comb.

    On a record of whole base periods each tooth is a pure on-bin tone of
    fixed amplitude, so its periodogram power does not depend on the random
    phase: the weight ``2 pi density rbw`` equals
    ``(pi/2) alpha^2 omega0^2 (j F_j)^2`` with ``F_j = j^(p/2 - 1)`` to
    rounding, for any number of realizations.
    """
    cols = read_csv_columns(psd_csv)
    omega, density = cols["omega"], cols["density"]
    rbw = float(omega[1] - omega[0])
    j = np.arange(1, teeth + 1, dtype=float)
    bins = np.rint(j * omega0 / rbw).astype(int)
    measured = 2.0 * math.pi * density[bins] * rbw
    expect = 0.5 * math.pi * alpha**2 * omega0**2 * (j * j ** (p / 2.0 - 1.0)) ** 2
    dev = float(np.max(np.abs(measured / expect - 1.0)))
    return dev <= tol, f"worst tooth weight deviation {dev:.2e} <= {tol:g}"


def chi_csv(path, alpha: float, omega0: float, teeth: int):
    """predict-chi output: chi against the closed form, fidelity = (1 + e^-chi)/2."""
    cols = read_csv_columns(path)
    ok, detail = chi_within_tail(cols["chi"], alpha, omega0, teeth, cols["tau"])
    fid = float(np.max(np.abs(cols["fidelity"] - 0.5 * (1.0 + np.exp(-cols["chi"])))))
    return ok and fid <= 1e-12, f"{detail}; fidelity deviation {fid:.1e}"


def read_header(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def iq_round_trip(csv_path, iq_path, hdr_path):
    """Binary IQ codes reproduce the CSV waveform within half a quantization step."""
    hdr = read_header(hdr_path)
    step = float(hdr["full_scale"]) / 2 ** (int(hdr["bits"]) - 1)
    codes = np.fromfile(iq_path, dtype="<i2").astype(float)
    cols = read_csv_columns(csv_path)
    n = int(hdr["n_samples"])
    if len(codes) != 2 * n or len(cols["i"]) != n:
        return False, f"sample counts differ: codes {len(codes)}, csv {len(cols['i'])}, header {n}"
    err = max(float(np.max(np.abs(codes[0::2] * step - cols["i"]))),
              float(np.max(np.abs(codes[1::2] * step - cols["q"]))))
    return err <= 0.5 * step * (1 + 1e-9), f"max error {err:.3e} <= step/2 = {0.5 * step:.3e}"


def identical_files(pairs):
    """Every (original, replay) pair is byte-identical."""
    differ = []
    for a, b in pairs:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                differ.append(str(b))
    return not differ, ("all byte-identical" if not differ else f"differ: {differ}")


def row_counts(paths, rows: int):
    """Each CSV holds the expected number of data rows."""
    bad = [str(p) for p in paths if len(read_csv_columns(p)["t"]) != rows]
    return not bad, (f"{len(paths)} files x {rows} rows" if not bad else f"wrong length: {bad}")
