"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (``build``), runs one
pass through bathforge's public API or ``bathforge.cli.main`` (``run_pass``),
reports the exact work that pass did (``work``), a digest of its outputs for
the determinism check (``digest``) and the oracle checks on them
(``check``).  Functions are looked up on their modules at call time so that
the tracer's wrappers are seen.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import traceback
from pathlib import Path

import numpy as np

import bathforge.analysis as analysis
import bathforge.cli as cli
import bathforge.filter_theory as filter_theory
import bathforge.qubit as qubit
from bathforge.noise import NoiseSpec, Quadrature

import checks

TWO_PI = 2.0 * math.pi


class Ops:
    """Attempted and failed operations; a failure is a raised error, a
    nonzero CLI exit or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.log = []

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps going and reports it
            traceback.print_exc()
            self.failed += 1
            self.log.append(f"FAIL {name}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, argv):
        """One ``bathforge`` command in-process; its console output is discarded."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the benchmark keeps going and reports it
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            self.failed += 1
            self.log.append(f"FAIL bathforge {' '.join(argv)}: exit {code} {err.getvalue().strip()}")
        return code

    def check(self, name, result):
        ok, detail = result
        self.attempted += 1
        self.failed += not ok
        self.log.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _seeds(seed: int, k: int):
    return [int(s.generate_state(1, np.uint64)[0])
            for s in np.random.SeedSequence(seed).spawn(k)]


class RamseyT2:
    """Criterion-1 T2 study: ``analysis.alpha_scaling`` on the white 4 Hz comb."""

    name = "ramsey_t2"
    item_unit = "shots/s"
    min_passes = 2
    ALPHAS = (1.8, 2.4, 3.2, 4.4)
    OMEGA0 = TWO_PI * 4.0
    TEETH = 750
    SIZES = {"full": dict(n_realizations=500, n_tau=36),
             "tiny": dict(n_realizations=100, n_tau=16)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.shape = seed, self.SIZES[size]

    def build(self):
        (spec_seed,) = _seeds(self.seed, 1)
        self.base = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=1.0,
                              omega0=self.OMEGA0, teeth=self.TEETH, p=0, seed=spec_seed)

    def warm_up(self, ops):
        ops.call("warm-up alpha_scaling", analysis.alpha_scaling, self.base, self.ALPHAS,
                 n_realizations=50, n_tau=12)

    def run_pass(self, ops):
        return ops.call("alpha_scaling", analysis.alpha_scaling, self.base, self.ALPHAS,
                        **self.shape)

    def work(self, result) -> dict:
        if result is None:
            return {}
        shots = sum(r.n_realizations * len(r.sweep) for r in result.records)
        steps = sum(3 * r.n_realizations * len(r.sweep) * r.meta["pulse_steps"]
                    for r in result.records)
        return {"shots": shots, "realization_steps": steps, "draw_rows": shots}

    def items(self, work) -> int:
        return work.get("shots", 0)

    def digest(self, result) -> str:
        if result is None:
            return ""
        return _sha(result.t2, result.t2_err, *[r.mean for r in result.records])

    def check(self, result, ops):
        if result is None:
            return
        for a, rec in zip(result.alphas, result.records):
            spec = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=float(a),
                             omega0=self.OMEGA0, teeth=self.TEETH, p=0, seed=self.base.seed)
            chi = ops.call("chi_fid_comb", filter_theory.chi_fid_comb, spec, rec.sweep)
            if chi is not None:
                ops.check(f"chi closed form alpha={a:g}",
                          checks.chi_within_tail(chi, float(a), self.OMEGA0, self.TEETH,
                                                 rec.sweep))
        ops.check("rate exponent", checks.rate_exponent_near_two(result.exponent))


class RabiStepping:
    """Criterion-7 Rabi records with Gaussian fits, an alpha = 0 record and one
    criterion-9 ``propagate``."""

    name = "rabi_stepping"
    item_unit = "realization-steps/s"
    min_passes = 2
    OMEGA = TWO_PI * 1000.0
    ALPHAS = (0.025, 0.045, 0.08)
    SPEC_SEED = 300
    SIZES = {"full": dict(n_realizations=500, steps=100_000),
             "tiny": dict(n_realizations=200, steps=10_000)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.shape = seed, self.SIZES[size]

    def _spec(self, alpha, seed):
        return NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=alpha,
                         omega0=TWO_PI * 2.0, teeth=10, p=0, seed=seed)

    def build(self):
        # the records keep criterion 7's spec seed: the fits' iteration counts
        # depend on the draws and would swing the pass time by about 10 %
        # from seed to seed; the workload seed draws the propagate samples
        (sample_seed,) = _seeds(self.seed, 1)
        self.records_in = []
        for a in self.ALPHAS:
            # quasi-static Gaussian decay time 2/(Omega alpha sqrt(J))
            t_dec = 2.0 / (self.OMEGA * a * math.sqrt(10.0))
            self.records_in.append((self._spec(a, self.SPEC_SEED),
                                    np.linspace(t_dec / 36, 2.5 * t_dec, 72)))
        self.zero = (self._spec(0.0, self.SPEC_SEED), np.linspace(0.0, 5e-3, 64))
        rng = np.random.default_rng(sample_seed)
        m = self.shape["steps"]
        self.samples = qubit.HamiltonianSamples(z_coeff=rng.uniform(-1.0, 1.0, m),
                                                rabi=rng.uniform(0.0, 2.0, m),
                                                phase=rng.uniform(0.0, TWO_PI, m))

    def warm_up(self, ops):
        spec, durations = self.records_in[0]
        rec = ops.call("warm-up rabi", qubit.rabi, spec, drive_rabi=self.OMEGA,
                       durations=durations, n_realizations=20)
        if rec is not None:
            ops.call("warm-up fit", analysis.fit_decay, rec, model="gaussian")
        ops.call("warm-up propagate", qubit.propagate, qubit.ket0(),
                 qubit.HamiltonianSamples(self.samples.z_coeff[:100], self.samples.rabi[:100],
                                          self.samples.phase[:100]), 0.02)

    def run_pass(self, ops):
        n = self.shape["n_realizations"]
        out = {"records": [], "fits": []}
        for spec, durations in self.records_in:
            rec = ops.call(f"rabi alpha={spec.alpha:g}", qubit.rabi, spec, drive_rabi=self.OMEGA,
                           durations=durations, n_realizations=n)
            out["records"].append(rec)
            out["fits"].append(None if rec is None else ops.call(
                f"fit alpha={spec.alpha:g}", analysis.fit_decay, rec, model="gaussian"))
        spec, durations = self.zero
        out["zero"] = ops.call("rabi alpha=0", qubit.rabi, spec, drive_rabi=self.OMEGA,
                               durations=durations, n_realizations=1)
        out["state"] = ops.call("propagate", qubit.propagate, qubit.ket0(), self.samples, 0.02)
        return out

    def work(self, out) -> dict:
        recs = [r for r in out["records"] + [out["zero"]] if r is not None]
        steps = sum(r.n_realizations * r.meta["n_steps"] for r in recs)
        if out["state"] is not None:
            steps += len(self.samples.z_coeff)
        return {"realization_steps": steps,
                "draw_rows": sum(r.n_realizations for r in recs)}

    def items(self, work) -> int:
        return work.get("realization_steps", 0)

    def digest(self, out) -> str:
        arrays = [r.mean for r in out["records"] + [out["zero"]] if r is not None]
        arrays += [[f.t2] for f in out["fits"] if f is not None]
        if out["state"] is not None:
            arrays += [out["state"].real, out["state"].imag]
        return _sha(*arrays)

    def check(self, out, ops):
        if out["zero"] is not None:
            ops.check("alpha=0 Rabi", checks.rabi_zero_alpha(out["zero"].sweep, out["zero"].mean,
                                                             self.OMEGA))
        if out["state"] is not None:
            ops.check("propagate norm", checks.norm_drift(out["state"]))
        if all(f is not None for f in out["fits"]):
            ops.check("Gaussian decays", checks.gaussian_decays(
                [f.t2 for f in out["fits"]], [f.r_squared for f in out["fits"]]))


class CliSynthExport:
    """The README CLI runs, in-process, in a scratch directory."""

    name = "cli_synth_export"
    item_unit = "samples/s"
    min_passes = 2
    ALPHA, OMEGA0_HZ, P = 1.0, 4.0, 0.0
    RATE = 60000.0
    SEGMENTS = (0.02, 0.03, 0.015, 0.035)     # s; 0.1 s = 6000 samples at 60 kHz
    SIZES = {"full": dict(teeth=750, synth=4, verify=4),
             "tiny": dict(teeth=100, synth=2, verify=2)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.shape, self.dir = seed, self.SIZES[size], workdir

    def build(self):
        spec_seed, prog_seed = _seeds(self.seed, 2)
        (self.dir / "replay").mkdir(parents=True, exist_ok=True)
        (self.dir / "white.cfg").write_text(
            f"quadrature = dephasing\nalpha      = {self.ALPHA!r}\n"
            f"omega0_hz  = {self.OMEGA0_HZ!r}\nteeth      = {self.shape['teeth']}\n"
            f"p          = {self.P!r}\nseed       = {spec_seed}\n")
        rng = np.random.default_rng(prog_seed)
        prog = "".join(f"{d!r} {rng.uniform(200.0, 2000.0)!r} {rng.uniform(0.0, TWO_PI)!r}\n"
                       for d in self.SEGMENTS)
        for d in (self.dir, self.dir / "replay"):
            (d / "prog.txt").write_text(prog)

    def _commands(self):
        s = self.shape
        return [
            ["synth", "--spec", "white.cfg", "--realizations", str(s["synth"]),
             "--periods", "1", "--out", "noise"],
            ["verify-psd", "--spec", "white.cfg", "--realizations", str(s["verify"]),
             "--out", "psd"],
            ["predict", "chi", "--spec", "white.cfg", "--tau-min", "1e-3", "--tau-max", "0.05",
             "--out", "chi"],
            ["export", "--spec", "white.cfg", "--program", "prog.txt", "--rate", "60000",
             "--format", "both", "--bits", "16", "--out", "wave"],
        ]

    def _clean(self):
        keep = {"white.cfg", "prog.txt", "replay"}
        for d in (self.dir, self.dir / "replay"):
            for p in d.iterdir():
                if p.name not in keep:
                    p.unlink()

    def warm_up(self, ops):
        with contextlib.chdir(self.dir):
            for argv in self._commands()[2:]:
                ops.cli(argv)

    def run_pass(self, ops):
        self._clean()
        with contextlib.chdir(self.dir):
            codes = [ops.cli(argv) for argv in self._commands()]
        with contextlib.chdir(self.dir / "replay"):
            codes.append(ops.cli(["export", "--config", "../wave.manifest"]))
        return codes

    def _outputs(self):
        return sorted(p for p in self.dir.rglob("*") if p.is_file()
                      and p.name not in ("white.cfg", "prog.txt"))

    def work(self, codes) -> dict:
        s = self.shape
        spp = max(4 * s["teeth"] + 1, 64)
        n_export = int(round(sum(self.SEGMENTS) * self.RATE))
        return {"synth_samples": s["synth"] * spp, "verify_samples": s["verify"] * 4 * spp,
                "export_samples": 2 * n_export, "draw_rows": s["synth"] + s["verify"] + 2,
                "bytes_written": sum(p.stat().st_size for p in self._outputs())}

    def items(self, work) -> int:
        return work["synth_samples"] + work["verify_samples"] + work["export_samples"]

    def digest(self, codes) -> str:
        h = hashlib.sha256(repr(codes).encode())
        for p in self._outputs():
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()[:16]

    def check(self, codes, ops):
        if any(c != 0 for c in codes):
            return
        d, J = self.dir, self.shape["teeth"]
        omega0 = TWO_PI * self.OMEGA0_HZ
        spp = max(4 * J + 1, 64)
        synth = [d / f"noise_{i:04d}.csv" for i in range(self.shape["synth"])]
        ops.check("synth rows", checks.row_counts(synth, spp))
        ops.check("verify-psd teeth", checks.psd_tooth_weights(d / "psd.csv", self.ALPHA,
                                                              omega0, J, self.P))
        ops.check("predict chi", checks.chi_csv(d / "chi.csv", self.ALPHA, omega0, J))
        ops.check("IQ round trip", checks.iq_round_trip(d / "wave.csv", d / "wave.iq",
                                                        d / "wave.hdr"))
        ops.check("manifest replay", checks.identical_files(
            [(d / n, d / "replay" / n)
             for n in ("wave.csv", "wave.iq", "wave.hdr", "wave.manifest")]))


WORKLOADS = {w.name: w for w in (RamseyT2, RabiStepping, CliSynthExport)}
