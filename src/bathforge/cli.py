"""Command-line interface: reproducible synthesis, simulation and verification runs.

Every subcommand resolves its options from (in increasing precedence)
built-in defaults, a ``--config`` key-value file, a ``--spec`` noise file
(``spec.*`` keys), and individual flags.  Each run writes a manifest that
records the fully resolved configuration plus output hashes; because
manifest metadata lives under the tolerated ``manifest.`` namespace, the
manifest file itself is a valid ``--config`` for the same subcommand and
replays to byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .analysis import alpha_scaling, export_scan_csv
from .config import (SPEC_KEYS, mapping_from_spec, parse_kv, serialize_kv,
                     spec_from_mapping)
from .errors import BathforgeError, ConfigError, ValidationError
from .filter_theory import coherence_curve, fidelity_from_chi
from .grid import TimeGrid
from .noise import NoiseSpec, Quadrature, analytic_psd, export_realization_csv, realize
from .qubit import export_record_csv, rabi, ramsey
from .spectral import estimate_psd, export_psd_csv, tooth_weights
from .waveform import (ControlProgram, Segment, compose, continuity_report,
                       export_binary, export_csv, quantize, to_iq)

TWO_PI = 2.0 * math.pi

_TABLES = {
    "synth": {
        "realizations": (int, 1, "number of realizations to draw"),
        "periods": (int, 4, "record length in base periods"),
        "samples_per_period": (int, 0, "samples per base period (0 = auto)"),
        "out": (str, "synth", "output prefix"),
    },
    "export": {
        "rate": (float, None, "sample rate, Hz"),
        "bits": (int, 16, "quantization bit depth"),
        "format": (str, "csv", "csv | bin | both"),
        "realization_index": (int, 0, "which noise realization to bake in"),
        "jump_threshold": (float, 0.0, "flag inter-sample jumps above this (0 = off)"),
        "out": (str, "waveform", "output prefix"),
        "program": (str, None, "control program file"),
    },
    "verify-psd": {
        "realizations": (int, 200, "ensemble size"),
        "periods": (int, 4, "record length in base periods"),
        "samples_per_period": (int, 0, "samples per base period (0 = auto)"),
        "carrier_power": (float, 0.0, "carrier power for a dBc column (0 = off)"),
        "out": (str, "psd", "output prefix"),
    },
    "simulate": {
        "realizations": (int, 500, "ensemble size"),
        "detuning_hz": (float, 1000.0, "Ramsey fringe detuning, Hz"),
        "pulse_rabi_hz": (float, 1.0e4, "pi/2 pulse Rabi rate, Hz"),
        "drive_rabi_hz": (float, 1000.0, "Rabi drive rate, Hz"),
        "tau_min": (float, 0.0, "smallest sweep value, s (0 = auto)"),
        "tau_max": (float, None, "largest sweep value, s"),
        "points": (int, 40, "sweep points"),
        "pulse_noise": (bool, True, "apply dephasing noise during pulses"),
        "out": (str, None, "output prefix"),
    },
    "predict": {
        "tau_min": (float, 1e-4, "smallest tau, s"),
        "tau_max": (float, None, "largest tau, s"),
        "points": (int, 200, "grid points"),
        "out": (str, "chi", "output prefix"),
    },
    "scan-alpha": {
        "alphas": (list, None, "comma-separated noise strengths"),
        "realizations": (int, 500, "ensemble size per alpha"),
        "pulse_rabi_hz": (float, 1.0e4, "pi/2 pulse Rabi rate, Hz"),
        "points": (int, 36, "tau points per alpha"),
        "out": (str, "scan", "output prefix"),
    },
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


class Options:
    """One subcommand's option table and the merged key-value state."""

    def __init__(self, command: str):
        self.table = _TABLES[command]
        self.values = {k: spec[1] for k, spec in self.table.items()}

    def merge_config(self, mapping: dict):
        for key, raw in mapping.items():
            if key.startswith(("manifest.", "spec.")):
                continue  # metadata / handled by the spec loader
            if key not in self.table:
                raise ConfigError(f"unknown configuration key {key!r}")
            self.values[key] = self._coerce(key, raw)

    def merge_flags(self, args: argparse.Namespace):
        for key in self.table:
            val = getattr(args, key, None)
            if val is not None:
                self.values[key] = val

    def _coerce(self, key: str, raw: str):
        kind = self.table[key][0]
        try:
            if kind is bool:
                return _BOOL_WORDS[raw.strip().lower()]
            if kind is list:
                return [float(v) for v in raw.split(",")]
            return kind(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {raw!r}")

    def __getitem__(self, key: str):
        val = self.values[key]
        if val is None:
            raise ConfigError(f"missing required option {key!r}")
        return val


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return parse_kv(fh.read())
    return {}


def _spec_sources(args, config_map: dict) -> dict:
    """Collect spec.* keys, the --spec file, and spec flag overrides."""
    spec_map = {k.split(".", 1)[1]: v for k, v in config_map.items()
                if k.startswith("spec.")}
    for key in spec_map:
        if key not in SPEC_KEYS:
            raise ConfigError(f"unknown spec key 'spec.{key}'")
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            spec_map.update(parse_kv(fh.read()))
    for key in SPEC_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            spec_map[key] = str(val)
            if key == "p":
                spec_map.pop("envelope", None)
            elif key == "envelope":
                spec_map.pop("p", None)
    return spec_map


def _resolve_spec(args, config_map: dict, required: bool = True) -> NoiseSpec | None:
    spec_map = _spec_sources(args, config_map)
    if not spec_map:
        if required:
            raise ConfigError("no noise spec given (use --spec or spec.* keys)")
        return None
    return spec_from_mapping(spec_map)


def _write_manifest(path, command: str, opts: Options, spec: NoiseSpec | None,
                    outputs: list):
    doc = {}
    for key in sorted(opts.values):
        val = opts.values[key]
        if val is None:
            continue
        if isinstance(val, list):
            val = ",".join(repr(v) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        doc[key] = str(val)
    if spec is not None:
        for k, v in mapping_from_spec(spec).items():
            doc[f"spec.{k}"] = v
    doc["manifest.version"] = __version__
    doc["manifest.command"] = command
    if spec is not None:
        doc["manifest.spec_hash"] = spec.spec_hash()
    for i, out in enumerate(outputs):
        doc[f"manifest.output.{i}"] = f"{out} sha256={_sha256_file(out)}"
    with open(path, "w") as fh:
        fh.write(serialize_kv(doc))


# ----------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    opts = Options("synth")
    cfg = _load_config(args)
    opts.merge_config(cfg)
    opts.merge_flags(args)
    spec = _resolve_spec(args, cfg)
    spp = opts["samples_per_period"] or max(4 * spec.teeth + 1, 64)
    grid = TimeGrid.periods_of(spec.omega0, opts["periods"], spp)
    outputs = []
    for i in range(opts["realizations"]):
        path = f"{opts['out']}_{i:04d}.csv"
        export_realization_csv(realize(spec, grid, i), path)
        outputs.append(path)
    _write_manifest(f"{opts['out']}.manifest", "synth", opts, spec, outputs)
    print(f"wrote {len(outputs)} realization(s), spec {spec.spec_hash()}")
    return 0


def _load_program(path) -> ControlProgram:
    """Program file: one 'duration_s rabi_hz phase_rad [detuning_hz]' per line.

    ``detuning_hz`` must be 0 for now: ``compose`` rejects detuned segments.
    """
    segs = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            if len(parts) not in (3, 4):
                raise ConfigError(f"{path}:{ln}: expected 3 or 4 fields")
            try:
                dur, rabi_hz, phase = float(parts[0]), float(parts[1]), float(parts[2])
                det_hz = float(parts[3]) if len(parts) == 4 else 0.0
            except ValueError:
                raise ConfigError(f"{path}:{ln}: non-numeric field")
            segs.append(Segment(duration=dur, omega_c=TWO_PI * rabi_hz,
                                phi_c=phase, detuning=TWO_PI * det_hz))
    if not segs:
        raise ConfigError(f"{path}: no segments")
    return ControlProgram(tuple(segs))


def cmd_export(args) -> int:
    opts = Options("export")
    cfg = _load_config(args)
    opts.merge_config(cfg)
    opts.merge_flags(args)
    program = _load_program(opts["program"])
    rate = opts["rate"]
    spec = _resolve_spec(args, cfg, required=False)
    n = max(2, int(round(program.duration * rate)))
    grid = TimeGrid(t0=0.0, dt=1.0 / rate, n=n)
    deph = amp = None
    if spec is not None:
        if rate < 20.0 * spec.omega_cutoff / TWO_PI:
            raise ValidationError(
                f"sample rate {rate:g} Hz is below 20x the highest comb tooth "
                f"({20.0 * spec.omega_cutoff / TWO_PI:g} Hz)")
        real = realize(spec, grid, opts["realization_index"])
        if spec.quadrature is Quadrature.DEPHASING:
            deph = real
        else:
            amp = real
    omega, phi, _meta = compose(program, grid, dephasing=deph, amplitude=amp)
    wave = to_iq(omega, phi, rate)
    report = continuity_report(wave, opts["jump_threshold"] or None)
    if report.flagged:
        print(f"warning: waveform jumps exceed threshold "
              f"(dI={report.max_jump_i:g}, dQ={report.max_jump_q:g})", file=sys.stderr)
    outputs = []
    fmt = opts["format"]
    if fmt not in ("csv", "bin", "both"):
        raise ConfigError("format must be csv, bin or both")
    if fmt in ("csv", "both"):
        path = f"{opts['out']}.csv"
        export_csv(wave, path)
        outputs.append(path)
    if fmt in ("bin", "both"):
        wave = quantize(wave, bits=opts["bits"])
        path = f"{opts['out']}.iq"
        export_binary(wave, path, header_path=f"{opts['out']}.hdr",
                      spec_hash=spec.spec_hash() if spec else "")
        outputs += [path, f"{opts['out']}.hdr"]
    _write_manifest(f"{opts['out']}.manifest", "export", opts, spec, outputs)
    print(f"wrote {', '.join(outputs)}")
    return 0


def cmd_verify_psd(args) -> int:
    opts = Options("verify-psd")
    cfg = _load_config(args)
    opts.merge_config(cfg)
    opts.merge_flags(args)
    spec = _resolve_spec(args, cfg)
    spp = opts["samples_per_period"] or max(4 * spec.teeth + 1, 64)
    grid = TimeGrid.periods_of(spec.omega0, opts["periods"], spp)
    reals = [realize(spec, grid, i) for i in range(opts["realizations"])]
    est = estimate_psd(reals)
    path = f"{opts['out']}.csv"
    export_psd_csv(est, path, carrier_power=opts["carrier_power"] or None)
    comb = analytic_psd(spec)
    if np.any(comb.weights > 0):
        measured = tooth_weights(est, spec)
        good = comb.weights > 0
        worst = float(np.max(np.abs(measured[good] / comb.weights[good] - 1.0)))
        print(f"teeth: {spec.teeth}, worst tooth weight deviation vs analytic: "
              f"{100.0 * worst:.3f}%")
    else:
        print("all analytic weights are zero (alpha = 0)")
    _write_manifest(f"{opts['out']}.manifest", "verify-psd", opts, spec, [path])
    return 0


def cmd_simulate(args) -> int:
    experiment = args.experiment
    opts = Options("simulate")
    cfg = _load_config(args)
    opts.merge_config(cfg)
    opts.merge_flags(args)
    spec = _resolve_spec(args, cfg)
    n = opts["points"]
    tau_max = opts["tau_max"]
    if experiment == "ramsey":
        tau_min = opts["tau_min"] or tau_max / n
        taus = np.linspace(tau_min, tau_max, n)
        record = ramsey(spec, fringe_detuning=TWO_PI * opts["detuning_hz"],
                        pulse_rabi=TWO_PI * opts["pulse_rabi_hz"], taus=taus,
                        n_realizations=opts["realizations"],
                        noise_during_pulses=opts["pulse_noise"])
    else:
        durations = np.linspace(0.0, tau_max, n)
        record = rabi(spec, drive_rabi=TWO_PI * opts["drive_rabi_hz"],
                      durations=durations, n_realizations=opts["realizations"])
    out = opts.values["out"] or f"simulate_{experiment}"
    path = f"{out}.csv"
    export_record_csv(record, path)
    opts.values["out"] = out
    _write_manifest(f"{out}.manifest", f"simulate {experiment}", opts, spec, [path])
    print(f"wrote {path} ({record.n_realizations} realizations)")
    return 0


def cmd_predict(args) -> int:
    opts = Options("predict")
    cfg = _load_config(args)
    opts.merge_config(cfg)
    opts.merge_flags(args)
    spec = _resolve_spec(args, cfg)
    taus = np.linspace(opts["tau_min"], opts["tau_max"], opts["points"])
    curve = coherence_curve(spec, taus)
    path = f"{opts['out']}.csv"
    with open(path, "w") as fh:
        fh.write(f"# regime = {curve.regime}\n")
        fh.write("tau,chi,fidelity\n")
        for t, x in zip(curve.tau, curve.chi):
            fh.write("%.17g,%.17g,%.17g\n" % (t, x, fidelity_from_chi(x)))
    _write_manifest(f"{opts['out']}.manifest", "predict chi", opts, spec, [path])
    print(f"wrote {path} (regime: {curve.regime})")
    return 0


def cmd_scan_alpha(args) -> int:
    opts = Options("scan-alpha")
    cfg = _load_config(args)
    opts.merge_config(cfg)
    opts.merge_flags(args)
    spec = _resolve_spec(args, cfg)
    result = alpha_scaling(spec, opts["alphas"],
                           n_realizations=opts["realizations"],
                           pulse_rabi=TWO_PI * opts["pulse_rabi_hz"],
                           n_tau=opts["points"])
    path = f"{opts['out']}.csv"
    export_scan_csv(result, path)
    _write_manifest(f"{opts['out']}.manifest", "scan-alpha", opts, spec, [path])
    print(f"T2^-1 ~ alpha^x with x = {result.exponent:.3f} +- {result.exponent_err:.3f}")
    return 0


# ------------------------------------------------------------------- parser

def _add_spec_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key-value run configuration (or a manifest)")
    p.add_argument("--spec", help="noise spec config file")
    p.add_argument("--quadrature", choices=["dephasing", "amplitude"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--omega0-hz", type=float, dest="omega0_hz")
    p.add_argument("--teeth", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--envelope", help="comma-separated explicit F(j) table")
    p.add_argument("--seed", type=int)


def _add_table_flags(p: argparse.ArgumentParser, command: str):
    for key, (kind, _default, help_text) in _TABLES[command].items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            group = p.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, action="store_true", default=None,
                               help=help_text)
            group.add_argument("--no-" + key.replace("_", "-"), dest=key,
                               action="store_false", default=None)
        elif kind is list:
            p.add_argument(flag, dest=key, help=help_text,
                           type=lambda s: [float(v) for v in s.split(",")])
        else:
            p.add_argument(flag, dest=key, type=kind, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bathforge",
        description="Engineered noise-bath synthesis, waveform export and qubit simulation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    handlers = {
        "synth": cmd_synth, "export": cmd_export, "verify-psd": cmd_verify_psd,
        "simulate": cmd_simulate, "predict": cmd_predict, "scan-alpha": cmd_scan_alpha,
    }
    helps = {
        "synth": "draw noise realizations and export CSV",
        "export": "compile a control program (+noise) to IQ files",
        "verify-psd": "empirical PSD of an ensemble vs the analytic comb",
        "simulate": "Monte-Carlo Ramsey or Rabi experiment",
        "predict": "analytic coherence prediction",
        "scan-alpha": "T2 scaling study over noise strengths",
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name, help=helps[name])
        if name == "simulate":
            p.add_argument("experiment", choices=["ramsey", "rabi"])
        elif name == "predict":
            p.add_argument("quantity", choices=["chi"])
        _add_spec_flags(p)
        _add_table_flags(p, name)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BathforgeError as exc:
        print(f"error category={exc.category}: {exc}", file=sys.stderr)
        return {"config": 2, "validation": 3, "fit": 4}.get(exc.category, 5)


if __name__ == "__main__":
    sys.exit(main())
