"""Command-line interface: reproducible synthesis, simulation and verification runs.

Each command's option table holds its own rows and the noise spec's
(``config.SPEC_OPTIONS``, under ``spec.``); a row makes its flag and parses
its text.  ``main`` merges four layers in increasing precedence: defaults, a
``--config`` file, a ``--spec`` file (its keys read as ``spec.*``) and the
flags that were set; a layer that sets ``p`` or ``envelope`` clears both below
it.  One coercer parses every value, so bad text is the same config error from
a file or a flag.  ``main`` then runs the subcommand and writes a manifest of
the resolved configuration plus output hashes.  Its metadata sits under the
tolerated ``manifest.`` namespace, so the manifest replays as a ``--config``
to byte-identical outputs.  A failed run removes the outputs it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .analysis import _MIN_FIT_POINTS, alpha_scaling, export_scan_csv
from .config import (SPEC_OPTIONS, mapping_from_spec, parse_kv, serialize_kv,
                     spec_from_options)
from .errors import BathforgeError, ConfigError, ValidationError, require_int
from .filter_theory import coherence_curve, fidelity_from_chi
from .grid import TimeGrid, output_file, removed_on_failure, write_csv
from .noise import NoiseSpec, Quadrature, analytic_psd, export_realization_csv, realize
from .qubit import export_record_csv, rabi, ramsey
from .spectral import estimate_psd, export_psd_csv, tooth_weights
from .waveform import (ControlProgram, Segment, compose, continuity_report,
                       export_binary, export_csv, quantize, to_iq)

TWO_PI = 2.0 * math.pi

# command -> (help, {option: (kind, default, help)})
_COMMANDS = {
    "synth": ("draw noise realizations and export CSV", {
        "realizations": (int, 1, "number of realizations to draw"),
        "periods": (int, 4, "record length in base periods"),
        "samples_per_period": (int, 0, "samples per base period (0 = auto)"),
        "out": (str, "synth", "output prefix"),
    }),
    "export": ("compile a control program (+noise) to IQ files", {
        "rate": (float, None, "sample rate, Hz"),
        "bits": (int, 16, "quantization bit depth"),
        "format": (str, "csv", "csv | bin | both"),
        "realization_index": (int, 0, "which noise realization to bake in"),
        "jump_threshold": (float, 0.0, "flag inter-sample jumps above this (0 = off)"),
        "out": (str, "waveform", "output prefix"),
        "program": (str, None, "control program file"),
    }),
    "verify-psd": ("empirical PSD of an ensemble vs the analytic comb", {
        "realizations": (int, 200, "ensemble size"),
        "periods": (int, 4, "record length in base periods"),
        "samples_per_period": (int, 0, "samples per base period (0 = auto)"),
        "carrier_power": (float, 0.0, "carrier power for a dBc column (0 = off)"),
        "out": (str, "psd", "output prefix"),
    }),
    "simulate": ("Monte-Carlo Ramsey or Rabi experiment", {
        "realizations": (int, 500, "ensemble size"),
        "detuning_hz": (float, 1000.0, "Ramsey fringe detuning, Hz"),
        "pulse_rabi_hz": (float, 1.0e4, "pi/2 pulse Rabi rate, Hz"),
        "drive_rabi_hz": (float, 1000.0, "Rabi drive rate, Hz"),
        "tau_min": (float, 0.0, "smallest sweep value, s (ramsey: 0 = tau_max/points)"),
        "tau_max": (float, None, "largest sweep value, s"),
        "points": (int, 40, "sweep points"),
        "pulse_noise": (bool, True, "apply dephasing noise during pulses"),
        "out": (str, None, "output prefix"),
    }),
    "predict": ("analytic coherence prediction", {
        "tau_min": (float, 1e-4, "smallest tau, s"),
        "tau_max": (float, None, "largest tau, s"),
        "points": (int, 200, "grid points"),
        "out": (str, "chi", "output prefix"),
    }),
    "scan-alpha": ("T2 scaling study over noise strengths", {
        "alphas": (list, None, "comma-separated noise strengths"),
        "realizations": (int, 500, "ensemble size per alpha"),
        "pulse_rabi_hz": (float, 1.0e4, "pi/2 pulse Rabi rate, Hz"),
        "points": (int, 36, "tau points per alpha"),
        "out": (str, "scan", "output prefix"),
    }),
}

# the spec rows every command's table starts with
_SPEC_ROWS = {f"spec.{key}": row for key, row in SPEC_OPTIONS.items()}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _read_text(path) -> str:
    """An input file's text; a file that cannot be read is a config error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {path}: not a text file") from None


def _parse(key: str, kind, raw: str):
    """One option's text, from a file or a flag, as a value of its kind."""
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.strip().lower()]
        if kind is list:
            return [float(v) for v in raw.split(",")]
        return kind(raw.lower() if kind is Quadrature else raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


class Options:
    """One subcommand's option table, spec rows included, and the merged values."""

    def __init__(self, command: str):
        self.table = {**_SPEC_ROWS, **_COMMANDS[command][1]}
        self.values = {k: row[1] for k, row in self.table.items()}

    def merge(self, mapping: dict):
        """Parse one layer of text over the layers merged before it; ``manifest.*``
        keys are skipped.  A layer that sets ``spec.p`` or ``spec.envelope``
        clears both first, so it replaces the envelope an earlier layer chose."""
        layer = {}
        for key, raw in mapping.items():
            if key.startswith("manifest."):
                continue
            if key not in self.table:
                raise ConfigError(f"unknown configuration key {key!r}")
            layer[key] = _parse(key, self.table[key][0], raw)
        if layer.keys() & {"spec.p", "spec.envelope"}:
            self.values["spec.p"] = self.values["spec.envelope"] = None
        self.values.update(layer)

    def __getitem__(self, key: str):
        val = self.values[key]
        if val is None:
            raise ConfigError(f"missing required option {key!r}")
        return val


def _write_manifest(path, command: str, opts: Options, spec: NoiseSpec | None,
                    outputs: list):
    doc = {}
    for key in sorted(opts.values):
        val = opts.values[key]
        if val is None or key.startswith("spec."):
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
    with output_file(path) as fh:
        fh.write(serialize_kv(doc))


# ----------------------------------------------------------------- commands
# Each command takes (args, opts, spec) and returns the paths it wrote.

def _record_grid(opts: Options, spec: NoiseSpec) -> TimeGrid:
    spp = opts["samples_per_period"] and _count(opts, "samples_per_period", 2)
    return TimeGrid.periods_of(spec.omega0, _count(opts, "periods"),
                               spp or max(4 * spec.teeth + 1, 64))


def _count(opts: Options, key: str, low: int = 1) -> int:
    """An integer option of at least ``low``; an error names its flag."""
    require_int("--" + key.replace("_", "-"), opts[key], low)
    return opts[key]


def _tau_range(opts: Options) -> tuple:
    """``--tau-min`` and ``--tau-max`` of an increasing sweep; an error names the flags."""
    tau_min, tau_max = opts["tau_min"], opts["tau_max"]
    if not tau_max > 0:
        raise ValidationError(f"--tau-max must be > 0, got {tau_max!r}")
    if not tau_min < tau_max:
        raise ValidationError(f"--tau-min must be < --tau-max ({tau_max!r}), got {tau_min!r}")
    return tau_min, tau_max


def cmd_synth(args, opts: Options, spec: NoiseSpec) -> list:
    grid = _record_grid(opts, spec)
    outputs = []
    for i in range(_count(opts, "realizations")):
        path = f"{opts['out']}_{i:04d}.csv"
        export_realization_csv(realize(spec, grid, i), path)
        outputs.append(path)
    print(f"wrote {len(outputs)} realization(s), spec {spec.spec_hash()}")
    return outputs


def _load_program(path) -> ControlProgram:
    """Program file: one 'duration_s rabi_hz phase_rad [detuning_hz]' per line.

    ``detuning_hz`` must be 0 for now: ``compose`` rejects detuned segments.
    """
    segs = []
    for ln, raw in enumerate(_read_text(path).splitlines(), start=1):
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


def cmd_export(args, opts: Options, spec: NoiseSpec | None) -> list:
    fmt = opts["format"]
    if fmt not in ("csv", "bin", "both"):
        raise ConfigError("format must be csv, bin or both")
    index = _count(opts, "realization_index", 0)
    program = _load_program(opts["program"])
    rate = opts["rate"]
    if not (math.isfinite(rate) and rate > 0):
        raise ValidationError(f"rate must be finite and > 0, got {rate}")
    # whole samples only, with compose's tolerance: a partial last sample is dropped
    n = math.floor(program.duration * rate * (1 + 1e-12))
    if n < 1:
        raise ValidationError(
            f"program of {program.duration:g} s is shorter than one sample at {rate:g} Hz")
    grid = TimeGrid(dt=1.0 / rate, n=n)
    real = None
    if spec is not None:
        if rate < 20.0 * spec.omega_cutoff / TWO_PI:
            raise ValidationError(
                f"sample rate {rate:g} Hz is below 20x the highest comb tooth "
                f"({20.0 * spec.omega_cutoff / TWO_PI:g} Hz)")
        real = realize(spec, grid, index)
    omega, phi = compose(program, grid, real)
    wave = to_iq(omega, phi, rate)
    report = continuity_report(wave, opts["jump_threshold"] or None)
    if report.flagged:
        print(f"warning: waveform jumps exceed threshold "
              f"(dI={report.max_jump_i:g}, dQ={report.max_jump_q:g})", file=sys.stderr)
    if fmt in ("bin", "both"):
        # quantize first: a rejected bit depth must fail before any file is written
        wave = quantize(wave, bits=opts["bits"])
    outputs = []
    if fmt in ("csv", "both"):
        path = f"{opts['out']}.csv"
        export_csv(wave, path)
        outputs.append(path)
    if fmt in ("bin", "both"):
        path = f"{opts['out']}.iq"
        export_binary(wave, path, header_path=f"{opts['out']}.hdr",
                      spec_hash=spec.spec_hash() if spec else "")
        outputs += [path, f"{opts['out']}.hdr"]
    print(f"wrote {', '.join(outputs)}")
    return outputs


def cmd_verify_psd(args, opts: Options, spec: NoiseSpec) -> list:
    grid = _record_grid(opts, spec)
    reals = [realize(spec, grid, i) for i in range(_count(opts, "realizations"))]
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
    return [path]


def cmd_simulate(args, opts: Options, spec: NoiseSpec) -> list:
    n, n_realizations = _count(opts, "points"), _count(opts, "realizations")
    tau_min, tau_max = _tau_range(opts)
    if args.variant == "ramsey":
        taus = np.linspace(tau_min or tau_max / n, tau_max, n)
        record = ramsey(spec, fringe_detuning=TWO_PI * opts["detuning_hz"],
                        pulse_rabi=TWO_PI * opts["pulse_rabi_hz"], taus=taus,
                        n_realizations=n_realizations,
                        noise_during_pulses=opts["pulse_noise"])
    else:
        durations = np.linspace(tau_min, tau_max, n)
        record = rabi(spec, drive_rabi=TWO_PI * opts["drive_rabi_hz"],
                      durations=durations, n_realizations=n_realizations)
    opts.values["out"] = opts.values["out"] or f"simulate_{args.variant}"
    path = f"{opts['out']}.csv"
    export_record_csv(record, path)
    print(f"wrote {path} ({record.n_realizations} realizations)")
    return [path]


def cmd_predict(args, opts: Options, spec: NoiseSpec) -> list:
    taus = np.linspace(*_tau_range(opts), _count(opts, "points"))
    curve = coherence_curve(spec, taus)
    path = f"{opts['out']}.csv"
    write_csv(path, [curve.tau, curve.chi, fidelity_from_chi(curve.chi)],
              f"# regime = {curve.regime}\ntau,chi,fidelity")
    print(f"wrote {path} (regime: {curve.regime})")
    return [path]


def cmd_scan_alpha(args, opts: Options, spec: NoiseSpec) -> list:
    n_tau = _count(opts, "points", _MIN_FIT_POINTS)
    result = alpha_scaling(spec, opts["alphas"],
                           n_realizations=_count(opts, "realizations"),
                           pulse_rabi=TWO_PI * opts["pulse_rabi_hz"], n_tau=n_tau)
    path = f"{opts['out']}.csv"
    export_scan_csv(result, path)
    print(f"T2^-1 ~ alpha^x with x = {result.exponent:.3f} +- {result.exponent_err:.3f}")
    return [path]


# ------------------------------------------------------------------- parser

def _add_table_flags(p: argparse.ArgumentParser, table: dict):
    # every flag's value stays text, for Options.merge to parse like a file's
    for key, (kind, _default, help_text) in table.items():
        name = key.removeprefix("spec.")
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            group = p.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, nargs="?", const="true", metavar="WORD",
                               help=help_text)
            group.add_argument("--no-" + flag[2:], dest=key, action="store_const",
                               const="false")
        else:
            p.add_argument(flag, dest=key, metavar=name.upper(), help=help_text)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command with its flags."""
    return _parser(_COMMANDS)


def _parser(flagged) -> argparse.ArgumentParser:
    """The parser of every command, with flags only for the commands in ``flagged``:
    a run parses one command, so the others' flags are never built."""
    parser = argparse.ArgumentParser(
        prog="bathforge",
        description="Engineered noise-bath synthesis, waveform export and qubit simulation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "synth": cmd_synth, "export": cmd_export, "verify-psd": cmd_verify_psd,
        "simulate": cmd_simulate, "predict": cmd_predict, "scan-alpha": cmd_scan_alpha,
    }
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handlers[name])
        if name not in flagged:
            continue
        if name == "simulate":
            p.add_argument("variant", metavar="experiment", choices=["ramsey", "rabi"],
                           help="ramsey | rabi")
        elif name == "predict":
            p.add_argument("variant", metavar="quantity", choices=["chi"], help="chi")
        p.add_argument("--config", help="key-value run configuration (or a manifest)")
        p.add_argument("--spec", help="noise spec config file")
        _add_table_flags(p, {**_SPEC_ROWS, **options})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option values, so its first positional names the command
    command = next((a for a in argv if not a.startswith("-")), None)
    args = _parser({command}).parse_args(argv)
    try:
        with removed_on_failure():
            opts = Options(args.command)
            if args.config:
                opts.merge(parse_kv(_read_text(args.config)))
            if args.spec:
                opts.merge({f"spec.{k}": v for k, v in parse_kv(_read_text(args.spec)).items()
                            if not k.startswith("manifest.")})
            opts.merge({k: v for k, v in vars(args).items() if k in opts.table and v is not None})
            spec = spec_from_options(opts.values)
            if spec is None and args.command != "export":
                raise ConfigError("no noise spec given (use --spec or spec.* keys)")
            outputs = args.func(args, opts, spec)
            label = f"{args.command} {args.variant}" if "variant" in args else args.command
            _write_manifest(f"{opts['out']}.manifest", label, opts, spec, outputs)
        return 0
    except BathforgeError as exc:
        print(f"error category={exc.category}: {exc}", file=sys.stderr)
        return {"config": 2, "validation": 3, "fit": 4}.get(exc.category, 5)


if __name__ == "__main__":
    sys.exit(main())
