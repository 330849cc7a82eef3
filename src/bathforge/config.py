"""Plain-text key-value configuration documents, and the noise spec's keys.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Keys are lowercase dotted words.

Noise spec schema (a ``--spec`` file, or ``spec.*`` keys of a run config)::

    quadrature = dephasing | amplitude    # any case
    alpha      = <float >= 0>
    omega0_hz  = <float > 0>
    teeth      = <int >= 1>
    p          = <float>            # or instead:
    envelope   = <f1>, <f2>, ...    # explicit F(j), length = teeth
    seed       = <uint64>           # default 0

``SPEC_OPTIONS`` holds these rows; the CLI parses them like its own options.
Frequencies in config files are in Hz (human convention) and are converted to
rad/s exactly once, in ``spec_from_options``; the package speaks rad/s.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .noise import NoiseSpec, Quadrature

# key -> (kind, default, help), the same row shape as a CLI command's options
SPEC_OPTIONS = {
    "quadrature": (Quadrature, None, "dephasing | amplitude"),
    "alpha": (float, None, "noise strength"),
    "omega0_hz": (float, None, "comb base frequency, Hz"),
    "teeth": (int, None, "number of comb teeth J"),
    "p": (float, None, "power-law exponent (replaces an earlier envelope)"),
    "envelope": (list, None, "comma-separated explicit F(j) table (replaces an earlier p)"),
    "seed": (int, None, "phase seed (default 0)"),
}


def parse_kv(text: str) -> dict:
    """Parse a key-value document into an ordered str->str mapping."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def serialize_kv(mapping: dict) -> str:
    """Render a mapping back to the document format (insertion order kept)."""
    return "".join(f"{k} = {v}\n" for k, v in mapping.items())


def spec_from_options(values: dict) -> NoiseSpec | None:
    """The spec named by merged, typed ``spec.*`` values (Hz -> rad/s here);
    None when no layer set any spec key."""
    v = {key: values[f"spec.{key}"] for key in SPEC_OPTIONS}
    if all(val is None for val in v.values()):
        return None
    for key in ("quadrature", "alpha", "omega0_hz", "teeth"):
        if v[key] is None:
            raise ConfigError(f"missing key {key!r}")
    if (v["p"] is None) == (v["envelope"] is None):
        raise ConfigError("exactly one of 'p' or 'envelope' must be set")
    return NoiseSpec(quadrature=v["quadrature"], alpha=v["alpha"],
                     omega0=2.0 * math.pi * v["omega0_hz"], teeth=v["teeth"], p=v["p"],
                     envelope=None if v["envelope"] is None else tuple(v["envelope"]),
                     seed=v["seed"] or 0)


def mapping_from_spec(spec: NoiseSpec) -> dict:
    """Flatten a NoiseSpec to config keys (rad/s -> Hz here)."""
    out = {
        "quadrature": spec.quadrature.value,
        "alpha": repr(float(spec.alpha)),
        "omega0_hz": repr(spec.omega0 / (2.0 * math.pi)),
        "teeth": str(spec.teeth),
    }
    if spec.p is not None:
        out["p"] = repr(float(spec.p))
    else:
        out["envelope"] = ", ".join(repr(v) for v in spec.envelope)
    out["seed"] = str(spec.seed)
    return out
