"""Plain-text key-value configuration documents.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Keys are lowercase dotted words.  Frequencies in config files are
in Hz (human convention) and converted to angular rad/s exactly once, here
at the boundary; everything inside the package speaks rad/s.

Noise spec schema::

    quadrature = dephasing | amplitude
    alpha      = <float >= 0>
    omega0_hz  = <float > 0>
    teeth      = <int >= 1>
    p          = <float>            # or instead:
    envelope   = <f1>, <f2>, ...    # explicit F(j), length = teeth
    seed       = <uint64>

Unknown keys are rejected so typos cannot pass silently; keys under the
``manifest.`` namespace are reserved for run manifests and tolerated, which
lets a manifest be replayed directly as a config file.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .noise import NoiseSpec, Quadrature

SPEC_KEYS = ("quadrature", "alpha", "omega0_hz", "teeth", "p", "envelope", "seed")


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


def spec_from_mapping(mapping: dict) -> NoiseSpec:
    """Build a NoiseSpec from parsed config keys (Hz -> rad/s here)."""
    for key in mapping:
        if key not in SPEC_KEYS and not key.startswith("manifest."):
            raise ConfigError(f"unknown configuration key {key!r}")
    try:
        quad = Quadrature(mapping["quadrature"].lower())
    except KeyError:
        raise ConfigError("missing key 'quadrature'")
    except ValueError:
        raise ConfigError(f"quadrature must be 'dephasing' or 'amplitude', "
                          f"got {mapping['quadrature']!r}")
    try:
        alpha = float(mapping["alpha"])
        omega0 = 2.0 * math.pi * float(mapping["omega0_hz"])
        teeth = int(mapping["teeth"])
        seed = int(mapping.get("seed", "0"))
    except KeyError as exc:
        raise ConfigError(f"missing key {exc.args[0]!r}")
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}")
    p = mapping.get("p")
    envelope = mapping.get("envelope")
    if (p is None) == (envelope is None):
        raise ConfigError("exactly one of 'p' or 'envelope' must be set")
    if envelope is not None:
        try:
            env = tuple(float(v) for v in envelope.split(","))
        except ValueError:
            raise ConfigError("envelope must be a comma-separated float list")
        return NoiseSpec(quadrature=quad, alpha=alpha, omega0=omega0,
                         teeth=teeth, envelope=env, seed=seed)
    try:
        p_val = float(p)
    except ValueError:
        raise ConfigError(f"p must be numeric, got {p!r}")
    return NoiseSpec(quadrature=quad, alpha=alpha, omega0=omega0,
                     teeth=teeth, p=p_val, seed=seed)


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
