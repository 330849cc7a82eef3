"""Per-layer tracing from outside the package.

``traced(tracer)`` wraps each layer's public functions for the duration of a
``with`` block.  A function is wrapped at every bathforge module that binds
it by name (``qubit`` imports the ``noise`` evaluators, ``analysis`` imports
``ramsey`` and ``predicted_t2``, ``cli`` imports nearly everything), so calls
between modules are seen wherever they are made.  Each call records a span
(name, start, end, parent) in memory plus the work counts of that call; the
spans are reduced to per-layer metrics after the pass.

A call nested directly inside a span of the same name (``draw_phase_matrix``
calling ``draw_phases``) is passed through without a second span.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.stack = []     # indices of open spans
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, out, args, kwargs)
            return out
        return wrapper


# --------------------------------------------------------------- counters

def _one_row(c, out, args, kwargs):
    c["noise.draw.rows"] += 1


def _matrix_rows(c, out, args, kwargs):
    c["noise.draw.rows"] += len(args[1])


def _comb_counts(c, out, args, kwargs):
    """Computed work of one ``_comb_eval`` behind a ``*_waveform_at`` call."""
    spec, psi, times = args[:3]
    J = spec.teeth
    n = 1 if np.ndim(psi) == 1 else np.shape(psi)[0]
    m = np.size(times)
    c["noise.comb.trig"] += 2 * J * m + 2 * n * J
    c["noise.comb.macs"] += 2 * n * J * m
    # float64 arrays it allocates: wt, sin(wt), cos(wt); cos(psi), sin(psi),
    # two scaled copies; two matmul products and their sum
    c["noise.comb.bytes"] += 8 * (3 * J * m + 4 * n * J + 3 * n * m)


def _ramsey_steps(c, rec, args, kwargs):
    rows = 1 if rec.meta["freeze_phases"] else rec.n_realizations
    # pulse 1, pulse 2 and the 90-degree analysis copy of pulse 2
    c["qubit.steps"] += 3 * rows * len(rec.sweep) * rec.meta["pulse_steps"]


def _rabi_steps(c, rec, args, kwargs):
    c["qubit.steps"] += rec.n_realizations * rec.meta["n_steps"]


def _propagate_steps(c, out, args, kwargs):
    samples = args[1]
    m = max(np.shape(np.atleast_1d(x))[-1] for x in (samples.z_coeff, samples.rabi, samples.phase))
    c["qubit.steps"] += int(np.prod(np.shape(args[0])[:-1], dtype=int)) * m


def _written_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths)


def _writer_bytes(c, out, args, kwargs):
    c["cli.write.bytes"] += _written_bytes(args[1])


def _binary_bytes(c, out, args, kwargs):
    header = kwargs.get("header_path") or str(args[1]) + ".hdr"
    c["cli.write.bytes"] += _written_bytes(args[1], header)


def _manifest_bytes(c, out, args, kwargs):
    c["cli.write.bytes"] += _written_bytes(args[0])


# (defining module, function, span name or None for counters only, counter)
TARGETS = (
    ("bathforge.noise", "draw_phases", "noise.draw", _one_row),
    ("bathforge.noise", "draw_phase_matrix", "noise.draw", _matrix_rows),
    ("bathforge.noise", "phase_waveform_at", "noise.comb", _comb_counts),
    ("bathforge.noise", "detuning_waveform_at", "noise.comb", _comb_counts),
    ("bathforge.noise", "amplitude_waveform_at", "noise.comb", _comb_counts),
    ("bathforge.qubit", "ramsey", "qubit.ramsey", _ramsey_steps),
    ("bathforge.qubit", "rabi", "qubit.rabi", _rabi_steps),
    ("bathforge.qubit", "propagate", "qubit.propagate", _propagate_steps),
    ("bathforge.analysis", "fit_decay", "analysis.fit", None),
    ("bathforge.analysis", "least_squares", None, None),
    ("bathforge.filter_theory", "chi_fid_comb", "filter_theory.chi", None),
    ("bathforge.filter_theory", "predicted_t2", "filter_theory.t2", None),
    ("bathforge.spectral", "estimate_psd", "spectral.psd", None),
    ("bathforge.spectral", "tooth_weights", "spectral.teeth", None),
    ("bathforge.waveform", "compose", "waveform.compose", None),
    ("bathforge.waveform", "to_iq", "waveform.iq", None),
    ("bathforge.waveform", "quantize", "waveform.iq", None),
    ("bathforge.waveform", "continuity_report", "waveform.iq", None),
    ("bathforge.cli", "main", "cli.command", None),
    ("bathforge.noise", "export_realization_csv", "cli.write", _writer_bytes),
    ("bathforge.qubit", "export_record_csv", "cli.write", _writer_bytes),
    ("bathforge.spectral", "export_psd_csv", "cli.write", _writer_bytes),
    ("bathforge.analysis", "export_scan_csv", "cli.write", _writer_bytes),
    ("bathforge.waveform", "export_csv", "cli.write", _writer_bytes),
    ("bathforge.waveform", "export_binary", "cli.write", _binary_bytes),
    ("bathforge.cli", "_write_manifest", "cli.write", _manifest_bytes),
    ("bathforge.cli", "_sha256_file", "cli.hash", None),
)


def _least_squares_counter(counts, fn):
    """Fit starts, failed starts and function evaluations, as analysis sees them."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts["analysis.fit.starts"] += 1
        try:
            sol = fn(*args, **kwargs)
        except Exception:
            counts["analysis.fit.failed_starts"] += 1
            raise
        counts["analysis.fit.nfev"] += int(sol.nfev)
        if not sol.success:
            counts["analysis.fit.failed_starts"] += 1
        return sol
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the body of the block, then restore the originals."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "bathforge" or name.startswith("bathforge."))]
    patches = []
    try:
        for modname, attr, span, count in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = (tracer.wrap(span, orig, count) if span is not None
                       else _least_squares_counter(tracer.counts, orig))
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, orig in reversed(patches):
            setattr(mod, attr, orig)


# ----------------------------------------------------------------- metrics

# name -> unit; the order is the order BENCHMARK.json lists them in
LAYER_UNITS = {
    "noise.draw.calls": "count", "noise.draw.s": "s", "noise.draw.rows": "count",
    "noise.comb.calls": "count", "noise.comb.s": "s",
    "noise.comb.trig": "count_computed", "noise.comb.macs": "count_computed",
    "noise.comb.bytes": "bytes_computed",
    "qubit.ramsey.s": "s", "qubit.ramsey.self_s": "s",
    "qubit.rabi.s": "s", "qubit.rabi.self_s": "s",
    "qubit.propagate.s": "s", "qubit.steps": "count",
    "analysis.fit.calls": "count", "analysis.fit.s": "s",
    "analysis.fit.starts": "count", "analysis.fit.failed_starts": "count",
    "analysis.fit.nfev": "count", "analysis.fit.useful_ratio": "ratio",
    "filter_theory.chi.calls": "count", "filter_theory.chi.s": "s",
    "filter_theory.t2.calls": "count", "filter_theory.t2.self_s": "s",
    "spectral.psd.s": "s", "spectral.teeth.s": "s",
    "waveform.compose.s": "s", "waveform.iq.s": "s",
    "cli.command.calls": "count", "cli.command.self_s": "s",
    "cli.write.s": "s", "cli.write.bytes": "bytes",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

# the layer times that partition a traced pass, together with the remainder
SELF_TIMES = ("noise.draw.s", "noise.comb.s", "qubit.ramsey.self_s", "qubit.rabi.self_s",
              "qubit.propagate.s", "analysis.fit.s", "filter_theory.chi.s",
              "filter_theory.t2.self_s", "spectral.psd.s", "spectral.teeth.s",
              "waveform.compose.s", "waveform.iq.s", "cli.command.self_s", "cli.write.s",
              "trace.unattributed_s")


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Reduce one traced pass to the per-layer metrics (without the overhead)."""
    calls, busy, self_t = Counter(), defaultdict(float), defaultdict(float)
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _) in enumerate(tracer.spans):
        self_t[name] += end - start - child[i]
    top = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    c = tracer.counts
    starts = c["analysis.fit.starts"]
    return {
        "noise.draw.calls": calls["noise.draw"], "noise.draw.s": busy["noise.draw"],
        "noise.draw.rows": c["noise.draw.rows"],
        "noise.comb.calls": calls["noise.comb"], "noise.comb.s": busy["noise.comb"],
        "noise.comb.trig": c["noise.comb.trig"], "noise.comb.macs": c["noise.comb.macs"],
        "noise.comb.bytes": c["noise.comb.bytes"],
        "qubit.ramsey.s": busy["qubit.ramsey"], "qubit.ramsey.self_s": self_t["qubit.ramsey"],
        "qubit.rabi.s": busy["qubit.rabi"], "qubit.rabi.self_s": self_t["qubit.rabi"],
        "qubit.propagate.s": busy["qubit.propagate"], "qubit.steps": c["qubit.steps"],
        "analysis.fit.calls": calls["analysis.fit"], "analysis.fit.s": busy["analysis.fit"],
        "analysis.fit.starts": starts,
        "analysis.fit.failed_starts": c["analysis.fit.failed_starts"],
        "analysis.fit.nfev": c["analysis.fit.nfev"],
        "analysis.fit.useful_ratio":
            (starts - c["analysis.fit.failed_starts"]) / starts if starts else 0.0,
        "filter_theory.chi.calls": calls["filter_theory.chi"],
        "filter_theory.chi.s": busy["filter_theory.chi"],
        "filter_theory.t2.calls": calls["filter_theory.t2"],
        "filter_theory.t2.self_s": self_t["filter_theory.t2"],
        "spectral.psd.s": busy["spectral.psd"], "spectral.teeth.s": busy["spectral.teeth"],
        "waveform.compose.s": busy["waveform.compose"], "waveform.iq.s": busy["waveform.iq"],
        "cli.command.calls": calls["cli.command"],
        # manifest hashing is command bookkeeping, not writing
        "cli.command.self_s": self_t["cli.command"] + busy["cli.hash"],
        "cli.write.s": busy["cli.write"] - busy["cli.hash"],
        "cli.write.bytes": c["cli.write.bytes"],
        "trace.unattributed_s": wall - top,
    }
