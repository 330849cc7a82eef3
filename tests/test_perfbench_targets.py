"""The traced benchmark wraps package functions by name and reads record
metadata by key; each name and key must exist, and a traced run must count
the comb calls and draw rows it makes."""

import importlib
import importlib.util
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bathforge import NoiseSpec, Quadrature, TimeGrid, analysis, noise, qubit, rabi, ramsey

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _spans().TARGETS])
def test_traced_target_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


def test_meta_keys_read_by_perfbench_exist():
    keys = {k for path in PERFBENCH.glob("*.py")
            for k in re.findall(r'meta\["(\w+)"\]', path.read_text())}
    assert keys
    deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.1, omega0=50.0, teeth=3, p=0)
    amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.01, omega0=50.0, teeth=3, p=0)
    two_pi = 2.0 * math.pi
    recorded = set(ramsey(deph, fringe_detuning=two_pi * 10.0, pulse_rabi=two_pi * 1e3,
                          taus=np.array([1e-3, 2e-3]), n_realizations=2).meta)
    recorded |= set(rabi(amp, drive_rabi=two_pi * 100.0, durations=np.array([0.0, 1e-3]),
                         n_realizations=2).meta)
    assert keys <= recorded, sorted(keys - recorded)


def _traced_metrics(call):
    """Run ``call`` with the benchmark's wrappers installed; its per-layer metrics."""
    spans = _spans()
    # traced() looks every target module up in sys.modules
    for modname in {t[0] for t in spans.TARGETS}:
        importlib.import_module(modname)
    with spans.traced(spans.Tracer()) as tracer:
        call()
    return spans.layer_metrics(tracer, 0.0)


def test_traced_layer_counts():
    # the wrappers read the evaluators' positional (spec, psi or phasors, times)
    # and the draw calls' indices, so a keyword call or a shapeless argument fails here;
    # a Ramsey block samples both pulses' noise in one call, then phi_N at the two ends
    deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.1, omega0=50.0, teeth=3, p=0)
    amp = NoiseSpec(quadrature=Quadrature.AMPLITUDE, alpha=0.01, omega0=50.0, teeth=3, p=0)
    two_pi = 2.0 * math.pi
    taus, n = [1e-3, 2e-3], 3
    for pulse_noise, calls in ((True, 2), (False, 1)):
        got = _traced_metrics(lambda: qubit.ramsey(
            deph, fringe_detuning=two_pi * 10.0, pulse_rabi=two_pi * 1e3, taus=taus,
            n_realizations=n, noise_during_pulses=pulse_noise))
        assert got["noise.comb.calls"] == calls * len(taus)
        assert got["noise.draw.rows"] == len(taus) * n
    got = _traced_metrics(lambda: qubit.rabi(
        amp, drive_rabi=two_pi * 100.0, durations=[0.0, 1e-3], n_realizations=n))
    assert (got["noise.comb.calls"], got["noise.draw.rows"]) == (1, n)
    # realize samples its grid with one direct comb call, which no wrapper sees
    got = _traced_metrics(lambda: noise.realize(deph, TimeGrid(1e-3, 8), 0))
    assert (got["noise.comb.calls"], got["noise.draw.rows"]) == (0, 1)


def test_traced_fit_counts():
    # fit_decay calls the solver through analysis.least_squares, the name the
    # wrappers replace; an import of the solver inside fit_decay would count 0 starts
    from test_analysis import synthetic_record
    got = _traced_metrics(lambda: analysis.fit_decay(synthetic_record()))
    assert got["analysis.fit.calls"] == 1
    assert got["analysis.fit.starts"] == 2
    assert got["analysis.fit.nfev"] > 0


def test_traced_zero_alpha_ramsey_counts_one_trajectory():
    # alpha = 0 simulates one row, and meta["freeze_phases"] tells the step
    # counter so: pulse 1, pulse 2 and its 90-degree copy, once per tau
    deph = NoiseSpec(quadrature=Quadrature.DEPHASING, alpha=0.0, omega0=50.0, teeth=3, p=0)
    two_pi = 2.0 * math.pi
    taus = [1e-3, 2e-3, 3e-3, 4e-3]
    records = []
    got = _traced_metrics(lambda: records.append(qubit.ramsey(
        deph, fringe_detuning=two_pi * 10.0, pulse_rabi=two_pi * 1e3, taus=taus,
        n_realizations=500)))
    assert got["noise.draw.rows"] == 1
    assert got["qubit.steps"] == 3 * len(taus) * records[0].meta["pulse_steps"]


@pytest.fixture
def bench(monkeypatch):
    """perfbench's run, spans and workloads, imported as run.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("run", "spans", "workloads", "checks")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        yield SimpleNamespace(**{name: importlib.import_module(name) for name in names})
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("name", ["ramsey_t2", "rabi_stepping", "cli_synth_export"])
def test_traced_pass_matches_plain(bench, name, tmp_path):
    # a traced benchmark run fails unless a traced pass gives the plain pass's
    # digest and work counts, and the draw rows and steps seen at the layer
    # boundaries equal those derived from the outputs
    wl = bench.workloads.WORKLOADS[name](1, "tiny", tmp_path)
    wl.build()
    for modname in {t[0] for t in bench.spans.TARGETS}:
        importlib.import_module(modname)
    ops = bench.workloads.Ops()
    plain = bench.run.timed_pass(wl, ops)
    traced = bench.run.timed_pass(wl, ops, bench.spans.Tracer())
    assert ops.failed == 0, ops.log
    assert traced["digest"] == plain["digest"]
    assert traced["work"] == plain["work"]
    ok, detail = bench.run._counts_match(
        bench.spans.layer_metrics(traced["tracer"], traced["wall"]), plain["work"])
    assert ok, detail
