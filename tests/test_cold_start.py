"""Importing bathforge, running every CLI command, fitting a decay and finding
a T2 root load no scipy; only the PM sideband model imports it, for ``jv``.
Importing bathforge loads no ``numpy.random`` either: the first draw does.

Each case runs in a fresh interpreter, so modules imported by other tests in
this process do not count; the child prints the scipy modules it holds after
each stage as one JSON object.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent("""
    import json, math, os, sys

    def scipy_loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    stages = {}
    import bathforge, bathforge.cli
    stages["import"] = scipy_loaded()
    stages["import_numpy_random"] = sorted(m for m in sys.modules
                                           if m.startswith("numpy.random"))

    from bathforge.cli import main
    with open("white.cfg", "w") as f:
        f.write("quadrature = dephasing\\nalpha = 3.0\\nomega0_hz = 4.0\\nteeth = 20\\n"
                "p = 0\\nseed = 42\\n")
    with open("prog.txt", "w") as f:
        f.write("0.002 250 0\\n0.004 0 0.5\\n")
    spec = ["--spec", "white.cfg"]
    for argv in (["synth", "--realizations", "2", "--periods", "1", "--out", "noise"],
                 ["verify-psd", "--realizations", "2", "--periods", "1", "--out", "psd"],
                 ["predict", "chi", "--tau-min", "0.001", "--tau-max", "0.05",
                  "--points", "10", "--out", "chi"],
                 ["export", "--program", "prog.txt", "--rate", "8000", "--format", "both",
                  "--out", "wave"],
                 ["simulate", "ramsey", "--tau-max", "0.004", "--points", "4",
                  "--realizations", "3", "--out", "ram"],
                 ["simulate", "rabi", "--quadrature", "amplitude", "--alpha", "0.01",
                  "--tau-max", "0.004", "--points", "4", "--realizations", "3",
                  "--out", "rabi"],
                 ["scan-alpha", "--alphas", "2.5,3.2,4.0,5.0", "--realizations", "20",
                  "--points", "12", "--out", "scan"]):
        assert main(argv + spec) == 0, argv
    stages["cli"] = scipy_loaded()

    import numpy as np
    t = np.linspace(1e-3, 25e-3, 40)
    y = 0.5 + 0.4 * np.exp(-t / 10e-3) * np.cos(2.0 * math.pi * 300.0 * t)
    rec = bathforge.ExperimentRecord(kind="ramsey", sweep=t, mean=y,
                                     stderr=np.full(40, 1e-3), n_realizations=1,
                                     spec_hash="x")
    bathforge.fit_decay(rec)
    stages["fit_decay"] = scipy_loaded()
    bathforge.predicted_t2(bathforge.NoiseSpec(quadrature=bathforge.Quadrature.DEPHASING,
                                               alpha=2.0, omega0=25.0, teeth=30, p=0))
    stages["predicted_t2"] = scipy_loaded()
    bathforge.pm_sidebands(1.0, 0.5, 10.0, 3)
    stages["pm_sidebands"] = scipy_loaded()
    print(json.dumps(stages))
""")


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env,
                         cwd=tmp_path_factory.mktemp("cold"), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy(stages):
    assert stages["import"] == []


def test_import_loads_no_numpy_random(stages):
    # numpy.random takes about 5 ms to import; the phase draw loads it, and
    # registers its seed-word class with it, on first use
    assert stages["import_numpy_random"] == []


def test_cli_commands_without_fits_load_no_scipy(stages):
    assert stages["cli"] == []


def test_fit_decay_and_predicted_t2_load_no_solver(stages):
    # both solve in numpy; scipy.optimize is only the tests' oracle for them
    assert stages["fit_decay"] == stages["predicted_t2"] == []


def test_pm_sidebands_loads_bessel(stages):
    assert "scipy.special" in stages["pm_sidebands"]
