"""Committed sha256 digests of every file the README CLI commands write for one
tiny spec, so a refactor of the writers can show its outputs are byte-identical.

A manifest is hashed without its ``manifest.version`` line, so a version bump
alone does not move a digest.  Print the current digests with
``PYTHONPATH=src python tests/test_ledger.py``; replace the table only for an
intended output move, and say why in CHANGES.md.
"""

import hashlib
import sys

import pytest

from bathforge.cli import main

SPEC = """\
quadrature = dephasing
alpha = 1.0
omega0_hz = 4.0
teeth = 10
p = 0
seed = 42
"""
PROGRAM = "0.002 250 0\n0.004 0 0.5\n"

CASES = {
    "synth": ["synth", "--realizations", "2", "--periods", "1", "--out", "noise"],
    "verify-psd": ["verify-psd", "--realizations", "4", "--periods", "1",
                   "--carrier-power", "1", "--out", "psd"],
    "predict_chi": ["predict", "chi", "--tau-min", "0.001", "--tau-max", "0.05",
                    "--points", "20", "--out", "chi"],
    "export_both": ["export", "--program", "prog.txt", "--rate", "8000", "--format",
                    "both", "--bits", "16", "--out", "wave"],
    "simulate_ramsey": ["simulate", "ramsey", "--alpha", "3", "--tau-max", "0.004",
                        "--points", "4", "--realizations", "3", "--out", "ramsey"],
    "simulate_rabi": ["simulate", "rabi", "--quadrature", "amplitude", "--alpha", "0.01",
                      "--drive-rabi-hz", "500", "--tau-max", "0.004", "--points", "5",
                      "--realizations", "3", "--out", "rabi"],
    "scan-alpha": ["scan-alpha", "--alphas", "2.5,3.2,4.0,5.0", "--realizations", "20",
                   "--points", "12", "--out", "scan"],
    "synth_envelope": ["synth", "--envelope", "1,0.5,0.25", "--teeth", "3",
                       "--realizations", "1", "--periods", "1", "--out", "env"],
}

DIGESTS = {
    "export_both": {
        "wave.csv": "da94db403fa71ab3fe717eb818694b78198fa68f00a13db450edfcbb661ba0fe",
        "wave.hdr": "33fdab6f52d5667d93afffffb6be914cf6dd0f1462029d7f375e02d10d9fb240",
        "wave.iq": "df666957ac62f975f679d6384129b41de392fbf9984ce3e645122072497d72f2",
        "wave.manifest": "0df31a05ebebb77d7cbdeaf9e04b1f0325cbb2536cefbe5e80e049893c976de2",
    },
    "predict_chi": {
        "chi.csv": "7a9e4c0b07619d25ecf608e7df71983a330594d43ad9e31978fc75d73ccf4e6e",
        "chi.manifest": "c0acb4772b99269a46fbcce0aca97ff4618b54756e5a8d1f2aff95c4b11085d0",
    },
    "scan-alpha": {
        "scan.csv": "5f735eea6e750ed89ba4a2bbc814ea35a660ad726fc1a006512fc886c9b29acb",
        "scan.manifest": "cf260e0ceafe021a584caf3e79bd28e9e1129b7139dd83ba2035fc0c4d19c25c",
    },
    "simulate_rabi": {
        "rabi.csv": "2c7f34a61df232980ad74846f51b8492448fbea1e6b2f04aaa0d1a6f739357ac",
        "rabi.manifest": "a5467e85d07936d24788c02291b64147de3a96b3f5c95a5e066f0bd8a313e181",
    },
    "simulate_ramsey": {
        "ramsey.csv": "fb69d2258eebbe8a05429794be2432b9ddd0c3a54be02e2641f7fdf3f4493aab",
        "ramsey.manifest": "ba3e0cb1b8037d9869f55282bf77c3b77eabe584fa2d74087314863fd4642de1",
    },
    "synth": {
        "noise.manifest": "fadc193ca853dafe2c02a59e4279bb178dcdbc7a447f8259463bb8de708dad61",
        "noise_0000.csv": "6d5ef9f0e32c1dc8882f79bc7f54f7e21c846738afd886d1546a5493f75b6407",
        "noise_0001.csv": "0b72ed14b86fbfd7922886510a0c0aa2bbf4a2527de47272fe2561b61a2de01f",
    },
    "synth_envelope": {
        "env.manifest": "11dd90f721109ddcd782d5e44573ebf5e2f4ed22f7d3d70557b4da8f26bdb5e4",
        "env_0000.csv": "856cff7d63a544c6e3c0426195265e17527ec9f6953035ed3bcd0f44bee874d5",
    },
    "verify-psd": {
        "psd.csv": "23802c6ca57710c7dd83eaf7d1d77db93d2bed0593599518cce8a3ff7ea0eed3",
        "psd.manifest": "a89bdb0abfcb9b9ac8770d8842d90608dc3af4afdbee01535bfa9e827867be80",
    },
}


def case_digests(argv, workdir) -> dict:
    """Run one command in ``workdir``; the sha256 of each file it wrote."""
    (workdir / "white.cfg").write_text(SPEC)
    (workdir / "prog.txt").write_text(PROGRAM)
    assert main(argv + ["--spec", "white.cfg"]) == 0
    digests = {}
    for path in sorted(workdir.iterdir()):
        if path.name in ("white.cfg", "prog.txt"):
            continue
        data = path.read_bytes()
        if path.suffix == ".manifest":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"manifest.version "))
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_ledger(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    assert case_digests(CASES[case], tmp_path) == DIGESTS[case]


if __name__ == "__main__":
    import contextlib
    import pprint
    import tempfile
    from pathlib import Path

    table = {}
    for name, argv in sorted(CASES.items()):
        with (tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp),
              contextlib.redirect_stdout(sys.stderr)):
            table[name] = case_digests(argv, Path(tmp))
    pprint.pprint(table, width=100)
