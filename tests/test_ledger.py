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
    # f0 = 2.5 Hz, J = 150, 3 periods of 301 samples: the float step misses
    # T0/301 by a few roundings, which over the record drifts the top tooth by
    # J*(n - 1)*|s| = 5.1e-13 rad; the record is the exact period, repeated
    "synth_rounded_step": ["synth", "--omega0-hz", "2.5", "--teeth", "150", "--periods", "3",
                           "--samples-per-period", "301", "--realizations", "1",
                           "--out", "step"],
}

DIGESTS = {
    "export_both": {
        "wave.csv": "b637ed667550335efe17d3385b46f00e871f52536c1844fbedfea3bd6b03ec1e",
        "wave.hdr": "33fdab6f52d5667d93afffffb6be914cf6dd0f1462029d7f375e02d10d9fb240",
        "wave.iq": "df666957ac62f975f679d6384129b41de392fbf9984ce3e645122072497d72f2",
        "wave.manifest": "8ce5c771bf92ae6c7043bfb2bc0f36d709285ab533fc4aba35609e5953bbeda4",
    },
    "predict_chi": {
        "chi.csv": "7a9e4c0b07619d25ecf608e7df71983a330594d43ad9e31978fc75d73ccf4e6e",
        "chi.manifest": "c0acb4772b99269a46fbcce0aca97ff4618b54756e5a8d1f2aff95c4b11085d0",
    },
    "scan-alpha": {
        "scan.csv": "e0f4cd780da42e6e2ecad9199867767d599efdec07a2485c0b7cf73327351d12",
        "scan.manifest": "210f13bc5108e8291c790995c1c76e4dd987b253bde35b2621ac87a815f61fbb",
    },
    "simulate_rabi": {
        "rabi.csv": "5a729d9a58b3dce76c8c3909f122cee5d00da69b72cdc3baadf53fdadc317418",
        "rabi.manifest": "6632f4bcf965392c976902ac31f73897e6197f8ec8e75977910cc12632cc585e",
    },
    "simulate_ramsey": {
        "ramsey.csv": "f003da58faccd88c2942a82f7f9d7d0541e60d371feafa0ef6debcde46937aa1",
        "ramsey.manifest": "f0ff2c2184d6ba4443ca49f96770c3b522061420bcfc5b7f1eeb8bfb785286ed",
    },
    "synth": {
        "noise.manifest": "b87d9a14785af358d19bd2d02d6840791236d291b102e24345533f0dcd027bbc",
        "noise_0000.csv": "d449117956e45e5161bb78b78032116464307922a8d403fd21e666006bfaf16b",
        "noise_0001.csv": "f0fac5c8ac32ee2256622f70176a8e4c728341aa596a2dd1fb71fbe616024048",
    },
    "synth_envelope": {
        "env.manifest": "52aaa92eab26fde8d26594cf11d93fec5e8c245619fbecc77f3cbfd0122b40c3",
        "env_0000.csv": "ce64efe607b063e1bea12a6f9e38a9e9d3f2959c786b8b84393824710200fa94",
    },
    "synth_rounded_step": {
        "step.manifest": "916866b34c130e342332ff25da34996bf597d6294dd54be30034035ffa2a3ea0",
        "step_0000.csv": "69e9eb4fad2f87851bb11e8ce8a38dc517ea3f4915ec3a4b1ac51b56348d8121",
    },
    "verify-psd": {
        "psd.csv": "a84f8801078bd4630c868d2aa0cc8b6572e8fbdf39f4cc762c8fe9ddaa1e40f9",
        "psd.manifest": "bf9e899663173e2093db82d56ab18d5ef8d92c356f2240b07e1647c4088ec497",
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
