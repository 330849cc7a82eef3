import math
import shlex
import tomllib
from pathlib import Path

import numpy as np
import pytest

from bathforge import __version__, noise
from bathforge.cli import Options, build_parser, main
from bathforge.config import mapping_from_spec, parse_kv, serialize_kv, spec_from_options
from bathforge.errors import ConfigError

WHITE_CFG = """\
# white dephasing comb
quadrature = dephasing
alpha = 1.0
omega0_hz = 4.0
teeth = 50
p = 0
seed = 42
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "white.cfg"
    path.write_text(WHITE_CFG)
    return str(path)


def spec_of(text):
    """The spec a ``--spec`` file of ``text`` names, through the options' one merge."""
    opts = Options("synth")
    opts.merge({f"spec.{k}": v for k, v in parse_kv(text).items()})
    return spec_from_options(opts.values)


class TestConfig:
    def test_round_trip_identity(self):
        m1 = parse_kv(WHITE_CFG)
        m2 = parse_kv(serialize_kv(m1))
        assert m1 == m2

    def test_spec_round_trip(self):
        spec = spec_of(WHITE_CFG)
        again = spec_of(serialize_kv(mapping_from_spec(spec)))
        assert again == spec and again.spec_hash() == spec.spec_hash()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        (tmp_path / "typo.cfg").write_text(WHITE_CFG + "tooths = 3\n")
        rc = main(["synth", "--spec", str(tmp_path / "typo.cfg"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "unknown configuration key 'spec.tooths'" in capsys.readouterr().err

    def test_manifest_namespace_tolerated(self, tmp_path):
        (tmp_path / "m.cfg").write_text(WHITE_CFG + "manifest.command = synth\n")
        rc = main(["synth", "--spec", str(tmp_path / "m.cfg"), "--periods", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 0
        assert parse_kv((tmp_path / "x.manifest").read_text())["spec.teeth"] == "50"

    def test_missing_envelope_and_p(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text(WHITE_CFG.replace("p = 0\n", ""))
        rc = main(["synth", "--spec", str(tmp_path / "bad.cfg"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "exactly one of 'p' or 'envelope'" in capsys.readouterr().err

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv("a = 1\na = 2\n")

    def test_hz_boundary_conversion(self):
        spec = spec_of(WHITE_CFG)
        assert spec.omega0 == pytest.approx(2.0 * math.pi * 4.0, rel=1e-15)

    def test_explicit_envelope(self):
        cfg = WHITE_CFG.replace("p = 0\n", "envelope = 1.0, 0.5, 0.25\n") \
                       .replace("teeth = 50", "teeth = 3")
        spec = spec_of(cfg)
        assert spec.envelope == (1.0, 0.5, 0.25) and spec.p is None


class TestCliRuns:
    def test_synth_writes_files(self, tmp_path, spec_file):
        out = str(tmp_path / "noise")
        rc = main(["synth", "--spec", spec_file, "--realizations", "2",
                   "--periods", "1", "--out", out])
        assert rc == 0
        assert (tmp_path / "noise_0000.csv").exists()
        assert (tmp_path / "noise_0001.csv").exists()
        manifest = parse_kv((tmp_path / "noise.manifest").read_text())
        assert manifest["manifest.command"] == "synth"
        assert manifest["spec.teeth"] == "50"

    def test_rerun_from_manifest_byte_identical(self, tmp_path, spec_file):
        out = str(tmp_path / "noise")
        main(["synth", "--spec", spec_file, "--realizations", "1", "--out", out])
        first = (tmp_path / "noise_0000.csv").read_bytes()
        rc = main(["synth", "--config", str(tmp_path / "noise.manifest")])
        assert rc == 0
        assert (tmp_path / "noise_0000.csv").read_bytes() == first

    def test_simulate_ramsey_zero_alpha_flat_visibility(self, tmp_path, spec_file):
        out = str(tmp_path / "ram")
        rc = main(["simulate", "ramsey", "--spec", spec_file, "--alpha", "0",
                   "--tau-max", "0.004", "--points", "9", "--realizations", "2",
                   "--detuning-hz", "500", "--out", out])
        assert rc == 0
        rows = (tmp_path / "ram.csv").read_text().splitlines()
        vis = [float(r.split(",")[3]) for r in rows[2:]]
        assert all(v > 0.999 for v in vis)

    def test_simulate_ramsey_zero_alpha_errors_exactly_zero(self, tmp_path, spec_file):
        out = str(tmp_path / "ram")
        rc = main(["simulate", "ramsey", "--spec", spec_file, "--alpha", "0",
                   "--tau-max", "0.004", "--points", "9", "--realizations", "500",
                   "--detuning-hz", "500", "--out", out])
        assert rc == 0
        rows = (tmp_path / "ram.csv").read_text().splitlines()
        assert rows[1] == "sweep,mean,stderr,visibility,visibility_err"
        cols = np.array([[float(v) for v in r.split(",")] for r in rows[2:]])
        assert np.all(cols[:, 2] == 0.0) and np.all(cols[:, 4] == 0.0)

    def test_simulate_rabi(self, tmp_path, spec_file):
        out = str(tmp_path / "rabi")
        rc = main(["simulate", "rabi", "--spec", spec_file, "--quadrature",
                   "amplitude", "--alpha", "0.01", "--teeth", "10",
                   "--drive-rabi-hz", "500", "--tau-max", "0.004",
                   "--points", "8", "--realizations", "5", "--out", out])
        assert rc == 0
        rows = (tmp_path / "rabi.csv").read_text().splitlines()
        assert rows[1] == "sweep,mean,stderr"
        assert len(rows) == 2 + 8

    def test_simulate_rabi_starts_at_tau_min(self, tmp_path, spec_file):
        out = str(tmp_path / "rabi")
        rc = main(["simulate", "rabi", "--spec", spec_file, "--quadrature",
                   "amplitude", "--alpha", "0.01", "--teeth", "10",
                   "--drive-rabi-hz", "500", "--tau-min", "0.001", "--tau-max", "0.004",
                   "--points", "4", "--realizations", "2", "--out", out])
        assert rc == 0
        rows = (tmp_path / "rabi.csv").read_text().splitlines()[2:]
        sweep = [float(r.split(",")[0]) for r in rows]
        # durations are snapped to the step grid, far finer than the 1 ms spacing
        assert np.allclose(sweep, [0.001, 0.002, 0.003, 0.004], rtol=0, atol=1e-5)

    def test_predict_chi_matches_module(self, tmp_path, spec_file):
        out = str(tmp_path / "chi")
        rc = main(["predict", "chi", "--spec", spec_file, "--tau-min", "0.001",
                   "--tau-max", "0.05", "--points", "20", "--out", out])
        assert rc == 0
        rows = (tmp_path / "chi.csv").read_text().splitlines()
        assert rows[0].startswith("# regime")
        from bathforge import chi_fid_comb
        spec = spec_of(WHITE_CFG)
        tau, chi, fid = (np.array([[float(v) for v in r.split(",")]
                                   for r in rows[2:]]).T)
        assert np.allclose(chi, chi_fid_comb(spec, tau), rtol=1e-12)
        assert np.all((fid > 0.5) & (fid <= 1.0))

    def test_export_with_noise(self, tmp_path, spec_file):
        prog = tmp_path / "prog.txt"
        prog.write_text("# pi pulse then delay\n0.002 250 0\n0.004 0 0\n")
        out = str(tmp_path / "wave")
        rc = main(["export", "--spec", spec_file, "--program", str(prog),
                   "--rate", "8000", "--format", "both", "--bits", "16",
                   "--out", out])
        assert rc == 0
        assert (tmp_path / "wave.csv").exists()
        assert (tmp_path / "wave.iq").exists()
        hdr = (tmp_path / "wave.hdr").read_text()
        assert "bits = 16" in hdr

    @pytest.mark.parametrize("duration", ["0.0155", "0.0154"])
    def test_export_drops_partial_last_sample(self, tmp_path, duration):
        prog = tmp_path / "prog.txt"
        prog.write_text(f"{duration} 250 0\n")
        rc = main(["export", "--program", str(prog), "--rate", "1000",
                   "--out", str(tmp_path / "wave")])
        assert rc == 0
        rows = (tmp_path / "wave.csv").read_text().splitlines()
        assert rows[0] == "t,i,q" and len(rows) == 1 + 15

    def test_verify_psd(self, tmp_path, spec_file, capsys):
        out = str(tmp_path / "psd")
        rc = main(["verify-psd", "--spec", spec_file, "--realizations", "10",
                   "--periods", "1", "--out", out])
        assert rc == 0
        said = capsys.readouterr().out
        assert "worst tooth weight deviation" in said
        assert (tmp_path / "psd.csv").exists()

    def test_scan_alpha(self, tmp_path, spec_file, capsys):
        out = str(tmp_path / "scan")
        rc = main(["scan-alpha", "--spec", spec_file, "--teeth", "750",
                   "--alphas", "2.5,3.2,4.0,5.0", "--realizations", "60",
                   "--points", "20", "--out", out])
        assert rc == 0
        assert "T2^-1 ~ alpha^x" in capsys.readouterr().out
        rows = (tmp_path / "scan.csv").read_text().splitlines()
        assert rows[0] == "alpha,t2,t2_err"
        assert rows[-1].startswith("# exponent")


class TestCliErrors:
    def test_scan_alpha_too_few_points_exit_3(self, tmp_path, spec_file, capsys):
        # rejected before the first alpha is simulated, not as a fit failure (exit 4)
        rc = main(["scan-alpha", "--spec", spec_file, "--alphas", "1.8,2.4,3.2,4.0",
                   "--points", "4", "--out", str(tmp_path / "scan")])
        assert rc == 3
        assert "--points must be >= 8, got 4" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (["scan-alpha", "--alphas", "1.8,2.4,3.2,4.0", "--points", "4"],
         "--points must be >= 8, got 4"),
        (["scan-alpha", "--alphas", "1.8,2.4,3.2,4.0", "--realizations", "0"],
         "--realizations must be >= 1, got 0"),
        (["simulate", "ramsey", "--tau-max", "0.004", "--realizations", "0"],
         "--realizations must be >= 1, got 0"),
        (["simulate", "rabi", "--quadrature", "amplitude", "--alpha", "0.01",
          "--tau-max", "0.004", "--realizations", "0"], "--realizations must be >= 1, got 0"),
        (["verify-psd", "--realizations", "0"], "--realizations must be >= 1, got 0"),
        (["synth", "--periods", "0"], "--periods must be >= 1, got 0"),
        (["synth", "--samples-per-period", "1"], "--samples-per-period must be >= 2, got 1"),
        (["verify-psd", "--samples-per-period", "-3"],
         "--samples-per-period must be >= 2, got -3"),
        (["export", "--program", "prog.txt", "--rate", "8000", "--realization-index", "-1"],
         "--realization-index must be >= 0, got -1"),
        (["predict", "chi", "--tau-min", "0.05", "--tau-max", "0.01"],
         "--tau-min must be < --tau-max (0.01), got 0.05"),
        (["simulate", "ramsey", "--tau-min", "0.05", "--tau-max", "0.01"],
         "--tau-min must be < --tau-max (0.01), got 0.05"),
        (["simulate", "ramsey", "--tau-max", "0"], "--tau-max must be > 0, got 0.0"),
        (["simulate", "rabi", "--quadrature", "amplitude", "--alpha", "0.01",
          "--tau-min", "0.004", "--tau-max", "0.004"],
         "--tau-min must be < --tau-max (0.004), got 0.004"),
    ], ids=["scan_alpha_points", "scan_alpha_realizations", "simulate_ramsey_realizations",
            "simulate_rabi_realizations", "verify_psd_realizations", "synth_periods",
            "synth_samples_per_period", "verify_psd_samples_per_period",
            "export_realization_index", "predict_descending_taus",
            "simulate_ramsey_descending_taus", "simulate_ramsey_tau_max_0",
            "simulate_rabi_equal_taus"])
    def test_range_error_names_the_flag(self, tmp_path, monkeypatch, capsys, argv, message):
        # checked in the CLI before any draw, simulation or scan starts
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        for name in ("realize", "ramsey", "rabi", "alpha_scaling"):
            monkeypatch.setattr(f"bathforge.cli.{name}", None)
        rc = main(argv + ["--spec", "white.cfg", "--out", "x"])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_unknown_config_key_exit_2(self, tmp_path, spec_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("realisations = 5\n")
        rc = main(["synth", "--spec", spec_file, "--config", str(cfg)])
        assert rc == 2

    def test_invalid_physics_exit_3(self, tmp_path, spec_file, capsys):
        rc = main(["synth", "--spec", spec_file, "--teeth", "0",
                   "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "teeth" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["ture", "2", ""])
    def test_bad_bool_config_exit_2(self, tmp_path, spec_file, capsys, word):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_noise = {word}\n")
        rc = main(["simulate", "ramsey", "--spec", spec_file, "--config", str(cfg),
                   "--tau-max", "0.004", "--points", "3", "--realizations", "2",
                   "--out", str(tmp_path / "ram")])
        assert rc == 2
        assert "pulse_noise" in capsys.readouterr().err
        assert not (tmp_path / "ram.csv").exists()

    @pytest.mark.parametrize("word,value", [("1", True), ("TRUE", True), (" Yes ", True),
                                            ("on", True), ("0", False), ("False", False),
                                            ("no", False), ("OFF", False)])
    def test_bool_words_accepted(self, word, value):
        opts = Options("simulate")
        opts.merge({"pulse_noise": word})
        assert opts["pulse_noise"] is value

    def test_zero_pulse_rabi_exit_3(self, tmp_path, spec_file, capsys):
        rc = main(["simulate", "ramsey", "--spec", spec_file, "--pulse-rabi-hz", "0",
                   "--tau-max", "0.004", "--points", "3", "--realizations", "2",
                   "--out", str(tmp_path / "ram")])
        assert rc == 3
        assert "error category=validation" in capsys.readouterr().err
        assert not (tmp_path / "ram.csv").exists()

    def test_detuned_program_exit_3(self, tmp_path, capsys):
        prog = tmp_path / "prog.txt"
        prog.write_text("0.002 250 0 500\n0.004 0 0\n")
        rc = main(["export", "--program", str(prog), "--rate", "8000",
                   "--out", str(tmp_path / "wave")])
        assert rc == 3
        assert "detuning" in capsys.readouterr().err

    def test_program_shorter_than_one_sample_exit_3(self, tmp_path, capsys):
        prog = tmp_path / "prog.txt"
        prog.write_text("0.0005 250 0\n")
        rc = main(["export", "--program", str(prog), "--rate", "1000",
                   "--out", str(tmp_path / "wave")])
        assert rc == 3
        assert "shorter than one sample" in capsys.readouterr().err
        assert not list(tmp_path.glob("wave*"))

    @pytest.mark.parametrize("line", ["0.002 nan 0", "0.002 250 inf", "inf 250 0",
                                      "nan 250 0"])
    def test_nonfinite_program_exit_3(self, tmp_path, capsys, line):
        prog = tmp_path / "prog.txt"
        prog.write_text(line + "\n")
        rc = main(["export", "--program", str(prog), "--rate", "8000", "--format", "both",
                   "--out", str(tmp_path / "wave")])
        assert rc == 3
        assert "error category=validation" in capsys.readouterr().err
        assert not list(tmp_path.glob("wave*"))

    def test_missing_spec_exit_2(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "ramsey", "--spec", "white.cfg", "--tau-max", "0.004", "--points", "0"],
        ["export", "--program", "prog.txt", "--rate", "0"],
        ["predict", "chi", "--spec", "white.cfg", "--tau-max", "0.01", "--points", "0"],
        ["predict", "chi", "--spec", "white.cfg", "--tau-max", "nan"],
        ["simulate", "ramsey", "--spec", "white.cfg", "--tau-max", "0.004", "--points", "3",
         "--realizations", "2", "--detuning-hz", "nan"],
        ["predict", "chi", "--spec", "white.cfg", "--tau-min", "-1", "--tau-max", "0.01"],
        ["synth", "--spec", "white.cfg", "--realizations", "-1"],
    ], ids=["ramsey_points_0", "export_rate_0", "predict_points_0", "predict_tau_max_nan",
            "ramsey_detuning_nan", "predict_tau_min_negative", "synth_realizations_negative"])
    def test_bad_numbers_exit_3(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        (tmp_path / "prog.txt").write_text("0.002 250 0\n")
        rc = main(argv + ["--out", "x"])
        assert rc == 3
        assert "error category=validation" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv", [
        ["verify-psd", "--spec", "white.cfg", "--realizations", "2", "--periods", "1",
         "--carrier-power", "nan"],
        ["verify-psd", "--spec", "white.cfg", "--realizations", "2", "--periods", "1",
         "--carrier-power", "inf"],
        ["export", "--program", "prog.txt", "--rate", "8000", "--jump-threshold", "nan"],
        ["export", "--program", "prog.txt", "--rate", "8000", "--jump-threshold", "-1"],
    ], ids=["carrier_power_nan", "carrier_power_inf", "jump_threshold_nan",
            "jump_threshold_negative"])
    def test_bad_option_values_exit_3(self, tmp_path, monkeypatch, capsys, argv):
        # these used to write an all-NaN or -inf dBc column, or switch the
        # continuity flag off or onto every waveform
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        (tmp_path / "prog.txt").write_text("0.002 250 0\n")
        rc = main(argv + ["--out", "x"])
        assert rc == 3
        assert "error category=validation" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv,missing", [
        (["synth", "--spec", "nope.cfg"], "nope.cfg"),
        (["synth", "--spec", "white.cfg", "--config", "run.cfg"], "run.cfg"),
        (["export", "--program", "prog.txt", "--rate", "8000"], "prog.txt"),
    ], ids=["spec", "config", "program"])
    def test_unreadable_file_exit_2(self, tmp_path, monkeypatch, capsys, argv, missing):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        rc = main(argv + ["--out", "x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error category=config" in err and missing in err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv", [
        ["synth", "--spec", "white.cfg", "--periods", "1"],
        ["predict", "chi", "--spec", "white.cfg", "--tau-max", "0.01", "--points", "3"],
        ["export", "--program", "prog.txt", "--rate", "8000", "--format", "both"],
        ["export", "--program", "prog.txt", "--rate", "8000", "--format", "bin"],
    ], ids=["synth", "predict_chi", "export_both", "export_bin"])
    def test_unwritable_output_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        (tmp_path / "prog.txt").write_text("0.002 250 0\n")
        rc = main(argv + ["--out", "missing/x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error category=config: cannot write missing/x" in err
        assert "No such file or directory" in err
        assert not list(tmp_path.rglob("*.manifest"))

    def test_failure_after_an_output_writes_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prog.txt").write_text("0.002 250 0\n")
        rc = main(["export", "--program", "prog.txt", "--rate", "8000", "--format", "both",
                   "--bits", "20", "--out", "wave"])
        assert rc == 3
        # the bit depth is checked before the CSV is written, so no file appears
        assert not list(tmp_path.glob("wave*"))

    def test_bad_format_rejected_before_sampling(self, tmp_path, monkeypatch, capsys):
        def no_realize(*args):
            raise AssertionError("noise sampled before the format was checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("bathforge.cli.realize", no_realize)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        (tmp_path / "prog.txt").write_text("0.002 250 0\n")
        rc = main(["export", "--spec", "white.cfg", "--program", "prog.txt", "--rate",
                   "8000", "--format", "wav", "--out", "wave"])
        assert rc == 2
        assert "error category=config" in capsys.readouterr().err
        assert not list(tmp_path.glob("wave*"))


    def test_failed_export_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prog.txt").write_text("0.002 250 0\n")
        (tmp_path / "wave.iq").mkdir()
        rc = main(["export", "--program", "prog.txt", "--rate", "8000", "--format", "both",
                   "--out", "wave"])
        assert rc == 2
        assert "cannot write wave.iq" in capsys.readouterr().err
        # the finished CSV is removed; the directory the run failed to open is not
        assert sorted(p.name for p in tmp_path.glob("wave*")) == ["wave.iq"]
        assert (tmp_path / "wave.iq").is_dir()

    def test_failed_synth_leaves_no_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        (tmp_path / "noise_0001.csv").mkdir()
        rc = main(["synth", "--spec", "white.cfg", "--realizations", "3", "--periods", "1",
                   "--out", "noise"])
        assert rc == 2
        assert sorted(p.name for p in tmp_path.glob("noise*")) == ["noise_0001.csv"]


def run_main(argv, capsys):
    """``main``'s exit code and stderr; an argparse exit fails the test."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        pytest.fail(f"argparse exited with {exc.code}")
    return rc, capsys.readouterr().err


class TestOnePath:
    """Values from --config, --spec and flags meet one merge and one parser."""

    BASE = "spec.quadrature = dephasing\nspec.alpha = 1.0\nspec.omega0_hz = 4.0\nspec.teeth = 3\n"
    ENVELOPE = "1.0, 0.5, 0.25"

    @pytest.mark.parametrize("key,argv", [
        ("rate", ["export", "--program", "prog.txt"]),
        ("spec.alpha", ["synth", "--spec", "white.cfg"]),
        ("spec.teeth", ["synth", "--spec", "white.cfg"]),
        ("pulse_noise", ["simulate", "ramsey", "--spec", "white.cfg", "--tau-max", "0.004"]),
    ], ids=["rate", "alpha", "teeth", "pulse_noise"])
    def test_bad_value_same_from_flag_and_config(self, tmp_path, monkeypatch, capsys,
                                                 key, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white.cfg").write_text(WHITE_CFG)
        (tmp_path / "prog.txt").write_text("0.002 250 0\n")
        (tmp_path / "run.cfg").write_text(f"{key} = x\n")
        flag = "--" + key.removeprefix("spec.").replace("_", "-")
        from_flag = run_main(argv + [flag, "x", "--out", "out"], capsys)
        from_config = run_main(argv + ["--config", "run.cfg", "--out", "out"], capsys)
        line = f"error category=config: bad value for {key!r}: 'x'\n"
        assert from_flag == from_config == (2, line)
        assert not list(tmp_path.glob("out*"))

    def test_quadrature_any_case(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "amp.cfg").write_text(WHITE_CFG.replace("dephasing", "amplitude"))
        (tmp_path / "title.cfg").write_text(WHITE_CFG.replace("dephasing", "Dephasing"))
        predict = ["predict", "chi", "--tau-max", "0.01", "--points", "3", "--out", "chi"]
        for argv in (["--spec", "amp.cfg", "--quadrature", "Dephasing"],
                     ["--spec", "title.cfg"]):
            assert run_main(predict + argv, capsys) == (0, "")
            manifest = parse_kv((tmp_path / "chi.manifest").read_text())
            assert manifest["spec.quadrature"] == "dephasing"

    def run_layers(self, tmp_path, capsys, config="", spec="", flags=()):
        """Predict with the base spec in --config plus the given text per layer."""
        (tmp_path / "run.cfg").write_text(self.BASE + config)
        argv = ["predict", "chi", "--tau-max", "0.01", "--points", "3",
                "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "chi"),
                *flags]
        if spec:
            (tmp_path / "spec.cfg").write_text(spec)
            argv += ["--spec", str(tmp_path / "spec.cfg")]
        rc, err = run_main(argv, capsys)
        if rc:
            return rc, err
        return rc, parse_kv((tmp_path / "chi.manifest").read_text())

    @pytest.mark.parametrize("layers,seed", [
        ((), "0"), (("config",), "1"), (("spec",), "2"), (("flags",), "3"),
        (("config", "spec"), "2"), (("config", "flags"), "3"), (("spec", "flags"), "3"),
        (("config", "spec", "flags"), "3"),
    ])
    def test_numeric_precedence(self, tmp_path, capsys, layers, seed):
        rc, manifest = self.run_layers(
            tmp_path, capsys,
            config="spec.p = 0\n" + ("spec.seed = 1\n" if "config" in layers else ""),
            spec="seed = 2\n" if "spec" in layers else "",
            flags=["--seed", "3"] if "flags" in layers else [])
        assert rc == 0 and manifest["spec.seed"] == seed

    @pytest.mark.parametrize("lower,upper", [("config", "spec"), ("config", "flags"),
                                             ("spec", "flags")])
    @pytest.mark.parametrize("winner", ["p", "envelope"])
    def test_p_envelope_later_layer_replaces(self, tmp_path, capsys, lower, upper, winner):
        loser = "envelope" if winner == "p" else "p"
        value = {"p": "-1", "envelope": self.ENVELOPE}
        layers = {"config": "", "spec": "", "flags": []}
        for layer, key in ((lower, loser), (upper, winner)):
            if layer == "flags":
                layers["flags"] = [f"--{key}", value[key].replace(" ", "")]
            else:
                prefix = "spec." if layer == "config" else ""
                layers[layer] = f"{prefix}{key} = {value[key]}\n"
        rc, manifest = self.run_layers(tmp_path, capsys, **layers)
        assert rc == 0
        assert f"spec.{loser}" not in manifest
        assert manifest[f"spec.{winner}"] == {"p": "-1.0", "envelope": self.ENVELOPE}[winner]

    @pytest.mark.parametrize("layer", ["config", "spec", "flags"])
    def test_p_and_envelope_in_one_layer_exit_2(self, tmp_path, capsys, layer):
        layers = {"config": "", "spec": "", "flags": []}
        if layer == "flags":
            layers["flags"] = ["--p", "0", "--envelope", "1,0.5,0.25"]
        else:
            prefix = "spec." if layer == "config" else ""
            layers[layer] = f"{prefix}p = 0\n{prefix}envelope = {self.ENVELOPE}\n"
        rc, err = self.run_layers(tmp_path, capsys, **layers)
        assert rc == 2
        assert "error category=config: exactly one of 'p' or 'envelope'" in err


class TestManifestReplay:
    """Every subcommand's manifest replays, from another directory, to identical bytes."""

    @pytest.mark.parametrize("argv", [
        ["verify-psd", "--realizations", "4", "--periods", "1", "--carrier-power", "2",
         "--out", "psd"],
        ["predict", "chi", "--tau-min", "0.001", "--tau-max", "0.05", "--points", "20",
         "--out", "chi"],
        ["simulate", "ramsey", "--alpha", "3", "--tau-max", "0.004", "--points", "4",
         "--realizations", "3"],
        ["simulate", "rabi", "--quadrature", "amplitude", "--alpha", "0.01", "--teeth", "10",
         "--drive-rabi-hz", "500", "--tau-max", "0.004", "--points", "5", "--realizations",
         "3", "--out", "rabi"],
        ["export", "--program", "prog.txt", "--rate", "8000", "--format", "both",
         "--bits", "16", "--out", "wave"],
    ], ids=["verify-psd", "predict_chi", "simulate_ramsey", "simulate_rabi", "export_both"])
    def test_replay_byte_identical(self, tmp_path, monkeypatch, argv):
        first, replay = tmp_path / "first", tmp_path / "replay"
        inputs = {"white.cfg": WHITE_CFG, "prog.txt": "0.002 250 0\n0.004 0 0.5\n"}
        for d in (first, replay):
            d.mkdir()
            (d / "prog.txt").write_text(inputs["prog.txt"])
        (first / "white.cfg").write_text(WHITE_CFG)
        label = argv[:2] if argv[0] in ("simulate", "predict") else argv[:1]
        monkeypatch.chdir(first)
        assert main(argv + ["--spec", "white.cfg"]) == 0
        [manifest] = first.glob("*.manifest")
        assert parse_kv(manifest.read_text())["manifest.command"] == " ".join(label)
        monkeypatch.chdir(replay)
        assert main(label + ["--config", str(manifest)]) == 0
        written = sorted(p.name for p in first.iterdir() if p.name not in inputs)
        assert sorted(p.name for p in replay.iterdir() if p.name not in inputs) == written
        for name in written:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name


def _readme_cli_lines():
    """The ``bathforge ...`` lines of README's CLI quick start, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    return [" ".join(line.split()) for line in section.replace("\\\n", " ").splitlines()
            if line.startswith("bathforge ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_quick_start_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_readme_quick_start_found():
    assert len(_readme_cli_lines()) >= 8


def test_package_version_matches_pyproject():
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


@pytest.mark.parametrize("teeth", [750, 100])
def test_benchmark_commands_sample_by_fft(tmp_path, monkeypatch, teeth):
    # the synth, verify-psd and export runs of the cli_synth_export benchmark, at
    # its full and tiny sizes: every record is one inverse FFT per period
    def refuse(*args, **kwargs):
        raise AssertionError("realize sampled a grid by block shift")

    monkeypatch.setattr(noise, "_comb_eval", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "white.cfg").write_text(WHITE_CFG.replace("teeth = 50", f"teeth = {teeth}"))
    (tmp_path / "prog.txt").write_text("0.02 500 0.1\n0.03 1500 2.0\n0.015 800 1.0\n"
                                       "0.035 1200 4.0\n")
    for argv in (["synth", "--realizations", "2", "--periods", "1", "--out", "noise"],
                 ["verify-psd", "--realizations", "2", "--out", "psd"],
                 ["export", "--program", "prog.txt", "--rate", "60000", "--format", "both",
                  "--bits", "16", "--out", "wave"]):
        assert main(argv + ["--spec", "white.cfg"]) == 0, argv


@pytest.mark.parametrize("argv", [[], ["synth"], ["export"], ["verify-psd"], ["simulate"],
                                  ["predict"], ["scan-alpha"]])
def test_help_matches_full_parser(capsys, argv):
    # main builds only the invoked command's flags; its help is the full parser's
    with pytest.raises(SystemExit) as run:
        main(argv + ["--help"])
    assert run.value.code == 0
    text = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--help"])
    assert capsys.readouterr().out == text
    if not argv:
        assert all(name in text for name in ("synth", "export", "verify-psd", "simulate",
                                             "predict", "scan-alpha"))


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "--spec", "x.cfg"], ["--spec"]])
def test_bad_command_errors_match_full_parser(capsys, argv):
    # with no command or an unknown one, main builds no command's flags and
    # fails as the full parser does
    with pytest.raises(SystemExit) as run:
        main(argv)
    text = capsys.readouterr().err
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    assert (run.value.code, text) == (full.value.code, capsys.readouterr().err)
    assert run.value.code == 2
