import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optocorr
from optocorr import figure_preset, params_from_config
from optocorr.cli import build_parser, main
from optocorr.sweep import UNSTABLE_POLICIES, SweepSpec, config_hash


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_baseline_report(self, capsys):
        code, out, _ = run_cli(capsys, "measure")
        assert code == 0
        record = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert float(record["EN_c2a"]) > 0.1
        assert record["stable"] == "True"

    def test_fig7a_operating_point(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--set", "Jab_mhz=2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["EN_c2a"] == pytest.approx(0.26, abs=0.05)
        assert record["EN_ab"] == pytest.approx(0.24, abs=0.05)

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("not_a_key: 3\n")
        code, _, err = run_cli(capsys, "measure", "--config", str(cfg))
        assert code == 2
        assert "not_a_key" in err

    def test_non_utf8_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_bytes(b"\xc0\x80")
        code, out, err = run_cli(capsys, "measure", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "cannot parse config" in err

    def test_unstable_point_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--set", "G1_mhz=0.1",
                               "--set", "G2_mhz=0.1")
        assert code == 3
        assert "unstable" in err

    def test_microkelvin_bath_has_zero_occupation(self, capsys):
        # hbar omega_m / kB T ~ 1150 overflows exp; the occupation is 0 to double precision
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e-6", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["n_th"] == 0.0

    def test_subnormal_temperature_has_zero_occupation(self, capsys):
        # k_B T underflows to 0 at T = 1e-320 K; that is the zero-temperature limit
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e-320", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["n_th"] == 0.0

    def test_temperature_beyond_finite_occupation_exit_2(self, capsys):
        # n_th overflows above about 2e305 K; the covariance is not to blame
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e308")
        assert (code, out) == (2, "")
        assert "temperature 1e+308 K" in err and "covariance" not in err
        # hbar omega_m / k_B T underflows to 0 itself (a bare ZeroDivisionError before)
        code, out, err = run_cli(capsys, "measure", "--set", "omega_m_mhz=1e-300",
                                 "--set", "T_kelvin=1e300")
        assert (code, out) == (2, "")
        assert "temperature 1e+300 K" in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_finite_occupation_exit_3(self, capsys):
        # n_th ~ 8.7e302 is finite, the covariance it drives is not
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e300")
        assert (code, out) == (3, "")
        assert "NumericDomainError: non-finite covariance" in err

    def test_json_and_kv_encode_same_values(self, capsys):
        _, kv_out, _ = run_cli(capsys, "measure")
        _, json_out, _ = run_cli(capsys, "measure", "--format", "json")
        kv = dict(line.split("=", 1) for line in kv_out.strip().split("\n"))
        js = json.loads(json_out)
        for key, val in js.items():
            if isinstance(val, float):
                # kv floats are rendered with %.12g, so 12 significant digits
                assert float(kv[key]) == pytest.approx(val, rel=1e-10)


class TestMatrix:
    def test_dump_shapes(self, capsys):
        code, out, _ = run_cli(capsys, "matrix")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# A"
        assert lines[9] == "# D"
        assert len(lines) == 18
        assert all(len(line.split(",")) == 8 for line in lines[1:9])

    def test_with_cm_and_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--with-cm")
        assert code == 0
        lines = out.strip().split("\n")
        assert "# V" in lines
        a00 = lines[1].split(",")[0]
        # kappa1 = 2pi * 2 rad/us, printed at 17 significant digits
        assert float(a00) == pytest.approx(-4 * math.pi, rel=1e-15)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--format", "json", "--with-cm")
        assert code == 0
        blocks = json.loads(out)
        assert set(blocks) == {"A", "D", "V"}
        assert len(blocks["V"]) == 8


class TestSteady:
    def test_solves_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "drive.yaml"
        cfg.write_text(
            "Jac_mhz: 0\nJab_mhz: 0\n"
            "g1_khz: 1\ng2_khz: 1\n"
            "E1_mhz: 500\nE2_mhz: 300\n"
            "delta1_bare_over_omegam: 1\ndelta2_bare_over_omegam: 1\n")
        code, out, _ = run_cli(capsys, "steady", "--config", str(cfg), "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["residual_norm"] <= 1e-10 * max(1.0, 2 * math.pi * 500)
        assert record["iterations"] >= 1
        assert record["G1_eff"] > 0.0

    def test_missing_drive_keys_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "steady")
        assert code == 2
        assert "g1_khz" in err

    DRIVE = ("--set", "g1_khz=1", "--set", "g2_khz=1", "--set", "E1_mhz=1e4",
             "--set", "E2_mhz=1e4", "--set", "delta1_bare_over_omegam=1",
             "--set", "delta2_bare_over_omegam=1")

    @pytest.mark.parametrize("bad", ["g1_khz=nan", "g2_khz=inf", "E1_mhz=nan", "E2_mhz=-inf",
                                     "delta1_bare_over_omegam=inf",
                                     "delta2_bare_over_omegam=nan"])
    def test_non_finite_drive_exit_2(self, capsys, bad):
        # a later --set wins, so `bad` replaces one finite drive key
        code, out, err = run_cli(capsys, "steady", *self.DRIVE, "--set", bad)
        assert (code, out) == (2, "")
        assert "must be finite" in err

    def test_overflowing_mean_field_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "steady", *self.DRIVE,
                                 "--set", "E1_mhz=1e160", "--set", "E2_mhz=1e160")
        assert (code, out) == (3, "")
        assert "overflowed" in err


class TestSweepAndFigure:
    def test_fig2_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run_cli(capsys, "figure", "fig2", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 2502  # comment + header + 50x50 rows
        assert lines[0].startswith("# optocorr v")

    def test_grid_override(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2", "--grid", "5x4")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 20

    def test_extra_grid_count_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "figure", "fig5", "--grid", "5x7")
        assert code == 2
        assert "grid" in err and out == ""

    def test_fixed_second_axis_takes_grid_count(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig7", "--grid", "4x5")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 20

    def test_run_options_follow_the_sweep_module(self, capsys):
        for command in (["sweep", "--axis", "phi=0:1:2"], ["figure", "fig5"]):
            assert build_parser().parse_args(command).unstable == SweepSpec.unstable_policy
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, "--help"])
            assert "{" + ",".join(UNSTABLE_POLICIES) + "}" in capsys.readouterr().out
        args = build_parser().parse_args(["sweep", "--axis", "phi=0:1:2"])
        assert args.measures == ",".join(SweepSpec.measures)

    def test_unstable_override_keeps_the_rest_of_the_spec(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2", "--grid", "3x3", "--unstable", "skip")
        assert code == 0
        spec = figure_preset("fig2", params_from_config({}), counts=(3, 3))
        want = config_hash(dataclasses.replace(spec, unstable_policy="skip"))
        assert out.split("\n")[0].endswith(f"config={want}")

    def test_temperature_axis_through_microkelvin(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=1e-7:1e-5:3",
                                 "--measures", "EN_c2a")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert len(rows) == 3 and all(r[-1] == "" for r in rows)

    def test_temperature_axis_through_subnormal_kelvin(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=0:1e-320:3",
                                 "--measures", "EN_c2a")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert len(rows) == 3 and len({r[2] for r in rows}) == 1 and all(r[-1] == "" for r in rows)

    def test_temperature_axis_beyond_finite_occupation_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=0.01:1e308:3",
                                 "--measures", "EN_c2a")
        assert (code, out) == (2, "")
        assert "temperature 5e+307 K" in err

    def test_duplicate_axis_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "phi=0:1:3", "--axis2", "phi=0:2:2",
                                 "--measures", "EN_c2a")
        assert (code, out) == (2, "")
        assert "both axes sweep phi" in err

    @pytest.mark.parametrize("axis", ["phi=0:inf:3", "phi=-inf:0:3", "phi=nan:1:3",
                                      "phi=1e308:-1e308:3"])
    def test_axis_beyond_floats_exit_2(self, capsys, axis):
        code, out, err = run_cli(capsys, "sweep", "--axis", axis)
        assert code == 2 and out == ""
        # the axis is named; before, the point record read "phi must be finite, got nan"
        assert "axis phi " in err and "phi must be finite" not in err

    def test_sweep_axis_flags(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "phi=0:3.14:5",
                               "--measures", "EN_c2a,DG_c2a")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "phi,stable,EN_c2a,DG_c2a,error"
        assert len(lines) == 7

    def test_duplicate_measure_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "phi=0:3.14:5",
                                 "--measures", "EN_c2a,EN_c2a", "--format", "json")
        assert code == 2
        assert "duplicate measure(s): EN_c2a" in err and out == ""

    def test_bad_axis_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "phi=0:3.14")
        assert code == 2
        assert "axis" in err

    def test_unstable_error_policy_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "G1=0.1:0.3:3",
                               "--set", "G2_mhz=0.1", "--unstable", "error")
        assert code == 3
        assert "unstable" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run_cli(capsys, "figure", "fig5", "--grid", "3",
                                 "--workers", workers)
        assert code == 2
        assert "workers" in err and out == ""

    def test_io_failure_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--out", "/nonexistent/dir/x.csv")
        assert code == 4

    def test_override_precedence_config_then_set(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("Jab_mhz: 2\n")
        _, out_file, _ = run_cli(capsys, "measure", "--config", str(cfg), "--format", "json")
        _, out_set, _ = run_cli(capsys, "measure", "--config", str(cfg),
                                "--set", "Jab_mhz=1", "--format", "json")
        _, out_default, _ = run_cli(capsys, "measure", "--format", "json")
        assert json.loads(out_file)["param_Jab_mhz"] == 2
        assert json.loads(out_set)["param_Jab_mhz"] == 1
        assert json.loads(out_set)["EN_c2a"] == pytest.approx(
            json.loads(out_default)["EN_c2a"], rel=1e-12)


class TestModuleEntry:
    """`python -m optocorr` runs the same front door as the console script."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(optocorr.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        return subprocess.run([sys.executable, "-m", "optocorr", *argv], env=env,
                              capture_output=True, timeout=120)

    def test_measure_matches_golden_file(self):
        proc = self.run_module("measure", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).parent / "data" / "golden_measure.json"
        assert proc.stdout == golden.read_bytes()

    def test_steady_matches_golden_file(self):
        # a drive that needs a few hundred damped steps
        proc = self.run_module("steady", "--set", "E1_mhz=8e4", "--set", "E2_mhz=2e4",
                               "--set", "g1_khz=2.5", "--set", "g2_khz=2.5",
                               "--set", "delta1_bare_over_omegam=0.85",
                               "--set", "delta2_bare_over_omegam=0.95", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).parent / "data" / "golden_steady.json"
        assert proc.stdout == golden.read_bytes()

    def test_exit_code_reaches_the_shell(self):
        proc = self.run_module("sweep", "--axis", "phi=0:1:2", "--measures", "EN_c2a,EN_c2a")
        assert proc.returncode == 2
        assert b"duplicate measure" in proc.stderr and proc.stdout == b""
