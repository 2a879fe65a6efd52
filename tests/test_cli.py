import dataclasses
import json
import math

import pytest

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

    def test_sweep_axis_flags(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "phi=0:3.14:5",
                               "--measures", "EN_c2a,DG_c2a")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "phi,stable,EN_c2a,DG_c2a,error"
        assert len(lines) == 7

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
