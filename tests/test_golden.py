"""Golden-file pins of the default CLI output.

Each figure file under tests/data holds the column line and data rows of
one small figure run; every line after the provenance comment must match
byte for byte.  The matrix and measure files are whole outputs at the
package defaults, and the sweep file is a whole JSON-lines sweep over phi
(its header carries the spec's hash); each must match byte for byte.
golden_presets.txt pins every figure preset's spec: one line per (preset,
base, grid counts) case with the spec's repr and provenance hash, or the
error the case raises.
"""

import re
from pathlib import Path

import pytest

from optocorr import params_from_config
from optocorr.cli import main
from optocorr.sweep import config_hash, figure_preset

DATA = Path(__file__).parent / "data"

GOLDEN = [
    (("fig5", "--grid", "21"), "golden_fig5_21.csv"),
    (("fig9", "--grid", "10x3"), "golden_fig9_10x3.csv"),
    (("fig3", "--grid", "12x12"), "golden_fig3_12x12.csv"),
]


@pytest.mark.parametrize("args,name", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_figure_rows_match_golden_file(args, name, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["figure", *args, "--out", str(out)]) == 0
    header, *rows = out.read_bytes().splitlines(keepends=True)
    assert re.fullmatch(rb"# optocorr v0\.1\.0 config=[0-9a-f]{12}\n", header)
    assert rows == (DATA / name).read_bytes().splitlines(keepends=True)


POINT_GOLDEN = [
    (("matrix", "--with-cm"), "golden_matrix_with_cm.txt"),
    (("measure", "--format", "json"), "golden_measure.json"),
    (("sweep", "--axis", "phi=0:6.283185307:9", "--measures", "EN_c2a,DG_ab,Rtau_min",
      "--format", "json"), "golden_sweep_phi9.jsonl"),
]


@pytest.mark.parametrize("args,name", POINT_GOLDEN, ids=[g[1] for g in POINT_GOLDEN])
def test_point_output_matches_golden_file(args, name, tmp_path):
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


PRESET_BASES = {
    "defaults": {},
    "shifted": {"omega_m_mhz": 20.0, "phi_rad": 0.7, "T_kelvin": 0.05, "Jab_mhz": 1.5,
                "delta1_over_omegam": 0.8, "delta2_over_omegam": 1.3,
                "delta_at_over_omegam": -0.5},
}
PRESET_COUNTS = (None, (), (5,), (5, 7), (1,), (6, 1), (1, 5, 5), (3, 4, 5), (2, 2))


def preset_lines():
    """One line per case: the spec's repr and hash, or the raised error."""
    lines = []
    for pid in (f"fig{i}" for i in range(1, 12)):
        for tag, cfg in PRESET_BASES.items():
            base = params_from_config(cfg)
            for counts in PRESET_COUNTS:
                try:
                    spec = figure_preset(pid, base, counts=counts)
                    out = f"{spec!r} {config_hash(spec)}"
                except Exception as exc:
                    out = f"{type(exc).__name__}: {exc}"
                lines.append(f"{pid} {tag} {counts!r}: {out}\n")
    return "".join(lines)


def test_preset_specs_match_golden_file():
    assert preset_lines() == (DATA / "golden_presets.txt").read_text()
