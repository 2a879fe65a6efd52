"""Golden-file pins of the default CLI output.

Each figure file under tests/data holds the column line and data rows of
one small figure run; every line after the provenance comment must match
byte for byte.  The matrix and measure files are whole outputs at the
package defaults, and the sweep file is a whole JSON-lines sweep over phi
(its header carries the spec's hash); each must match byte for byte.
"""

import re
from pathlib import Path

import pytest

from optocorr.cli import main

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
