"""Golden-file pins of the default CLI output.

Each figure file under tests/data holds the column line and data rows of
one small run of a figure preset, one file per preset; every line after
the provenance comment must match byte for byte.  The matrix and measure files are whole outputs at the
package defaults, and the sweep file is a whole JSON-lines sweep over phi
(its header carries the spec's hash); each must match byte for byte.
golden_presets.txt pins every figure preset's spec: one line per (preset,
base, grid counts) case with the spec's repr and provenance hash, or the
error the case raises.
golden_steady_drive.txt pins the mean-field solve on seeded raw drives:
one line per config with the solved state, the effective fields of the
point `apply_steady_state` linearizes about it (floats by float.hex), the
solve's counts and the stability verdict at that point, or the error's
type, attributes and message.
golden_build.json names the build on which every golden passes bit for bit;
a failing comparison states it beside the build of the run.  Under another
OpenBLAS kernel the figure grids' bits move, but only within the oracle
budgets (TestCrossKernel).
"""

import ctypes
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import optocorr
from optocorr import params_from_config
from optocorr.cli import main
from optocorr.dynamics import build_drift
from optocorr.errors import OptocorrError
from optocorr.params import drive_from_config
from optocorr.pipeline import evaluate_point
from optocorr.steadystate import apply_steady_state, solve_steady_state
from optocorr.sweep import config_hash, figure_preset, run_sweep

from conftest import apply_axes

DATA = Path(__file__).parent / "data"


def running_build() -> dict:
    """The numpy, scipy and BLAS of this run, and the OpenBLAS core numpy's
    OpenBLAS chose ("unknown" where the library or its symbol is missing)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "openblas_core": core}


def build_note() -> str:
    """A failing golden comparison's message: the goldens' build and this run's."""
    recorded = json.loads((DATA / "golden_build.json").read_text())
    return f"goldens pass bitwise on {recorded}; this run is on {running_build()}"


def test_build_note_names_both_builds():
    recorded = json.loads((DATA / "golden_build.json").read_text())
    running = running_build()
    assert recorded.keys() == running.keys()
    assert all(isinstance(v, str) and v for v in (*recorded.values(), *running.values()))
    assert build_note() == f"goldens pass bitwise on {recorded}; this run is on {running}"


GOLDEN = [
    (("fig5", "--grid", "21"), "golden_fig5_21.csv"),
    (("fig9", "--grid", "10x3"), "golden_fig9_10x3.csv"),
    (("fig3", "--grid", "12x12"), "golden_fig3_12x12.csv"),
    (("fig2", "--grid", "13x11"), "golden_fig2_13x11.csv"),
    (("fig4", "--grid", "8x6"), "golden_fig4_8x6.csv"),
    (("fig6", "--grid", "8x6"), "golden_fig6_8x6.csv"),
    (("fig7", "--grid", "12x3"), "golden_fig7_12x3.csv"),
    (("fig8", "--grid", "8x6"), "golden_fig8_8x6.csv"),
    (("fig10", "--grid", "21"), "golden_fig10_21.csv"),
]


@pytest.mark.parametrize("args,name", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_figure_rows_match_golden_file(args, name, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["figure", *args, "--out", str(out)]) == 0
    header, *rows = out.read_bytes().splitlines(keepends=True)
    assert re.fullmatch(rb"# optocorr v0\.1\.0 config=[0-9a-f]{12}\n", header)
    assert rows == (DATA / name).read_bytes().splitlines(keepends=True), build_note()


def golden_spec(args):
    """The sweep spec of a GOLDEN case's `figure` arguments."""
    preset, _, grid = args
    return figure_preset(preset, params_from_config({}),
                         counts=tuple(int(n) for n in grid.split("x")))


# twice each family's budget against the 50-digit oracle (test_measures'
# TestPairMeasureOracle), relative; R_tau takes E_N's
KERNEL_BUDGETS = {"EN": 2 * 10 ** -11.5, "Rtau": 2 * 10 ** -11.5, "DG": 2 * 10 ** -8.5}


def kernel_mismatches(columns, want, got):
    """The cells of the rows `got` that another BLAS kernel may not give in place of
    `want`'s: a measure cell further than its family's budget, relative (so an
    exact zero stays zero), and any other cell that differs at all, by float.hex."""
    mismatches = []
    for i, (want_row, got_row) in enumerate(zip(want, got, strict=True)):
        for column, w, g in zip(columns, want_row, got_row, strict=True):
            floats = isinstance(w, float) and isinstance(g, float)
            if (w.hex() == g.hex()) if floats else (w == g):
                continue
            budget = KERNEL_BUDGETS.get(column.split("_")[0])
            if not (budget and floats and abs(g - w) <= budget * abs(w)):
                mismatches.append((i, column, w, g))
    return mismatches


def golden_drifts():
    """`build_drift`'s bytes at each point of each GOLDEN grid."""
    return [[build_drift(apply_axes(spec, point)).tobytes() for point in spec.grid()]
            for spec in (golden_spec(args) for args, _ in GOLDEN)]


# run in a child process: its build, the rows of each GOLDEN grid and its drifts
KERNEL_RUN = """
import pickle, sys
from optocorr.sweep import run_sweep
from test_golden import GOLDEN, golden_drifts, golden_spec, running_build
rows = [run_sweep(golden_spec(args)).rows for args, _ in GOLDEN]
sys.stdout.buffer.write(pickle.dumps((running_build(), rows, golden_drifts())))
"""


class TestCrossKernel:
    """The golden grids under OpenBLAS's Haswell kernels, against this run's:
    identical verdicts and error cells, and every measure cell within twice
    its family's oracle budget.  SandyBridge moves E_N cells by up to 1.98e-11,
    beyond that budget, so only Haswell is pinned.  The drift, a BLAS product
    that is exact in any order of summation, is pinned bit for bit."""

    @pytest.fixture(scope="class")
    def haswell(self):
        """(build, rows, drifts) of KERNEL_RUN under the Haswell kernels."""
        paths = [str(Path(optocorr.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-W", "error", "-c", KERNEL_RUN], env=env,
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        build, runs, drifts = pickle.loads(proc.stdout)
        assert build["openblas_core"] == "Haswell", build
        return build, runs, drifts

    def test_haswell_drifts_are_bitwise(self, haswell):
        assert haswell[2] == golden_drifts()

    def test_haswell_grids_within_budget(self, haswell):
        for (args, _), rows in zip(GOLDEN, haswell[1], strict=True):
            result = run_sweep(golden_spec(args))
            assert kernel_mismatches(result.columns, result.rows, rows) == [], args

    def test_perturbed_discord_is_a_mismatch(self):
        result = run_sweep(golden_spec(("fig8", "--grid", "8x6")))
        column = result.columns.index("DG_ab")
        i = next(i for i, row in enumerate(result.rows) if row[column])
        rows = [list(row) for row in result.rows]
        assert kernel_mismatches(result.columns, result.rows, rows) == []
        rows[i][column] *= 1 + 1e-8
        assert kernel_mismatches(result.columns, result.rows, rows) == [
            (i, "DG_ab", result.rows[i][column], rows[i][column])]


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
    assert out.read_bytes() == (DATA / name).read_bytes(), build_note()


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
    assert preset_lines() == (DATA / "golden_presets.txt").read_text(), build_note()


# the raw-drive ranges of the benchmark's drive workload
DRIVE_RANGES = (("g1_khz", 0.5, 3.0), ("g2_khz", 0.5, 3.0),
                ("E1_mhz", 1.0e4, 1.0e5), ("E2_mhz", 1.0e4, 1.0e5),
                ("delta1_bare_over_omegam", 0.8, 1.2),
                ("delta2_bare_over_omegam", 0.8, 1.2))
DRIVE_EDGES = [
    # a unique, unstable root (the damped iteration that solved the mean field
    # before ran all 10^4 steps here without converging)
    {"g1_khz": 2.1166142249894286, "g2_khz": 2.496551052195941,
     "E1_mhz": 11263.305188272174, "E2_mhz": 86734.80504791152,
     "delta1_bare_over_omegam": 1.07745660184991,
     "delta2_bare_over_omegam": 0.9269406368906039},
    # inside the input domain, |E2|^2 kappa2^2 overflows in the mean-field polynomial's
    # coefficients and |E1 / kappa1|^2 in the damped iteration's first step (E1_mhz =
    # E2_mhz = 1e160 at the defaults overflowed both, with the same line, before the domain)
    {"g1_khz": 1.0, "g2_khz": 1.0, "E1_mhz": 1e80, "E2_mhz": 1e80, "kappa1_mhz": 1e-90,
     "kappa2_mhz": 1e80, "delta1_bare_over_omegam": 0.0, "delta2_bare_over_omegam": 1.0},
    # undriven, with exact zeros throughout the map
    {"g1_khz": 1.0, "g2_khz": 0.0, "E1_mhz": 0.0, "E2_mhz": 0.0,
     "delta1_bare_over_omegam": 1.0, "delta2_bare_over_omegam": 0.0},
]


def drive_configs(n=300, seed=2410):
    rng = random.Random(seed)
    drawn = [{key: rng.uniform(lo, hi) for key, lo, hi in DRIVE_RANGES} for _ in range(n)]
    return drawn + DRIVE_EDGES


def steady_drive_lines():
    """One line per drive config: the solved state or the raised error."""
    lines = []
    for i, cfg in enumerate(drive_configs()):
        params = params_from_config(cfg)
        try:
            ss = solve_steady_state(drive_from_config(cfg, params), params)
            point = apply_steady_state(params, ss)
            verdict = evaluate_point(point, ("stability",)).verdict
        except OptocorrError as exc:
            res = getattr(exc, "residual", None)
            out = (f"{type(exc).__name__} iterations={getattr(exc, 'iterations', None)} "
                   f"residual={None if res is None else float.hex(res)}: {exc}")
        else:
            values = (ss.alpha1.real, ss.alpha1.imag, ss.alpha2.real, ss.alpha2.imag,
                      ss.xi.real, ss.xi.imag, ss.beta.real, ss.beta.imag,
                      point.delta1_eff, point.delta2_eff, point.g1_eff, point.g2_eff,
                      ss.residual_norm)
            out = (f"ok {' '.join(map(float.hex, values))} {ss.iterations} "
                   f"{ss.real_roots} {verdict.stable}")
        lines.append(f"{i} {out}\n")
    return "".join(lines)


def test_steady_drives_match_golden_file():
    text = steady_drive_lines()
    # the pin covers every way a solve ends, and every branch outcome
    assert "overflowed" in text
    for outcome in ("1 False", "1 True", "3 False", "3 True", "5 False", "5 True"):
        assert f" {outcome}\n" in text
    # as lists of lines, so that a mismatch names the configs that moved
    golden = (DATA / "golden_steady_drive.txt").read_text()
    assert text.splitlines(keepends=True) == golden.splitlines(keepends=True), build_note()
