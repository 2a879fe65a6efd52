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
a failing comparison states it beside the build of the run.
"""

import ctypes
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from optocorr import params_from_config
from optocorr.cli import main
from optocorr.errors import OptocorrError
from optocorr.params import drive_from_config
from optocorr.pipeline import evaluate_point
from optocorr.steadystate import apply_steady_state, solve_steady_state
from optocorr.sweep import config_hash, figure_preset

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
    # |E|^2 overflows in the mean-field polynomial's coefficients
    {"g1_khz": 1.0, "g2_khz": 1.0, "E1_mhz": 1e160, "E2_mhz": 1e160,
     "delta1_bare_over_omegam": 1.0, "delta2_bare_over_omegam": 1.0},
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
