"""The package namespace is the documented API, and nothing more.

Every name in `optocorr.__all__` resolves and is named in README.md, so a
new export cannot land without documentation; other names are imported
from their own modules.
"""

import re
from pathlib import Path

import optocorr

PUBLIC = ["Axis", "OMEGA_4", "SweepSpec", "SystemParams", "__version__", "build_diffusion",
          "build_drift", "evaluate_point", "figure_preset", "gaussian_discord",
          "log_negativity", "params_from_config", "residual_contangle_min", "run_sweep",
          "solve_lyapunov", "to_csv", "to_json_lines"]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_documented_api():
    assert sorted(optocorr.__all__) == PUBLIC


def test_every_export_resolves():
    for name in optocorr.__all__:
        assert getattr(optocorr, name) is not None


def test_every_export_is_in_the_readme():
    quoted = set(re.findall(r"`([^`\n]+)`", README.read_text()))
    assert [name for name in optocorr.__all__ if name not in quoted] == []
