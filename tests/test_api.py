"""The package namespace is the documented API, and nothing more.

Every name in `optocorr.__all__` resolves and is named in README.md, so a
new export cannot land without documentation; other names are imported
from their own modules.  Likewise every config key is named in README.md,
and its table gives each system key's default and field as the package
does.  The declared runtime dependencies are what the
package imports.
"""

import ast
import math
import re
import sys
from pathlib import Path

import pytest

import optocorr
from optocorr.params import KNOWN_KEYS, SYSTEM_KEYS

PUBLIC = ["Axis", "OMEGA_4", "SweepSpec", "SystemParams", "__version__", "build_diffusion",
          "build_drift", "evaluate_point", "figure_preset", "gaussian_discord",
          "log_negativity", "params_from_config", "residual_contangle_min", "run_sweep",
          "solve_lyapunov", "to_csv", "to_json_lines"]

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# distribution name -> the top-level module it installs, where they differ
IMPORT_NAMES = {"pyyaml": "yaml"}


def test_all_is_the_documented_api():
    assert sorted(optocorr.__all__) == PUBLIC


def test_every_export_resolves():
    for name in optocorr.__all__:
        assert getattr(optocorr, name) is not None


def test_every_export_is_in_the_readme():
    quoted = set(re.findall(r"`([^`\n]+)`", README.read_text()))
    assert [name for name in optocorr.__all__ if name not in quoted] == []


def test_every_config_key_is_in_the_readme():
    quoted = set(re.findall(r"`([^`\n]+)`", README.read_text()))
    assert sorted(key for key in KNOWN_KEYS if key not in quoted) == []


def test_readme_key_table_gives_each_system_keys_default_and_field():
    rows = {key: (default, field) for key, default, field in
            re.findall(r"^\| `(\w+)` \| ([^|]+?) \| [^|]+ \| `(\w+)`", README.read_text(), re.M)}
    expected = {key: ("pi/2" if default == math.pi / 2 else "%g" % default, field)
                for key, (default, field, _) in SYSTEM_KEYS.items()}
    assert {key: rows.get(key) for key in SYSTEM_KEYS} == expected


def test_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in declared}
    imported = set()
    for path in Path(optocorr.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "optocorr"}
    assert {IMPORT_NAMES.get(name, name) for name in names} == third_party
