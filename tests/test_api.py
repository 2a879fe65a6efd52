"""The package namespace is the documented API, and nothing more.

Every name in `optocorr.__all__` resolves and is named in README.md, so a
new export cannot land without documentation; other names are imported
from their own modules.  Likewise every config key is named in README.md:
its tables give each system key's default and field, and each key's unit,
as the package's key tables convert it.  The declared runtime dependencies
are what the package imports, and the `test` extra is what the tests import
beyond them.
"""

import ast
import math
import re
import sys
from pathlib import Path

import pytest

import optocorr
from optocorr.params import DRIVE_KEYS, KNOWN_KEYS, SYSTEM_KEYS, TWO_PI

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


def readme_key_units():
    """key -> its unit cell, from every README table whose header has a `unit` column."""
    units, column = {}, None
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            column = None
        elif cells[0] == "key":
            column = cells.index("unit")
        elif column is not None and not cells[0].startswith("-"):
            units.update((key, cells[column]) for key in re.findall(r"`(\w+)`", cells[0]))
    return units


# the internal value, in rad/us or as given, of one of each README unit
UNIT_VALUES = {"MHz": TWO_PI, "Hz": TWO_PI * 1e-6, "kHz": TWO_PI * 1e-3, "THz": TWO_PI * 1e6,
               "rad": 1.0, "K": 1.0, "W": 1.0}


def test_readme_unit_column_is_each_keys_conversion():
    omega_m = optocorr.params_from_config({}).omega_m
    conversions = {**{key: entry[2] for key, entry in SYSTEM_KEYS.items()}, **DRIVE_KEYS}
    units = readme_key_units()
    assert sorted(units) == sorted(conversions) == sorted(KNOWN_KEYS)
    for key, to_internal in conversions.items():
        one = omega_m if units[key] == "`omega_m`" else UNIT_VALUES[units[key]]
        assert to_internal(1.0, omega_m) == pytest.approx(one, rel=1e-15), key


def declared_modules(requirements):
    """The top-level module each requirement string of pyproject.toml installs."""
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in requirements}
    return {IMPORT_NAMES.get(name, name) for name in names}


def third_party_imports(directory, local):
    """Top-level modules that the .py files under directory import, less the
    standard library and the `local` ones."""
    imported = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names) - {"__future__"} - set(local)


@pytest.fixture
def project():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_dependencies_are_the_third_party_imports(project):
    package = Path(optocorr.__file__).parent
    assert declared_modules(project["dependencies"]) == \
        third_party_imports(package, {"optocorr"})


def test_test_extra_is_the_tests_third_party_imports(project):
    # beyond the runtime dependencies; conftest and the test modules import each other
    tests = ROOT / "tests"
    local = {"optocorr"} | {path.stem for path in tests.glob("*.py")}
    assert declared_modules(project["optional-dependencies"]["test"]) == \
        third_party_imports(tests, local) - declared_modules(project["dependencies"])
