"""The package namespace is the documented API, and nothing more.

Every name in `optocorr.__all__` resolves and is named in README.md, so a
new export cannot land without documentation; other names are imported
from their own modules.  Likewise every config key is named in README.md:
its tables give each system key's default and field, and each key's unit,
as the package's key tables convert it.  The declared runtime dependencies
are what the package imports, and the `test` extra is what the tests import
beyond them.  Every package name the benchmark under `perfbench/` reaches
resolves, so a rename that would stop the benchmark fails here first.
"""

import ast
import dataclasses
import importlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import optocorr
from optocorr.dynamics import assess_stability
from optocorr.lyapunov import residual_bound, solve_lyapunov
from optocorr import SystemParams, evaluate_point, figure_preset, params_from_config
from optocorr.params import (DRIVE_KEYS, KNOWN_KEYS, MAGNITUDE_MAX, RATE_MIN, SYSTEM_KEYS, TWO_PI,
                             drive_from_config, thermal_occupation)
from optocorr.steadystate import SteadyState, apply_steady_state, solve_steady_state
from optocorr.sweep import MEASURE_KEYS

PUBLIC = ["Axis", "OMEGA_4", "SweepSpec", "SystemParams", "__version__", "build_diffusion",
          "build_drift", "evaluate_point", "figure_preset", "gaussian_discord",
          "log_negativity", "params_from_config", "residual_contangle_min", "run_sweep",
          "solve_lyapunov", "to_csv", "to_json_lines"]

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PERFBENCH = ROOT / "perfbench"
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


def test_readme_states_the_input_domain():
    # one section gives both constants of the domain, at the values the package checks
    section = README.read_text().split("## Input domain\n", 1)[1].split("\n## ", 1)[0]
    stated = dict(re.findall(r"`(MAGNITUDE_MAX|RATE_MIN) = ([-+.e0-9]+)`", section))
    assert {name: float(v) for name, v in stated.items()} == {"MAGNITUDE_MAX": MAGNITUDE_MAX,
                                                               "RATE_MIN": RATE_MIN}


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


# the probe lists of perfbench/layers.py: (owner, attribute, span name, payload),
# the owner a module path or "module:Class"
PROBE_LISTS = ("STAGE_PROBES", "LATENCY_PROBE", "GRID_PROBES", "DRIVE_PROBES")


def perfbench_trees():
    """The syntax tree of each perfbench module, and of each code string it
    runs in a fresh interpreter (a module-level string that imports optocorr).
    Parsed, never imported: the modules import each other by bare name."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        yield tree
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and "import optocorr" in str(node.value.value)):
                yield ast.parse(node.value.value)


def attribute_chain(node):
    """[name, attr, ...] of an attribute read `name.attr...`, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    return [node.id] + attrs if attrs and isinstance(node, ast.Name) else None


def perfbench_names():
    """(dotted optocorr names, probe lists seen) of perfbench: each probed
    attribute, each name a `from optocorr... import` binds, and each
    attribute read through a name bound to an optocorr module."""
    names, lists = set(), set()
    for tree in perfbench_trees():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "optocorr":
                        # `import optocorr.x as N` binds N; `import optocorr.x` binds optocorr
                        name = alias.asname or "optocorr"
                        bound[name] = alias.name if alias.asname else name
            elif (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "optocorr"):
                bound.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                             for alias in node.names)
            elif isinstance(node, ast.Assign):
                targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
                if targets & set(PROBE_LISTS):
                    lists |= targets
                    names.update(f"{probe.elts[0].value.replace(':', '.')}.{probe.elts[1].value}"
                                 for probe in ast.walk(node.value) if isinstance(probe, ast.Tuple))
        names.update(bound.values())
        for node in ast.walk(tree):
            chain = attribute_chain(node)
            if chain and chain[0] in bound:
                names.add(".".join([bound[chain[0]]] + chain[1:]))
    return names, lists


def resolves(dotted) -> bool:
    """Whether a dotted optocorr path names an object, importing on the way."""
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], 2):
            obj = getattr(obj, part) if hasattr(obj, part) else \
                importlib.import_module(".".join(parts[:i]))
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_reaches_resolves():
    names, lists = perfbench_names()
    assert lists == set(PROBE_LISTS)
    # one of each kind: a "module:Class" probe, a module probe, an import,
    # an attribute of an aliased module and one in the setup snippet
    assert {"optocorr.params.SystemParams.with_values", "optocorr.sweep.evaluate_point",
            "optocorr.sweep.MEASURE_KEYS", "optocorr.steadystate.solve_steady_state",
            "optocorr.cli.build_parser"} <= names
    assert sorted(name for name in names if not resolves(name)) == []


def test_resolves_reports_a_missing_name():
    assert resolves("optocorr.params.SystemParams")
    assert not resolves("optocorr.params.SystemParams.no_such_method")
    assert not resolves("optocorr.no_such_module.name")


def test_what_the_benchmark_reads_at_run_time():
    # perfbench/check.py and layers._residual_ratio solve without the check
    # and read the matrix and its residual norm
    a, d = -np.eye(2), np.eye(2)
    cm = solve_lyapunov(a, d, check_stability=False)
    assert np.array_equal(cm.matrix, 0.5 * np.eye(2))
    assert 0.0 <= cm.residual_norm <= residual_bound(a, cm.matrix, d)
    # layers.MEASURES_PER_REPORT subtracts the verdict from the report keys
    assert "stability" in MEASURE_KEYS
    # the probes' payloads read a verdict's `stable` and a steady state's `iterations`
    assert assess_stability(-np.eye(8)).stable is True
    assert "iterations" in {field.name for field in dataclasses.fields(SteadyState)}

    # the ast scan cannot see attributes read off returned objects: the grid
    # workloads build a smoke spec, and perfbench/check.py compares the
    # columns and rebuilds each row's record from spec.base by
    # dataclasses.replace, keyed by each axis's name
    for pid in ("fig2", "fig3"):
        spec = figure_preset(pid, params_from_config({}), counts=(6, 6))
        assert len(spec.grid()) == 36
        assert spec.columns()[:2] == [spec.axis1.name, spec.axis2.name]
        assert isinstance(spec.base, SystemParams)
        assert dataclasses.replace(spec.base, omega_m=spec.base.omega_m) == spec.base
    # the drive op: config -> mean field -> linearized record -> point, then
    # the point's verdict, error and flat report
    cfg = {"g1_khz": 1.0, "g2_khz": 1.5, "E1_mhz": 3.0e4, "E2_mhz": 5.0e4,
           "delta1_bare_over_omegam": 1.0, "delta2_bare_over_omegam": 1.0}
    params = params_from_config(cfg)
    point = apply_steady_state(params, solve_steady_state(drive_from_config(cfg, params), params))
    assert isinstance(point, SystemParams)
    result = evaluate_point(point)
    assert result.verdict.stable is True and result.error is None
    # perfbench/check.py rebuilds D from thermal_occupation(omega_m, temperature)
    assert thermal_occupation(point.omega_m, point.temperature) == result.n_th
    assert set(MEASURE_KEYS) - {"stability"} <= set(result.report.as_flat_dict())
