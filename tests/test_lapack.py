"""The thin LAPACK entry: numpy.linalg's results bit for bit, its failures
translated by every caller, and no other module naming numpy.linalg."""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import optocorr
from optocorr import lapack, measures, solve_lyapunov, steadystate
from optocorr.dynamics import assess_stability
from optocorr.errors import NonConvergenceError, NumericDomainError, SingularSystemError
from optocorr.lyapunov import _vech_index
from optocorr.params import params_from_config
from optocorr.pipeline import evaluate_point
from optocorr.sweep import figure_preset

from conftest import apply_axes, point_matrices


def stable_drifts(preset, counts):
    """(A, D) of the stable points of a preset's grid."""
    spec = figure_preset(preset, params_from_config({}), counts=counts)
    systems = []
    for point in spec.grid():
        a, d, verdict, _ = point_matrices(apply_axes(spec, point))
        if verdict.stable:
            systems.append((a, d))
    return systems


def eigvals_inputs(monkeypatch, preset, counts):
    """Every matrix or stack the preset's points pass to `lapack.eigvals`,
    each point evaluated for the full report."""
    inputs, original = [], lapack.eigvals

    def recording(m):
        inputs.append(m.copy())
        return original(m)

    monkeypatch.setattr(lapack, "eigvals", recording)
    spec = figure_preset(preset, params_from_config({}), counts=counts)
    for point in spec.grid():
        evaluate_point(apply_axes(spec, point))
    monkeypatch.undo()
    return inputs


def companions(rng):
    """Companion matrices as `_real_roots` builds them: random polynomials of
    degree 1 to 5, plus ones with a double root and with complex roots."""
    rows = [[-c for c in rng.normal(size=k)] for k in range(1, 6) for _ in range(20)]
    rows += [[0.0, 3.0, -2.0], [2.0, -1.0, -2.0], [0.0, -1.0], [-2.0, -2.0]]
    mats = []
    for row in rows:
        m = np.eye(len(row), k=-1)
        m[0] = row
        mats.append(m)
    return mats


def lyapunov_operator(a):
    slot, term, upper, _ = _vech_index(a.shape[0])
    op = np.bincount(slot, weights=a.ravel()[term], minlength=upper.size ** 2)
    return op.reshape(upper.size, upper.size), upper


class TestMatchesNumpyLinalg:
    """A numpy whose private gufuncs change fails here first, not in the goldens."""

    def test_eigvals_of_fig3_drifts(self):
        systems = stable_drifts("fig3", (4, 4))
        assert len(systems) >= 10
        for a, _ in systems:
            assert np.array_equal(lapack.eigvals(a), np.linalg.eigvals(a).astype(complex))

    def test_eigvals_of_fig5_pt_stacks(self, monkeypatch):
        # `_pt_minima`'s real (3, 6, 6) stacks, one per stable point
        stacks = [m for m in eigvals_inputs(monkeypatch, "fig5", (21,)) if m.ndim == 3]
        assert len(stacks) >= 10
        for m in stacks:
            assert m.shape == (3, 6, 6) and m.dtype == float
            assert np.array_equal(lapack.eigvals(m), np.linalg.eigvals(m).astype(complex))

    def test_eigvals_of_companions(self):
        for m in companions(np.random.default_rng(23)):
            assert np.array_equal(lapack.eigvals(m), np.linalg.eigvals(m).astype(complex))

    def test_eigvals_always_complex(self):
        assert lapack.eigvals(-np.eye(8)).dtype == complex

    def test_solve_of_lyapunov_operators(self):
        systems = stable_drifts("fig3", (4, 4)) + stable_drifts("fig5", (21,))
        ops, rhs = [], []
        for a, d in systems:
            op, upper = lyapunov_operator(a)
            b = -d.ravel()[upper]
            assert op.shape == (36, 36)
            assert np.array_equal(lapack.solve(op, b), np.linalg.solve(op, b))
            ops.append(op)
            rhs.append(b)
        stacked = lapack.solve(np.stack(ops), np.stack(rhs))
        assert np.array_equal(stacked, [np.linalg.solve(op, b) for op, b in zip(ops, rhs)])

    def test_complex_input_is_a_type_error(self):
        # one signature, d->D: numpy refuses complex -> float under same_kind casting
        with pytest.raises(TypeError):
            lapack.eigvals(1j * np.eye(6))

    def test_every_eigvals_input_is_float64(self, monkeypatch):
        # the stability spectra and the PT stacks of fig5's full reports
        inputs = eigvals_inputs(monkeypatch, "fig5", (21,))
        assert {m.shape for m in inputs} == {(8, 8), (3, 6, 6)}
        assert all(m.dtype == np.float64 for m in inputs)

    @pytest.mark.parametrize("m", [np.full((3, 3), np.nan), np.full((2, 8, 8), np.nan)],
                             ids=["3x3", "stack"])
    def test_nonconvergence_raises_numpys_error(self, m, capfd):
        # LAPACK's XERBLA reports the NaN input on fd 1; capfd keeps it out of the log
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                lapack.eigvals(m)

    def test_singular_solve_raises_numpys_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                lapack.solve(np.zeros((3, 3)), np.ones(3))


class TestFailureTranslation:
    """Each caller turns a LAPACK failure into its own typed error."""

    @pytest.fixture
    def failing_eigvals(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(lapack, "eigvals", fail)

    def test_stability_verdict(self, failing_eigvals):
        with pytest.raises(NumericDomainError,
                           match="^eigenvalue iteration failed: Eigenvalues did not converge"):
            assess_stability(-np.eye(8))

    def test_tripartite_pt_spectrum(self, failing_eigvals):
        with pytest.raises(NumericDomainError, match="^tripartite PT eigenvalue iteration failed: "):
            measures._pt_minima(0.5 * np.eye(6))

    def test_mean_field_roots(self, failing_eigvals):
        with pytest.raises(NonConvergenceError,
                           match="^mean-field root enumeration failed: ") as exc:
            steadystate._real_roots([1.0, 0.0, -3.0, 2.0])
        assert exc.value.iterations == 0

    def test_singular_lyapunov_system_warns_nothing(self):
        # eigenvalues +1 and -1 of an 8x8 drift make the 36x36 operator singular
        a = np.diag([1.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError,
                               match="^half-vectorized Lyapunov system is singular: Singular matrix"):
                solve_lyapunov(a, np.eye(8), check_stability=False)


# numpy.linalg names a module other than lapack may use: none, since its
# solvers and decompositions go through lapack and callers catch lapack.LinAlgError
LINALG_ALLOWED = set()


def linalg_uses(tree):
    """(line, name) of each numpy.linalg name a module reads: `np.linalg.X`,
    `numpy.linalg.X` or `from numpy.linalg import X`."""
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            uses.extend((node.lineno, alias.name) for alias in node.names)
    return uses


class TestOnlyLapackCallsLinalg:
    def test_no_module_but_lapack_calls_numpy_linalg(self):
        package = pathlib.Path(optocorr.__file__).parent
        offenders = [f"{path.name}:{line} np.linalg.{name}"
                     for path in sorted(package.glob("*.py")) if path.name != "lapack.py"
                     for line, name in linalg_uses(ast.parse(path.read_text()))
                     if name not in LINALG_ALLOWED]
        assert offenders == []

    def test_scan_sees_each_form(self):
        source = ("import numpy as np\nfrom numpy.linalg import inv\n"
                  "x = np.linalg.solve(a, b)\ny = numpy.linalg.eigvals(a)\n"
                  "z = np.linalg.norm(a)\n")
        assert sorted(linalg_uses(ast.parse(source))) == [(2, "inv"), (3, "solve"), (4, "eigvals"),
                                                          (5, "norm")]


def unread_helpers(trees):
    """Underscore-prefixed module-level functions and classes of the parsed
    modules that no module reads outside the helper's own definition."""
    helpers, read = set(), set()
    for tree in trees:
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and own.startswith("_"):
                helpers.add(own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    read.add(node.attr)
    return sorted(helpers - read)


def unread_imports(tree):
    """Names that a module's top-level imports bind and the module never reads,
    but those its `__all__` lists; `from __future__` binds no name."""
    bound, exported = set(), set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound.update(alias.asname or alias.name for alias in stmt.names)
        elif isinstance(stmt, ast.Assign) and any(isinstance(target, ast.Name)
                                                  and target.id == "__all__"
                                                  for target in stmt.targets):
            exported.update(node.value for node in ast.walk(stmt.value)
                            if isinstance(node, ast.Constant))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read - exported)


class TestNoUnreadHelpers:
    def test_every_private_helper_has_a_reader_in_the_package(self):
        package = pathlib.Path(optocorr.__file__).parent
        assert unread_helpers([ast.parse(path.read_text()) for path in package.glob("*.py")]) == []

    def test_scan_sees_an_unread_helper(self):
        source = ("def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n"
                  "class _Unused:\n    pass\n\nx = mod._attr_used()\n\ndef _attr_used():\n    return _used()\n")
        assert unread_helpers([ast.parse(source)]) == ["_Unused", "_recursive"]

    def test_every_import_has_a_reader_in_its_module(self):
        package = pathlib.Path(optocorr.__file__).parent
        unread = {path.name: unread_imports(ast.parse(path.read_text()))
                  for path in sorted(package.glob("*.py"))}
        assert {name: names for name, names in unread.items() if names} == {}

    def test_scan_sees_an_unread_import(self):
        source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
                  "import a.b\nimport c.d\nfrom .x import used, unused, shown as alias\n"
                  "__all__ = ['alias']\n\ndef f():\n    import sys\n"
                  "    return used(np.zeros(1), c.d)\n")
        assert unread_imports(ast.parse(source)) == ["a", "os", "unused"]
