"""A point computes only the measures it is asked for.

`evaluate_point(params)` is the full report; `evaluate_point(params,
measures)` runs only the stages those report keys need.  The spies below
show which stages a sweep skips, and the pins show that what it does
compute is exactly the full report's numbers (tests/test_golden.py pins
the bytes of a stability-only preset).
"""

import dataclasses

import numpy as np
import pytest

import optocorr.measures as measures
import optocorr.pipeline as pipeline
from optocorr import (evaluate_point, gaussian_discord, log_negativity,
                      residual_contangle_min, solve_lyapunov)
from optocorr.cli import main
from optocorr.errors import NumericDomainError
from optocorr.measures import (CANONICAL_PAIRS, MONOGAMY_CLAMP, TRIPLE_MODES, CorrelationReport,
                               correlation_report)
from optocorr.sweep import DG_MEASURES, MEASURE_KEYS, figure_preset, run_sweep

from conftest import extract_submatrix, grid_params, point_matrices, spy_drift_spectra


def spy(monkeypatch, module, name):
    """Record every call of module.name, still calling through."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def standalone_report(params):
    """The verdict, occupation, covariance and full report of a point, rebuilt
    from the public single-measure functions."""
    a, d, verdict, n_th = point_matrices(params)
    v = solve_lyapunov(a, d, check_stability=False).matrix
    pairs = {f"{p}{q}": extract_submatrix(v, (p, q)) for p, q in CANONICAL_PAIRS}
    _, raw = residual_contangle_min(extract_submatrix(v, TRIPLE_MODES))
    clamped = {tag: 0.0 if -MONOGAMY_CLAMP <= val < 0.0 else val for tag, val in raw.items()}
    return verdict, n_th, v, CorrelationReport(
        e_n={key: log_negativity(v4) for key, v4 in pairs.items()},
        d_g={key: gaussian_discord(v4) for key, v4 in pairs.items()},
        r_tau=clamped, r_tau_raw=raw, r_tau_min=min(clamped.values()))


class TestFullReport:
    def test_default_is_the_full_report(self, base_params):
        checked = 0
        for _, params in grid_params(figure_preset("fig3", base_params, counts=(4, 4))):
            result = evaluate_point(params)
            if not result.verdict.stable:
                continue
            verdict, n_th, v, expected = standalone_report(params)
            for got in (result, evaluate_point(params, MEASURE_KEYS)):
                assert (got.verdict, got.n_th) == (verdict, n_th)
                assert got.report == expected
                assert np.array_equal(got.covariance, v)
            checked += 1
        assert checked >= 4

    # requested keys -> families in the report; the residual needs the pair E_N
    @pytest.mark.parametrize("wanted,families", [
        (("EN_ab",), {"EN"}), (DG_MEASURES, {"DG"}), (("Rtau_min",), {"EN", "Rtau"}),
        (("DG_c2b", "EN_c2a"), {"DG", "EN"}), (("stability", "DG_ab"), {"DG"})])
    def test_requested_keys_equal_the_full_report(self, base_params, wanted, families):
        for _, params in grid_params(figure_preset("fig5", base_params, counts=(7,))):
            full = evaluate_point(params).report.as_flat_dict()
            part = evaluate_point(params, wanted).report.as_flat_dict()
            assert {key.split("_")[0] for key in part} == families
            assert part == {key: full[key] for key in part}

    @pytest.mark.parametrize("wanted", [None, ("stability",), ("EN_ab", "Rtau_min")])
    def test_request_resolved_once_per_point(self, base_params, monkeypatch, wanted):
        resolved = spy(monkeypatch, pipeline, "measure_families")
        unstable = base_params.with_values(g1_eff=0.1 * base_params.g1_eff,
                                           g2_eff=0.1 * base_params.g2_eff)
        results = [evaluate_point(params, wanted) for params in (base_params, unstable)]
        assert resolved == [(wanted,)] * 2
        assert [r.verdict.stable for r in results] == [True, False]

    def test_report_is_a_function_of_the_covariance(self, base_params):
        cov = evaluate_point(base_params).covariance
        assert correlation_report(cov) == evaluate_point(base_params).report
        assert correlation_report(cov, {"DG"}) == evaluate_point(base_params, DG_MEASURES).report

    def test_overflowing_diffusion_is_an_error_cell(self, base_params):
        # n_th ~ 8.7e305 is finite, gamma_m (2 n_th + 1) is not; the covariance took the blame
        p = base_params.with_values(gamma_m=1e4, temperature=1e303)
        result = evaluate_point(p)
        assert result.verdict.stable and result.report is None
        assert result.error.startswith("NumericDomainError: diffusion gamma_m(2 n_th + 1) "
                                       "overflows at n_th 8.68")

    def test_stability_only_point_stops_at_the_verdict(self, base_params):
        full = evaluate_point(base_params)
        for wanted in (("stability",), ()):
            result = evaluate_point(base_params, wanted)
            assert result.verdict == full.verdict and result.verdict.stable
            assert result.n_th == full.n_th
            assert result.report is None and result.covariance is None
            assert result.error is None


class TestSkippedStages:
    def test_stability_sweep_never_solves(self, base_params, monkeypatch, tmp_path):
        diffusions = spy(monkeypatch, pipeline, "build_diffusion")
        solves = spy(monkeypatch, pipeline, "solve_lyapunov")
        reports = spy(monkeypatch, pipeline, "correlation_report")
        out = tmp_path / "fig2.csv"
        assert main(["figure", "fig2", "--grid", "13x11", "--out", str(out)]) == 0
        stable = [row.split(",")[2] for row in out.read_text().splitlines()[2:]]
        assert len(stable) == 143 and "0" in stable and "1" in stable
        assert diffusions == [] and solves == [] and reports == []

    def test_diffusion_built_once_per_solved_point(self, base_params, monkeypatch):
        points = [params for _, params in grid_params(figure_preset("fig3", base_params,
                                                                   counts=(4, 4)))]
        stable = [params for params in points if point_matrices(params)[2].stable]
        assert 0 < len(stable) < len(points)
        diffusions = spy(monkeypatch, pipeline, "build_diffusion")
        solves = spy(monkeypatch, pipeline, "solve_lyapunov")
        run_sweep(figure_preset("fig3", base_params, counts=(4, 4)))
        assert [args[0] for args in diffusions] == stable
        assert len(solves) == len(stable)

    def test_en_sweep_skips_spectra_and_discord(self, base_params, monkeypatch):
        minima = spy(monkeypatch, measures, "_pt_minima")
        discords = spy(monkeypatch, measures, "_discord")
        invariants = spy(monkeypatch, measures, "_pair_invariants")
        result = run_sweep(figure_preset("fig3", base_params, counts=(4, 4)))
        assert minima == [] and discords == []
        stable = sum(row[2] for row in result.rows)
        assert stable >= 4 and len(invariants) == len(CANONICAL_PAIRS) * stable

    def test_dg_sweep_skips_spectra(self, base_params, monkeypatch):
        minima = spy(monkeypatch, measures, "_pt_minima")
        discords = spy(monkeypatch, measures, "_discord")
        result = run_sweep(figure_preset("fig9", base_params, counts=(5, 2)))
        assert minima == []
        assert len(discords) == len(CANONICAL_PAIRS) * sum(row[2] for row in result.rows) > 0

    def test_rtau_needs_spectra_and_pair_en_only(self, base_params, monkeypatch):
        minima = spy(monkeypatch, measures, "_pt_minima")
        discords = spy(monkeypatch, measures, "_discord")
        report = evaluate_point(base_params, ("Rtau_min",)).report
        assert len(minima) == 1 and discords == []
        assert set(report.e_n) == {f"{p}{q}" for p, q in CANONICAL_PAIRS}
        assert report.d_g == {}

    def test_error_column_reports_only_stages_that_ran(self, base_params, monkeypatch):
        def failing(inv):
            raise NumericDomainError("discord stage failed")

        monkeypatch.setattr(measures, "_discord", failing)
        spec = figure_preset("fig5", base_params, counts=(3,))
        en_rows = run_sweep(spec).rows
        assert [row[-1] for row in en_rows] == [None] * 3
        assert all(cell is not None for row in en_rows for cell in row[2:-1])
        dg_rows = run_sweep(figure_preset("fig10", base_params, counts=(3,))).rows
        assert [row[-1] for row in dg_rows] == ["NumericDomainError: discord stage failed"] * 3
        assert all(cell is None for row in dg_rows for cell in row[2:-1])



def hexed(value):
    """`value` with every float as float.hex and every array as its bytes,
    through dataclasses and dicts, so that == is bitwise equality."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return {key: hexed(val) for key, val in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


class TestVerdictMemo:
    """`evaluate_point` reuses the drift, n_th and verdict that
    `stability_verdict` kept for its last few records, found by identity;
    these pin that it never serves the wrong one."""

    def test_equal_records_are_judged_apart(self, base_params, monkeypatch):
        one, other = base_params.with_values(phi=0.3), base_params.with_values(phi=0.3)
        assert one == other and one is not other
        spectra = spy_drift_spectra(monkeypatch)
        verdicts = pipeline.stability_verdict(one), pipeline.stability_verdict(other)
        assert len(spectra) == 2 and spectra[0] == spectra[1]
        assert hexed(verdicts[0]) == hexed(verdicts[1])
        assert hexed(evaluate_point(one)) == hexed(evaluate_point(other))
        assert len(spectra) == 2

    def test_forgotten_record_is_evaluated_afresh(self, base_params, monkeypatch):
        first = base_params.with_values(phi=0.1)
        spectra = spy_drift_spectra(monkeypatch)
        pipeline.stability_verdict(first)
        result = evaluate_point(first)
        assert len(spectra) == 1
        for k in range(pipeline._RECENT):
            pipeline.stability_verdict(base_params.with_values(phi=0.2 + 0.1 * k))
        assert len(spectra) == 1 + pipeline._RECENT
        again = evaluate_point(first)
        assert len(spectra) == 2 + pipeline._RECENT
        assert again is not result and hexed(again) == hexed(result)

    def test_full_report_after_a_verdict_matches_a_fresh_copy(self, base_params, monkeypatch):
        point = base_params.with_values(phi=0.4)
        verdict = pipeline.stability_verdict(point)
        spectra = spy_drift_spectra(monkeypatch)
        remembered = evaluate_point(point)
        assert spectra == [] and remembered.verdict == verdict
        fresh = evaluate_point(point.with_values())
        assert remembered.report is not None and hexed(remembered) == hexed(fresh)

    @pytest.mark.parametrize("measures", [None, ("stability",)])
    def test_evaluations_are_not_remembered(self, base_params, measures):
        before = pipeline._recent
        evaluate_point(base_params.with_values(phi=0.5), measures)
        assert pipeline._recent is before

    def test_remembered_drift_is_read_only(self, base_params):
        point = base_params.with_values(phi=0.5)
        pipeline.stability_verdict(point)
        drift = next(a for p, a, _, _ in pipeline._recent if p is point)
        with pytest.raises(ValueError):
            drift[0, 0] = 0.0
