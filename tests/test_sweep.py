import concurrent.futures
import csv
import dataclasses
import itertools
import math
import re
import types

import pytest

from optocorr import (Axis, SweepSpec, figure_preset, params_from_config, run_sweep, to_csv,
                      to_json_lines)
from optocorr.errors import ConfigError, ParameterError, UnstableDriftError
import optocorr.sweep as sweep
from optocorr.sweep import PRESET_IDS, SWEEPABLE, config_hash

from conftest import AXIS_CONFIG_KEYS, apply_axes
from test_golden import PRESET_BASES
from test_pipeline import spy

TWO_PI = 2.0 * math.pi


def small_preset(pid, base):
    """The preset on a 143-point grid: two full chunks of 64 and a partial one."""
    counts = (13, 11) if figure_preset(pid, base).axis2 else (143,)
    return figure_preset(pid, base, counts=counts)


@pytest.fixture
def serial_pool(monkeypatch):
    """Run `run_sweep`'s process pool in this process; `pools` records each
    pool's max_workers and `tasks` each task's point count."""
    log = types.SimpleNamespace(pools=[], tasks=[])

    class SerialPool:
        def __init__(self, max_workers):
            log.pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs, chunks):
            chunks = list(chunks)
            log.tasks.extend(map(len, chunks))
            return map(fn, specs, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return log


class TestAxis:
    def test_inclusive_linear_values(self):
        ax = Axis("phi", 0.0, 1.0, 5)
        assert ax.values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            Axis("nope", 0.0, 1.0, 5)
        with pytest.raises(ConfigError):
            Axis("phi", 0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            Axis("phi", 1.0, 1.0, 5)

    @pytest.mark.parametrize("start,stop,count", [
        (0.0, math.inf, 3), (-math.inf, 0.0, 3), (math.nan, 1.0, 3), (0.0, math.nan, 3),
        (1e308, -1e308, 3), (-1.7976931348623157e308, 1.7976931348623157e308, 2),
        (0.0, 1.0, 2.5), (0.0, 1.0, 3.0), (0.0, 1.0, None)])
    def test_rejects_what_the_grid_cannot_hold(self, start, stop, count):
        with pytest.raises(ConfigError, match="^axis phi "):
            Axis("phi", start, stop, count)

    def test_grid_may_end_at_the_largest_float(self):
        top = 1.7976931348623157e308
        assert Axis("phi", 0.0, top, 3).values() == [0.0, top / 2, top]


class TestSpec:
    def test_unknown_unstable_policy(self, base_params):
        with pytest.raises(ConfigError, match="unknown unstable policy 'bogus'"):
            SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 1.0, 3),
                      unstable_policy="bogus")

    def test_measure_columns_leave_out_stability(self, base_params):
        spec = SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 1.0, 3),
                         measures=("EN_ab", "stability", "Rtau_min"))
        digest = config_hash(spec)
        assert spec.measure_columns == ("EN_ab", "Rtau_min")
        assert spec.columns() == ["phi", "stable", "EN_ab", "Rtau_min", "error"]
        # the cached columns are no field, so they leave the provenance hash alone
        assert config_hash(spec) == digest

    def test_one_axis_per_parameter(self, base_params):
        # axis2's value used to override axis1's, so the first column was ignored
        with pytest.raises(ConfigError, match="both axes sweep phi"):
            SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 1.0, 3),
                      axis2=Axis("phi", 0.0, 2.0, 2))


class TestRunSweep:
    def test_phase_periodicity_two_points(self, base_params):
        spec = SweepSpec(base=base_params, axis1=Axis("phi", 0.0, TWO_PI, 2),
                         measures=("EN_c2a", "EN_ab", "EN_c2b"))
        rows = run_sweep(spec).rows
        assert len(rows) == 2
        for a, b in zip(rows[0][2:-1], rows[1][2:-1]):
            assert a == pytest.approx(b, rel=1e-9)

    def test_determinism_byte_identical(self, base_params):
        spec = SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 3.0, 4),
                         measures=("EN_c2a", "Rtau_min"))
        assert to_csv(run_sweep(spec)) == to_csv(run_sweep(spec))

    def test_parallel_matches_serial(self, base_params):
        spec = SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 3.0, 6),
                         measures=("EN_c2a",))
        assert to_csv(run_sweep(spec, workers=2)) == to_csv(run_sweep(spec, workers=1))

    @pytest.mark.parametrize("pid", PRESET_IDS)
    def test_parallel_chunks_keep_row_order(self, base_params, pid):
        # the workers read the axis tables run_sweep built; unstable rows in four presets
        spec = small_preset(pid, base_params)
        serial = run_sweep(spec, workers=1)
        stable = [row[spec.columns().index("stable")] for row in serial.rows]
        assert len(stable) == 143
        assert (False in stable) == (pid in ("fig2", "fig3", "fig4", "fig7"))
        assert to_csv(run_sweep(spec, workers=2)) == to_csv(serial)

    def test_pool_is_no_larger_than_the_chunk_count(self, base_params, serial_pool):
        spec = figure_preset("fig2", base_params, counts=(3, 3))
        rows = run_sweep(spec, workers=64).rows
        assert serial_pool.pools == [1]
        assert rows == run_sweep(spec, workers=1).rows

    @pytest.mark.parametrize("counts,workers,tasks", [
        ((13, 11), 2, [64, 64, 15]),    # small grids keep their 64-point tasks
        ((40, 40), 2, [100] * 16),      # 8 tasks per worker
        ((30, 30), 64, [64] * 14 + [4]),
    ], ids=["143-points", "1600-points", "900-points-64-workers"])
    def test_tasks_are_at_most_8_per_worker_and_at_least_64_points(
            self, base_params, serial_pool, counts, workers, tasks):
        spec = figure_preset("fig2", base_params, counts=counts)
        rows = run_sweep(spec, workers=workers).rows
        assert serial_pool.tasks == tasks
        # never more processes than one per 64 points
        assert serial_pool.pools == [min(workers, math.ceil(len(rows) / 64))]
        assert rows == run_sweep(spec, workers=1).rows

    @pytest.mark.parametrize("pid", ["fig2", "fig3"])
    def test_parallel_tasks_above_64_points_keep_row_order(self, base_params, pid):
        # 1089 points at 2 workers go out as 16 tasks of 69 points (the last of 54)
        spec = figure_preset(pid, base_params, counts=(33, 33))
        assert to_csv(run_sweep(spec, workers=2)) == to_csv(run_sweep(spec, workers=1))

    def test_axis_columns_monotone(self, base_params):
        spec = SweepSpec(base=base_params, axis1=Axis("delta_at", -2.0, 0.0, 5),
                         axis2=Axis("T", 0.001, 0.1, 3), measures=("EN_c2a",))
        result = run_sweep(spec)
        assert len(result.rows) == 15
        outer = [r[0] for r in result.rows[::3]]
        assert outer == sorted(outer) and len(set(outer)) == 5
        inner = [r[1] for r in result.rows[:3]]
        assert inner == sorted(inner) and len(set(inner)) == 3

    def test_unstable_policies(self, base_params):
        # small couplings put the low end of this axis in the unstable region
        def spec(policy):
            base = base_params.with_values(g1_eff=TWO_PI * 0.1)
            return SweepSpec(base=base, axis1=Axis("G2", 0.1, 4.0, 6),
                             measures=("EN_c2a",), unstable_policy=policy)

        missing = run_sweep(spec("missing"))
        assert len(missing.rows) == 6
        unstable_rows = [r for r in missing.rows if r[1] is False]
        assert unstable_rows and all(r[2] is None for r in unstable_rows)

        skipped = run_sweep(spec("skip"))
        assert len(skipped.rows) == 6 - len(unstable_rows)

        with pytest.raises(UnstableDriftError):
            run_sweep(spec("error"))

    def test_error_policy_stops_at_the_first_unstable_point(self, base_params, monkeypatch):
        # fig2's first grid point (G1 = G2 = 0.1 MHz) is unstable
        calls = spy(monkeypatch, sweep, "evaluate_point")
        spec = dataclasses.replace(figure_preset("fig2", base_params, counts=(9, 9)),
                                   unstable_policy="error")
        with pytest.raises(UnstableDriftError,
                           match=re.escape("unstable grid point at G1/G2 = (0.1, 0.1)")):
            run_sweep(spec)
        assert len(calls) == 1

    def test_error_policy_with_workers_names_the_first_unstable_point(self, base_params):
        # grid point 140 (of 400) is the first unstable one: in the third chunk of 64
        spec = dataclasses.replace(figure_preset("fig3", base_params, counts=(20, 20)),
                                   unstable_policy="error")
        messages = []
        for workers in (1, 2):
            with pytest.raises(UnstableDriftError) as exc:
                run_sweep(spec, workers=workers)
            messages.append(str(exc.value))
        assert messages == ["unstable grid point at delta_at/delta_eff_common = "
                            "(-1.263157894736842, 0.0)"] * 2

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, base_params, workers):
        spec = SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 1.0, 2),
                         measures=("EN_c2a",))
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(spec, workers=workers)

    @pytest.mark.parametrize("counts", [(3, 3), (20, 20)])
    @pytest.mark.parametrize("workers", [2.5, 2.0])
    def test_non_integral_workers_rejected(self, base_params, counts, workers):
        # 2.5 used to run a 9-point grid and fail inside the pool on 400 points
        spec = figure_preset("fig2", base_params, counts=counts)
        with pytest.raises(ConfigError, match=f"^workers must be an integer, got {workers}$"):
            run_sweep(spec, workers=workers)

    def test_unknown_measure_rejected(self, base_params):
        with pytest.raises(ConfigError):
            SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 1.0, 2),
                      measures=("EN_bogus",))

    def test_duplicate_measure_rejected(self, base_params):
        with pytest.raises(ConfigError, match="duplicate measure.*: DG_ab, EN_c2a"):
            SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 1.0, 2),
                      measures=("EN_c2a", "DG_ab", "EN_c2a", "DG_ab", "EN_ab"))


class TestAxisTables:
    """Each axis value is converted to its fields once; a grid point's record is
    the base with its axis values' fields set, checking only those."""

    @staticmethod
    def sweep_records(spec, monkeypatch):
        """The records a sweep evaluates, checked against `apply_axes`'s bit for bit."""
        calls = spy(monkeypatch, sweep, "evaluate_point")
        run_sweep(spec)
        records = [args[0] for args in calls]
        wanted = [apply_axes(spec, point) for point in spec.grid()]
        assert records == wanted
        for got, want in zip(records, wanted):
            assert hash(got) == hash(want) and repr(got) == repr(want)
            assert ([(name, value.hex()) for name, value in vars(got).items()]
                    == [(name, value.hex()) for name, value in vars(want).items()])
        return records

    @pytest.mark.parametrize("pid", PRESET_IDS)
    def test_records_are_the_whole_record_build(self, base_params, monkeypatch, pid):
        records = self.sweep_records(small_preset(pid, base_params), monkeypatch)
        # a value set on such a record is checked as on any other
        with pytest.raises(ParameterError, match="^temperature must be non-negative"):
            records[-1].with_values(temperature=-1.0)

    def test_signed_zero_keeps_its_sign(self, base_params, monkeypatch):
        # an axis from -0.0 downwards starts at -0.0, which equals 0.0 as a key
        spec = SweepSpec(base=base_params, axis1=Axis("delta_at", -0.0, -1.0, 2),
                         axis2=Axis("phi", -0.0, -1.0, 2), measures=("stability",))
        first = self.sweep_records(spec, monkeypatch)[0]
        assert math.copysign(1.0, first.delta_at) == math.copysign(1.0, first.phi) == -1.0

    @pytest.mark.parametrize("workers", [1, 64])
    def test_each_axis_value_is_converted_once(self, base_params, monkeypatch, serial_pool,
                                               workers):
        spec = figure_preset("fig2", base_params, counts=(13, 11))
        calls = spy(monkeypatch, sweep, "key_fields")
        assert len(run_sweep(spec, workers=workers).rows) == 143
        assert [args[1] for args in calls] == (
            [{"G1_mhz": value} for value in spec.axis1.values()]
            + [{"G2_mhz": value} for value in spec.axis2.values()])
        assert serial_pool.pools == ([] if workers == 1 else [3])

    @staticmethod
    def g1_spec(start, stop):
        """G1 from start to stop (outer, 3 values) at G2 = 0.1 MHz, where G1 = 0.1 MHz
        is unstable and a negative G1 invalid; one 64-point chunk per G1 value."""
        return SweepSpec(base=params_from_config({"G2_mhz": 0.1}),
                         axis1=Axis("G1", start, stop, 3), axis2=Axis("T", 0.001, 0.4, 64),
                         measures=("EN_c2a",), unstable_policy="error")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_value_before_an_unstable_point_raises_its_error(self, workers):
        with pytest.raises(ParameterError, match="^g1_eff must be non-negative, got -0.628"):
            run_sweep(self.g1_spec(-0.1, 0.1), workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_value_is_named_before_any_point(self, monkeypatch, serial_pool,
                                                         workers):
        # G1 = 5e307 MHz is outside the input domain; the unstable G1 = 0.1 point stopped
        # the sweep
        calls = spy(monkeypatch, sweep, "evaluate_point")
        with pytest.raises(ParameterError, match=re.escape(
                "config key G1_mhz = 5e+307 is outside the input domain [-1e+90, 1e+90]: "
                "it is inf in internal units")):
            run_sweep(self.g1_spec(0.1, 1e308), workers=workers)
        assert calls == [] and serial_pool.pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unstable_point_before_an_invalid_value_stops_the_sweep(self, workers):
        with pytest.raises(UnstableDriftError,
                           match=re.escape("unstable grid point at G1/T = (0.1, 0.001)")):
            run_sweep(self.g1_spec(0.1, -0.1), workers=workers)


class TestProvenance:
    def test_presets_on_one_base_hash_differently(self, base_params):
        fig3 = figure_preset("fig3", base_params)
        fig6 = figure_preset("fig6", base_params)
        assert fig3.base == fig6.base
        assert config_hash(fig3) != config_hash(fig6)

    def test_same_spec_same_hash(self, base_params):
        spec = figure_preset("fig3", base_params)
        assert config_hash(spec) == config_hash(figure_preset("fig3", base_params))
        assert re.fullmatch(r"[0-9a-f]{12}", config_hash(spec))

    def test_measures_and_policy_enter_the_hash(self, base_params):
        spec = figure_preset("fig3", base_params)
        assert config_hash(spec) != config_hash(dataclasses.replace(spec, measures=("EN_c2a",)))
        assert config_hash(spec) != config_hash(dataclasses.replace(spec, unstable_policy="skip"))


class TestSerialization:
    def test_csv_header_and_missing_fields(self, base_params):
        base = base_params.with_values(g1_eff=TWO_PI * 0.1, g2_eff=TWO_PI * 0.1)
        spec = SweepSpec(base=base, axis1=Axis("G1", 0.1, 0.2, 2),
                         measures=("EN_c2a",))
        text = to_csv(run_sweep(spec))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# optocorr v")
        assert "config=" in lines[0]
        assert lines[1] == "G1,stable,EN_c2a,error"
        # unstable rows render the measure as an empty field
        assert any(line.split(",")[1] == "0" and line.split(",")[2] == ""
                   for line in lines[2:])

    def test_json_round_trip_matches_csv(self, base_params):
        import json
        spec = SweepSpec(base=base_params, axis1=Axis("phi", 0.0, 3.0, 3),
                         measures=("EN_c2a", "DG_c2a"))
        result = run_sweep(spec)
        csv_rows = [line.split(",") for line in to_csv(result).strip().split("\n")[2:]]
        json_rows = [json.loads(line) for line in to_json_lines(result).strip().split("\n")[1:]]
        for crow, jrow in zip(csv_rows, json_rows):
            for col, cval in zip(result.columns, crow):
                jval = jrow[col]
                if isinstance(jval, float):
                    assert float(cval) == pytest.approx(jval, rel=1e-12)

    @pytest.mark.parametrize("text", ["plain", "a, b", 'say "x"', 'q", r', "two\nlines"])
    def test_text_cell_reads_back_with_csv_reader(self, text):
        # RFC 4180: a cell holding a comma, quote or newline is quoted
        line = sweep._fmt(text) + ",1\n"
        assert list(csv.reader(line.splitlines(keepends=True))) == [[text, "1"]]


class TestFigurePresets:
    def test_all_ids_build(self, base_params):
        for pid in PRESET_IDS:
            spec = figure_preset(pid, base_params)
            assert spec.axis1.count >= 2

    def test_unknown_id(self, base_params):
        with pytest.raises(ConfigError):
            figure_preset("fig11", base_params)

    def test_fig2_is_a_50x50_stability_map(self, base_params):
        spec = figure_preset("fig2", base_params)
        assert (spec.axis1.count, spec.axis2.count) == (50, 50)
        assert spec.measures == ("stability",)
        assert len(spec.grid()) == 2500

    def test_fig10_is_a_phase_discord_sweep(self, base_params):
        spec = figure_preset("fig10", base_params)
        assert spec.axis1.name == "phi"
        assert spec.axis2 is None
        assert (spec.axis1.start, spec.axis1.stop) == (0.0, TWO_PI)
        assert set(spec.measures) == {"DG_c2a", "DG_ab", "DG_c2b"}
        assert spec.base.delta_at == pytest.approx(-base_params.omega_m)

    def test_fig7_is_a_temperature_family_over_jab(self, base_params):
        spec = figure_preset("fig7", base_params)
        assert spec.axis1.name == "T"
        assert spec.axis2.name == "Jab"
        assert spec.axis2.values() == pytest.approx([1.0, 2.0, 3.0])

    def test_grid_override(self, base_params):
        spec = figure_preset("fig3", base_params, counts=(7, 5))
        assert (spec.axis1.count, spec.axis2.count) == (7, 5)


# each preset's base shift, as README states it
RESONANT = {"delta1_over_omegam": 1.0, "delta2_over_omegam": 1.0, "delta_at_over_omegam": -1.0}
PRESET_SHIFTS = {"fig2": {}, "fig3": {}, "fig4": RESONANT, "fig5": RESONANT, "fig6": {},
                 "fig7": {"delta_at_over_omegam": -1.0}, "fig8": {}, "fig9": {},
                 "fig10": RESONANT}
# a base off the defaults, so that each key and each multiple of omega_m shows
SHIFTED = PRESET_BASES["shifted"]


def record_or_error(build):
    try:
        return build()
    except ParameterError as exc:
        return f"ParameterError: {exc}"


class TestAxesAreConfigKeys:
    """A grid point's record is the config's record with the axes' keys set."""

    @pytest.mark.parametrize("value", [0.0, -0.4, 1.3, 2.5])
    @pytest.mark.parametrize("name", SWEEPABLE)
    def test_axis_value_is_its_config_keys(self, name, value):
        spec = SweepSpec(base=params_from_config(SHIFTED), axis1=Axis(name, value, value + 1, 2))
        got = record_or_error(lambda: apply_axes(spec, (value,)))
        keys = dict.fromkeys(AXIS_CONFIG_KEYS[name], value)
        assert got == record_or_error(lambda: params_from_config({**SHIFTED, **keys}))

    def test_two_axes_set_both_keys(self):
        base = params_from_config(SHIFTED)
        for name1, name2 in itertools.permutations(SWEEPABLE, 2):
            spec = SweepSpec(base=base, axis1=Axis(name1, 0.0, 1.0, 2),
                             axis2=Axis(name2, 0.0, 1.0, 2))
            keys = {**dict.fromkeys(AXIS_CONFIG_KEYS[name1], 1.3),
                    **dict.fromkeys(AXIS_CONFIG_KEYS[name2], 0.6)}
            assert (apply_axes(spec, (1.3, 0.6))
                    == params_from_config({**SHIFTED, **keys})), (name1, name2)

    @pytest.mark.parametrize("pid", PRESET_IDS)
    def test_preset_base_is_its_shift_keys(self, pid):
        base = figure_preset(pid, params_from_config(SHIFTED)).base
        assert base == params_from_config({**SHIFTED, **PRESET_SHIFTS[pid]})
