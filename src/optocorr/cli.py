"""Command-line front door.

Exit codes: 0 success, 2 config/usage error, 3 numeric failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .errors import (ConfigError, NumericDomainError, OptocorrError, ParameterError,
                     UnstableDriftError)
from .dynamics import build_diffusion, build_drift
from .params import (apply_overrides, drive_from_config, load_config, params_from_config,
                     system_config, thermal_occupation)
from .pipeline import evaluate_point
from .lyapunov import solve_lyapunov
from .steadystate import apply_steady_state, solve_steady_state
from .sweep import (Axis, PRESET_IDS, SweepSpec, figure_preset, run_sweep,
                    to_csv, to_json_lines, MEASURE_KEYS, SWEEPABLE, UNSTABLE_POLICIES)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _add_common(sub):
    sub.add_argument("--config", help="YAML/JSON parameter file")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable)")


def _add_run_options(sub):
    sub.add_argument("--unstable", choices=UNSTABLE_POLICIES,
                     default=SweepSpec.unstable_policy)
    sub.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optocorr",
        description="Steady states, stability and Gaussian quantum correlations "
                    "of a hybrid optomechanical model.")
    parser.add_argument("--version", action="version", version=f"optocorr v{__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("steady", help="solve the mean-field steady state")
    _add_common(s)

    s = subs.add_parser("matrix", help="dump drift and diffusion matrices")
    _add_common(s)
    s.add_argument("--with-cm", action="store_true",
                   help="also dump the steady-state covariance matrix")

    s = subs.add_parser("measure", help="correlation report for one parameter point")
    _add_common(s)

    s = subs.add_parser("sweep", help="evaluate the pipeline over a parameter grid")
    _add_common(s)
    s.add_argument("--axis", required=True, metavar="NAME=START:STOP:COUNT",
                   help=f"swept parameter; one of {', '.join(SWEEPABLE)}")
    s.add_argument("--axis2", metavar="NAME=START:STOP:COUNT",
                   help="optional second axis (inner loop)")
    s.add_argument("--measures", default=",".join(SweepSpec.measures),
                   help="comma-separated subset of " + ",".join(MEASURE_KEYS))
    _add_run_options(s)

    s = subs.add_parser("figure", help="run a published-scan preset")
    s.add_argument("preset", choices=PRESET_IDS)
    _add_common(s)
    s.add_argument("--grid", metavar="N[xM]", help="override grid resolution")
    _add_run_options(s)

    return parser


def _record_text(args, record: dict) -> str:
    if args.format == "json":
        return json.dumps(record, indent=2) + "\n"
    lines = [f"{k}={'%.12g' % v if isinstance(v, float) else v}" for k, v in record.items()]
    return "\n".join(lines) + "\n"


def _parse_axis(text: str) -> Axis:
    try:
        name, _, rng = text.partition("=")
        start, stop, count = rng.split(":")
        return Axis(name.strip(), float(start), float(stop), int(count))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad axis spec {text!r}; expected NAME=START:STOP:COUNT") from exc


def _parse_grid(text):
    if text is None:
        return None
    try:
        parts = [int(p) for p in text.lower().split("x")]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}; expected N or NxM") from exc
    if len(parts) not in (1, 2):
        raise ConfigError(f"bad grid spec {text!r}; expected N or NxM")
    return tuple(parts)


def cmd_steady(args, cfg, params) -> str:
    raw = drive_from_config(cfg, params)
    ss = solve_steady_state(raw, params)
    point = apply_steady_state(params, ss)
    verdict = evaluate_point(point, ("stability",)).verdict
    record = {
        "alpha1_re": ss.alpha1.real, "alpha1_im": ss.alpha1.imag,
        "alpha2_re": ss.alpha2.real, "alpha2_im": ss.alpha2.imag,
        "xi_re": ss.xi.real, "xi_im": ss.xi.imag,
        "beta_re": ss.beta.real, "beta_im": ss.beta.imag,
        "delta1_eff": point.delta1_eff, "delta2_eff": point.delta2_eff,
        "G1_eff": point.g1_eff, "G2_eff": point.g2_eff, "phi_eff": point.phi,
        "residual_norm": ss.residual_norm, "iterations": ss.iterations,
        "real_roots": ss.real_roots, "stable": verdict.stable,
    }
    return _record_text(args, record)


def cmd_matrix(args, cfg, params) -> str:
    a = build_drift(params)
    d = build_diffusion(params, thermal_occupation(params.omega_m, params.temperature))
    blocks = {"A": a, "D": d}
    if args.with_cm:
        verdict = evaluate_point(params, ("stability",)).verdict
        if not verdict.stable:
            raise UnstableDriftError(
                f"cannot compute covariance matrix: point unstable "
                f"(max Re eig = {verdict.max_real_part:.6g})")
        blocks["V"] = solve_lyapunov(a, d, check_stability=False).matrix
    if args.format == "json":
        return json.dumps({k: m.tolist() for k, m in blocks.items()}, indent=2) + "\n"
    lines = []
    for tag, m in blocks.items():
        lines.append(f"# {tag}")
        lines.extend(",".join("%.17g" % x for x in row) for row in m)
    return "\n".join(lines) + "\n"


def cmd_measure(args, cfg, params) -> str:
    result = evaluate_point(params)
    if result.report is None:
        if result.error is not None:
            raise NumericDomainError(result.error)
        raise UnstableDriftError(
            f"parameter point is unstable (max Re eig = {result.verdict.max_real_part:.6g})")
    record = {**result.report.as_flat_dict(), "stable": result.verdict.stable,
              "max_real_part": result.verdict.max_real_part, "n_th": result.n_th,
              **{f"param_{k}": v for k, v in system_config(cfg).items()}}
    return _record_text(args, record)


def _sweep_text(args, spec) -> str:
    result = run_sweep(spec, workers=args.workers)
    return to_csv(result) if args.format == "csv" else to_json_lines(result)


def cmd_sweep(args, cfg, params) -> str:
    measures = tuple(m.strip() for m in args.measures.split(",") if m.strip())
    spec = SweepSpec(base=params, axis1=_parse_axis(args.axis),
                     axis2=_parse_axis(args.axis2) if args.axis2 else None,
                     measures=measures, unstable_policy=args.unstable)
    return _sweep_text(args, spec)


def cmd_figure(args, cfg, params) -> str:
    spec = figure_preset(args.preset, params, counts=_parse_grid(args.grid))
    return _sweep_text(args, dataclasses.replace(spec, unstable_policy=args.unstable))


COMMANDS = {
    "steady": cmd_steady,
    "matrix": cmd_matrix,
    "measure": cmd_measure,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    """Run one command: resolve its config (file, then each --set), build the
    parameter record, and write the command's text to --out or stdout."""
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config) if args.config else {}, args.overrides)
        text = COMMANDS[args.command](args, cfg, params_from_config(cfg))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except (ConfigError, ParameterError) as exc:
        print(f"optocorr: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OptocorrError as exc:    # every other package error is numeric
        print(f"optocorr: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"optocorr: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry():
    """Console-script entry point."""
    sys.exit(main())
