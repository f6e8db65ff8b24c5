"""Batch driver: argument parsing, sweeps, CSV/JSON emission, SVG plots.

Exit codes: 0 success, 1 usage, 2 invalid couplings, 3 numerical failure,
4 I/O failure, 5 spectral singularity found (a finding, not a crash),
6 residual/trend check failure.  Identical arguments and seed produce
byte-identical outputs; every output file embeds the convention flags in
force (CSV as '#' preamble lines, SVG as a comment block).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys
from fractions import Fraction
from typing import Sequence

from ._sums import lsum
from .errors import CalogeroError, CouplingRangeError, DomainError
from .model import CouplingParams, Validity, solve_nu_prime
from .polynomials import solve_generalized_laplace
from .scattering import (ScatteringMatch, match_at, ss_scan,
                         transmission_sweep, transmitted_coefficient_readings)
from .svgplot import render_line_plot
from .wavefunction import (make_scattering_state, residual_convergence,
                           state_energy)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUPLINGS = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_SS_FOUND = 5
EXIT_CHECK_FAILED = 6

SCAN_HEADER = "sample,p,min_pair_factor,min_w_magnitude,m22_status,ss_verdict"
COEFFS_HEADER = ("p,r_minus,r_plus,re_A,im_A,re_B,im_B,re_D,im_D,R,T,"
                 "deriv_mismatch")
# sweep --plot-column choices and the ScatteringMatch field each plots
PLOT_COLUMNS = {"R": "reflection", "T": "transmission",
                "deriv_mismatch": "derivative_mismatch"}


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for invalid couplings; argparse's default error
    # path would exit 2 on usage problems, so route those to exit 1
    def error(self, message):
        raise DomainError(message)


def finite(text: str) -> float:
    """argparse type of a finite float option."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive(text: str) -> float:
    """argparse type of a finite float option that must be > 0."""
    value = finite(text)
    if value <= 0.0:
        raise ValueError(text)
    return value


def _f17(x: float) -> str:
    return f"{x:.17e}"


def _params_from_args(args) -> CouplingParams:
    has_g = getattr(args, "g", None) is not None
    has_nu = getattr(args, "nu_prime", None) is not None
    if has_g == has_nu:
        raise DomainError("give exactly one of --g / --nu-prime")
    if args.delta is None:
        raise DomainError("--delta is required")
    if has_g:
        params = CouplingParams.from_coupling(args.n, args.g, args.delta)
    else:
        params = CouplingParams.from_exponent(args.n, args.nu_prime,
                                              args.delta)
    if params.validity_class is Validity.INVALID:
        raise CouplingRangeError(
            f"couplings g={params.g}, delta={params.delta} are outside "
            "both validity ranges")
    return params


def _convention_metadata() -> dict[str, str]:
    return {
        "phi_exponent": "nu_prime",
        "outgoing_prefactor": "pure_phase",
        "transmitted_coefficient": "value_matched",
        "ss_direction_rule": "all_nondegenerate_directions",
        "eigenvalue_convention": "half_p_squared",
    }


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_document(metadata: dict[str, str], header: str,
                  rows: Sequence[str]) -> str:
    lines = [f"# {key}={metadata[key]}" for key in sorted(metadata)]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


# --- subcommands ---------------------------------------------------------------

def cmd_nu_prime(args) -> int:
    if args.g is None or args.delta is None:
        raise DomainError("nu-prime needs --g and --delta")
    sol = solve_nu_prime(args.g, args.delta)
    if sol.validity is Validity.INVALID:
        raise CouplingRangeError(
            f"couplings g={args.g}, delta={args.delta} are outside both "
            "validity ranges")
    doc = {"roots": [sol.roots[0], sol.roots[1]], "selected": sol.selected,
           "validity": sol.validity.value}
    print(json.dumps(doc))
    return EXIT_OK


def cmd_scan(args) -> int:
    params = _params_from_args(args)
    summary = ss_scan(params, args.p_min, args.p_max, args.seed,
                      args.samples)
    rows = []
    for idx, rep in enumerate(summary.reports):
        # min_w_magnitude is |M22| times the pairing factor, with M22 = 1
        min_factor = f"{rep.min_pair_factor:.17e}"
        rows.append(f"{idx},{rep.pset.p:.17e},{min_factor},{min_factor},"
                    f"{summary.m22_status},"
                    f"{'true' if rep.ss_verdict else 'false'}")
    metadata = _convention_metadata()
    metadata.update({
        "n": str(args.n), "samples": str(args.samples),
        "p_min": _f17(args.p_min), "p_max": _f17(args.p_max),
        "seed": str(args.seed),
        "nu_prime": _f17(params.nu_prime), "delta": _f17(params.delta),
    })
    _write_text(args.out, _csv_document(metadata, SCAN_HEADER, rows))
    min_factor_txt = _f17(summary.min_pair_factor) \
        if summary.reports else "n/a"
    print(f"scan: {args.samples} samples, {summary.ss_count} SS verdicts, "
          f"min pair factor {min_factor_txt}", file=sys.stderr)
    return EXIT_SS_FOUND if summary.ss_count else EXIT_OK


def _or_nan(x: float | None) -> float:
    return math.nan if x is None else x


def _coeffs_row(p: float, m: ScatteringMatch) -> str:
    """One COEFFS_HEADER row; nan wherever the record holds None."""
    # a float nan has imag 0.0, so an absent d is a complex nan
    d = complex(math.nan, math.nan) if m.d is None else m.d
    return ",".join(_f17(_or_nan(v)) for v in (
        p, m.r_minus, m.r_plus, m.a.real, m.a.imag, m.b.real, m.b.imag,
        d.real, d.imag, m.reflection, m.transmission,
        m.derivative_mismatch))


def cmd_coeffs(args) -> int:
    params = _params_from_args(args)
    if args.p is None:
        raise DomainError("coeffs needs --p > 0")
    metadata = _convention_metadata()
    metadata.update({"n": str(args.n), "p": _f17(args.p),
                     "r_minus": _f17(args.r_minus),
                     "r_plus": _f17(args.r_plus), "k": str(args.k)})
    m = match_at(params, args.p, args.r_minus, args.r_plus, k=args.k)
    if m.d is not None:
        readings = transmitted_coefficient_readings(params, args.p,
                                                    args.r_plus)
        for name, val in readings.items():
            metadata[f"alt_d_{name}"] = _f17(abs(val))
        metadata["alt_d_value_matched"] = _f17(abs(m.d))
    _write_text(args.out, _csv_document(metadata, COEFFS_HEADER,
                                        [_coeffs_row(args.p, m)]))
    return EXIT_OK


def _grid(start: float, stop: float, steps: int, log: bool) -> list[float]:
    if steps < 1:
        raise DomainError("--steps must be >= 1")
    if steps == 1:
        if start != stop:
            raise DomainError("--steps 1 needs --from equal to --to")
        return [start]
    if log:
        la, lb = math.log(start), math.log(stop)
        return [math.exp(la + (lb - la) * i / (steps - 1))
                for i in range(steps)]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def cmd_sweep(args) -> int:
    params = _params_from_args(args)
    grid = _grid(getattr(args, "from_"), args.to, args.steps, args.log)
    if args.plot is not None and len(grid) < 2:
        raise DomainError("--plot needs at least two points (--steps 2 or "
                          "more)")
    param = args.param.replace("-", "_")
    sweep = transmission_sweep(params, param, grid, p=args.p,
                               r_minus=args.r_minus, r_plus=args.r_plus,
                               k=args.k)
    series = None
    if args.plot is not None:  # checked before any output is written
        field = PLOT_COLUMNS[args.plot_column]
        series = [_or_nan(getattr(m, field)) for _, m in sweep.rows]
        if any(math.isnan(v) for v in series):
            raise DomainError(f"column {args.plot_column} is undefined for "
                              "this sweep")
    rows = [_coeffs_row(v if param == "p" else args.p, m)
            for v, m in sweep.rows]
    metadata = _convention_metadata()
    metadata.update({"n": str(args.n), "param": args.param,
                     "from": _f17(getattr(args, "from_")),
                     "to": _f17(args.to), "steps": str(args.steps),
                     "log": "true" if args.log else "false"})
    trend = sweep.trend
    if trend is not None:
        metadata["trend_claim"] = "transmission_vanishes_at_large_r_minus"
        metadata["trend_slope"] = _f17(trend.fitted_slope)
        metadata["trend_decayed"] = "true" if trend.decayed else "false"
        if not trend.decayed:
            metadata["trend_discrepancy"] = (
                f"slope={_f17(trend.fitted_slope)};"
                f"envelope_first={_f17(trend.envelope_first)};"
                f"envelope_last={_f17(trend.envelope_last)}")

    _write_text(args.out, _csv_document(metadata, COEFFS_HEADER, rows))
    if series is not None:
        _write_text(args.plot, render_line_plot(
            list(zip(grid, series)), x_label=args.param,
            y_label=args.plot_column,
            title=f"{args.plot_column} vs {args.param}",
            log_x=args.log, metadata=metadata))
    if trend is not None and not trend.decayed:
        print("sweep: expected-trend check failed "
              "(transmission does not vanish); see metadata",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _builtin_samples(n: int, seed: int, count: int = 20):
    # banded gaps keep samples away from polynomial nodes
    bands = ((1.3, 1.6), (2.6, 3.1))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gaps = [rng.uniform(*bands[j % len(bands)]) for j in range(n - 1)]
        coords = [rng.uniform(-0.5, 0.5)]
        for g in gaps:
            coords.append(coords[-1] - g)
        mean = lsum(coords) / n
        out.append(tuple(c - mean for c in coords))
    return out


def _read_configs(path: str) -> list[tuple[float, ...]]:
    """Rows of a {"configs": [[x1, ..., xN], ...]} file, as floats.

    Only the shape is checked here; residual_convergence checks each row's
    coordinate count and order.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise DomainError(f"malformed configs file: {err}") from None
    rows = doc.get("configs") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                for c in row)
            for row in rows):
        raise DomainError('configs file must hold {"configs": '
                          '[[x1, ..., xN], ...]} with numeric coordinates')
    return [tuple(float(c) for c in row) for row in rows]


def cmd_residual(args) -> int:
    params = _params_from_args(args)
    if args.p is None:
        raise DomainError("residual needs --p > 0")
    if args.configs is not None:
        samples = _read_configs(args.configs)
    else:
        samples = _builtin_samples(args.n, args.seed)
    psi = make_scattering_state(params, args.p, args.k)
    res_h, res_h2, ratio = residual_convergence(
        psi, state_energy(args.p), samples, params, h_factor=args.h)
    passed = res_h < args.tol
    doc = {
        "max_residual": res_h,
        "max_residual_half_h": res_h2,
        "convergence_ratio": ratio,
        "tolerance": args.tol,
        "passed": passed,
        "metadata": dict(sorted(_convention_metadata().items())),
    }
    print(json.dumps(doc))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _partition_key(partition) -> str:
    live = [str(e) for e in partition if e]
    return "+".join(live) if live else "1"


def cmd_polys(args) -> int:
    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError) as err:
        raise DomainError(f"bad --lambda value: {err}") from None
    solutions = solve_generalized_laplace(args.n, args.k, lam)
    basis = []
    for sol in solutions:
        basis.append({_partition_key(mon): str(coeff)
                      for mon, coeff in sol.ordered_items()})
    doc = {"n": args.n, "k": args.k, "lambda": str(lam),
           "dimension": len(solutions), "basis": basis}
    print(json.dumps(doc))
    return EXIT_OK


# --- parser construction --------------------------------------------------------

def _add_model_options(sub):
    sub.add_argument("--n", type=int, required=True,
                     help="number of particles")
    sub.add_argument("--g", type=finite, default=None,
                     help="long-range coupling (exclusive with --nu-prime)")
    sub.add_argument("--nu-prime", dest="nu_prime", type=finite, default=None,
                     help="ground-state exponent (exclusive with --g)")
    sub.add_argument("--delta", type=finite, default=None,
                     help="deformation coupling")
    sub.add_argument("--k", type=int, default=0,
                     help="polynomial degree of the state")


def build_parser() -> _Parser:
    parser = _Parser(prog="calogero-ss",
                     description="Scattering observables and "
                                 "spectral-singularity scan")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of defaults (flags win)")
    subs = parser.add_subparsers(dest="command", required=True)

    p_nu = subs.add_parser("nu-prime", help="solve the exponent quadratic")
    p_nu.add_argument("--g", type=finite, default=None, required=False)
    p_nu.add_argument("--delta", type=finite, default=None, required=False)
    p_nu.set_defaults(func=cmd_nu_prime)

    p_scan = subs.add_parser("scan", help="spectral-singularity sweep")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--samples", type=int, required=True)
    p_scan.add_argument("--p-min", dest="p_min", type=float, default=0.01)
    p_scan.add_argument("--p-max", dest="p_max", type=float, required=True)
    p_scan.add_argument("--seed", type=int, required=True)
    p_scan.add_argument("--out", type=str, required=True)
    p_scan.add_argument("--nu-prime", dest="nu_prime", type=finite,
                        default=1.0)
    p_scan.add_argument("--delta", type=finite, default=0.5)
    p_scan.set_defaults(func=cmd_scan)

    p_coeffs = subs.add_parser("coeffs", help="matched coefficients at one "
                                              "momentum")
    _add_model_options(p_coeffs)
    p_coeffs.add_argument("--p", type=positive, default=None)
    p_coeffs.add_argument("--r-minus", dest="r_minus", type=positive,
                          default=50.0)
    p_coeffs.add_argument("--r-plus", dest="r_plus", type=positive,
                          default=5.0)
    p_coeffs.add_argument("--out", type=str, default=None)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_sweep = subs.add_parser("sweep", help="sweep one parameter")
    _add_model_options(p_sweep)
    p_sweep.add_argument("--param", choices=["r-minus", "r-plus", "p"],
                         required=True)
    p_sweep.add_argument("--from", dest="from_", type=positive,
                         required=True)
    p_sweep.add_argument("--to", type=positive, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true")
    p_sweep.add_argument("--p", type=positive, default=1.0)
    p_sweep.add_argument("--r-minus", dest="r_minus", type=positive,
                         default=50.0)
    p_sweep.add_argument("--r-plus", dest="r_plus", type=positive,
                         default=5.0)
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.add_argument("--plot", type=str, default=None)
    p_sweep.add_argument("--plot-column", dest="plot_column",
                         choices=list(PLOT_COLUMNS), default="T")
    p_sweep.set_defaults(func=cmd_sweep)

    p_res = subs.add_parser("residual", help="finite-difference eigen check")
    _add_model_options(p_res)
    p_res.add_argument("--p", type=positive, default=None)
    p_res.add_argument("--h", type=positive, default=1e-3,
                       help="step factor times the local minimum gap")
    p_res.add_argument("--configs", type=str, default=None,
                       help='JSON file {"configs": [[x1..xN], ...]}, '
                       'N coordinates per row, strictly descending')
    p_res.add_argument("--seed", type=int, default=0)
    p_res.add_argument("--tol", type=positive, default=1e-6)
    p_res.set_defaults(func=cmd_residual)

    p_polys = subs.add_parser("polys", help="generalized-Laplace nullspace")
    p_polys.add_argument("--n", type=int, required=True)
    p_polys.add_argument("--k", type=int, required=True)
    p_polys.add_argument("--lambda", dest="lam", type=str, required=True,
                         help="rational like 7/10")
    p_polys.set_defaults(func=cmd_polys)
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config value as its option would parse it, or a DomainError.

    Flags take JSON booleans; every other option takes a JSON string or
    number, passed through the option's type and checked against its
    choices as if it had been given on the command line.
    """
    shown = json.dumps(value)
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise DomainError(f"config key {key!r} takes true or false, "
                              f"got {shown}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise DomainError(f"config key {key!r} takes a string or a number, "
                          f"got {shown}")
    try:
        parsed = action.type(str(value)) if action.type else str(value)
    except ValueError:
        raise DomainError(f"config key {key!r}: invalid "
                          f"{action.type.__name__} value {shown}") from None
    if action.choices is not None and parsed not in action.choices:
        raise DomainError(f"config key {key!r}: {shown} is not one of "
                          + ", ".join(action.choices))
    return parsed


def _apply_config(parser: _Parser, path: str) -> None:
    """Load --config JSON as defaults; explicit flags still win."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise DomainError(f"malformed config file: {err}") from None
    if not isinstance(doc, dict):
        raise DomainError("config file must hold a JSON object")
    # apply to every subparser that knows the key; unknown keys are errors
    subs = [a for a in parser._subparsers._group_actions
            if isinstance(a, argparse._SubParsersAction)][0]
    for key, value in doc.items():
        dest = key.replace("-", "_")
        owners = [(sub, action) for sub in subs.choices.values()
                  for action in sub._actions if action.dest == dest
                  and isinstance(action, (argparse._StoreAction,
                                          argparse._StoreTrueAction))]
        if not owners:
            raise DomainError(f"unknown config key {key!r}")
        for sub, action in owners:
            sub.set_defaults(**{dest: _config_value(action, key, value)})


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        # argparse actions and help formatters point back at their owners,
        # so a dropped parser is ~420 objects (~70 KB) of cyclic garbage.
        # Free it while it is young: left to the automatic collector, an
        # in-process caller that runs many commands holds about twenty dead
        # parsers at a time, until the next collection of generation 1.
        del parser
        gc.collect(1)
        return args.func(args)
    except CouplingRangeError as err:
        print(f"invalid couplings: {err}", file=sys.stderr)
        return EXIT_COUPLINGS
    except DomainError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CalogeroError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as err:  # a float left its range on the way
        print(f"numerical failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
