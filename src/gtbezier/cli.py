"""Command-line front end.

Subcommands:
    basis-eval   tabulate rational basis values on a parameter grid
    tp-check     randomized total-positivity verification of a basis
    pia-fit      progressive iterative fit of a configured problem
    example      reproduce the circle or helix fitting benchmark

Exit codes: 0 success, 1 verification failure, 2 config or argument
error, 3 I/O error, 4 divergence.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import datasets
from .basis import rational_basis_matrix
from .config import ConfigError, load_config
from .curve import sample_polyline
from .export import (
    format_float,
    format_error_table,
    write_csv,
    write_history_csv,
    write_points_csv,
    write_svg,
)
from .pia import DivergenceError, fitted_curve, iteration_spectrum, pia_run
from .totalpos import verify_ntp_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

POLYLINE_SAMPLES = 401

_CURVE_STYLES = {
    "gt": {"stroke": "#d62728"},
    "bezier": {"stroke": "#1f77b4", "dasharray": "3% 1.5%"},
    "rational": {"stroke": "#2ca02c", "dasharray": "0.5% 1.5%"},
}
_CONTROL_STYLE = {"stroke": "#888888", "dasharray": "1.5% 1.5%"}


def _at_least(convert, low):
    """argparse type: a finite int or float (per convert) that is at least low."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} {text!r}") from None
        if not low <= value < math.inf:  # NaN fails; an int of any size compares exactly
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        return value

    return parse


_POSITIVE_INT = _at_least(int, 1)
_COUNT = _at_least(int, 0)
_TOLERANCE = _at_least(float, 0.0)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_basis_eval(args) -> int:
    cfg = load_config(args.config, "eval", grid=args.grid)
    ns = cfg.nodeset
    ts = np.linspace(*ns.domain, cfg.grid)
    values = rational_basis_matrix(ns, cfg.weights, ts)
    out = _outdir(args)
    header = ("t",) + tuple(f"T{j}" for j in range(ns.size))
    write_csv(out / "basis.csv", header, np.column_stack([ts, values]))
    dev = float(np.max(np.abs(values.sum(axis=1) - 1.0)))
    print(f"wrote {out / 'basis.csv'} ({cfg.grid} rows, {ns.size} basis functions)")
    print(f"max |row sum - 1| = {format_float(dev)}")
    return EXIT_OK


def cmd_tp_check(args) -> int:
    cfg = load_config(args.config, "tp-check")
    try:
        report = verify_ntp_suite(cfg.nodeset, cfg.weights, trials=args.trials, seed=args.seed)
    except ValueError as exc:  # a node span too narrow to draw parameters from
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    rows, cols = ("", "")
    if report.worst_witness is not None:
        rows = ";".join(str(i) for i in report.worst_witness[0])
        cols = ";".join(str(j) for j in report.worst_witness[1])
    write_csv(
        out / "tp_report.csv",
        ("trials", "failures", "worst_minor", "worst_case", "worst_rows", "worst_cols"),
        [(str(report.trials), str(report.failures), report.worst_minor,
          report.worst_case or "", rows, cols)],
    )
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: {report.trials} trials, {report.failures} failures")
    print(f"worst minor {format_float(report.worst_minor)} "
          f"(case {report.worst_case}, rows [{rows}], cols [{cols}])")
    print(f"wrote {out / 'tp_report.csv'}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _write_fit_outputs(out: Path, prefix: str, problem, state):
    curve = fitted_curve(problem, state)
    write_points_csv(out / f"{prefix}control.csv", state.control)
    write_history_csv(out / f"{prefix}history.csv", state.error_history)
    polyline = sample_polyline(curve, POLYLINE_SAMPLES)
    write_points_csv(out / f"{prefix}curve.csv", polyline)
    return curve, polyline


def cmd_pia_fit(args) -> int:
    cfg = load_config(args.config, "fit", max_iter=args.iterations, tol=args.tol)
    problem = cfg.problem
    state = pia_run(problem, max_iter=cfg.max_iter, tol=cfg.tol)
    out = _outdir(args)
    curve, polyline = _write_fit_outputs(out, "", problem, state)
    if curve.dim == 2:
        write_svg(
            out / "curve.svg",
            [("fit", polyline, _CURVE_STYLES["gt"]),
             ("control", state.control, _CONTROL_STYLE)],
            markers=[problem.data],
            title="pia fit",
        )
    print(f"ran {state.iteration} iterations, final error {format_float(state.error_history[-1])}")
    print(f"spectral radius of iteration matrix: {format_float(iteration_spectrum(problem))}")
    print(f"wrote outputs under {out}")
    return EXIT_OK


def cmd_example(args) -> int:
    problems, all_checkpoints = datasets.example_problems(args.which)
    max_iter = args.iterations if args.iterations is not None else all_checkpoints[-1]
    checkpoints = tuple(c for c in all_checkpoints if c <= max_iter)
    out = _outdir(args)
    rows = []
    svg_layers = []
    for label, problem in problems.items():
        state = pia_run(problem, max_iter=max_iter)
        rows.append((label, *(state.error_history[c - 1] for c in checkpoints)))
        curve, polyline = _write_fit_outputs(out, f"{args.which}_{label}_", problem, state)
        if curve.dim == 2:
            svg_layers.append((label, polyline, _CURVE_STYLES[label]))
            svg_layers.append((f"{label} control", state.control, _CONTROL_STYLE))
    if svg_layers:
        write_svg(out / f"{args.which}.svg", svg_layers, markers=[problems["gt"].data],
                  title=args.which)
    if checkpoints:
        header = ("curve",) + tuple(str(c) for c in checkpoints)
        write_csv(out / f"{args.which}_errors.csv", header, rows)
        print(format_error_table(rows, checkpoints))
    else:
        print(f"no iterations requested; wrote initial curves for {args.which}")
    print(f"wrote outputs under {out}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gtbezier",
        description="Toric Bernstein bases: basis tables, TP verification, PIA fitting.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    be = sub.add_parser("basis-eval", help="tabulate rational basis values on a grid")
    be.add_argument("--config", required=True)
    be.add_argument("--grid", type=_POSITIVE_INT, default=None, help="grid size (overrides config)")
    be.add_argument("--out", default="out")
    be.set_defaults(func=cmd_basis_eval)

    tp = sub.add_parser("tp-check", help="randomized total-positivity verification")
    tp.add_argument("--config", required=True)
    tp.add_argument("--trials", type=_POSITIVE_INT, default=100)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--out", default="out")
    tp.set_defaults(func=cmd_tp_check)

    pf = sub.add_parser("pia-fit", help="progressive iterative fit of a configured problem")
    pf.add_argument("--config", required=True)
    pf.add_argument("--iterations", type=_POSITIVE_INT, default=None,
                    help="overrides config max_iter")
    pf.add_argument("--tol", type=_TOLERANCE, default=None, help="overrides config tol")
    pf.add_argument("--out", default="out")
    pf.set_defaults(func=cmd_pia_fit)

    ex = sub.add_parser("example", help="reproduce the circle or helix benchmark")
    ex.add_argument("which", choices=("circle", "helix"))
    ex.add_argument("--iterations", type=_COUNT, default=None,
                    help="iteration count (0 writes the initial curves only)")
    ex.add_argument("--out", default="out")
    ex.set_defaults(func=cmd_example)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
