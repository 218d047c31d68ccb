"""Tests for config loading, CSV/SVG export, and the command-line interface."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gtbezier
import gtbezier.cli as cli
from gtbezier import datasets, rational_basis_matrix
from gtbezier.config import ConfigError, load_config
from gtbezier.export import (
    _BLOCK_CELLS,
    _CROSSOVER,
    _K_LOW,
    _KERNEL_CELLS,
    _format_cells,
    _tables,
    format_float,
    write_csv,
    write_history_csv,
    write_points_csv,
    write_svg,
)
from gtbezier.pia import DivergenceError, pia_run
from gtbezier.totalpos import MAX_TRIALS, NtpSuiteReport
from bad_inputs import (BAD_COUNT_FLAGS, BAD_COUNTS, BAD_JSON_ARRAYS, BAD_TOLERANCE_FLAGS,
                        BAD_TOLERANCES)
from oracles import HELIX_FIT_STEP_LOOP_ERRORS, pia_errors

_PROBLEM = datasets.circle_problem()
_CIRCLE_ARRAYS = {
    "nodes": _PROBLEM.nodeset.nodes.tolist(),
    "coefficients": _PROBLEM.nodeset.coefficients.tolist(),
    "weights": _PROBLEM.weights.tolist(),
    "points": _PROBLEM.data.tolist(),
    "params": _PROBLEM.params.tolist(),
}


def _circle_config(tmp_path, mode="fit", **overrides):
    cfg = {"mode": mode, **_CIRCLE_ARRAYS, "scale": _PROBLEM.nodeset.scale, "max_iter": 20}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_round_trip(tmp_path):
    path = _circle_config(tmp_path)
    cfg = load_config(path, "fit")
    np.testing.assert_allclose(cfg.problem.data, datasets.circle_problem().data)
    assert (cfg.max_iter, cfg.tol, cfg.grid) == (20, 0.0, 101)
    # a flag that is given takes the place of its field
    cfg = load_config(path, "fit", max_iter=7, tol=1e-3, grid=5)
    assert (cfg.max_iter, cfg.tol, cfg.grid) == (7, 1e-3, 5)


def test_config_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"nodes": [0, 1, 2]}))
    cfg = load_config(path, "eval")
    assert np.all(cfg.nodeset.coefficients == 1.0) and cfg.nodeset.scale == 1.0
    assert np.all(cfg.weights == 1.0)
    assert cfg.problem is None
    path.write_text(json.dumps({"nodes": [0, 1], "points": [[0, 0], [1, 1]], "params": [0, 1]}))
    problem = load_config(path, "fit").problem
    assert np.all(problem.nodeset.coefficients == 1.0)
    assert np.all(problem.weights == 1.0)


@pytest.mark.parametrize(
    "payload,msg",
    [
        ({"nodes": [0, 1], "bogus": 1, "out": "x"}, "unknown config fields"),
        ({"nodes": [0, 1], "mode": "dance"}, "config has mode 'dance'"),
        ({}, "requires a 'nodes'"),
        ({"nodes": [0, 1], "max_iter": 0}, "max_iter"),
        ({"nodes": [0, 1], "tol": -1}, "tol"),
        ({"nodes": [0, 1], "grid": 0}, "grid"),
        ({"nodes": [0, 1], "out": "x"}, r"unknown config fields \['out'\]"),
        ({"nodes": [0, 1], "max_iter": "5"}, "max_iter must be an integer"),
        ({"nodes": [0, 1], "max_iter": True}, "max_iter must be an integer"),
        ({"nodes": [0, 1], "max_iter": 5.0}, "max_iter must be an integer"),
        ({"nodes": [0, 1], "grid": 2.5}, "grid must be an integer"),
        ({"nodes": [0, 1], "grid": None}, "grid must be an integer"),
        ({"nodes": [0, 1], "tol": "0"}, "tol must be a finite number"),
        ({"nodes": [0, 1], "tol": False}, "tol must be a finite number"),
        ({"nodes": [0, 1], "tol": float("nan")}, "tol must be a finite number"),
        ({"nodes": [0, 1], "scale": "2"}, "scale must be a finite number"),
        ({"nodes": [0, 1], "scale": True}, "scale must be a finite number"),
        ({"nodes": [0, 1], "scale": float("inf")}, "scale must be a finite number"),
        ({"nodes": [0, 1], "scale": 10**400}, "scale must be a finite number"),
        ({"nodes": {"a": 1}}, "nodes must be a list of finite numbers"),
        ({"nodes": [0, 1], "weights": [True, 1]}, "weights must be a list of finite numbers"),
        ({"nodes": [0, 1], "coefficients": [1, "2"]}, "coefficients must be a list of finite"),
        ({"nodes": [0, 1], "params": [0, float("nan")]}, "params must be a list of finite"),
        ({"nodes": [0, 1], "params": None}, "params must be a list of finite numbers"),
        ({"nodes": [0, 1], "points": [[0, 0], [1, False]]}, "points must be a list of lists"),
        ({"nodes": [0, 1], "points": [0, 1]}, "points must be a list of lists"),
        # the count and tolerance rules' tables (JSON NaN, Infinity, null, true)
        *(({"nodes": [0, 1], name: value}, f"{name} must be")
          for name in ("max_iter", "grid") for value in BAD_COUNTS),
        *(({"nodes": [0, 1], "tol": value}, "tol must be a finite number >= 0")
          for value in BAD_TOLERANCES),
    ],
)
def test_config_structural_errors(tmp_path, payload, msg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=msg):
        load_config(path, "eval")


@pytest.mark.parametrize("row", [*BAD_JSON_ARRAYS, "null"])
@pytest.mark.parametrize("name", _CIRCLE_ARRAYS)
def test_config_array_fields_follow_the_array_rule(tmp_path, name, row):
    # every list field is checked in every mode, so eval mode checks points
    # and params, which it does not use; an explicit null is no default
    bad = None if row == "null" else BAD_JSON_ARRAYS[row][0](_CIRCLE_ARRAYS[name])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": _CIRCLE_ARRAYS["nodes"], name: bad}))
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        load_config(path, "eval")


@pytest.mark.parametrize(
    "config,argv,msg",
    [
        ({"max_iter": "5"}, ["pia-fit"], "config error: max_iter must be an integer"),
        ({"grid": 2.5}, ["basis-eval"], "config error: grid must be an integer"),
        ({"max_iter": True}, ["pia-fit"], "config error: max_iter must be an integer"),
        ({"out": "x"}, ["pia-fit"], "config error: .*unknown config fields"),
        ({}, ["tp-check", "--trials", "0"], "argument --trials: must be"),
        ({}, ["pia-fit", "--tol", "-1"], "argument --tol: must be"),
        ({}, ["basis-eval", "--grid", "0"], "argument --grid: must be"),
        ({}, ["example", "circle", "--iterations", "-1"], "argument --iterations: must be"),
        ({"grid": 10**400}, ["basis-eval"], "config error: grid must be at most 1000000"),
        ({}, ["basis-eval", "--grid", str(10**400)], "config error: grid must be at most"),
        ({}, ["basis-eval", "--grid", "1000001"], "config error: grid must be at most"),
        # raw file bytes: an integer beyond the int-string digit limit, and
        # bytes that are not UTF-8
        pytest.param(b'{"nodes": [0, 1], "grid": ' + b"1" * 5000 + b"}", ["basis-eval"],
                     "config error: .*not valid JSON: Exceeds the limit", id="int-digit-limit"),
        pytest.param(b'{"nodes": [0, 1], "scale": "\xff"}', ["basis-eval"],
                     "config error: .*not valid JSON: 'utf-8' codec can't decode", id="not-utf-8"),
        # log-basis terms that would overflow, and a table of 32e6+ values
        pytest.param({"scale": 1e308}, ["pia-fit"],
                     r"config error: scale \* \(a_n - a_0\) must be at most 1e\+300",
                     id="exponent-span"),
        pytest.param(json.dumps({"nodes": list(range(100001)), "grid": 10**6}).encode(),
                     ["basis-eval"], "config error: grid must be at most 319$",
                     id="basis-values"),
        # a fit's collocation matrix of 20001**2 values, and tp-check minors
        # of a 20001-node matrix
        pytest.param(json.dumps({"nodes": list(range(20001)), "params": list(range(20001)),
                                 "points": [[i, 0] for i in range(20001)]}).encode(),
                     ["pia-fit"], "config error: fit config has 20001 nodes, at most 5656 allowed$",
                     id="fit-nodes"),
        pytest.param(json.dumps({"nodes": list(range(20001))}).encode(),
                     ["tp-check", "--trials", "1"],
                     "config error: tp-check config has 20001 nodes, at most 64 allowed$",
                     id="tp-check-nodes"),
        # a suite of hours: one 65-node trial alone takes about a second
        pytest.param(json.dumps({"nodes": list(range(65))}).encode(),
                     ["tp-check", "--trials", "1"],
                     "config error: tp-check config has 65 nodes, at most 64 allowed$",
                     id="tp-check-65-nodes"),
        # two doubles between the ends, too few for a trial's five parameters
        pytest.param(b'{"nodes": [1e16, 1e16, 1e16, 1e16, 10000000000000002]}',
                     ["tp-check"], "config error: no 5 distinct parameters drawn in .* too narrow$",
                     id="tp-check-narrow-span"),
        # a bad flag is named as such, not blamed on the config
        pytest.param({}, ["tp-check", "--seed", "-1"], "argument --seed: must be",
                     id="seed-negative"),
        # the count and tolerance rules' tables, as text
        *(pytest.param({}, [*command, flag, text],
                       f"argument {flag}: (must be|invalid literal for int)",
                       id=" ".join([*command, flag, text]))
          for command, flag in ((["tp-check"], "--trials"), (["tp-check"], "--seed"),
                                (["basis-eval"], "--grid"), (["pia-fit"], "--iterations"),
                                (["example", "circle"], "--iterations"))
          for text in BAD_COUNT_FLAGS),
        *(pytest.param({}, ["pia-fit", "--tol", text],
                       "argument --tol: (must be a finite number >= 0|could not convert)",
                       id=f"pia-fit --tol {text}")
          for text in BAD_TOLERANCE_FLAGS),
        # one trial past the cap: trial index 2**32 needs a second entropy word
        pytest.param({}, ["tp-check", "--trials", str(MAX_TRIALS + 1)],
                     "argument --trials: must be at most 4294967296$", id="trials-cap"),
        # lists nested deeper than the JSON decoder's recursion limit
        pytest.param(b'{"nodes": ' + b"[" * 100000 + b"]" * 100000 + b"}", ["basis-eval"],
                     "config error: .*not valid JSON: maximum recursion depth exceeded",
                     id="deep-nesting"),
        # the array rule's table in every list field of a fit, where all are used
        *(pytest.param({name: make(good)}, ["pia-fit"], f"config error: {name} must be ",
                       id=f"pia-fit {name} {row}")
          for name, good in _CIRCLE_ARRAYS.items() for row, (make, _) in BAD_JSON_ARRAYS.items()),
    ],
)
def test_cli_bad_input_exits_2(tmp_path, monkeypatch, capsys, config, argv, msg):
    # in process: main returns 2 or argparse exits with 2, and an uncaught
    # exception would fail the test with its traceback
    if isinstance(config, bytes):
        path = tmp_path / "config.json"
        path.write_bytes(config)
    else:
        path = _circle_config(tmp_path, mode=None, **config)
    if argv[0] != "example":
        argv = argv + ["--config", str(path)]
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert re.search(msg, err.splitlines()[-1])
    assert not (tmp_path / "out").exists()


def test_cli_bad_input_exits_2_in_a_fresh_interpreter(tmp_path):
    # an uncaught exception would show as a traceback and exit status 1
    path = _circle_config(tmp_path, mode=None, weights=[0.5, 2.51, 5.5, 2.51, True])
    env = dict(os.environ, PYTHONPATH=str(Path(gtbezier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gtbezier.cli", "pia-fit", "--config", str(path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "config error: weights must be a list of finite numbers (found bool)")
    assert not (tmp_path / "out").exists()


# a small alphabet keeps hypothesis from building its unicode tables
_TEXT = st.text("aé\"\\", max_size=3)
_SCALARS = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | _TEXT
_NUMBERS = st.lists(st.integers(-3, 6) | st.floats(-1e3, 1e3) | st.floats()
                    | st.just(10**400), max_size=7)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["basis-eval", "tp-check", "pia-fit"]),
    overrides=st.dictionaries(
        st.sampled_from(["mode", "nodes", "coefficients", "scale", "weights", "points",
                         "params", "max_iter", "tol", "grid"]),
        _JSON | _NUMBERS | st.lists(_NUMBERS, max_size=6),
        max_size=3,
    ),
)
def test_fuzzed_config_ends_in_documented_exit_code(command, overrides):
    # a valid circle config with up to three fields replaced by random JSON;
    # integers stay small so that grids and iteration counts stay cheap
    with tempfile.TemporaryDirectory() as tmp:
        path = _circle_config(Path(tmp), **{"mode": None, **overrides})
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        if command == "tp-check":
            argv += ["--trials", "2"]
        assert cli.main(argv) in (0, 1, 2, 3, 4)


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path, "eval")


def test_config_negative_weight_is_config_error(tmp_path):
    path = _circle_config(tmp_path, mode="tp-check", weights=[0.5, -2.51, 5.5, 2.51, 0.22])
    with pytest.raises(ConfigError, match="weights"):
        load_config(path, "tp-check")
    # the CLI maps it to exit code 2 before running any trial
    assert cli.main(["tp-check", "--config", str(path), "--out", str(path.parent / "o")]) == 2


def test_format_float_round_trips():
    rng = np.random.default_rng(3)
    for x in rng.normal(size=20) * 10.0 ** rng.integers(-12, 12, size=20):
        assert float(format_float(x)) == x


# Writer byte identity: every writer's file equals a per-cell reference that
# formats one cell at a time, as the writers did before they formatted blocks;
# the numeric kernel's text equals format(x, ".17g") cell for cell.

_NEWLINE = np.array([ord("\n") << 24], "<u4")  # the kernel's separator word


def _kernel_matches_format(values):
    x = np.asarray(values, dtype=float)
    assert _format_cells(x, _NEWLINE).decode() == "".join(format(v, ".17g") + "\n" for v in x.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_kernel_matches_format_on_any_floats(values):
    # st.floats draws subnormals, both zeros, both infinities and NaNs
    _kernel_matches_format(values)


def _ties(rng):
    """Doubles m 2**-j (m odd) whose exact decimal expansion has 18
    significant digits ending in 5: ties at 17 digits, in fixed and in
    exponent notation."""
    ties = []
    for j in range(2, 26):
        low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        ties += [(2 * m + 1) / 2**j for m in rng.integers(low // 2, (high - 1) // 2, size=20).tolist()]
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return ties


def test_kernel_matches_format_on_sweeps():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    ties = _ties(np.random.default_rng(5))
    finfo = np.finfo(float)
    extremes = [finfo.max, finfo.tiny, finfo.smallest_subnormal, np.nextafter(finfo.tiny, 0)]
    for values in (neighbours, ties, extremes):
        _kernel_matches_format(values)
        _kernel_matches_format(np.negative(values))


def test_kernel_power_table_within_its_bound():
    powers = _tables()[0]
    for j, k in enumerate(range(_K_LOW, _K_LOW + powers.shape[1])):
        hi, head, tail, lo = powers[:, j].tolist()
        assert head + tail == hi
        exact = Fraction(10) ** k
        assert abs(exact - Fraction(hi) - Fraction(lo)) <= exact / 2**104


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, np.finfo(float).max,
                  -np.finfo(float).max, 1e16, 1e17, 0.1, 1 / 3, -2.5, 123456789.0)


def _reference_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format(float(c), ".17g") for c in row))
    return "\n".join(lines) + "\n"


def _reference_svg(curves, markers=(), title=None):
    """write_svg's document built one coordinate at a time."""
    stacked = np.vstack([np.asarray(p, dtype=float) for _, p, _ in curves]
                        + [np.asarray(m, dtype=float) for m in markers])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    lo, hi = lo - 0.05 * span, hi + 0.05 * span
    width, height = hi - lo
    stroke_w = 0.004 * max(width, height)
    f = lambda x: format(x, ".9g")  # noqa: E731
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{f(lo[0])} {f(-hi[1])} '
             f'{f(width)} {f(height)}">']
    if title:
        lines.append(f"  <title>{title}</title>")
    for label, pts, style in curves:
        d = " ".join(f"{'M' if i == 0 else 'L'} {f(x)} {f(-1.0 * y)}"
                     for i, (x, y) in enumerate(np.asarray(pts, dtype=float)))
        dash = style.get("dasharray")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lines.append(f'  <path d="{d}" fill="none" stroke="{style.get("stroke", "black")}" '
                     f'stroke-width="{f(stroke_w)}"{dash_attr}><title>{label}</title></path>')
    for mset in markers:
        for x, y in np.asarray(mset, dtype=float):
            lines.append(f'  <circle cx="{f(x)}" cy="{f(-y)}" r="{f(1.8 * stroke_w)}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _table(rows, width, seed):
    """rows x width doubles: the special values first, then random bit
    patterns (subnormals, infinities and NaNs among them)."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=rows * width, dtype=np.uint64)
    cells = bits.view(float)
    head = min(cells.size, len(SPECIAL_FLOATS))
    cells[:head] = SPECIAL_FLOATS[:head]
    return cells.reshape(rows, width)


@pytest.mark.parametrize("width", [1, 2, 32])
@pytest.mark.parametrize("rows, kernel_cells", [
    pytest.param(rows, cells, id=rows if cells == _KERNEL_CELLS else f"{rows}-pass{cells}")
    for cells in (_KERNEL_CELLS, 1, 33)
    for rows in ("zero", "one", "below", "at", "block", "block+1", "blocks")
    # at one row a pass every row ends a pass, at the crossover already
    if cells > 1 or rows in ("zero", "one", "below", "at")])
def test_write_csv_matches_per_cell_reference(tmp_path, monkeypatch, kernel_cells, width, rows):
    # below and at the crossover (1 cell below it, and at it, for width 1) the
    # table goes per cell and through the kernel; "blocks" spans three full
    # kernel passes of the default size and part of a fourth; the pass size
    # moves no byte, down to one row a pass
    monkeypatch.setattr(gtbezier.export, "_KERNEL_CELLS", kernel_cells)
    block = _BLOCK_CELLS // width
    count = {"zero": 0, "one": 1, "below": (_CROSSOVER - 1) // width, "at": -(-_CROSSOVER // width),
             "block": block, "block+1": block + 1, "blocks": 3 * (_KERNEL_CELLS // width) + 1}[rows]
    table = _table(count, width, seed=width * 7 + count)
    header = tuple(f"c{j}" for j in range(width))
    expected = _reference_csv(header, table)
    write_csv(tmp_path / "a.csv", header, table)
    write_csv(tmp_path / "l.csv", header, table.tolist())  # rows as lists go per cell
    assert (tmp_path / "a.csv").read_text() == expected
    assert (tmp_path / "l.csv").read_text() == expected
    if width == 2:
        write_points_csv(tmp_path / "p.csv", table)
        assert (tmp_path / "p.csv").read_text() == _reference_csv(("x", "y"), table)


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32])
def test_write_csv_of_int_bool_and_float32_arrays(tmp_path, dtype):
    small = {np.int64: ([[0]], "0"), np.bool_: ([[True, False]], "1,0"),
             np.float32: ([[1, 2]], "1,2")}[dtype]
    write_csv(tmp_path / "s.csv", ("a", "b")[:len(small[0][0])], np.array(small[0], dtype=dtype))
    assert (tmp_path / "s.csv").read_text().splitlines()[1] == small[1]
    # a table past the crossover: each cell as its float prints
    rng = np.random.default_rng(9)
    table = (rng.normal(size=(_CROSSOVER, 3)) * 1e6).astype(dtype)
    write_csv(tmp_path / "t.csv", ("a", "b", "c"), table)
    assert (tmp_path / "t.csv").read_text() == _reference_csv(("a", "b", "c"), table.tolist())


@pytest.mark.parametrize("length", [0, 1, _BLOCK_CELLS // 2 + 1])
def test_write_history_csv_matches_per_cell_reference(tmp_path, length):
    history = tuple(np.abs(_table(length, 1, seed=length).ravel()).tolist())
    write_history_csv(tmp_path / "h.csv", history)
    expected = _reference_csv(("iteration", "error"), [(str(k), e) for k, e in enumerate(history)])
    assert (tmp_path / "h.csv").read_text() == expected


def test_string_cell_rows_match_per_cell_reference(tmp_path):
    errors = _table(3, 4, seed=11)
    rows = [(label, *row) for label, row in zip(("gt", "bezier", "rational"), errors)]
    header = ("curve", "1", "5", "10", "20")
    write_csv(tmp_path / "e.csv", header, rows)
    assert (tmp_path / "e.csv").read_text() == _reference_csv(header, rows)
    header = ("trials", "failures", "worst_minor", "worst_case", "worst_rows", "worst_cols")
    for worst, case, rows, cols in ((-3.8e-125, "interior", "4;5;6", "12;13;14"),
                                    (np.inf, "", "", ""), (0.0, "left", "0", "1")):
        report = [("4000", "0", worst, case, rows, cols)]
        write_csv(tmp_path / "tp.csv", header, report)
        assert (tmp_path / "tp.csv").read_text() == _reference_csv(header, report)
    with pytest.raises(ValueError, match="same number of cells"):
        write_csv(tmp_path / "r.csv", ("a", "b"), [(1.0, 2.0), (3.0,)])


@pytest.mark.parametrize("points", [1, 2, _BLOCK_CELLS // 2 + 1])
def test_write_svg_matches_per_coordinate_reference(tmp_path, points):
    rng = np.random.default_rng(points)
    curve = rng.normal(size=(points, 2)) * 10.0 ** rng.integers(-8, 8, size=(points, 1))
    specials = np.array([v for v in SPECIAL_FLOATS if abs(v) < 1e30])
    curve.ravel()[:specials.size] = specials[:curve.size]
    polygon = rng.normal(size=(5, 2))
    markers = [rng.normal(size=(3, 2)), rng.normal(size=(points, 2))]
    curves = [("fit", curve, {"stroke": "#d62728"}),
              ("control", polygon, {"stroke": "#888888", "dasharray": "1.5% 1.5%"})]
    for title in ("pia fit", None):
        write_svg(tmp_path / "c.svg", curves, markers=markers, title=title)
        assert (tmp_path / "c.svg").read_text() == _reference_svg(curves, markers, title)


def test_basis_eval_rows_sum_to_one(tmp_path):
    path = _circle_config(tmp_path, mode="eval")
    out = tmp_path / "basis_out"
    assert cli.main(["basis-eval", "--config", str(path), "--grid", "3", "--out", str(out)]) == 0
    lines = (out / "basis.csv").read_text().splitlines()
    assert lines[0] == "t,T0,T1,T2,T3,T4"
    assert len(lines) == 4
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")[1:]]
        assert abs(sum(vals) - 1.0) < 1e-12


def test_basis_eval_grid_of_one_gives_endpoint_row(tmp_path):
    path = _circle_config(tmp_path, mode="eval")
    out = tmp_path / "one"
    assert cli.main(["basis-eval", "--config", str(path), "--grid", "1", "--out", str(out)]) == 0
    row = (out / "basis.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == 0.0
    assert [float(v) for v in row[1:]] == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_basis_eval_example_grid(tmp_path):
    path = _circle_config(tmp_path, mode="eval")
    out = tmp_path / "grid101"
    assert cli.main(["basis-eval", "--config", str(path), "--out", str(out)]) == 0
    assert len((out / "basis.csv").read_text().splitlines()) == 102


def test_tp_check_pass_and_report(tmp_path, capsys):
    # the whole stdout and report, pinned on the circle and the helix. Every
    # boundary trial of the circle has a zero minor, so its worst witness is
    # a left trial's; the helix is judged without the unit rows, and its
    # witness, in left trial 1, is that trial's own verdict's, whose
    # determinant (its last bits follow the basis's SIMD exp) is 120-digit
    # mpmath's to 1e-9
    from oracles import mp_det, reference_draws

    circle = _circle_config(tmp_path, mode="tp-check")
    prob = datasets.helix_problem()
    helix = _problem_config(tmp_path / "helix.json", prob, "tp-check")
    params = reference_draws(0, [1], ["left"], *prob.nodeset.domain, prob.nodeset.size)[0]
    trial = gtbezier.rational_collocation_matrix(prob.nodeset, prob.weights, params)
    witness = gtbezier.is_totally_positive(trial).witness
    assert witness[:2] == (tuple(range(1, 8)), tuple(range(24, 31)))
    assert witness[2] == pytest.approx(float(mp_det(trial[1:8, 24:], 120)), rel=1e-9)
    assert witness[2] == pytest.approx(3.1029972447633977e-281, rel=1e-9)
    helix_minor = format_float(witness[2])
    for path, args, trials, minor, rows, cols in (
            (circle, ["--trials", "20", "--seed", "5"], 20, "0", [0], [1]),
            (helix, ["--trials", "3"], 3, helix_minor, range(1, 8), range(24, 31))):
        out = tmp_path / path.stem
        rows, cols = ";".join(map(str, rows)), ";".join(map(str, cols))
        assert cli.main(["tp-check", "--config", str(path), *args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"PASS: {trials} trials, 0 failures\n"
            f"worst minor {minor} (case left, rows [{rows}], cols [{cols}])\n"
            f"wrote {out / 'tp_report.csv'}\n")
        assert (out / "tp_report.csv").read_bytes() == (
            b"trials,failures,worst_minor,worst_case,worst_rows,worst_cols\n"
            + f"{trials},0,{minor},left,{rows},{cols}\n".encode())


def test_tp_check_failure_exit_code(tmp_path, monkeypatch):
    path = _circle_config(tmp_path, mode="tp-check")
    fake = NtpSuiteReport(
        trials=4, worst_witness=((0, 1), (0, 1), -0.5), worst_case="interior",
        failed_trials=((0, "interior"),),
    )
    monkeypatch.setattr(cli, "verify_ntp_suite", lambda *a, **k: fake)
    assert cli.main(["tp-check", "--config", str(path), "--out", str(tmp_path / "f")]) == 1


def _run_twice(tmp_path, args):
    """Run a command twice, into two directories, and check that both runs
    wrote the same files byte for byte; the first directory."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main([*args, "--out", str(out1)]) == 0
    assert cli.main([*args, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    return out1


def test_pia_fit_outputs_and_determinism(tmp_path):
    path = _circle_config(tmp_path)
    out1 = _run_twice(tmp_path, ["pia-fit", "--config", str(path)])
    assert sorted(p.name for p in out1.iterdir()) == [
        "control.csv", "curve.csv", "curve.svg", "history.csv"]
    history = (out1 / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,error"
    assert len(history) == 21  # 20 iterations

    final = float(history[-1].split(",")[1])
    assert final == pytest.approx(1.8e-3, rel=10.0)


def _problem_config(path, prob, mode, **extra):
    cfg = {"mode": mode, "nodes": prob.nodeset.nodes.tolist(),
           "coefficients": prob.nodeset.coefficients.tolist(), "scale": prob.nodeset.scale,
           "weights": prob.weights.tolist(), "points": prob.data.tolist(),
           "params": prob.params.tolist(), **extra}
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("which", ["circle", "helix"])
def test_basis_eval_tables_pinned(tmp_path, which):
    prob = {"circle": datasets.circle_problem, "helix": datasets.helix_problem}[which]()
    # a rerun writes the same bytes, and the table parses back to the t grid
    # and the library's basis there (17 significant digits round-trip a double)
    path = _problem_config(tmp_path / "eval.json", prob, "eval")
    out = _run_twice(tmp_path, ["basis-eval", "--config", str(path), "--grid", "10001"])
    header = ",".join(["t"] + [f"T{j}" for j in range(prob.nodeset.size)])
    assert (out / "basis.csv").read_text().startswith(header + "\n")
    table = np.loadtxt(out / "basis.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], np.linspace(*prob.nodeset.domain, 10001))
    np.testing.assert_array_equal(table[:, 1:],
                                  rational_basis_matrix(prob.nodeset, prob.weights, table[:, 0]))


def _basis_eval(tmp_path, prob, grid, capsys):
    """Run basis-eval on prob's node set at grid; the table read back and the
    printed max |row sum - 1|."""
    path = _problem_config(tmp_path / "eval.json", prob, "eval")
    out = tmp_path / f"grid-{grid}"
    assert cli.main(["basis-eval", "--config", str(path), "--grid", str(grid), "--out", str(out)]) == 0
    dev = capsys.readouterr().out.splitlines()[-1].removeprefix("max |row sum - 1| = ")
    return np.loadtxt(out / "basis.csv", delimiter=",", skiprows=1, ndmin=2), dev


@pytest.mark.parametrize("which", ["circle", "helix"])
def test_basis_eval_stream_edges(tmp_path, which, capsys):
    # the table is written a block of _EVAL_ROWS rows at a time, each block in
    # kernel passes of _KERNEL_CELLS // width rows (a last block below
    # _CROSSOVER cells per cell): grids on each side of both edges give the
    # whole grid's table and the whole table's row-sum deviation
    prob = {"circle": datasets.circle_problem, "helix": datasets.helix_problem}[which]()
    pass_rows = _KERNEL_CELLS // (prob.nodeset.size + 1)
    eval_rows = cli._EVAL_ROWS
    for grid in (1, 2, eval_rows - 1, eval_rows, eval_rows + 1, pass_rows - 1, pass_rows + 1):
        table, dev = _basis_eval(tmp_path, prob, grid, capsys)
        ts = np.linspace(*prob.nodeset.domain, grid)
        basis = rational_basis_matrix(prob.nodeset, prob.weights, ts)
        np.testing.assert_array_equal(table[:, 0], ts)
        np.testing.assert_array_equal(table[:, 1:], basis)
        assert dev == format_float(np.max(np.abs(basis.sum(axis=1) - 1.0)))


def test_basis_eval_holds_one_block(tmp_path):
    # the command once held the whole (grid, n + 1) table, a traced peak of
    # 28 MB at this grid; it holds the t grid, one buffer of _EVAL_ROWS
    # rows and one kernel pass (within its 2 MiB budget), whatever the grid
    prob = datasets.helix_problem()
    path = _problem_config(tmp_path / "eval.json", prob, "eval")
    grid, out, width = 100001, tmp_path / "table", prob.nodeset.size + 1
    ts = np.linspace(*prob.nodeset.domain, _KERNEL_CELLS // width)
    cells = np.column_stack([ts, rational_basis_matrix(prob.nodeset, prob.weights, ts)]).ravel()
    seps = (np.array([ord(",")] * (width - 1) + [ord("\n")]) << 24).astype("<u4")
    # the kernel's tables and the command's first-call state, built once per process
    _tables()
    assert cli.main(["basis-eval", "--config", str(path), "--grid", "11", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        _format_cells(cells, seps)
        kernel_pass = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert cli.main(["basis-eval", "--config", str(path), "--grid", str(grid),
                         "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (out / "basis.csv").unlink()  # about 75 MB
    assert kernel_pass <= 2**21
    assert peak <= 1.25 * (grid * 8 + cli._EVAL_ROWS * width * 8 + kernel_pass)


def test_pia_fit_helix_outputs_pinned(tmp_path):
    # the helix fit to 1e-4: the command writes the library's run exactly
    # (17 significant digits round-trip a double), in 7938 steps, with the
    # history and controls bounded against the long-double oracle by the float
    # step loop's own errors there; a rerun writes the same bytes
    prob = datasets.helix_problem()
    path = _problem_config(tmp_path / "helix.json", prob, "fit", max_iter=100000, tol=1e-4)
    out = _run_twice(tmp_path, ["pia-fit", "--config", str(path)])
    control = np.loadtxt(out / "control.csv", delimiter=",", skiprows=1)
    history = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1)
    assert (out / "control.csv").read_text().startswith("x,y,z\n")
    assert (out / "history.csv").read_text().startswith("iteration,error\n")
    np.testing.assert_array_equal(history[:, 0], np.arange(7938))
    state = pia_run(prob, max_iter=100000, tol=1e-4)
    np.testing.assert_array_equal(control, state.control)
    np.testing.assert_array_equal(history[:, 1], state.error_history)
    history_error, control_error = pia_errors(prob, control, history[:, 1])
    assert history_error <= HELIX_FIT_STEP_LOOP_ERRORS[0]
    assert control_error <= 2 * HELIX_FIT_STEP_LOOP_ERRORS[1]


def _fit_stdout(state, out, k):
    """pia-fit's whole stdout for a run's state, its contraction taken over
    the last k steps (none for k = 0)."""
    errors = state.error_history
    lines = [f"ran {state.iteration} iterations, final error {format_float(errors[-1])}"]
    if k:
        ratio = format_float((errors[-1] / errors[-1 - k]) ** (1 / k))
        lines.append(f"observed contraction over the last {k} steps: {ratio}")
    return "\n".join([*lines, f"wrote outputs under {out}", ""])


def test_pia_fit_prints_the_observed_contraction(tmp_path, capsys):
    # (e_last / e_(last - k))^(1/k) over the last k = min(32, steps - 1)
    # steps. The circle's 121 steps to 1e-10 have reached its asymptotic rate,
    # 1 - lambda_min of the stored C by a test-side eigensolve, to 1e-7; the
    # helix's 7938 steps to 1e-4 stop far from its 1 - 2.5e-12
    circle = _circle_config(tmp_path, max_iter=1000, tol=1e-10)
    helix = _problem_config(tmp_path / "helix.json", datasets.helix_problem(), "fit",
                            max_iter=100000, tol=1e-4)
    lam = float(np.linalg.eigvals(_PROBLEM.collocation).real.min())
    for path, steps, shown, ratio, abs_tol in ((circle, 121, "0.8471672013", 1 - lam, 1e-7),
                                               (helix, 7938, "0.99990554", 0.999905547, 1e-6)):
        out = tmp_path / path.stem
        code, stdout = _main(["pia-fit", "--config", str(path), "--out", str(out)], capsys)
        cfg = load_config(path, "fit")
        state = pia_run(cfg.problem, cfg.max_iter, cfg.tol)
        assert code == 0 and state.iteration == steps
        assert stdout == _fit_stdout(state, out, 32)
        line = stdout.splitlines()[1]
        assert line.startswith(f"observed contraction over the last 32 steps: {shown}")
        assert float(line.rsplit(" ", 1)[1]) == pytest.approx(ratio, abs=abs_tol)
    # shorter runs take every step they have, and one step gives no line
    for iterations, k in ((5, 4), (2, 1), (1, 0)):
        out = tmp_path / f"short{iterations}"
        code, stdout = _main(["pia-fit", "--config", str(circle), "--iterations", str(iterations),
                              "--out", str(out)], capsys)
        assert code == 0
        assert stdout == _fit_stdout(pia_run(_PROBLEM, iterations, 1e-10), out, k)
    assert "contraction" not in stdout


@pytest.mark.parametrize("mode, argv", [
    ("eval", ["basis-eval", "--grid", "11"]),
    ("tp-check", ["tp-check", "--trials", "4"]),
    ("fit", ["pia-fit"]),
    (None, ["example", "circle", "--iterations", "5"]),
    (None, ["example", "helix", "--iterations", "5"]),
], ids=["basis-eval", "tp-check", "pia-fit", "example-circle", "example-helix"])
def test_no_command_prints_a_spectral_radius(tmp_path, capsys, mode, argv):
    config = ["--config", str(_circle_config(tmp_path, mode=mode))] if mode else []
    code, stdout = _main([*argv, *config, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert "spectral radius" not in stdout


def test_pia_fit_divergence_exit_code(tmp_path, monkeypatch):
    path = _circle_config(tmp_path)

    def boom(*a, **k):
        raise DivergenceError("test")

    monkeypatch.setattr(cli, "pia_run", boom)
    assert cli.main(["pia-fit", "--config", str(path), "--out", str(tmp_path / "d")]) == 4


def test_missing_config_is_io_error(tmp_path):
    assert cli.main(["pia-fit", "--config", str(tmp_path / "nope.json")]) == 3


def test_unwritable_out_is_io_error(tmp_path):
    path = _circle_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = cli.main(["pia-fit", "--config", str(path), "--out", str(blocker / "sub")])
    assert code == 3


def _count_parsers(monkeypatch):
    """A list that gains one entry for each argparse.ArgumentParser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def _fit_argv(tmp_path):
    """A pia-fit command line on the circle config, writing under tmp_path."""
    return ["pia-fit", "--config", str(_circle_config(tmp_path)), "--out", str(tmp_path / "fit")]


def _main(argv, capsys):
    """cli.main's exit code and stdout on argv."""
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_parser_is_built_once(tmp_path, monkeypatch, capsys):
    fit = _fit_argv(tmp_path)
    cli._parser.cache_clear()
    built = _count_parsers(monkeypatch)
    first = _main(fit, capsys)
    assert first[0] == 0
    assert len(built) == 5  # the parser and one per subcommand
    assert _main(fit, capsys) == first
    assert len(built) == 5


@pytest.mark.parametrize("argv, code", [
    (["pia-fit", "--iterations", "0"], 2),
    (["no-such-command"], 2),
    (["--help"], 0),
    (["pia-fit", "--help"], 0),
])
def test_parser_is_reused_after_it_exits(tmp_path, monkeypatch, capsys, argv, code):
    # argparse ends an argument error (exit 2) and --help (exit 0) with
    # SystemExit; the parser says the same again, and the next command
    # parses and runs on it
    fit = _fit_argv(tmp_path)
    first = _main(fit, capsys)
    assert first[0] == 0
    built = _count_parsers(monkeypatch)
    said = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *fit[1:3]])  # with the fit's --config
        assert exc.value.code == code
        said.append(capsys.readouterr())
    assert said[0] == said[1]
    assert _main(fit, capsys) == first
    assert not built


def test_command_is_looked_up_at_call_time(tmp_path, monkeypatch):
    # the parser is built by the first command; a cmd_* patched in later
    # (or wrapped by a tracer) is the one that runs
    fit = _fit_argv(tmp_path)
    assert cli.main(fit) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_pia_fit", lambda args: seen.append(args.config) or 7)
    assert cli.main(fit) == 7
    assert seen == [fit[2]]


def test_repeated_commands_hold_no_more_memory(tmp_path):
    # a parser built per command left 70 KB traced after these 200 fits, 2 KB
    # with one parser: the option names each build formats afresh, held by
    # CPython's type attribute cache, and its resident set grew with the
    # number of commands
    fit = _fit_argv(tmp_path)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(fit) == 0

    run()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            run()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth <= 16 * 1024


def test_example_circle_outputs(tmp_path):
    out = tmp_path / "circle"
    assert cli.main(["example", "circle", "--out", str(out)]) == 0
    table = (out / "circle_errors.csv").read_text().splitlines()
    assert table[0] == "curve,1,5,10,20"
    assert [line.split(",")[0] for line in table[1:]] == ["gt", "bezier", "rational"]
    # each row holds its curve's history errors after 1, 5, 10 and 20
    # updates: history lines 1, 5, 10 and 20 (iteration indices 0, 4, 9, 19)
    for line in table[1:]:
        label, *errors = line.split(",")
        history = (out / f"circle_{label}_history.csv").read_text().splitlines()
        assert errors == [history[c].split(",")[1] for c in (1, 5, 10, 20)]
    svg = (out / "circle.svg").read_text()
    assert svg.startswith("<?xml")
    assert "viewBox=" in svg
    assert svg.count("<path") == 6  # three curves + three control polygons
    assert "stroke-dasharray" in svg


def test_example_circle_zero_iterations(tmp_path):
    out = tmp_path / "init"
    assert cli.main(["example", "circle", "--iterations", "0", "--out", str(out)]) == 0
    assert not (out / "circle_errors.csv").exists()
    assert (out / "circle_gt_curve.csv").exists()
    assert (out / "circle_gt_history.csv").read_text() == "iteration,error\n"
    # initial control points are the data samples
    rows = (out / "circle_gt_control.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in r.split(",")] for r in rows])
    np.testing.assert_allclose(got, datasets.circle_samples(), atol=1e-15)


def test_example_helix_outputs(tmp_path):
    out = tmp_path / "helix"
    assert cli.main(["example", "helix", "--out", str(out)]) == 0
    table = (out / "helix_errors.csv").read_text().splitlines()
    assert table[0] == "curve,1,10,20,30"
    assert len(table) == 3
    assert not (out / "helix.svg").exists()  # 3D data exports as CSV only
    curve_rows = (out / "helix_gt_curve.csv").read_text().splitlines()
    assert curve_rows[0] == "x,y,z"
    assert len(curve_rows) == cli.POLYLINE_SAMPLES + 1
