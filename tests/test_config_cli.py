"""Tests for config loading, CSV/SVG export, and the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gtbezier
import gtbezier.cli as cli
from gtbezier import datasets
from gtbezier.config import ConfigError, load_config
from gtbezier.export import (
    _BLOCK_CELLS,
    format_float,
    write_csv,
    write_history_csv,
    write_points_csv,
    write_svg,
)
from gtbezier.pia import DivergenceError
from gtbezier.totalpos import NtpSuiteReport


def _circle_config(tmp_path, mode="fit", **overrides):
    prob = datasets.circle_problem()
    cfg = {
        "mode": mode,
        "nodes": prob.nodeset.nodes.tolist(),
        "coefficients": prob.nodeset.coefficients.tolist(),
        "scale": prob.nodeset.scale,
        "weights": prob.weights.tolist(),
        "points": prob.data.tolist(),
        "params": prob.params.tolist(),
        "max_iter": 20,
    }
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
    ],
)
def test_config_structural_errors(tmp_path, payload, msg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=msg):
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
    ],
)
def test_cli_bad_input_exits_2(tmp_path, config, argv, msg):
    # a fresh interpreter, so that an uncaught exception would show as a
    # traceback and exit status 1
    if isinstance(config, bytes):
        path = tmp_path / "config.json"
        path.write_bytes(config)
    else:
        path = _circle_config(tmp_path, mode=None, **config)
    if argv[0] != "example":
        argv = argv + ["--config", str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(gtbezier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gtbezier.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert re.search(msg, proc.stderr.splitlines()[-1])
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
# formats one cell at a time, as the writers did before they formatted blocks.

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


@pytest.mark.parametrize("width", [2, 32])
@pytest.mark.parametrize("rows", ["zero", "one", "block", "block+1"])
def test_write_csv_matches_per_cell_reference(tmp_path, width, rows):
    block = _BLOCK_CELLS // width
    count = {"zero": 0, "one": 1, "block": block, "block+1": block + 1}[rows]
    table = _table(count, width, seed=width * 7 + count)
    header = tuple(f"c{j}" for j in range(width))
    expected = _reference_csv(header, table)
    write_csv(tmp_path / "a.csv", header, table)
    write_csv(tmp_path / "l.csv", header, table.tolist())  # rows as lists take the same path
    assert (tmp_path / "a.csv").read_text() == expected
    assert (tmp_path / "l.csv").read_text() == expected
    if width == 2:
        write_points_csv(tmp_path / "p.csv", table)
        assert (tmp_path / "p.csv").read_text() == _reference_csv(("x", "y"), table)


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


def test_tp_check_pass_and_report(tmp_path):
    path = _circle_config(tmp_path, mode="tp-check")
    out = tmp_path / "tp"
    code = cli.main(
        ["tp-check", "--config", str(path), "--trials", "20", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    header, row = (out / "tp_report.csv").read_text().splitlines()
    assert header.startswith("trials,failures,worst_minor")
    assert row.split(",")[0] == "20" and row.split(",")[1] == "0"


def test_tp_check_failure_exit_code(tmp_path, monkeypatch):
    path = _circle_config(tmp_path, mode="tp-check")
    fake = NtpSuiteReport(
        trials=4, failures=1, worst_minor=-0.5,
        worst_witness=((0, 1), (0, 1), -0.5), worst_case="interior",
        failed_trials=((0, "interior"),),
    )
    monkeypatch.setattr(cli, "verify_ntp_suite", lambda *a, **k: fake)
    assert cli.main(["tp-check", "--config", str(path), "--out", str(tmp_path / "f")]) == 1


def test_pia_fit_outputs_and_determinism(tmp_path):
    path = _circle_config(tmp_path)
    out1, out2 = tmp_path / "fit1", tmp_path / "fit2"
    assert cli.main(["pia-fit", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["pia-fit", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("control.csv", "history.csv", "curve.csv", "curve.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    history = (out1 / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,error"
    assert len(history) == 21  # 20 iterations

    final = float(history[-1].split(",")[1])
    assert final == pytest.approx(1.8e-3, rel=10.0)


# sha256 of the helix fit to 1e-4, with C built as the softmax in
# s(t) = log(t - a_0) - log(a_n - t) and steps equal to taking one update at a
# time: a change to the basis or the loop that moves one bit fails here
HELIX_FIT_SHA256 = {
    "control.csv": "ddbd3c6c6300aacf2051a0174a459c790ffcff13fcacec102728fec0835b22a3",
    "history.csv": "9857c2aefd539a6736e82dbaaf7a455fcba85f24a4402b59aea650d9d8be8997",
}


def test_pia_fit_helix_outputs_pinned(tmp_path):
    prob = datasets.helix_problem()
    cfg = {"mode": "fit", "nodes": prob.nodeset.nodes.tolist(),
           "coefficients": prob.nodeset.coefficients.tolist(), "scale": prob.nodeset.scale,
           "weights": prob.weights.tolist(), "points": prob.data.tolist(),
           "params": prob.params.tolist(), "max_iter": 100000, "tol": 1e-4}
    path = tmp_path / "helix.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fit"
    assert cli.main(["pia-fit", "--config", str(path), "--out", str(out)]) == 0
    for name, digest in HELIX_FIT_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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
