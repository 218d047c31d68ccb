"""JSON run configurations for the command-line front end.

load_config is the one step from a config file and a command's flags to
the library's inputs. A config is a single JSON object; list entries must
be finite JSON numbers and are parsed as doubles. Fields:

    mode          "fit" | "eval" | "tp-check" (optional); when present and
                  not null it must be the command's mode
    nodes         required list of node values; at most MAX_FIT_NODES in fit
                  mode and MAX_TP_NODES in tp-check mode
    coefficients  optional, default 1 per node
    scale         optional positive number, default 1; scale times the node
                  span at most basis.MAX_EXPONENT_SPAN
    weights       optional, default 1 per node
    points        control or data points (list of [x, y] or [x, y, z]);
                  required in fit mode
    params        fit parameters, one per point; required in fit mode
    max_iter      optional integer, default 20
    tol           optional number, default 0
    grid          optional integer grid size for basis tables, default 101,
                  at most MAX_GRID rows and MAX_BASIS_VALUES values in all

A command flag that is given (--grid, --iterations, --tol) takes the place
of its field before any field is checked.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import NodeSet, validate_weights
from .pia import FitProblem

MAX_GRID = 10**6  # basis-eval rows; far above any table worth writing
MAX_BASIS_VALUES = 32 * MAX_GRID  # basis-eval values: 32 functions at MAX_GRID rows
MAX_FIT_NODES = math.isqrt(MAX_BASIS_VALUES)  # a collocation matrix of as many values
# an NTP trial's window verdict costs about n**6 / 180 flops: 0.8 s at 64 nodes
MAX_TP_NODES = 64

_DEFAULTS = {"mode": None, "nodes": None, "coefficients": None, "scale": 1.0,
             "weights": None, "points": None, "params": None, "max_iter": 20,
             "tol": 0.0, "grid": 101}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A command's checked inputs. problem is None unless the mode is fit."""

    nodeset: NodeSet
    weights: np.ndarray
    problem: FitProblem | None
    max_iter: int
    tol: float
    grid: int


def _is_finite_number(value) -> bool:
    # exact type test: JSON true/false load as bool, a subclass of int
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_number_list(value) -> bool:
    return type(value) is list and all(_is_finite_number(v) for v in value)


def load_config(path, mode, *, grid=None, max_iter=None, tol=None) -> RunConfig:
    """Load a JSON config for a command of the given mode and check it.

    Each flag that is not None takes the place of its field. Raises
    ConfigError for anything the config, the flags or the library's
    constructors reject; builds the fit problem in fit mode only.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        # JSONDecodeError, UnicodeDecodeError and the int-digits limit
        # (a JSON integer of more than 4300 digits) are all ValueErrors
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"{path}: unknown config fields {sorted(unknown)}")
    flags = {"grid": grid, "max_iter": max_iter, "tol": tol}
    raw.update((name, value) for name, value in flags.items() if value is not None)
    for name in ("max_iter", "grid"):
        if name in raw and type(raw[name]) is not int:
            raise ConfigError(f"{name} must be an integer, got {raw[name]!r}")
    for name in ("scale", "tol"):
        if name in raw and not _is_finite_number(raw[name]):
            raise ConfigError(f"{name} must be a finite number, got {raw[name]!r}")
    for name in ("nodes", "coefficients", "weights", "params"):
        if name in raw and not _is_number_list(raw[name]):
            raise ConfigError(f"{name} must be a list of finite numbers, got {raw[name]!r}")
    points = raw.get("points", [])
    if type(points) is not list or not all(_is_number_list(p) for p in points):
        raise ConfigError(f"points must be a list of lists of finite numbers, got {points!r}")
    cfg = {**_DEFAULTS, **raw}
    if cfg["mode"] is not None and cfg["mode"] != mode:
        raise ConfigError(f"config has mode {cfg['mode']!r} but the command expects {mode!r}")
    if cfg["nodes"] is None:
        raise ConfigError("config requires a 'nodes' field")
    max_nodes = {"fit": MAX_FIT_NODES, "tp-check": MAX_TP_NODES}.get(mode)
    if max_nodes is not None and len(cfg["nodes"]) > max_nodes:
        raise ConfigError(f"{mode} config has {len(cfg['nodes'])} nodes, at most {max_nodes} allowed")
    if cfg["max_iter"] < 1:
        raise ConfigError("max_iter must be at least 1")
    if cfg["tol"] < 0:
        raise ConfigError("tol must be non-negative")
    if cfg["grid"] < 1:
        raise ConfigError("grid must be at least 1")
    max_grid = min(MAX_GRID, MAX_BASIS_VALUES // max(1, len(cfg["nodes"])))
    if cfg["grid"] > max_grid:
        raise ConfigError(f"grid must be at most {max_grid}")
    if mode == "fit":
        for name in ("points", "params"):
            if cfg[name] is None:
                raise ConfigError(f"fit config requires a '{name}' field")
    try:
        ns = NodeSet(cfg["nodes"], cfg["coefficients"], cfg["scale"])
        weights = validate_weights(ns, cfg["weights"])
        problem = FitProblem(cfg["points"], cfg["params"], ns, weights) if mode == "fit" else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(ns, weights, problem, cfg["max_iter"], cfg["tol"], cfg["grid"])
