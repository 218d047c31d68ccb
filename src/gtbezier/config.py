"""JSON run configurations for the command-line front end.

load_config is the one step from a config file and a command's flags to
the library's inputs. A config is a single JSON object. Fields:

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
    max_iter      optional integer >= 1, default 20
    tol           optional finite number >= 0, default 0
    grid          optional integer >= 1, rows of basis tables, default 101,
                  at most MAX_GRID rows and MAX_BASIS_VALUES values in all

A command flag that is given (--grid, --iterations, --tol) takes the place
of its field before any field is checked. The library's rules check every
field as its functions do: basis._index the counts (max_iter, grid),
basis._tolerance tol and scale, and the array rule basis._reals each list
field present, in every mode (finite real numbers, never JSON true/false,
text or null, nested as deep as the field requires).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import NodeSet, _index, _reals, _tolerance, validate_weights
from .pia import FitProblem

MAX_GRID = 10**6  # basis-eval rows; far above any table worth writing
MAX_BASIS_VALUES = 32 * MAX_GRID  # basis-eval values: 32 functions at MAX_GRID rows
MAX_FIT_NODES = math.isqrt(MAX_BASIS_VALUES)  # a collocation matrix of as many values
# an NTP trial's verdict is one Neville elimination per column offset, about
# n**4 / 8 multiply-adds: 21 ms at 64 nodes (2-core x86-64, one BLAS thread)
MAX_TP_NODES = 64

_DEFAULTS = {"mode": None, "nodes": None, "coefficients": None, "scale": 1.0,
             "weights": None, "points": None, "params": None, "max_iter": 20,
             "tol": 0.0, "grid": 101}
_ARRAYS = {"nodes": 1, "coefficients": 1, "weights": 1, "points": 2, "params": 1}  # depths


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A command's checked inputs. problem is None unless the mode is fit."""

    nodeset: NodeSet
    weights: np.ndarray
    problem: FitProblem | None
    max_iter: int
    tol: float
    grid: int


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
        # (a JSON integer of more than 4300 digits) are all ValueErrors;
        # lists nested past the recursion limit raise RecursionError
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"{path}: unknown config fields {sorted(unknown)}")
    flags = {"grid": grid, "max_iter": max_iter, "tol": tol}
    raw.update((name, value) for name, value in flags.items() if value is not None)
    cfg = {**_DEFAULTS, **raw}
    if cfg["mode"] is not None and cfg["mode"] != mode:
        raise ConfigError(f"config has mode {cfg['mode']!r} but the command expects {mode!r}")
    for name in ("nodes", "points", "params") if mode == "fit" else ("nodes",):
        if name not in raw:
            raise ConfigError(f"{mode} config requires a '{name}' field")
    try:
        max_iter = _index(cfg["max_iter"], "max_iter", 1)
        tol = _tolerance(cfg["tol"], "tol")
        cfg.update((name, _reals(raw[name], name, ndim)) for name, ndim in _ARRAYS.items()
                   if name in raw)
        ns = NodeSet(cfg["nodes"], cfg["coefficients"], cfg["scale"])
        max_nodes = {"fit": MAX_FIT_NODES, "tp-check": MAX_TP_NODES}.get(mode)
        if max_nodes is not None and ns.size > max_nodes:
            raise ConfigError(f"{mode} config has {ns.size} nodes, at most {max_nodes} allowed")
        grid = _index(cfg["grid"], "grid", 1, min(MAX_GRID, MAX_BASIS_VALUES // ns.size))
        weights = validate_weights(ns, cfg["weights"])
        problem = FitProblem(cfg["points"], cfg["params"], ns, weights) if mode == "fit" else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(ns, weights, problem, max_iter, tol, grid)
