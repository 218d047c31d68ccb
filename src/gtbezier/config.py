"""JSON run configurations for the command-line front end.

A config is a single JSON object; list entries must be finite JSON numbers
and are parsed as doubles. Fields:

    mode          "fit" | "eval" | "tp-check" (optional; checked against
                  the subcommand when present)
    nodes         required list of node values
    coefficients  optional, default 1 per node
    scale         optional positive number, default 1
    weights       optional, default 1 per node
    points        control or data points (list of [x, y] or [x, y, z])
    params        fit parameters, one per point
    max_iter      optional integer, default 20
    tol           optional number, default 0
    grid          optional integer grid size for basis tables, default 101,
                  at most cli.MAX_GRID
"""

import json
import math
from dataclasses import dataclass, fields

from .basis import NodeSet, validate_weights
from .pia import FitProblem


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _is_finite_number(value) -> bool:
    # exact type test: JSON true/false load as bool, a subclass of int
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_number_list(value) -> bool:
    return type(value) is list and all(_is_finite_number(v) for v in value)


_MODES = ("fit", "eval", "tp-check")


@dataclass
class RunConfig:
    mode: str | None = None
    nodes: list | None = None
    coefficients: list | None = None
    scale: float = 1.0
    weights: list | None = None
    points: list | None = None
    params: list | None = None
    max_iter: int = 20
    tol: float = 0.0
    grid: int = 101


_FIELDS = tuple(f.name for f in fields(RunConfig))


def load_config(path) -> RunConfig:
    """Load and structurally validate a JSON config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        # JSONDecodeError, UnicodeDecodeError and the int-digits limit
        # (a JSON integer of more than 4300 digits) are all ValueErrors
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown config fields {sorted(unknown)}")
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
    cfg = RunConfig(**raw)
    if cfg.mode is not None and cfg.mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {cfg.mode!r}")
    if cfg.nodes is None:
        raise ConfigError("config requires a 'nodes' field")
    if cfg.max_iter < 1:
        raise ConfigError("max_iter must be at least 1")
    if cfg.tol < 0:
        raise ConfigError("tol must be non-negative")
    if cfg.grid < 1:
        raise ConfigError("grid must be at least 1")
    return cfg


def config_node_set(cfg: RunConfig) -> NodeSet:
    try:
        return NodeSet(cfg.nodes, cfg.coefficients, cfg.scale)
    except ValueError as exc:
        raise ConfigError(f"invalid node set: {exc}") from exc


def config_weights(cfg: RunConfig, ns: NodeSet):
    try:
        return validate_weights(ns, cfg.weights)
    except ValueError as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc


def config_fit_problem(cfg: RunConfig) -> FitProblem:
    ns = config_node_set(cfg)
    w = config_weights(cfg, ns)
    if cfg.points is None:
        raise ConfigError("fit config requires a 'points' field")
    if cfg.params is None:
        raise ConfigError("fit config requires a 'params' field")
    try:
        return FitProblem(cfg.points, cfg.params, ns, w)
    except ValueError as exc:
        raise ConfigError(f"invalid fit problem: {exc}") from exc
