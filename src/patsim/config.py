"""Run configuration: defaults, validity rules, key=value config files, flag overrides.

Precedence is command-line flags over config file over defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from . import tables, vocab
from .errors import BadConfig, InputFault

REPRESENTATIONS = ("timeseries", "aggregation")
WEIGHTINGS = ("gd", "none", "manual", "chi2", "infogain", "gini")
FEATURE_SETS = ("all", "dynamic_only", "static_only")
PREDICTION_MODES = ("majority", "weighted")
KINDS = ("knn", "majority", "linear")

_CHOICES = {
    "representation": REPRESENTATIONS,
    "weighting": WEIGHTINGS,
    "features": FEATURE_SETS,
    "mode": PREDICTION_MODES,
    "kind": KINDS,
}


_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)
_RULES = {
    "k": _AT_LEAST_1,
    "max_epochs": _AT_LEAST_1,
    "patience": _AT_LEAST_1,
    "learning_rate": _POSITIVE,
    "min_relative_improvement": _POSITIVE,
    "folds": ("at least 2", lambda v: v >= 2),
    "threshold": ("in (0, 1)", lambda v: 0 < v < 1),
}


def check_choices(**values) -> None:
    """Reject any setting in `values`, named as in RunConfig, that breaks its choices or rule.

    The grid rule: a positive window divides the horizon, of at most vocab.HORIZON_HOURS.
    """
    for name, allowed in _CHOICES.items():
        if name in values and values[name] not in allowed:
            raise BadConfig(f"{name} must be one of {allowed}, got {values[name]!r}")
    for name, (text, holds) in _RULES.items():
        if name in values and not holds(values[name]):
            raise BadConfig(f"{name} must be {text}")
    if "horizon_hours" in values:
        window, horizon = values["window_hours"], values["horizon_hours"]
        if not (window > 0 and horizon % window == 0 and 0 < horizon <= vocab.HORIZON_HOURS):
            raise BadConfig(f"window_hours must be positive and divide horizon_hours, which is "
                            f"at most {vocab.HORIZON_HOURS}; got {window} and {horizon}")


@dataclass
class RunConfig:
    window_hours: int = vocab.WINDOW_HOURS
    horizon_hours: int = vocab.HORIZON_HOURS
    representation: str = "timeseries"
    weighting: str = "gd"
    features: str = "all"
    k: int = 10
    learning_rate: float = 0.3
    max_epochs: int = 200
    threshold: float = 0.5
    mode: str = "majority"
    folds: int = 20
    seed: int = 7
    workers: int = 0      # fold processes; 0 = the CPUs this process may run on

    def __post_init__(self):
        check_choices(**vars(self))

    def effective_workers(self) -> int:
        if self.workers and self.workers > 0:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name, raw):
    return {"int": int, "float": float}.get(_FIELD_TYPES[name], str)(raw)


def read_config_values(path) -> dict:
    """Parse a key=value config file into typed values; `#` starts a comment line.

    An unknown key or a bad value raises InputFault naming the file and line.
    """
    values = {}
    for line_no, cells in tables.read_rows(path, width=2, sep="=", comment="#"):
        key, value = (cell.strip() for cell in cells)
        if key not in _FIELD_TYPES:
            raise InputFault(f"unknown config key {key!r}", line_no, path)
        try:
            values[key] = _coerce(key, value)
        except ValueError:
            raise InputFault(f"bad value for {key!r}: {value!r}", line_no, path) from None
    return values


def build_config(file_path=None, overrides=None) -> RunConfig:
    """Merge defaults, an optional config file, and explicit overrides."""
    values = {}
    if file_path:
        values.update(read_config_values(file_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise BadConfig(f"unknown config key {key!r}")
        values[key] = value
    return RunConfig(**values)
