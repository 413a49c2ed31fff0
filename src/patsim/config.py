"""Run configuration: defaults, key=value config files, flag overrides.

Precedence is command-line flags over config file over defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from . import tables
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


def check_choices(obj) -> None:
    """Reject any enumerated field of `obj` (a config or method spec) outside its choices."""
    for name, allowed in _CHOICES.items():
        if hasattr(obj, name) and getattr(obj, name) not in allowed:
            raise BadConfig(f"{name} must be one of {allowed}, got {getattr(obj, name)!r}")


@dataclass
class RunConfig:
    window_hours: int = 2
    horizon_hours: int = 48
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
        check_choices(self)
        if self.window_hours <= 0 or self.horizon_hours <= 0:
            raise BadConfig("window and horizon must be positive")
        if self.horizon_hours % self.window_hours != 0:
            raise BadConfig("horizon_hours must be divisible by window_hours")
        if not (0.0 < self.threshold < 1.0):
            raise BadConfig("threshold must lie in (0, 1)")
        if self.k < 1 or self.folds < 2:
            raise BadConfig("k must be >= 1 and folds >= 2")

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
