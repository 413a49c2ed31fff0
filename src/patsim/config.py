"""Run configuration: defaults, validity rules, key=value config files, flag overrides.

Precedence is command-line flags over config file over defaults.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass, fields

from . import tables, vocab
from .errors import InputFault, PatsimError

REPRESENTATIONS = ("timeseries", "aggregation")
FILTERS = ("chi2", "infogain", "gini")
WEIGHTINGS = ("gd", "none", "manual") + FILTERS
# each feature set's variables: a contiguous range of the canonical order
FEATURE_SETS = {
    "all": range(vocab.N_VARIABLES),
    "dynamic_only": range(vocab.N_DYNAMIC),
    "static_only": range(vocab.N_DYNAMIC, vocab.N_VARIABLES),
}
PREDICTION_MODES = ("majority", "weighted")
KINDS = ("knn", "majority", "linear")
PROFILES = ("planted", "trend")

_CHOICES = {
    "representation": REPRESENTATIONS,
    "weighting": WEIGHTINGS,
    "features": tuple(FEATURE_SETS),
    "mode": PREDICTION_MODES,
    "kind": KINDS,
    "profile": PROFILES,
    "split": ("none", "validation"),
}


_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)
_UNIT_OPEN = ("in (0, 1)", lambda v: 0 < v < 1)
_RULES = {
    "k": _AT_LEAST_1,
    "max_epochs": _AT_LEAST_1,
    "patience": _AT_LEAST_1,
    "n_patients": _AT_LEAST_1,
    "learning_rate": _POSITIVE,
    "min_relative_improvement": _POSITIVE,
    "folds": ("at least 2", lambda v: v >= 2),
    "workers": ("at least 0", lambda v: v >= 0),
    "threshold": _UNIT_OPEN,
    "alpha": _UNIT_OPEN,
    "prevalence": _UNIT_OPEN,
    "missing_rate": ("in [0, 1)", lambda v: 0 <= v < 1),
    "n_informative_variables": (f"between 1 and {vocab.N_DYNAMIC}",
                                lambda v: 1 <= v <= vocab.N_DYNAMIC),
    "effect_size": ("non-negative and finite", lambda v: 0 <= v < math.inf),
}


def check_choices(**values) -> None:
    """Reject any setting in `values`, keyed by its field name, that breaks its choice or rule.

    The grid rule, checked when both its keys are given: a positive window
    divides the horizon, of at most vocab.HORIZON_HOURS.
    """
    for name, allowed in _CHOICES.items():
        if name in values and values[name] not in allowed:
            raise PatsimError(f"{name} must be one of {allowed}, got {values[name]!r}")
    for name, (text, holds) in _RULES.items():
        if name in values and not holds(values[name]):
            raise PatsimError(f"{name} must be {text}")
    if "window_hours" in values and "horizon_hours" in values:
        window, horizon = values["window_hours"], values["horizon_hours"]
        if not (window > 0 and horizon % window == 0 and 0 < horizon <= vocab.HORIZON_HOURS):
            raise PatsimError(f"window_hours must be positive and divide horizon_hours, which is "
                              f"at most {vocab.HORIZON_HOURS}; got {window} and {horizon}")


@dataclass(kw_only=True)
class MethodSettings:
    """The settings that tell one method from another, each declared once here.

    RunConfig holds a run's values of them and evaluation.MethodSpec one
    method's; `given` carries them from the one to the other.
    """

    representation: str = "timeseries"
    weighting: str = "gd"
    features: str = "all"
    k: int = 10
    learning_rate: float = 0.3
    max_epochs: int = 200
    threshold: float = 0.5
    mode: str = "majority"

    def __post_init__(self):
        check_choices(**vars(self))


@dataclass(kw_only=True)
class RunConfig(MethodSettings):
    window_hours: int = vocab.WINDOW_HOURS
    horizon_hours: int = vocab.HORIZON_HOURS
    folds: int = 20
    seed: int = 7
    workers: int = 0      # fold processes; 0 = the CPUs this process may run on

    def effective_workers(self) -> int:
        if self.workers:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def given(source, target) -> dict:
    """The values in `source` named after a parameter of `target`, None dropped.

    The one rule that carries settings into an object. Every flag that sets
    a parameter takes its name as `dest`, so from the parsed arguments this
    is the flags given; from a RunConfig or a MethodSpec it is its value of
    every parameter it owns.
    """
    return {name: getattr(source, name) for name in inspect.signature(target).parameters
            if getattr(source, name, None) is not None}


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name, raw):
    return {"int": int, "float": float}.get(_FIELD_TYPES[name], str)(raw)


def read_config_values(path, fixed=()) -> dict:
    """Parse a key=value config file into typed values; `#` starts a comment line.

    An unknown key, a key in `fixed` (a setting the command sets itself), a
    value of the wrong type or one that breaks its key's choice or rule
    raises InputFault naming the file and line.
    """
    values = {}
    for line_no, cells in tables.read_rows(path, width=2, sep="=", comment="#"):
        key, value = (cell.strip() for cell in cells)
        if key not in _FIELD_TYPES:
            raise InputFault(f"unknown config key {key!r}", line_no, path)
        if key in fixed:
            raise InputFault(f"config key {key!r} is set by the command itself", line_no, path)
        try:
            values[key] = _coerce(key, value)
        except ValueError:
            raise InputFault(f"bad value for {key!r}: {value!r}", line_no, path) from None
        try:
            check_choices(**{key: values[key]})
        except PatsimError as fault:
            raise InputFault(str(fault), line_no, path) from None
    return values


def build_config(file_path=None, overrides=None, fixed=()) -> RunConfig:
    """Defaults, under an optional config file, under `overrides` (RunConfig fields, no None)."""
    file_values = read_config_values(file_path, fixed) if file_path else {}
    return RunConfig(**{**file_values, **(overrides or {})})
