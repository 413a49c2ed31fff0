"""Experiment presets exercising the three comparison hypotheses.

* exp1: the similarity classifier against non-similarity stand-in
  baselines (majority-class and a plain linear scorer on aggregates).
* exp2: time-frame representation against the aggregation representation,
  plus static-only and dynamic-only ablations.
* exp3: gradient-descent weighting against filters, manual weights and no
  weighting.

Each preset splits the cohort 50/50, runs stratified cross-validation on
the validation half only, and gates pairwise Wilcoxon tests on a
significant Friedman test.
"""

from __future__ import annotations

import logging

from . import framing
from .config import RunConfig, given
from .evaluation import (ComparisonReport, MethodSpec, compare, cross_validate,
                         split_dev_validation)

logger = logging.getLogger(__name__)

# Each preset's arms in report order: (name, kind, the method settings the arm sets
# itself). A kNN arm takes the run's value of every other setting; any other arm takes
# the defaults. The manual arm runs only when a weights file is given.
PRESET_ARMS = {
    "exp1": (
        ("similarity_gd", "knn", dict(representation="timeseries", weighting="gd")),
        ("majority_class", "majority", {}),
        ("linear_aggregates", "linear", dict(representation="aggregation")),
    ),
    "exp2": (
        ("timeseries", "knn", dict(representation="timeseries", weighting="gd")),
        ("aggregation", "knn", dict(representation="aggregation", weighting="gd")),
        *((name, "knn", dict(representation="timeseries", weighting="gd", features=name))
          for name in ("dynamic_only", "static_only")),
    ),
    "exp3": tuple((name, "knn", dict(weighting=name))
                  for name in ("gd", "manual", "chi2", "infogain", "gini", "none")),
}
PRESETS = tuple(PRESET_ARMS)
MANUAL_PRESETS = tuple(preset for preset, arms in PRESET_ARMS.items()
                       if any(own.get("weighting") == "manual" for *_, own in arms))


def fixed_settings(preset) -> set:
    """The method settings every kNN arm of `preset` sets itself; a run's value reaches none."""
    return set.intersection(*(set(own) for _, kind, own in PRESET_ARMS[preset] if kind == "knn"))


def knn_method(name, config: RunConfig, **overrides) -> MethodSpec:
    """A kNN method with the run's value of every method setting; overrides win."""
    return MethodSpec(name=name, **{**given(config, MethodSpec), **overrides})


def preset_methods(preset, config: RunConfig, manual_weights=None) -> list:
    methods = []
    for name, kind, own in PRESET_ARMS[preset]:
        if own.get("weighting") != "manual":
            methods.append(knn_method(name, config, **own) if kind == "knn"
                           else MethodSpec(name=name, kind=kind, **own))
        elif manual_weights is None:
            logger.warning("%s: no manual weights file supplied, skipping the manual arm", preset)
        else:
            methods.append(knn_method(name, config, manual_weights=manual_weights, **own))
    return methods


def validation_ids(cohort, seed) -> list:
    """Patient ids of the validation half of the stratified 50/50 split."""
    return split_dev_validation(cohort.patient_ids, cohort.labels, seed)[1]


def represent(cohort, representation, config: RunConfig, ids) -> framing.Frames:
    """The patients in `ids`, and only those, framed or aggregated, in patient_id order."""
    cohort = cohort.select(ids)
    if representation == "aggregation":
        return framing.aggregate_cohort(cohort, config.horizon_hours)
    return framing.frame_cohort(cohort, config.window_hours, config.horizon_hours)


def cross_validate_methods(cohort, methods, config: RunConfig, ids) -> dict:
    """Each method's fold metrics on the patients in `ids`, keyed by name in `methods` order.

    Methods are grouped by representation; each group shares one
    cross-validation, so every fold is scaled once for all its methods.
    """
    groups = {}
    for method in methods:
        groups.setdefault(method.representation, []).append(method)
    by_name = {}
    for rep, group in groups.items():
        logger.info("cross-validating %s (%s)", ", ".join(m.name for m in group), rep)
        by_name.update(cross_validate(
            represent(cohort, rep, config, ids), group,
            k_folds=config.folds, seed=config.seed, workers=config.effective_workers(),
        ))
    return {method.name: by_name[method.name] for method in methods}


def run_experiment(preset, config: RunConfig, cohort, manual_weights=None) -> ComparisonReport:
    """Run one preset end to end on a raw cohort and compare the methods."""
    methods = preset_methods(preset, config, manual_weights=manual_weights)
    return compare(cross_validate_methods(cohort, methods, config,
                                          validation_ids(cohort, config.seed)))
