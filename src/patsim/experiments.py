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
from .config import RunConfig
from .errors import BadConfig
from .evaluation import (ComparisonReport, MethodSpec, compare, cross_validate,
                         split_dev_validation)

logger = logging.getLogger(__name__)

PRESETS = ("exp1", "exp2", "exp3")


def knn_method(name, config: RunConfig, **overrides) -> MethodSpec:
    """A kNN method from the run configuration on all features; overrides win."""
    taken = ("representation", "weighting", "k", "mode", "threshold", "learning_rate",
             "max_epochs")
    return MethodSpec(name=name, **{**{key: getattr(config, key) for key in taken}, **overrides})


def preset_methods(preset, config: RunConfig, manual_weights=None) -> list:
    if preset == "exp1":
        return [
            knn_method("similarity_gd", config, representation="timeseries", weighting="gd"),
            MethodSpec(name="majority_class", kind="majority"),
            MethodSpec(name="linear_aggregates", kind="linear", representation="aggregation"),
        ]
    if preset == "exp2":
        return [
            knn_method("timeseries", config, representation="timeseries", weighting="gd"),
            knn_method("aggregation", config, representation="aggregation", weighting="gd"),
            knn_method("dynamic_only", config, representation="timeseries",
                       weighting="gd", features="dynamic_only"),
            knn_method("static_only", config, representation="timeseries",
                       weighting="gd", features="static_only"),
        ]
    if preset == "exp3":
        methods = [
            knn_method("gd", config, weighting="gd"),
            knn_method("chi2", config, weighting="chi2"),
            knn_method("infogain", config, weighting="infogain"),
            knn_method("gini", config, weighting="gini"),
            knn_method("none", config, weighting="none"),
        ]
        if manual_weights is not None:
            methods.insert(1, knn_method("manual", config, weighting="manual",
                                         manual_weights=manual_weights))
        else:
            logger.warning("exp3: no manual weights file supplied, skipping the manual arm")
        return methods
    raise BadConfig(f"unknown experiment preset {preset!r}")


def validation_ids(cohort, seed) -> list:
    """Patient ids of the validation half of the stratified 50/50 split."""
    return split_dev_validation(cohort.patient_ids, cohort.labels, seed)[1]


def represent(cohort, representation, config: RunConfig, ids) -> framing.Frames:
    """The patients in `ids`, and only those, framed or aggregated, in patient_id order."""
    cohort = cohort.select(ids)
    if representation == "aggregation":
        return framing.aggregate_cohort(cohort, config.horizon_hours)
    return framing.frame_cohort(cohort, config.window_hours, config.horizon_hours)


def run_experiment(preset, config: RunConfig, cohort, manual_weights=None) -> ComparisonReport:
    """Run one preset end to end on a raw cohort and compare the methods.

    Methods are grouped by representation; each group shares one
    cross-validation, so every fold is scaled once for all its methods.
    """
    methods = preset_methods(preset, config, manual_weights=manual_weights)
    groups = {}
    for method in methods:
        rep = "timeseries" if method.kind == "majority" else method.representation
        groups.setdefault(rep, []).append(method)

    validation = validation_ids(cohort, config.seed)
    workers = config.effective_workers()
    by_name = {}
    for rep, group in groups.items():
        logger.info("cross-validating %s (%s)", ", ".join(m.name for m in group), rep)
        by_name.update(cross_validate(
            represent(cohort, rep, config, validation), group,
            k_folds=config.folds, seed=config.seed, workers=workers,
        ))
    return compare({method.name: by_name[method.name] for method in methods})
