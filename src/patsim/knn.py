"""Weighted nearest-neighbor classification over framed patients.

Distances are computed per clinical variable and combined with one learned
weight per variable (40 weights: 36 dynamic + 4 static). A dynamic
variable's squared distance is the mean squared difference over its grid
columns, which puts a whole time series on the same scale as one static
feature. Similarity is exp(-d2), giving a smooth score in (0, 1] with no
special case at zero distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import vocab
from .errors import BadConfig, DimensionMismatch, KTooLarge, NegativeWeight

PREDICTION_MODES = ("majority", "weighted")


@dataclass
class FeatureWeights:
    """Non-negative weight per clinical variable, canonical vocabulary order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.values.shape != (vocab.N_VARIABLES,):
            raise DimensionMismatch(
                f"expected {vocab.N_VARIABLES} weights, got shape {self.values.shape}"
            )
        for name, w in zip(vocab.ALL_VARIABLES, self.values):
            if not np.isfinite(w):
                raise BadConfig(f"weight for {name!r} is not finite")
            if w < 0:
                raise NegativeWeight(name, w)

    @classmethod
    def uniform(cls, value=1.0) -> "FeatureWeights":
        return cls(np.full(vocab.N_VARIABLES, float(value)))

    def as_dict(self) -> dict:
        return {name: float(w) for name, w in zip(vocab.ALL_VARIABLES, self.values)}


def _weight_array(weights) -> np.ndarray:
    if isinstance(weights, FeatureWeights):
        return weights.values
    return FeatureWeights(np.asarray(weights, dtype=float)).values


def variable_distances_sq(a, b) -> np.ndarray:
    """All 40 per-variable squared distances between two dense patients."""
    grid_a, grid_b = a.feature_grid, b.feature_grid
    if grid_a.shape != grid_b.shape:
        raise DimensionMismatch("patients are on different grids")
    dyn = ((grid_a - grid_b) ** 2).mean(axis=1)
    stat = (a.statics - b.statics) ** 2
    return np.concatenate([dyn, stat])


def variable_distance_sq(a, b, variable) -> float:
    """Squared distance on a single variable (name or canonical index)."""
    v = vocab.VARIABLE_INDEX[variable] if isinstance(variable, str) else int(variable)
    if v < vocab.N_DYNAMIC:
        return float(((a.feature_grid[v] - b.feature_grid[v]) ** 2).mean())
    return float((a.statics[v - vocab.N_DYNAMIC] - b.statics[v - vocab.N_DYNAMIC]) ** 2)


def weighted_distance_sq(a, b, weights) -> float:
    """d2(a, b) = sum_v w_v * D2_v(a, b); symmetric, zero when a equals b."""
    return float(variable_distances_sq(a, b) @ _weight_array(weights))


@dataclass
class NeighborSet:
    """The k nearest training patients for one query.

    Entries are (train_patient_id, squared_distance, label), ascending by
    squared distance with patient_id breaking ties.
    """

    query_id: str
    entries: list = field(default_factory=list)


@dataclass
class Model:
    """Lazy classifier: stored training patients plus distance weights.

    Training patients are held internally in ascending patient_id order so
    that a stable sort on distance alone realizes the documented tie-break.
    """

    frames: list
    weights: FeatureWeights
    k: int = 10
    prediction_mode: str = "majority"
    threshold: float = 0.5

    def __post_init__(self):
        if not self.frames:
            raise KTooLarge("model has no training patients")
        if self.k < 1 or self.k > len(self.frames):
            raise KTooLarge(f"k={self.k} with {len(self.frames)} training patients")
        if self.prediction_mode not in PREDICTION_MODES:
            raise BadConfig(f"unknown prediction mode {self.prediction_mode!r}")
        if not (0.0 < self.threshold < 1.0):
            raise BadConfig(f"threshold must lie in (0, 1), got {self.threshold}")
        if not isinstance(self.weights, FeatureWeights):
            self.weights = FeatureWeights(self.weights)
        order = sorted(range(len(self.frames)), key=lambda i: self.frames[i].patient_id)
        self.frames = [self.frames[i] for i in order]
        self._grid = np.stack([f.feature_grid for f in self.frames])
        self._statics = np.stack([f.statics for f in self.frames])
        self._labels = np.array([f.label for f in self.frames], dtype=int)
        self._ids = [f.patient_id for f in self.frames]

    def distances_sq(self, query) -> np.ndarray:
        """Weighted squared distance from `query` to every training patient."""
        if query.feature_grid.shape != self._grid.shape[1:]:
            raise DimensionMismatch("query grid does not match training grid")
        dyn = ((self._grid - query.feature_grid[None]) ** 2).mean(axis=2)
        stat = (self._statics - query.statics[None]) ** 2
        return np.concatenate([dyn, stat], axis=1) @ self.weights.values


def neighbors(query, model: Model, leave_one_out=False) -> NeighborSet:
    """Exact k nearest training patients by full scan.

    With leave_one_out, training entries sharing the query's patient_id are
    excluded. Ties in distance resolve by ascending patient_id.
    """
    d2 = model.distances_sq(query)
    keep = np.ones(len(d2), dtype=bool)
    if leave_one_out:
        keep = np.array([pid != query.patient_id for pid in model._ids])
    candidates = np.flatnonzero(keep)
    if model.k > candidates.size:
        raise KTooLarge(f"k={model.k} but only {candidates.size} candidate neighbors")
    order = candidates[np.argsort(d2[candidates], kind="stable")[: model.k]]
    entries = [(model._ids[i], float(d2[i]), int(model._labels[i])) for i in order]
    return NeighborSet(query_id=query.patient_id, entries=entries)


def soft_score(neighbor_set: NeighborSet) -> float:
    """Similarity-weighted positive fraction: sum(s*y)/sum(s), s = exp(-d2)."""
    d2 = np.array([e[1] for e in neighbor_set.entries])
    y = np.array([e[2] for e in neighbor_set.entries], dtype=float)
    s = np.exp(-d2)
    return float((s * y).sum() / s.sum())


def decide(neighbor_set: NeighborSet, mode, threshold=0.5) -> tuple:
    """Turn a neighbor set into (label, score) under the given mode.

    Majority mode: label is the most frequent neighbor label, voting ties
    going to the positive class; score is the positive-vote fraction.
    Weighted mode: score is the similarity-weighted soft score and the
    label is score >= threshold.
    """
    if mode == "majority":
        pos = sum(e[2] for e in neighbor_set.entries)
        score = pos / len(neighbor_set.entries)
        label = int(2 * pos >= len(neighbor_set.entries))
    else:
        score = soft_score(neighbor_set)
        label = int(score >= threshold)
    return label, score


def classify(query, model: Model) -> tuple:
    """Predict (label, score) for one query patient."""
    ns = neighbors(query, model, leave_one_out=False)
    return decide(ns, model.prediction_mode, model.threshold)


def classify_batch(queries, model: Model) -> tuple:
    """Classify each query in turn, one full scan per query; returns (labels, scores)."""
    labels = np.empty(len(queries), dtype=int)
    scores = np.empty(len(queries), dtype=float)
    for i, q in enumerate(queries):
        labels[i], scores[i] = classify(q, model)
    return labels, scores
