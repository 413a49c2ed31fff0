"""Weighted nearest-neighbor classification over framed patients.

Distances are computed per clinical variable and combined with one learned
weight per variable (40 weights: 36 dynamic + 4 static). A dynamic
variable's squared distance is the mean squared difference over its grid
columns, which puts a whole time series on the same scale as one static
feature. Similarity is exp(-d2), giving a smooth score in (0, 1] with no
special case at zero distance.

One engine serves prediction and the leave-one-out weight training in
`weights`, over cohorts stacked in ascending patient_id order
(`framing.Frames`): `weighted_distances` scans each query against a cohort
once and weighs that scan under every given weighting, `top_k` selects
from a distance matrix over those columns (the ascending-patient_id
tie-break lives there), and `soft_scores`/`decide_rows` score the
selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import vocab
from .config import RunConfig, check_choices
from .errors import BadConfig, DimensionMismatch, KTooLarge, NegativeWeight
from .framing import Frames, stack


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


def weighted_distance_sq(a, b, weights) -> float:
    """d2(a, b) = sum_v w_v * D2_v(a, b); symmetric, zero when a equals b."""
    return float(variable_distances_sq(a, b) @ _weight_array(weights))


def weighted_distances(queries: Frames, train: Frames, weightings) -> np.ndarray:
    """Weighted squared distances (m, q, n_train) from each query to the training set.

    Matrix j is weighed by `weightings[j]`, a vector of 40 weights. One
    exact difference scan per query fills one reused (n_train, 40) buffer,
    with no gram-form shortcut, so a query identical to a training patient
    lies at exactly 0. Each weighting is then one (n_train, 40) @ w product
    per query: a product batched over queries may sum in another order,
    and a last-bit change can reorder a distance tie.
    """
    if queries.grid.shape[1:] != train.grid.shape[1:]:
        raise DimensionMismatch("query grid does not match training grid")
    n_dyn = train.grid.shape[1]
    per_var = np.empty((len(train), vocab.N_VARIABLES))
    out = np.empty((len(weightings), len(queries), len(train)))
    for i, (grid, statics) in enumerate(zip(queries.grid, queries.statics)):
        per_var[:, :n_dyn] = ((train.grid - grid[None]) ** 2).mean(axis=2)
        per_var[:, n_dyn:] = (train.statics - statics[None]) ** 2
        for d2, w in zip(out, weightings):
            d2[i] = per_var @ w
    return out


def top_k(d2, k) -> np.ndarray:
    """Column indices of the k smallest entries of each row, nearest first.

    Columns are patients in ascending patient_id order, and equal distances
    resolve by ascending column, hence by patient_id. A partition finds
    each row's k-th smallest value; every entry up to it, all boundary ties
    included, is sorted by (distance, column). Callers exclude a candidate
    by setting its entry to +inf.
    """
    d2 = np.asarray(d2)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d2 <= kth)
    order = np.lexsort((cols, d2[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(d2.shape[0]))
    return cols[order][starts[:, None] + np.arange(k)]


def soft_scores(d2_sel, y_sel) -> np.ndarray:
    """Row-wise similarity-weighted positive fraction sum(s*y)/sum(s), s = exp(-d2)."""
    s = np.exp(-d2_sel)
    return (s * y_sel).sum(axis=1) / s.sum(axis=1)


def decide_rows(d2_sel, y_sel, mode, threshold=RunConfig.threshold) -> tuple:
    """(labels, scores) for rows of selected neighbor distances and labels.

    Majority mode: label is the most frequent neighbor label, voting ties
    going to the positive class; score is the positive-vote fraction.
    Weighted mode: score is the soft score and the label is
    score >= threshold.
    """
    if mode == "majority":
        pos = y_sel.sum(axis=1)
        return (2 * pos >= y_sel.shape[1]).astype(int), pos / y_sel.shape[1]
    scores = soft_scores(d2_sel, y_sel)
    return (scores >= threshold).astype(int), scores


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

    `frames` holds the training patients, shared, not copied. Their
    ascending patient_id order is the column order that `top_k` breaks
    distance ties by.
    """

    frames: Frames
    weights: FeatureWeights
    k: int = RunConfig.k
    prediction_mode: str = RunConfig.mode
    threshold: float = RunConfig.threshold

    def __post_init__(self):
        check_choices(k=self.k, mode=self.prediction_mode, threshold=self.threshold)
        if self.k > len(self.frames):
            raise KTooLarge(f"k={self.k} with {len(self.frames)} training patients")
        if not isinstance(self.weights, FeatureWeights):
            self.weights = FeatureWeights(self.weights)


def _nearest(queries: Frames, model: Model, leave_one_out) -> tuple:
    """Neighbor indices (q, k) into model.frames and their distances (q, k).

    With leave_one_out, training entries sharing a query's patient_id are
    excluded.
    """
    d2 = weighted_distances(queries, model.frames, [model.weights.values])[0]
    excluded = 0
    if leave_one_out and len(queries):
        same = np.array(queries.ids)[:, None] == np.array(model.frames.ids)
        d2[same] = np.inf
        excluded = int(same.sum(axis=1).max())
    return _select(d2, model, excluded)


def _select(d2, model: Model, excluded=0) -> tuple:
    candidates = len(model.frames) - excluded
    if model.k > candidates:
        raise KTooLarge(f"k={model.k} but only {candidates} candidate neighbors")
    idx = top_k(d2, model.k)
    return idx, np.take_along_axis(d2, idx, axis=1)


def _decide(nearest, model: Model) -> tuple:
    idx, d2_sel = nearest
    return decide_rows(d2_sel, model.frames.labels[idx], model.prediction_mode, model.threshold)


def classify_distances(d2, model: Model) -> tuple:
    """Predict (labels, scores) from weighted distances (q, n_train) under model.weights.

    The rows come from weighted_distances. This is how the methods of one
    cross-validation fold share one distance scan: each applies only its
    own selection and decision.
    """
    return _decide(_select(d2, model), model)


def classify_batch(queries: Frames, model: Model, leave_one_out=False) -> tuple:
    """Predict (labels, scores) for all queries with one selection and one decision.

    With leave_one_out, training entries sharing a query's patient_id are
    not among that query's candidates.
    """
    return _decide(_nearest(queries, model, leave_one_out), model)


def neighbors(query, model: Model, leave_one_out=False) -> NeighborSet:
    """Exact k nearest training patients by full scan.

    With leave_one_out, training entries sharing the query's patient_id are
    excluded. Ties in distance resolve by ascending patient_id.
    """
    idx, d2_sel = _nearest(stack([query]), model, leave_one_out)
    train = model.frames
    entries = [(train.ids[i], float(d), int(train.labels[i]))
               for i, d in zip(idx[0], d2_sel[0])]
    return NeighborSet(query_id=query.patient_id, entries=entries)
