"""Feature weight learning and assignment.

The main learner is a gradient-descent wrapper around the similarity
classifier: the training error is the squared sum, over all training
patients and both class labels, of the difference between the true label
and the leave-one-out soft score, and weights move against its derivative
until error reductions peter out. Filter methods (chi-square, information
gain, gini) and file-based manual weights are provided as baselines.
"""

from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tables, vocab
from .errors import (
    BadConfig,
    InputFault,
    KTooLarge,
    MalformedRow,
    NegativeWeight,
    SingleClassCohort,
    UnknownVariable,
)
from .knn import FeatureWeights, _weight_array, soft_scores, top_k

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    learning_rate: float = 0.3
    max_epochs: int = 200
    min_relative_improvement: float = 1e-6
    patience: int = 3
    k: int = 10
    initial_weights: FeatureWeights | None = None

    def __post_init__(self):
        for name in ("learning_rate", "max_epochs", "min_relative_improvement", "patience", "k"):
            if getattr(self, name) <= 0:
                raise BadConfig(f"{name} must be positive")


@dataclass
class TrainTrace:
    errors: list = field(default_factory=list)        # training error per epoch, epoch 0 first
    epochs_run: int = 0
    stop_reason: str = "max_epochs"                   # "converged" or "max_epochs"
    best_error: float = float("inf")
    best_epoch: int = 0

    @property
    def best_so_far(self) -> list:
        return list(np.minimum.accumulate(self.errors))


def _distinct_rows(grid, statics) -> tuple:
    """(distinct, copy_of): the first row of each distinct patient, ascending,
    and the position in `distinct` of each row's first copy.

    Two patients are copies when their grids and statics are equal bit for
    bit. The rows are compared as opaque byte strings through a void view,
    which `np.unique` sorts far faster than rows of floats (`axis=0`).
    """
    n = len(grid)
    rows = np.concatenate([grid.reshape(n, -1), statics], axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = np.sort(first)
    return distinct, np.searchsorted(distinct, first[inverse])


def _distance_tensor(grid, statics) -> np.ndarray:
    """Per-variable pairwise squared distances, packed: shape (40, n(n-1)/2).

    Column p holds the pair (i, j), i < j, that `np.triu_indices(n, 1)`
    lists p-th; `_pair_index` maps a pair back to its column. Dynamic
    variables use the mean squared difference over their grid columns
    (gram-matrix form, clipped against rounding); statics are plain
    squared differences. The gram form is exactly symmetric, so every
    value equals the square tensor's (i, j) and (j, i) entries bit for bit,
    while the square tensor itself is never built.

    The gram is taken over the distinct patients only, and every copy of a
    patient gets the entries of its first copy, at distance 0 from it.
    BLAS gives two identical rows different last bits against a third
    patient, which would order exact copies against patient_id.

    The tensor lives in its own anonymous memory map, which goes back to
    the system when the tensor is freed. Off the heap, one fold's tensor
    cannot leave a hole that the next fold's smaller arrays fill, which
    would push that fold's tensor onto fresh memory and raise the peak RSS
    of a cross-validation worker.
    """
    n, n_dyn, n_cols = grid.shape
    iu, ju = np.triu_indices(n, 1)
    size = vocab.N_VARIABLES * len(iu)
    out = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float).reshape(vocab.N_VARIABLES, -1)
    distinct, copy_of = _distinct_rows(grid, statics)
    pi, pj = copy_of[iu], copy_of[ju]
    for v in range(n_dyn):
        # centering keeps a constant column's distances exactly zero
        x = (grid[:, v, :] - grid[:, v, :].mean(axis=0))[distinct]
        sq = (x * x).sum(axis=1)
        d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.fill_diagonal(d, 0.0)
        out[v] = np.maximum(d[pi, pj], 0.0) / n_cols
    for j in range(statics.shape[1]):
        s = statics[:, j]
        out[n_dyn + j] = (s[iu] - s[ju]) ** 2
    return out


def _pair_index(n) -> np.ndarray:
    """(n, n) map from patients i, j to their column in the packed tensor; the diagonal maps to 0."""
    pair = np.zeros((n, n), dtype=np.intp)
    iu, ju = np.triu_indices(n, 1)
    pair[iu, ju] = pair[ju, iu] = np.arange(len(iu))
    return pair


def _loo_distances(packed, pair, w) -> np.ndarray:
    """Weighted squared distances (n, n) at the given weights, +inf on the diagonal.

    The einsum adds each pair's 40 terms in variable order wherever its
    column lies, so columns with equal per-variable distances get
    bit-equal sums and tie by patient_id; a BLAS product (`w @ packed`)
    sums a column in an order that depends on its position.
    """
    d2 = np.einsum("v,vp->p", w, packed)[pair]
    np.fill_diagonal(d2, np.inf)
    return d2


def _neighbor_sets(packed, pair, w, k) -> np.ndarray:
    """Leave-one-out neighbor indices (n, k) at the given weights."""
    return top_k(_loo_distances(packed, pair, w), k)


def _error_value(yhat, labels) -> float:
    # one error term per class label: (y - yhat)^2 + ((1-y) - (1-yhat))^2
    return float(2.0 * ((labels - yhat) ** 2).sum())


def _error_and_gradient(packed, pair, w, sets, labels) -> tuple:
    """Training error and dE/dw over fixed neighbor sets, from one gather."""
    rows = np.arange(pair.shape[0])[:, None]
    d_sel = packed[:, pair[rows, sets]]               # (40, n, k)
    d2_sel = np.einsum("v,vnk->nk", w, d_sel)
    y_n = labels[sets]
    yhat = soft_scores(d2_sel, y_n)
    # yhat = T/S with s_in = exp(-d2_in), d s_in / d w_v = -D2_v(i,n) * s_in
    s = np.exp(-d2_sel)
    big_s = s.sum(axis=1)
    big_t = (s * y_n).sum(axis=1)
    d_t = -np.einsum("vnk,nk->nv", d_sel, s * y_n)    # (n, 40)
    d_s = -np.einsum("vnk,nk->nv", d_sel, s)
    d_yhat = (d_t * big_s[:, None] - big_t[:, None] * d_s) / (big_s ** 2)[:, None]
    grad = -4.0 * ((labels - yhat)[:, None] * d_yhat).sum(axis=0)
    return _error_value(yhat, labels), grad


class Workspace:
    """A training cohort (a framing.Frames), with the state its weightings derive from it.

    The packed (40, n(n-1)/2) leave-one-out distance tensor with its pair
    index, and the filter tables, are built on first use and then shared by
    every weighting trained on this cohort; they go when the workspace
    does. Every function below that takes `frames` also takes a Workspace.
    """

    def __init__(self, frames):
        self.train = frames

    def __len__(self):
        return len(self.train)

    @cached_property
    def tensor(self) -> np.ndarray:
        return _distance_tensor(self.train.grid, self.train.statics)

    @cached_property
    def pairs(self) -> np.ndarray:
        return _pair_index(len(self))

    @cached_property
    def tables(self) -> list:
        return _filter_tables(self.train)


def _workspace(frames) -> Workspace:
    return frames if isinstance(frames, Workspace) else Workspace(frames)


def _loo_problem(frames, weights, k) -> tuple:
    """(packed tensor, pair index, weights, LOO neighbor sets, labels) of a training cohort."""
    ws = _workspace(frames)
    labels = ws.train.labels
    _check_two_classes(labels)
    if k > len(labels) - 1:
        raise KTooLarge(f"k={k} but only {len(labels) - 1} leave-one-out candidates")
    packed, pair = ws.tensor, ws.pairs
    w = _weight_array(weights)
    return packed, pair, w, _neighbor_sets(packed, pair, w, k), labels


def loo_neighbor_sets(frames, weights, k=10) -> np.ndarray:
    """Leave-one-out neighbor index sets for every training patient."""
    return _loo_problem(frames, weights, k)[3]


def training_error(frames, weights, k=10, neighbor_sets=None) -> float:
    """Leave-one-out training error at the given weights.

    With `neighbor_sets` (an (n, k) index array over patients in
    patient_id order) the sets are held fixed instead of re-selected,
    which is the function the analytic gradient differentiates.
    """
    packed, pair, w, sets, labels = _loo_problem(frames, weights, k)
    if neighbor_sets is not None:
        sets = neighbor_sets
    return _error_and_gradient(packed, pair, w, sets, labels)[0]


def gradient(frames, weights, k=10) -> np.ndarray:
    """dE/dw per variable, neighbor sets held fixed at the current weights."""
    return _error_and_gradient(*_loo_problem(frames, weights, k))[1]


def _active(active) -> np.ndarray:
    """Boolean mask of searched variables; None means all of them."""
    if active is None:
        return np.ones(vocab.N_VARIABLES, dtype=bool)
    return np.asarray(active, dtype=bool)


def _check_two_classes(labels):
    if len(np.unique(labels)) < 2:
        raise SingleClassCohort("training cohort contains a single class")


def train_gd(frames, config: TrainConfig, active=None) -> tuple:
    """Gradient-descent weight search; returns (FeatureWeights, TrainTrace).

    Each epoch re-selects leave-one-out neighbor sets at the current
    weights, takes one step w <- max(0, w - lr * dE/dw), and stops once the
    relative error improvement stays below the configured floor for
    `patience` consecutive epochs. The best-error weights seen are
    returned, not necessarily the last iterate. `active` optionally
    restricts the search to a boolean subset of variables; the rest are
    pinned to zero.
    """
    active = _active(active)
    start = 1.0 if config.initial_weights is None else _weight_array(config.initial_weights)
    packed, pair, w, sets, labels = _loo_problem(frames, start * active, config.k)
    err, grad = _error_and_gradient(packed, pair, w, sets, labels)

    trace = TrainTrace()
    trace.errors.append(err)
    best_err, best_w, best_epoch = err, w.copy(), 0

    plateau = 0
    for epoch in range(1, config.max_epochs + 1):
        w = np.maximum(w - config.learning_rate * grad, 0.0)
        w *= active
        new_err, grad = _error_and_gradient(
            packed, pair, w, _neighbor_sets(packed, pair, w, config.k), labels)
        trace.errors.append(new_err)
        trace.epochs_run = epoch
        if new_err < best_err:
            best_err, best_w, best_epoch = new_err, w.copy(), epoch
        rel_improvement = (err - new_err) / err if err > 0 else 0.0
        plateau = plateau + 1 if rel_improvement < config.min_relative_improvement else 0
        err = new_err
        if plateau >= config.patience:
            trace.stop_reason = "converged"
            break
    else:
        trace.stop_reason = "max_epochs"

    trace.best_error = best_err
    trace.best_epoch = best_epoch
    return FeatureWeights(best_w), trace


# ---------------------------------------------------------------------------
# filter weighting

N_BINS = 10


def _equal_frequency_bins(x) -> np.ndarray:
    edges = np.quantile(x, np.linspace(0.1, 0.9, N_BINS - 1))
    return np.searchsorted(edges, x, side="right")


def _contingency(bins, labels) -> np.ndarray:
    """(bin, label) counts as floats; bins no patient falls in are dropped."""
    counts = np.bincount(2 * bins + labels.astype(int), minlength=2 * N_BINS)
    table = counts.reshape(N_BINS, 2).astype(float)
    return table[table.sum(axis=1) > 0]


def _chi_square_score(table) -> float:
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def _entropy(counts) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _impurity_gain(table, impurity) -> float:
    """Label impurity minus its bin-weighted mean within bins."""
    total = table.sum()
    within = sum((row.sum() / total) * impurity(row) for row in table)
    return float(impurity(table.sum(axis=0)) - within)


def _information_gain_score(table) -> float:
    return _impurity_gain(table, _entropy)


def _gini(counts) -> float:
    p = counts / counts.sum()
    return float(1.0 - (p ** 2).sum())


def _gini_score(table) -> float:
    return _impurity_gain(table, _gini)


# keyed by the filter names of config.WEIGHTINGS
_SCORERS = {
    "chi2": _chi_square_score,
    "infogain": _information_gain_score,
    "gini": _gini_score,
}


def _filter_tables(train) -> list:
    """(bin, label) contingency table of each variable, shared by every filter.

    Dynamic variables are summarized by their grid-row mean, discretized
    into 10 equal-frequency bins over the training set.
    """
    summaries = np.concatenate([train.grid.mean(axis=2), train.statics], axis=1)
    return [_contingency(_equal_frequency_bins(summaries[:, v]), train.labels)
            for v in range(vocab.N_VARIABLES)]


def filter_score(frames, method) -> np.ndarray:
    """Raw per-variable filter scores against the binary label (see _filter_tables)."""
    if method not in _SCORERS:
        raise BadConfig(f"unknown filter method {method!r}")
    ws = _workspace(frames)
    _check_two_classes(ws.train.labels)
    scorer = _SCORERS[method]
    return np.array([scorer(table) for table in ws.tables])


def filter_weights(frames, method, active=None) -> FeatureWeights:
    """Filter scores normalized to sum to the active variable count.

    The normalization makes the weight mass comparable with the all-ones
    (unweighted) configuration. All-zero scores fall back to uniform.
    """
    scores = filter_score(frames, method)
    active = _active(active)
    scores = np.where(active, np.maximum(scores, 0.0), 0.0)
    total = scores.sum()
    n_active = int(active.sum())
    if total <= 0:
        return FeatureWeights(np.where(active, 1.0, 0.0))
    return FeatureWeights(scores * (n_active / total))


# ---------------------------------------------------------------------------
# weight files

WEIGHTS_HEADER = "variable,weight"


def _weight_rows(source, header):
    """(line_no, variable, weight) of each `variable,weight` row of a path or lines.

    `header` is WEIGHTS_HEADER when line 1 must hold it, or None when the
    header is optional; a header line is skipped wherever it appears.
    """
    path = tables.path_of(source)
    for line_no, (name, weight_s) in tables.read_rows(source, header, width=2):
        name = name.strip()
        if f"{name},{weight_s.strip()}" == WEIGHTS_HEADER:
            continue
        if name not in vocab.VARIABLE_INDEX:
            raise UnknownVariable(name, line_no, path)
        try:
            w = float(weight_s)
        except ValueError:
            raise MalformedRow(f"non-numeric weight {weight_s!r}", line_no, path) from None
        if not math.isfinite(w):
            raise MalformedRow(f"non-finite weight {weight_s!r}", line_no, path)
        if w < 0:
            raise NegativeWeight(name, w, line_no, path)
        yield line_no, name, w


def load_manual_weights(source) -> FeatureWeights:
    """Read `variable,weight` rows; unlisted variables default to 0.

    The header line is optional. Unknown variable names and negative
    weights are rejected.
    """
    values = np.zeros(vocab.N_VARIABLES)
    listed = set()
    for _, name, w in _weight_rows(source, None):
        values[vocab.VARIABLE_INDEX[name]] = w
        listed.add(name)
    missing = vocab.N_VARIABLES - len(listed)
    if missing:
        logger.warning("manual weights file leaves %d variables at weight 0", missing)
    return FeatureWeights(values)


def read_weights(path) -> FeatureWeights:
    """Read learned weights as save_weights writes them.

    The file must hold the header and then every one of the 40 variables
    exactly once. Any other content raises a PatsimError naming the file
    and the line, or the missing variables.
    """
    values = {}
    for line_no, name, w in _weight_rows(path, WEIGHTS_HEADER):
        if name in values:
            raise MalformedRow(f"variable {name!r} listed twice", line_no, path)
        values[name] = w
    missing = [name for name in vocab.ALL_VARIABLES if name not in values]
    if missing:
        raise InputFault(f"{len(missing)} of {vocab.N_VARIABLES} variables missing, "
                         f"first {missing[0]!r}", path=path)
    return FeatureWeights([values[name] for name in vocab.ALL_VARIABLES])


def save_weights(weights: FeatureWeights, path) -> None:
    """Write all 40 weights as `variable,weight` rows in canonical order."""
    tables.write_rows(path, WEIGHTS_HEADER, (
        f"{name},{repr(float(value))}"
        for name, value in zip(vocab.ALL_VARIABLES, _weight_array(weights))))


def save_trace(trace: TrainTrace, path) -> None:
    tables.write_rows(path, "epoch,error", (
        f"{epoch},{repr(float(err))}" for epoch, err in enumerate(trace.errors)))
