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
from .config import RunConfig, check_choices
from .errors import (
    BadConfig,
    InputFault,
    KTooLarge,
    MalformedRow,
    NegativeWeight,
    PatsimError,
    SingleClassCohort,
    UnknownVariable,
)
from .knn import FeatureWeights, _weight_array, top_k

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    learning_rate: float = RunConfig.learning_rate
    max_epochs: int = RunConfig.max_epochs
    min_relative_improvement: float = 1e-6
    patience: int = 3
    k: int = RunConfig.k
    initial_weights: FeatureWeights | None = None

    def __post_init__(self):
        check_choices(**vars(self))


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


# A private anonymous map whose pages are mapped in one call where the system
# offers it (Linux): the build writes every page, and taking them one fault at
# a time cost about 2 of the 16 ms of a 189-patient build on a 2-core virtual
# machine (Python 3.11, numpy 2.4).
_TENSOR_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)


def _distinct_rows(grid, statics) -> tuple:
    """(distinct, copy_of): the first row of each distinct patient, ascending,
    and the position in `distinct` of each row's first copy.

    Two patients are copies when their grids and statics are equal bit for
    bit. Each row's bytes key a dict that keeps the first row holding
    them: one hash per row, where a sort of the rows as opaque byte
    strings (a void view) spends most of its time copying them.
    """
    n = len(grid)
    rows = np.concatenate([grid.reshape(n, -1), statics], axis=1)
    first = {}
    first_copy = np.array([first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)],
                          dtype=np.intp)
    distinct = np.unique(first_copy)
    return distinct, np.searchsorted(distinct, first_copy)


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

    Every variable is centred and its squared norms summed in one pass
    over the distinct patients' grids, which gives them as one variable at
    a time would, bit for bit: the subtraction is elementwise, and each
    norm sums one variable's contiguous cells. Each dynamic row is then
    built in place: the pairs' squared norms are gathered straight into it
    and into one reused buffer and added, the pairs' gram entries are
    gathered into the buffer, doubled and subtracted, and a copy pair's
    entry is zeroed, all before the clip and the division. That is the
    square build's arithmetic, element for element, without its (n, n)
    arrays. Every gather is `np.take(..., mode="clip")`, which writes into
    its output directly; with the default mode numpy takes into a scratch
    array of the output's size first.

    The tensor lives in its own anonymous memory map, which goes back to
    the system when the tensor is freed. Off the heap, one fold's tensor
    cannot leave a hole that the next fold's smaller arrays fill, which
    would push that fold's tensor onto fresh memory and raise the peak RSS
    of a cross-validation worker.
    """
    n, n_dyn, n_cols = grid.shape
    distinct, copy_of = _distinct_rows(grid, statics)
    # centering keeps a constant column's distances exactly zero; each mean is
    # taken over its own variable's view, whose summation order, for a
    # one-column grid, differs from the whole grid's
    centred = grid[distinct]
    centred -= np.array([grid[:, v, :].mean(axis=0) for v in range(n_dyn)])
    norms = (centred * centred).sum(axis=2)
    iu, ju = np.triu_indices(n, 1)
    size = vocab.N_VARIABLES * len(iu)
    out = np.frombuffer(mmap.mmap(-1, 8 * size, flags=_TENSOR_MAP_FLAGS),
                        dtype=float).reshape(vocab.N_VARIABLES, -1)
    for j in range(statics.shape[1]):
        s = statics[:, j]
        out[n_dyn + j] = (s[iu] - s[ju]) ** 2
    pi, pj = copy_of[iu], copy_of[ju]
    del iu, ju      # the dynamic rows need only the pairs' distinct patients
    flat = pi * len(distinct) + pj
    copies = pi == pj
    buf = np.empty(len(pi))
    for v in range(n_dyn):
        x, sq, row = centred[:, v, :], norms[:, v], out[v]
        np.take(sq, pi, out=row, mode="clip")
        row += np.take(sq, pj, out=buf, mode="clip")
        np.take(x @ x.T, flat, out=buf, mode="clip")
        buf *= 2.0
        row -= buf
        row[copies] = 0.0
        np.maximum(row, 0.0, out=row)
        row /= n_cols
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


def _error_value(yhat, labels) -> float:
    # one error term per class label: (y - yhat)^2 + ((1-y) - (1-yhat))^2
    return float(2.0 * ((labels - yhat) ** 2).sum())


def _error_and_gradient(packed, pair, w, sets, labels) -> tuple:
    """Training error and dE/dw over fixed neighbor sets, from one gather."""
    rows = np.arange(pair.shape[0])[:, None]
    d_sel = packed[:, pair[rows, sets]]               # (40, n, k)
    d2_sel = np.einsum("v,vnk->nk", w, d_sel)
    y_n = labels[sets]
    # the soft score yhat = T/S with s_in = exp(-d2_in), d s_in / d w_v = -D2_v(i,n) * s_in
    s = np.exp(-d2_sel)
    big_s = s.sum(axis=1)
    big_t = (s * y_n).sum(axis=1)
    d_t = -np.einsum("vnk,nk->nv", d_sel, s * y_n)    # (n, 40)
    d_s = -np.einsum("vnk,nk->nv", d_sel, s)
    # every similarity of a set underflowing to 0 gives a NaN error, for train_gd to report
    with np.errstate(divide="ignore", invalid="ignore"):
        yhat = big_t / big_s
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
    def tables(self) -> np.ndarray:
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
    return packed, pair, w, top_k(_loo_distances(packed, pair, w), k), labels


def loo_neighbor_sets(frames, weights, k=RunConfig.k) -> np.ndarray:
    """Leave-one-out neighbor index sets for every training patient."""
    return _loo_problem(frames, weights, k)[3]


def training_error(frames, weights, k=RunConfig.k, neighbor_sets=None) -> float:
    """Leave-one-out training error at the given weights.

    With `neighbor_sets` (an (n, k) index array over patients in
    patient_id order) the sets are held fixed instead of re-selected,
    which is the function the analytic gradient differentiates.
    """
    packed, pair, w, sets, labels = _loo_problem(frames, weights, k)
    if neighbor_sets is not None:
        sets = neighbor_sets
    return _error_and_gradient(packed, pair, w, sets, labels)[0]


def gradient(frames, weights, k=RunConfig.k) -> np.ndarray:
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


def _finite(value, epoch):
    """Stop at a non-finite training error, or weights that top_k could find no neighbor at."""
    if not np.isfinite(value).all():
        raise PatsimError(f"gradient descent diverged: the training error is not finite at "
                          f"epoch {epoch}; a smaller learning rate may converge")


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
    _finite(err, 0)

    trace = TrainTrace()
    trace.errors.append(err)
    best_err, best_w, best_epoch = err, w.copy(), 0

    plateau = 0
    for epoch in range(1, config.max_epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.maximum(w - config.learning_rate * grad, 0.0)
            w *= active
        _finite(w, epoch)
        new_err, grad = _error_and_gradient(
            packed, pair, w, top_k(_loo_distances(packed, pair, w), config.k), labels)
        _finite(new_err, epoch)
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


def _filter_tables(train) -> np.ndarray:
    """(40, N_BINS, 2) (bin, label) counts of every variable, shared by every filter.

    Dynamic variables are summarized by their grid-row mean, discretized
    into 10 equal-frequency bins over the training set. One quantile pass
    finds every variable's 9 edges, and one bincount counts every table.
    numpy's quantile interpolation is monotone, so each variable's edges
    ascend, and the count of edges at or below a value is the bin that
    `searchsorted(edges, value, side="right")` gives it. A bin no patient
    falls in holds zeros, which the scorers skip.
    """
    summaries = np.concatenate([train.grid.mean(axis=2), train.statics], axis=1)
    edges = np.quantile(summaries, np.linspace(0.1, 0.9, N_BINS - 1), axis=0)
    bins = (summaries[:, None, :] >= edges).sum(axis=1)
    codes = 2 * (np.arange(vocab.N_VARIABLES) * N_BINS + bins) + train.labels[:, None]
    counts = np.bincount(codes.ravel(), minlength=2 * N_BINS * vocab.N_VARIABLES)
    return counts.reshape(vocab.N_VARIABLES, N_BINS, 2).astype(float)


# The scorers below take a stack of (bin, label) tables and score each
# table over its non-empty bins, bit for bit as one table at a time: every
# count and count sum is an exact integer, the arithmetic is per element,
# and each sum of non-integer terms is formed in the order numpy or
# Python forms it for a single table.

def _chi_square_scores(tables) -> np.ndarray:
    """Chi-square statistic of each table against independence of bin and label.

    A table's terms are summed as `terms.sum()` sums its compact (B, 2)
    terms: pairwise, in an order fixed by B, its count of non-empty bins.
    So the tables go in groups of equal B, with their non-empty bins moved
    to the front in bin order, and each group's terms are summed as one
    contiguous (tables, 2B) block along its last axis.
    """
    filled = tables.sum(axis=2) > 0
    order = np.argsort(~filled, axis=1, kind="stable")
    compact = np.take_along_axis(tables, order[:, :, None], axis=1)
    widths = filled.sum(axis=1)
    scores = np.empty(len(tables))
    for width in np.unique(widths):
        group = widths == width
        table = compact[group, :width]
        total = table.sum(axis=(1, 2))[:, None, None]
        expected = table.sum(axis=2)[:, :, None] * table.sum(axis=1)[:, None, :] / total
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
        scores[group] = terms.reshape(len(terms), -1).sum(axis=1)
    return scores


def _entropies(counts) -> np.ndarray:
    """Label entropy, in bits, of each (..., 2) pair of counts.

    A zero count's term is -0.0, which adds nothing to the other term, as
    if it were left out of the sum.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / counts.sum(axis=-1, keepdims=True)
        terms = np.where(counts > 0, p * np.log2(p), -0.0)
    return -(terms[..., 0] + terms[..., 1])


def _ginis(counts) -> np.ndarray:
    """Gini impurity of each (..., 2) pair of counts."""
    with np.errstate(invalid="ignore"):
        p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p[..., 0] ** 2 + p[..., 1] ** 2)


def _impurity_gains(tables, impurity) -> np.ndarray:
    """Label impurity minus its bin-weighted mean within bins, per table.

    The bins' terms are added one bin at a time from +0.0, as Python's
    `sum` adds them; an empty bin adds -0.0, which changes no sum.
    """
    total = tables.sum(axis=(1, 2))
    size = tables.sum(axis=2)
    terms = size / total[:, None] * impurity(tables)
    terms[size == 0] = -0.0
    within = np.zeros(len(tables))
    for column in terms.T:
        within += column
    return impurity(tables.sum(axis=1)) - within


# keyed by the filter names of config.WEIGHTINGS
_SCORERS = {
    "chi2": _chi_square_scores,
    "infogain": lambda tables: _impurity_gains(tables, _entropies),
    "gini": lambda tables: _impurity_gains(tables, _ginis),
}


def filter_score(frames, method) -> np.ndarray:
    """Raw per-variable filter scores against the binary label (see _filter_tables)."""
    if method not in _SCORERS:
        raise BadConfig(f"unknown filter method {method!r}")
    ws = _workspace(frames)
    _check_two_classes(ws.train.labels)
    return _SCORERS[method](ws.tables)


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
