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
from .config import FILTERS, RunConfig, check_choices
from .errors import InputFault, PatsimError
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
    distinct = np.flatnonzero(first_copy == np.arange(n))
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


def _error_value(yhat, labels) -> float:
    # one error term per class label: (y - yhat)^2 + ((1-y) - (1-yhat))^2
    return float(2.0 * ((labels - yhat) ** 2).sum())


class Workspace:
    """A training cohort (a framing.Frames), with the state its weightings derive from it.

    The packed (40, n(n-1)/2) leave-one-out distance tensor with its pair
    index, and the filter tables, are built on first use and then shared by
    every weighting trained on this cohort; they go when the workspace
    does. Only the two leave-one-out methods below read the tensor. Every
    function below that takes `frames` also takes a Workspace.
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

    def neighbor_sets(self, w, k) -> np.ndarray:
        """Leave-one-out neighbor index sets (n, k) at the weight array `w`.

        The einsum adds each pair's 40 terms in variable order wherever its
        column lies, so columns with equal per-variable distances get
        bit-equal sums and tie by patient_id; a BLAS product (`w @ packed`)
        sums a column in an order that depends on its position.
        """
        _check_cohort(self.train.labels, k)
        d2 = np.einsum("v,vp->p", w, self.tensor)[self.pairs]
        np.fill_diagonal(d2, np.inf)
        return top_k(d2, k)

    def error_and_gradient(self, w, sets) -> tuple:
        """Training error and dE/dw at weights `w` over fixed neighbor sets, from one gather."""
        labels = self.train.labels
        d_sel = self.tensor[:, self.pairs[np.arange(len(labels))[:, None], sets]]   # (40, n, k)
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


def _workspace(frames) -> Workspace:
    return frames if isinstance(frames, Workspace) else Workspace(frames)


def _active(active) -> np.ndarray:
    """Boolean mask of searched variables; None means all of them."""
    if active is None:
        return np.ones(vocab.N_VARIABLES, dtype=bool)
    return np.asarray(active, dtype=bool)


def _check_cohort(labels, k=0):
    """A training cohort holds both classes and, when k is given, k leave-one-out candidates."""
    if not (labels != labels[:1]).any():        # np.unique's first call imports numpy.ma
        raise PatsimError("training cohort contains a single class")
    if k > len(labels) - 1:
        raise PatsimError(f"k={k} but only {len(labels) - 1} leave-one-out candidates")


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
    ws, active = _workspace(frames), _active(active)
    start = 1.0 if config.initial_weights is None else _weight_array(config.initial_weights)
    w = _weight_array(start * active)
    err, grad = ws.error_and_gradient(w, ws.neighbor_sets(w, config.k))
    if not np.isfinite(err):
        raise PatsimError(f"gradient descent cannot start: the training error is not finite at "
                          f"the start weights (largest {w.max():g}); smaller ones may converge")

    trace = TrainTrace()
    trace.errors.append(err)
    best_err, best_w, best_epoch = err, w.copy(), 0

    plateau = 0
    for epoch in range(1, config.max_epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.maximum(w - config.learning_rate * grad, 0.0)
            w *= active
        _finite(w, epoch)
        new_err, grad = ws.error_and_gradient(w, ws.neighbor_sets(w, config.k))
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
# table over its non-empty bins. The impurity scorers work on the whole
# stack, bit for bit as one table at a time: every count and count sum is
# an exact integer, the arithmetic is per element, and each sum of
# non-integer terms is formed in the order Python forms it for a single
# table.

def _chi_square_scores(tables) -> np.ndarray:
    """Chi-square statistic of each table against independence of bin and label."""
    scores = np.empty(len(tables))
    for v, table in enumerate(tables):
        table = table[table.sum(axis=1) > 0]
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
        scores[v] = terms.sum()
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


_SCORERS = dict(zip(FILTERS, (_chi_square_scores,
                               lambda tables: _impurity_gains(tables, _entropies),
                               lambda tables: _impurity_gains(tables, _ginis))))


def filter_score(frames, method) -> np.ndarray:
    """Raw per-variable filter scores against the binary label (see _filter_tables)."""
    if method not in _SCORERS:
        raise PatsimError(f"unknown filter method {method!r}")
    ws = _workspace(frames)
    _check_cohort(ws.train.labels)
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


def _weight_rows(path, header) -> dict:
    """Each listed variable's weight, read from the `variable,weight` rows of the file at `path`.

    `header` is WEIGHTS_HEADER when line 1 must hold it, or None when the
    header is optional; a header line is skipped wherever it appears. A
    variable listed twice is a fault.
    """
    rows = {}
    for line_no, (name, weight_s) in tables.read_rows(path, header, width=2):
        name = name.strip()
        if f"{name},{weight_s.strip()}" == WEIGHTS_HEADER:
            continue
        if name not in vocab.VARIABLE_INDEX:
            raise InputFault(f"unknown variable name: {name!r}", line_no, path)
        try:
            w = float(weight_s)
        except ValueError:
            raise InputFault(f"non-numeric weight {weight_s!r}", line_no, path) from None
        if not math.isfinite(w):
            raise InputFault(f"non-finite weight {weight_s!r}", line_no, path)
        if w < 0:
            raise InputFault(f"weight for {name!r} must be non-negative, got {w}", line_no, path)
        if name in rows:
            raise InputFault(f"variable {name!r} listed twice", line_no, path)
        rows[name] = w
    return rows


def _file_weights(values, path) -> FeatureWeights:
    """The weights read from `path`; a sum that overflows is a fault naming the file.

    A per-variable distance between frames scaled to [0, 1] is at most 1, so
    a finite sum keeps every weighted distance finite.
    """
    if not math.isfinite(sum(values)):   # Python floats: inf, with no numpy warning
        raise InputFault("the weights sum past the largest float, so weighted distances "
                         "would overflow", path=path)
    return FeatureWeights(values)


def load_manual_weights(path) -> FeatureWeights:
    """Read the `variable,weight` rows of the file at `path`; unlisted variables default to 0.

    The header line is optional. Unknown or repeated variable names,
    negative weights and weights whose sum is not finite are rejected.
    """
    rows = _weight_rows(path, None)
    missing = vocab.N_VARIABLES - len(rows)
    if missing:
        logger.warning("manual weights file leaves %d variables at weight 0", missing)
    return _file_weights([rows.get(name, 0.0) for name in vocab.ALL_VARIABLES], path)


def read_weights(path) -> FeatureWeights:
    """Read learned weights as save_weights writes them.

    The file must hold the header and then every one of the 40 variables
    exactly once. Any other content raises a PatsimError naming the file
    and the line, or the missing variables.
    """
    rows = _weight_rows(path, WEIGHTS_HEADER)
    missing = [name for name in vocab.ALL_VARIABLES if name not in rows]
    if missing:
        raise InputFault(f"{len(missing)} of {vocab.N_VARIABLES} variables missing, "
                         f"first {missing[0]!r}", path=path)
    return _file_weights([rows[name] for name in vocab.ALL_VARIABLES], path)


def save_weights(weights: FeatureWeights, path) -> None:
    """Write all 40 weights as `variable,weight` rows in canonical order."""
    tables.write_rows(path, WEIGHTS_HEADER, (
        f"{name},{repr(float(value))}"
        for name, value in zip(vocab.ALL_VARIABLES, _weight_array(weights))))


def save_trace(trace: TrainTrace, path) -> None:
    tables.write_rows(path, "epoch,error", (
        f"{epoch},{repr(float(err))}" for epoch, err in enumerate(trace.errors)))
