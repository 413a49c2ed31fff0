"""Weighted nearest-neighbor classification over framed patients.

Distances are computed per clinical variable and combined with one learned
weight per variable (40 weights: 36 dynamic + 4 static). A dynamic
variable's squared distance is the mean squared difference over its grid
columns, which puts a whole time series on the same scale as one static
feature. Similarity is exp(-d2), giving a smooth score in (0, 1] with no
special case at zero distance.

One engine serves prediction and the leave-one-out weight training in
`weights`, over cohorts stacked in ascending patient_id order
(`framing.Frames`): `nearest` finds each query's k nearest training
patients under every given weighting, screening out by a bounded gram
product the patients that cannot be among them and scanning the rest
exactly; `top_k` selects from a distance matrix over those columns (the
ascending-patient_id tie-break lives there), and `decide_rows` scores
the selection. The two per-patient names left, `weighted_distance_sq`
and `neighbors`, serve no pipeline path: perfbench's output check and
tracer bind them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import vocab
from .config import RunConfig, check_choices
from .errors import PatsimError
from .framing import Frames, stack


@dataclass
class FeatureWeights:
    """Non-negative weight per clinical variable, canonical vocabulary order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.values.shape != (vocab.N_VARIABLES,):
            raise PatsimError(
                f"expected {vocab.N_VARIABLES} weights, got shape {self.values.shape}"
            )
        for name, w in zip(vocab.ALL_VARIABLES, self.values):
            if not np.isfinite(w):
                raise PatsimError(f"weight for {name!r} is not finite")
            if w < 0:
                raise PatsimError(f"weight for {name!r} must be non-negative, got {w}")

    @classmethod
    def uniform(cls, value=1.0) -> "FeatureWeights":
        return cls(np.full(vocab.N_VARIABLES, float(value)))


def _weight_array(weights) -> np.ndarray:
    if isinstance(weights, FeatureWeights):
        return weights.values
    return FeatureWeights(np.asarray(weights, dtype=float)).values


def weighted_distance_sq(a, b, weights) -> float:
    """d2(a, b) = sum_v w_v * D2_v(a, b) between two dense patients; symmetric, zero when a
    equals b. A one-pair form of `nearest`'s distance, kept for perfbench's brute-force check."""
    if a.dynamic.shape != b.dynamic.shape:
        raise PatsimError("patients are on different grids")
    per_var = np.concatenate([((a.dynamic - b.dynamic) ** 2).mean(axis=1),
                              (a.statics - b.statics) ** 2])
    return float(per_var @ _weight_array(weights))


# Queries screened at once: the screen's (block, n_train) arrays hold about this
# many elements each, so its memory stays bounded as the training set grows.
SCREEN_ELEMENTS = 1 << 18

# The screen's margin for a pair (i, j) is _TAU * (q_i + q_j) + _ETA, where q_i is
# the squared norm of row i of the scaled flat cohort (see _screen). Against the
# exact path's computed distance, the gram form's error is at most about
# 3*g(F) + g(64) of q_i + q_j, with g(m) = m*u the usual rounding bound (u = 2**-53)
# and F = 36*c + 4 columns: the scaled cells, the norms and the dot product each
# sum F terms, and the exact path subtracts and squares per cell, sums c cells,
# weighs and sums 40 variables, all over non-negative terms whose real total is at
# most 2*(q_i + q_j). At F = 868 that is about 3e-13; _TAU = 2**-30 (9.3e-10) is
# some 3,000 times larger, and it also absorbs the roundings of the margin and of
# the bound themselves. _ETA covers products that underflow in either path, whose
# absolute errors stay below 1e-320 a term.
_TAU = 2.0 ** -30
_ETA = 1e-300


def _flat(grid, statics) -> np.ndarray:
    """(n, 36*c + 4) rows: each patient's grid cells, variable by variable, then statics."""
    return np.concatenate([grid.reshape(len(grid), -1), statics], axis=1)


def _screen(queries, train, k, left_out) -> np.ndarray:
    """Candidates (b, n_train): every pair that can be among its query's k nearest.

    `queries` and `train` are flat rows already scaled so that a squared
    euclidean distance between them is the weighted distance. One BLAS
    gram gives approx = q_i + q_j - 2 x_i.x_j, within the margin
    _TAU * (q_i + q_j) + _ETA of the exact computed distance. Row i's
    bound U_i is its k-th smallest approx + margin, so at least k pairs
    lie at or below it exactly; a pair whose approx - margin exceeds U_i
    cannot be among the k nearest. A pair the gram overflowed on (approx
    or margin not finite) is always a candidate, a left-out pair never.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (np.einsum("ij,ij->i", queries, queries)[:, None]
                 + np.einsum("ij,ij->i", train, train)[None, :])
        approx = norms - 2.0 * (queries @ train.T)
        margin = _TAU * norms + _ETA
        upper, lower = approx + margin, approx - margin
    upper[~np.isfinite(upper) | left_out] = np.inf
    bound = np.partition(upper, k - 1, axis=1)[:, k - 1:k]
    return ((lower <= bound) | ~np.isfinite(lower)) & ~left_out


def _exact_terms(train: Frames, rows, grid, statics, per_var) -> None:
    """Write the 40 per-variable squared distances from one query to training `rows`.

    Each lands in its own row of `per_var`. The arithmetic is per element
    (difference, square) and per output (a mean over one variable's
    cells), so a row's values do not depend on which other rows are
    computed with it.
    """
    n_dyn = train.grid.shape[1]
    per_var[rows, :n_dyn] = ((train.grid[rows] - grid) ** 2).mean(axis=2)
    per_var[rows, n_dyn:] = (train.statics[rows] - statics) ** 2


def _exact_rows(grid, statics, train: Frames, weightings, candidates) -> list:
    """Weighted distances (b, n_train) per weighting from a block of queries: exact at
    that weighting's candidates, +inf elsewhere.

    Each query's candidates under any weighting get one exact difference
    scan into a zeroed (n_train, 40) buffer, at their own rows. Every
    weighting is then one (n_train, 40) @ w product over the whole buffer,
    as a full scan makes it: a row's sum depends only on its values and
    its position, so every candidate gets the full scan's bits.
    """
    per_var = np.zeros((len(train), vocab.N_VARIABLES))
    d2 = [np.full(c.shape, np.inf) for c in candidates]
    for i, union in enumerate(np.logical_or.reduce(candidates)):
        _exact_terms(train, np.flatnonzero(union), grid[i], statics[i], per_var)
        for rows, cand, w in zip(d2, candidates, weightings):
            rows[i, cand[i]] = (per_var @ w)[cand[i]]
    return d2


def nearest(queries: Frames, train: Frames, weightings, k, leave_one_out=False) -> list:
    """The k nearest training patients of each query, under each of several weightings.

    Returns one (idx, d2_sel) per weighting (a vector of 40 weights): the
    columns of `train`, (q, k), nearest first with equal distances by
    ascending patient_id, and their weighted squared distances. That
    order is total, so the first j columns are the j nearest for any
    j <= k. With leave_one_out, training entries sharing a query's
    patient_id are excluded.

    The result is that of an exact difference scan of every query against
    every training patient, bit for bit, so a query identical to a
    training patient lies at exactly 0: only the candidates the gram
    screen (_screen) cannot rule out get that scan, and top_k selects
    from their distances with +inf elsewhere. Queries go in blocks of
    about SCREEN_ELEMENTS / n_train. A query with a candidate at a
    non-finite exact distance, where the screen's bound does not hold,
    is scanned in full.
    """
    if queries.grid.shape[1:] != train.grid.shape[1:]:
        raise PatsimError("query grid does not match training grid")
    excluded = 0
    if leave_one_out and len(queries):
        copies = Counter(train.ids)
        excluded = max(copies[pid] for pid in queries.ids)
    if k > len(train) - excluded:
        raise PatsimError(f"k={k} but only {len(train) - excluded} candidate neighbors")
    n_dyn, cells = train.grid.shape[1:]
    scales = [np.concatenate([np.repeat(np.sqrt(w[:n_dyn] / cells), cells),
                              np.sqrt(w[n_dyn:])]) for w in weightings]
    flat_train, train_ids = _flat(train.grid, train.statics), np.array(train.ids)
    out = [(np.empty((len(queries), k), dtype=np.intp), np.empty((len(queries), k)))
           for _ in weightings]
    step = max(1, SCREEN_ELEMENTS // len(train))
    for lo in range(0, len(queries), step):
        block = slice(lo, lo + step)
        grid, statics = queries.grid[block], queries.statics[block]
        left_out = (np.array(queries.ids[block])[:, None] == train_ids if leave_one_out
                    else np.zeros((len(grid), len(train)), dtype=bool))
        flat = _flat(grid, statics)
        candidates = [_screen(flat * s, flat_train * s, k, left_out) for s in scales]
        d2 = _exact_rows(grid, statics, train, weightings, candidates)
        unsure = np.logical_or.reduce([(c & ~np.isfinite(rows)).any(axis=1)
                                       for c, rows in zip(candidates, d2)])
        if unsure.any():
            for c in candidates:
                c[unsure] = ~left_out[unsure]
            d2 = _exact_rows(grid, statics, train, weightings, candidates)
        for (idx, d2_sel), rows in zip(out, d2):
            idx[block] = top_k(rows, k)
            d2_sel[block] = np.take_along_axis(rows, idx[block], axis=1)
    return out


def top_k(d2, k) -> np.ndarray:
    """Column indices of the k smallest entries of each row, nearest first.

    Columns are patients in ascending patient_id order, and equal distances
    resolve by ascending column, hence by patient_id. A partition finds
    each row's k-th smallest value; every entry up to it, all boundary ties
    included, is sorted by (distance, column). Where no row ties at its
    k-th value, every row holds exactly k such entries, in ascending
    column order, and a stable sort of their (n, k) distances gives that
    order; otherwise one lexsort orders them all. Callers exclude a
    candidate by setting its entry to +inf. A NaN entry sorts as +inf.
    """
    d2 = np.asarray(d2)
    n, n_cols = d2.shape
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    # np.partition puts NaN after +inf, so only a row whose k-th value is not finite can
    # hold a NaN among its k smallest, or keep fewer than k entries up to it
    if not np.isfinite(kth).all() and np.isnan(d2).any():
        d2 = np.where(np.isnan(d2), np.inf, d2)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    # np.nonzero's (rows, cols), from the flat positions, which numpy finds far faster
    rows, cols = np.divmod(np.flatnonzero(d2 <= kth), n_cols)
    starts = np.searchsorted(rows, np.arange(n))
    if len(cols) == n * k and (starts == np.arange(0, n * k, k)).all():
        cols = cols.reshape(n, k)
        order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
        return np.take_along_axis(cols, order, axis=1)
    order = np.lexsort((cols, d2[rows, cols], rows))
    return cols[order][starts[:, None] + np.arange(k)]


def decide_rows(d2_sel, y_sel, mode, threshold=RunConfig.threshold) -> tuple:
    """(labels, scores) for rows of selected neighbor distances and labels.

    Majority mode: label is the most frequent neighbor label, voting ties
    going to the positive class; score is the positive-vote fraction.
    Weighted mode: score is the similarity-weighted positive fraction
    sum(s*y)/sum(s), s = exp(-d2), and the label is score >= threshold; a
    row whose similarities all underflow to 0 has no score, and raises.
    """
    if mode == "majority":
        pos = y_sel.sum(axis=1)
        return (2 * pos >= y_sel.shape[1]).astype(int), pos / y_sel.shape[1]
    s = np.exp(-d2_sel)
    total = s.sum(axis=1)
    if not total.all():
        raise PatsimError(f"weighted mode: at these weights every neighbor similarity exp(-d2) "
                          f"of {(total == 0).sum()} of {len(total)} patients underflows to 0; "
                          f"smaller weights or majority mode can score them")
    scores = (s * y_sel).sum(axis=1) / total
    return (scores >= threshold).astype(int), scores


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
    mode: str = RunConfig.mode
    threshold: float = RunConfig.threshold

    def __post_init__(self):
        check_choices(**vars(self))
        if self.k > len(self.frames):
            raise PatsimError(f"k={self.k} with {len(self.frames)} training patients")
        if not isinstance(self.weights, FeatureWeights):
            self.weights = FeatureWeights(self.weights)


def classify_batch(queries: Frames, model: Model, leave_one_out=False) -> tuple:
    """Predict (labels, scores) for all queries with one selection and one decision.

    With leave_one_out, training entries sharing a query's patient_id are
    not among that query's candidates.
    """
    (idx, d2_sel), = nearest(queries, model.frames, [model.weights.values], model.k,
                             leave_one_out)
    return decide_rows(d2_sel, model.frames.labels[idx], model.mode, model.threshold)


def neighbors(query, model: Model, leave_one_out=False) -> tuple:
    """`nearest`'s (idx, d2_sel), each of length k, for one FramedPatient query."""
    (idx, d2_sel), = nearest(stack([query]), model.frames, [model.weights.values], model.k,
                             leave_one_out)
    return idx[0], d2_sel[0]
