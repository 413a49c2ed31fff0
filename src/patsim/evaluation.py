"""Evaluation protocol: splits, stratified folds, metrics, and the
Friedman-gated pairwise Wilcoxon comparison between methods.

Cross-validation refits scaling statistics and feature weights on the
training folds of every split, so nothing leaks from a held-out fold.
Fold F-measures are the quantity the statistical tests compare.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import framing, tables, vocab
from .config import RunConfig, check_choices
from .errors import (
    BadConfig,
    DegenerateMatrix,
    DimensionMismatch,
    FoldProcessDied,
    MalformedRow,
    SingleClassCohort,
    TooFewPairs,
    TooFewPerClass,
)
from .knn import FeatureWeights, decide_rows, nearest
from .streams import substream
from .weights import TrainConfig, Workspace, filter_weights, train_gd


@dataclass
class FoldMetrics:
    fold_index: int
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f_measure: float


def prf(tp, fp, fn) -> tuple:
    """Precision, recall, F-measure on the positive class; 0/0 counts as 0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def fold_metrics(fold_index, y_true, y_pred) -> FoldMetrics:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    precision, recall, f = prf(tp, fp, fn)
    return FoldMetrics(fold_index, tp, fp, fn, tn, precision, recall, f)


def _shuffled_classes(patient_ids, labels, rng):
    """Each class's patient ids (class 0 first), sorted, then shuffled by `rng`."""
    patient_ids = list(patient_ids)
    for cls in (0, 1):
        members = sorted(pid for pid, y in zip(patient_ids, labels) if y == cls)
        rng.shuffle(members)
        yield members


def split_dev_validation(patient_ids, labels, seed) -> tuple:
    """Stratified 50/50 split, deterministic under the seed.

    Per class the development side gets the ceiling half, so each half's
    class counts are within one patient of an exact halving.
    """
    labels = np.asarray(labels, dtype=int)
    if len(np.unique(labels)) < 2:
        raise SingleClassCohort("both classes are required for a stratified split")
    dev, validation = [], []
    for members in _shuffled_classes(patient_ids, labels, substream(seed, "split")):
        half = (len(members) + 1) // 2
        dev.extend(members[:half])
        validation.extend(members[half:])
    return sorted(dev), sorted(validation)


def kfold(patient_ids, labels, k=RunConfig.folds, seed=0) -> list:
    """Stratified k disjoint folds covering the input; sizes differ by <= 1.

    Shuffled members of each class are dealt round-robin with a running
    fold pointer, so both the per-class counts and the total sizes stay
    balanced.
    """
    labels = np.asarray(labels, dtype=int)
    for cls in (0, 1):
        if int((labels == cls).sum()) < k:
            raise TooFewPerClass(f"class {cls} has fewer than {k} members")
    folds = [[] for _ in range(k)]
    pointer = 0
    for members in _shuffled_classes(patient_ids, labels, substream(seed, "folds")):
        for pid in members:
            folds[pointer % k].append(pid)
            pointer += 1
    return [sorted(f) for f in folds]


@dataclass
class MethodSpec:
    """One classifier configuration entering a comparison."""

    name: str
    kind: str = "knn"                      # knn | majority | linear
    representation: str = RunConfig.representation
    weighting: str = RunConfig.weighting
    features: str = RunConfig.features
    k: int = RunConfig.k
    mode: str = RunConfig.mode
    threshold: float = RunConfig.threshold
    learning_rate: float = RunConfig.learning_rate
    max_epochs: int = RunConfig.max_epochs
    manual_weights: FeatureWeights | None = None

    def __post_init__(self):
        check_choices(**vars(self))
        if self.weighting == "manual" and self.manual_weights is None:
            raise BadConfig("manual weighting requires a loaded weights file")

    def active_mask(self) -> np.ndarray:
        active = np.ones(vocab.N_VARIABLES, dtype=bool)
        if self.features == "dynamic_only":
            active[vocab.N_DYNAMIC:] = False
        elif self.features == "static_only":
            active[: vocab.N_DYNAMIC] = False
        return active


def _scale_split(train_raw, test_raw) -> tuple:
    """Fit scaling on the training side, then scale both sides with it.

    A cohort without a mask holds aggregation tables.
    """
    if train_raw.mask is None:
        fit, scale = framing.fit_aggregation_scaling, framing.scale_aggregates
    else:
        fit, scale = framing.fit_scaling, framing.scale_frames
    stats = fit(train_raw)
    return scale(train_raw, stats), scale(test_raw, stats)


def _learn_weights(fold: Workspace, method: MethodSpec) -> FeatureWeights:
    active = method.active_mask()
    if method.weighting == "gd":
        cfg = TrainConfig(learning_rate=method.learning_rate,
                          max_epochs=method.max_epochs, k=method.k)
        learned, _ = train_gd(fold, cfg, active=active)
        return learned
    if method.weighting == "none":
        return FeatureWeights(np.where(active, 1.0, 0.0))
    if method.weighting == "manual":
        return FeatureWeights(method.manual_weights.values * active)
    return filter_weights(fold, method.weighting, active=active)


def _fit_linear_scorer(x, y, iters=300, lr=0.5):
    """Plain full-batch logistic fit; a deterministic stand-in baseline."""
    w = np.zeros(x.shape[1])
    b = 0.0
    n = len(y)
    for _ in range(iters):
        z = np.clip(x @ w + b, -30, 30)
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        w -= lr * (x.T @ err) / n
        b -= lr * err.mean()
    return w, b


def _baseline_prediction(train_scaled, test_scaled, method: MethodSpec) -> np.ndarray:
    """Test-side predictions of a majority or linear method."""
    y_train = train_scaled.labels.astype(float)
    if method.kind == "majority":
        return np.full(len(test_scaled), int(y_train.mean() >= 0.5), dtype=int)
    x_train, x_test = (np.hstack([f.grid.reshape(len(f), -1), f.statics])
                       for f in (train_scaled, test_scaled))
    w, b = _fit_linear_scorer(x_train, y_train)
    return (x_test @ w + b >= 0).astype(int)


def _predict_fold_methods(train_scaled, test_scaled, methods) -> list:
    """Each method's test-side predictions on one scaled fold.

    Every kNN method first learns its weights on one shared Workspace,
    which builds the leave-one-out tensor and the filter tables once, on
    first use. The workspace, and with it the tensor, is then dropped, and
    one nearest() search at the largest k finds each query's neighbors
    under all the learned weightings. Each method decides from the first
    k of them: (distance, patient_id) orders them totally, so those are
    its own k nearest.
    """
    knn_at = [i for i, m in enumerate(methods) if m.kind == "knn"]
    decided = {}
    if knn_at:
        fold = Workspace(train_scaled)
        learned = [_learn_weights(fold, methods[i]).values for i in knn_at]
        del fold    # frees the tensor before the test side is searched
        found = nearest(test_scaled, train_scaled, learned, max(methods[i].k for i in knn_at))
        for i, (idx, d2_sel) in zip(knn_at, found):
            m = methods[i]
            decided[i] = decide_rows(d2_sel[:, :m.k], train_scaled.labels[idx[:, :m.k]],
                                     m.mode, m.threshold)[0]
    return [decided[i] if m.kind == "knn" else _baseline_prediction(train_scaled, test_scaled, m)
            for i, m in enumerate(methods)]


def _run_fold(job, i) -> list:
    """The FoldMetrics of every method of `job` (patients, folds as rows, methods) on fold `i`."""
    patients, folds, methods = job
    test_raw = patients.take(folds[i])
    train_scaled, test_scaled = _scale_split(
        patients.take(np.delete(np.arange(len(patients)), folds[i])), test_raw)
    return [fold_metrics(i, test_raw.labels, predicted) for predicted in
            _predict_fold_methods(train_scaled, test_scaled, methods)]


# The job of the fold pool being run. It is set before the pool forks, so
# each child inherits it: only a fold index goes out and only that fold's
# metrics come back, and the cohort is never pickled.
_JOB = None


def _run_inherited_fold(i) -> list:
    return _run_fold(_JOB, i)


def _fold_pool(processes):
    """A pool of `processes` children forked from this one; they inherit `_JOB`."""
    # imported here, so commands that run no pool (train, predict) never load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=processes,
                               mp_context=multiprocessing.get_context("fork"))


def _run_folds_in_processes(job, processes) -> list:
    """Every fold's metrics, in fold order, from a pool of forked processes."""
    from concurrent.futures.process import BrokenProcessPool
    global _JOB
    pool = _fold_pool(processes)
    _JOB = job          # the children fork on the first submit, inside map
    try:
        return list(pool.map(_run_inherited_fold, range(len(job[1]))))
    except BrokenProcessPool:
        raise FoldProcessDied("a cross-validation fold process died before "
                              "returning its fold") from None
    finally:
        pool.shutdown(cancel_futures=True)
        _JOB = None


def cross_validate(patients, methods, k_folds=RunConfig.folds, seed=0, workers=1) -> dict:
    """Stratified k-fold cross-validation of several methods on shared folds.

    `patients` is a pre-imputation framing.Frames (framed or aggregated).
    Folds are outer and methods inner: each fold's scaling statistics are
    fit on its training side and applied once, and every method predicts
    from the same scaled fold and its shared neighbor workspace; feature
    weights are refit per method on the training side.
    With `workers` > 1 the folds run in min(workers, k_folds) forked
    processes; the metrics do not depend on it.
    Returns method name -> one FoldMetrics per fold, ordered by fold index.
    """
    # rows sort as their ascending patient ids do, so these are the folds of the ids, as rows
    folds = kfold(range(len(patients)), patients.labels, k=k_folds, seed=seed)
    job = (patients, folds, methods)
    processes = min(workers or 1, k_folds)
    if processes > 1:
        per_fold = _run_folds_in_processes(job, processes)
    else:
        per_fold = [_run_fold(job, i) for i in range(k_folds)]
    return {method.name: [fold[j] for fold in per_fold] for j, method in enumerate(methods)}


# ---------------------------------------------------------------------------
# statistical tests


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of their positions.

    A tie group at sorted positions i..j (0-based) has i entries below it and
    j + 1 at or below it, so its rank is (i + (j + 1) + 1) / 2.
    """
    values = np.asarray(values, dtype=float)
    ordered = np.sort(values)
    below = np.searchsorted(ordered, values, "left")
    return (below + np.searchsorted(ordered, values, "right") + 1) / 2.0


def friedman(matrix) -> tuple:
    """Friedman chi-square test over a folds-by-methods matrix.

    Methods are ranked within each fold (average ranks on ties); the
    statistic uses the standard chi-square form with tie correction, and
    the p-value comes from the chi-square distribution with M-1 degrees of
    freedom. A matrix whose every fold is fully tied yields (0, 1).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2 or matrix.shape[1] < 2:
        raise DegenerateMatrix("need at least 2 folds and 2 methods")
    n, m = matrix.shape
    ranks = np.stack([_average_ranks(row) for row in matrix])
    rank_sums = ranks.sum(axis=0)
    ssbn = float((rank_sums ** 2).sum())
    numerator = 12.0 / (n * m * (m + 1)) * ssbn - 3.0 * n * (m + 1)
    ties = 0.0
    for row in matrix:
        _, counts = np.unique(row, return_counts=True)
        ties += float((counts ** 3 - counts).sum())
    correction = 1.0 - ties / (n * m * (m ** 2 - 1))
    statistic = numerator / correction if correction > 0 else 0.0
    statistic = max(statistic, 0.0)
    # imported here, so commands that compare nothing (train, predict) never load scipy
    from scipy.special import chdtrc
    p_value = float(chdtrc(m - 1, statistic))
    return float(statistic), p_value


def _exact_signed_rank_p(ranks2, m2) -> float:
    """Exact two-sided p over all 2^n sign assignments.

    `ranks2` are doubled ranks (always integers), `m2` the doubled observed
    min(W+, W-). Counts subset sums by dynamic programming, which
    enumerates the full sign-assignment distribution.
    """
    total = int(ranks2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in ranks2:
        r = int(r)
        counts[r:] += counts[: total + 1 - r].copy()
    n_assignments = 2.0 ** len(ranks2)
    low = counts[: m2 + 1].sum()
    if total - m2 <= m2:
        return 1.0
    high = counts[total - m2 :].sum()
    return float(min(1.0, (low + high) / n_assignments))


def wilcoxon_signed_rank(a, b) -> tuple:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks. Exact p by enumeration of the 2^n sign assignments for n <= 25,
    normal approximation with continuity and tie correction otherwise.
    Returns (min(W+, W-), p).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch("paired samples must have equal length")
    d = a - b
    d = d[d != 0]
    n = len(d)
    if n < 5:
        raise TooFewPairs(f"only {n} non-zero differences, need at least 5")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    statistic = min(w_plus, w_minus)
    if n <= 25:
        ranks2 = np.rint(2 * ranks).astype(int)
        p = _exact_signed_rank_p(ranks2, int(round(2 * statistic)))
        return statistic, p
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= float((counts ** 3 - counts).sum()) / 48.0
    correction = 0.5 * np.sign(w_plus - mean)
    z = (w_plus - mean - correction) / np.sqrt(var)
    from scipy.special import ndtr
    p = float(min(1.0, 2.0 * ndtr(-abs(z))))
    return statistic, p


# ---------------------------------------------------------------------------
# comparison report


@dataclass
class PairwiseResult:
    method_a: str
    method_b: str
    statistic: float
    p_value: float
    significant: bool


@dataclass
class ComparisonReport:
    methods: list
    f_measures: np.ndarray                 # (n_folds, n_methods)
    mean_precision: dict = field(default_factory=dict)
    mean_recall: dict = field(default_factory=dict)
    mean_f_measure: dict = field(default_factory=dict)
    friedman_statistic: float = 0.0
    friedman_p: float = 1.0
    pairwise: list = field(default_factory=list)
    alpha: float = 0.05


def compare(fold_metrics_by_method: dict, alpha=ComparisonReport.alpha) -> ComparisonReport:
    """Friedman test across methods, pairwise Wilcoxon only if it fires.

    Input maps method name to its per-fold metrics (all methods over the
    same folds). Pairwise tests run on fold F-measures and only when the
    Friedman p-value is below alpha, which lies in (0, 1).
    """
    check_choices(alpha=alpha)
    methods = list(fold_metrics_by_method)
    if len(methods) < 2:
        raise DegenerateMatrix("need at least two methods to compare")
    n_folds = {len(v) for v in fold_metrics_by_method.values()}
    if len(n_folds) != 1:
        raise DegenerateMatrix("methods cover different numbers of folds")
    f_matrix = np.column_stack([
        [m.f_measure for m in fold_metrics_by_method[name]] for name in methods
    ])
    report = ComparisonReport(methods=methods, f_measures=f_matrix, alpha=alpha)
    for name in methods:
        ms = fold_metrics_by_method[name]
        report.mean_precision[name] = float(np.mean([m.precision for m in ms]))
        report.mean_recall[name] = float(np.mean([m.recall for m in ms]))
        report.mean_f_measure[name] = float(np.mean([m.f_measure for m in ms]))
    report.friedman_statistic, report.friedman_p = friedman(f_matrix)
    if report.friedman_p < alpha:
        for i in range(len(methods)):
            for j in range(i + 1, len(methods)):
                try:
                    stat, p = wilcoxon_signed_rank(f_matrix[:, i], f_matrix[:, j])
                except TooFewPairs:
                    # methods with (near-)identical fold scores carry no
                    # evidence of a difference
                    stat, p = 0.0, 1.0
                report.pairwise.append(PairwiseResult(
                    methods[i], methods[j], stat, p, p < alpha))
    return report


def report_to_dict(report: ComparisonReport) -> dict:
    return {
        "methods": report.methods,
        "alpha": report.alpha,
        "mean_precision": report.mean_precision,
        "mean_recall": report.mean_recall,
        "mean_f_measure": report.mean_f_measure,
        "fold_f_measures": [[float(x) for x in row] for row in report.f_measures],
        "friedman": {
            "statistic": report.friedman_statistic,
            "p_value": report.friedman_p,
        },
        "pairwise": [asdict(p) for p in report.pairwise],
    }


def report_to_text(report: ComparisonReport) -> str:
    """Aligned plain-text table of per-method precision/recall/F plus tests."""
    width = max(len(name) for name in report.methods)
    lines = [f"{'method':<{width}}  precision  recall  f_measure"]
    for name in report.methods:
        lines.append(
            f"{name:<{width}}  {report.mean_precision[name]:9.4f}"
            f"  {report.mean_recall[name]:6.4f}  {report.mean_f_measure[name]:9.4f}"
        )
    lines.append("")
    lines.append(
        f"Friedman chi-square = {report.friedman_statistic:.6f}, "
        f"p = {report.friedman_p:.6g}"
    )
    if report.pairwise:
        lines.append(f"pairwise Wilcoxon signed-rank (alpha = {report.alpha}):")
        for p in report.pairwise:
            mark = "*" if p.significant else " "
            lines.append(
                f"  {p.method_a} vs {p.method_b}: W = {p.statistic:.1f}, "
                f"p = {p.p_value:.6g} {mark}"
            )
    else:
        lines.append("pairwise tests not run (Friedman not significant)")
    return "\n".join(lines) + "\n"


FOLD_METRICS_HEADER = "fold,tp,fp,fn,tn,precision,recall,f_measure"


def save_fold_metrics(metrics, path) -> None:
    tables.write_rows(path, FOLD_METRICS_HEADER, (
        f"{m.fold_index},{m.tp},{m.fp},{m.fn},{m.tn},"
        f"{repr(m.precision)},{repr(m.recall)},{repr(m.f_measure)}" for m in metrics))


_FOLD_KINDS = (int,) * 5 + (float,) * 3


def load_fold_metrics(path) -> list:
    """Read a file written by save_fold_metrics; a bad cell names its file, line and column."""
    out = []
    for line_no, cells in tables.read_rows(path, FOLD_METRICS_HEADER):
        values = [tables.finite_number(cell, kind) for cell, kind in zip(cells, _FOLD_KINDS)]
        if None in values:
            col = values.index(None)
            raise MalformedRow(f"bad value {cells[col]!r} for "
                               f"{FOLD_METRICS_HEADER.split(',')[col]!r}", line_no, path)
        out.append(FoldMetrics(*values))
    return out
