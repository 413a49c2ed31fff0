from dataclasses import dataclass, field

import numpy as np
from hypothesis import strategies as st

from patsim import framing, ingest, vocab, weights
from patsim.framing import N_AGG, FramedPatient, stack
from patsim.knn import classify_batch, decide_rows, nearest, top_k


def random_dense_frames(n, rng, n_buckets=24, prevalence=0.4):
    """Random dense scaled frames (grids already in [0, 1])."""
    frames = []
    width = len(str(n))
    for i in range(n):
        frames.append(FramedPatient(
            patient_id=f"q{i:0{width}d}",
            dynamic=rng.random((vocab.N_DYNAMIC, n_buckets)),
            statics=rng.random(vocab.N_STATIC),
            label=int(rng.random() < prevalence),
        ))
    # ensure both classes are present
    if n >= 2:
        frames[0].label = 0
        frames[1].label = 1
    return frames


def mask_lines(ids, masks) -> list:
    """The lines of a mask file for these patients and (36, n_buckets) masks, header first."""
    n_buckets = masks[0].shape[1]
    header = ["patient_id"] + [f"d{v:02d}_t{t:02d}" for v in range(vocab.N_DYNAMIC)
                               for t in range(n_buckets)]
    return [",".join(header)] + [",".join([pid] + ["1" if b else "0" for b in mask.ravel()])
                                 for pid, mask in zip(ids, masks)]


def quantized_frames(n, rng, levels=3, n_buckets=24, duplicates=3, prevalence=0.4):
    """Dense frames on a coarse value grid: a tie-heavy cohort.

    Every cell takes one of `levels` evenly spaced values in [0, 1], so
    many pairs lie at equal distances, and `duplicates` patients copy
    another patient's grid and statics exactly (distance 0 between them).
    The list comes back shuffled, not in patient_id order.
    """
    frames = random_dense_frames(n, rng, n_buckets=n_buckets, prevalence=prevalence)
    for f in frames:
        f.dynamic = np.round(f.dynamic * (levels - 1)) / (levels - 1)
        f.statics = np.round(f.statics * (levels - 1)) / (levels - 1)
    for _ in range(duplicates if n >= 2 else 0):
        src, dst = rng.choice(n, size=2, replace=False)
        frames[dst].dynamic = frames[src].dynamic.copy()
        frames[dst].statics = frames[src].statics.copy()
    return [frames[i] for i in rng.permutation(n)]


def reference_fit_scaling(frames) -> framing.ScalingStats:
    """Reference scaling statistics of a raw cohort (NaN = unobserved), pass by pass.

    The arithmetic framing.fit_scaling replaced: each variable's min and
    max over all its observed cells at once, then per-(variable, bucket)
    sums and counts, pooled along the buckets for the variable means, and
    the statics column by column. fit_scaling must equal it bit for bit.
    """
    dyn, statics = frames.grid, frames.statics
    mask = ~np.isnan(dyn)
    observed_var = mask.any(axis=(0, 2))
    dyn_min = np.where(observed_var, np.where(mask, dyn, np.inf).min(axis=(0, 2)), np.nan)
    dyn_max = np.where(observed_var, np.where(mask, dyn, -np.inf).max(axis=(0, 2)), np.nan)
    cell_counts = mask.sum(axis=0)
    cell_sums = np.where(mask, dyn, 0.0).sum(axis=0)
    var_counts, var_sums = cell_counts.sum(axis=1), cell_sums.sum(axis=1)
    with np.errstate(invalid="ignore"):
        bucket_mean = np.where(cell_counts > 0, cell_sums / np.maximum(cell_counts, 1), np.nan)
        dyn_mean = np.where(var_counts > 0, var_sums / np.maximum(var_counts, 1), np.nan)
    seen = ~np.isnan(statics)
    any_seen = seen.any(axis=0)
    static_min = np.where(any_seen, np.where(seen, statics, np.inf).min(axis=0), np.nan)
    static_max = np.where(any_seen, np.where(seen, statics, -np.inf).max(axis=0), np.nan)
    with np.errstate(invalid="ignore"):
        static_mean = np.where(any_seen, np.where(seen, statics, 0.0).sum(axis=0)
                               / np.maximum(seen.sum(axis=0), 1), np.nan)
    return framing.ScalingStats(
        n_buckets=dyn.shape[2], dyn_min=dyn_min, dyn_max=dyn_max, dyn_mean=dyn_mean,
        dyn_bucket_mean=bucket_mean, dyn_degenerate=~observed_var | (dyn_max <= dyn_min),
        static_min=static_min, static_max=static_max, static_mean=static_mean,
        static_degenerate=~any_seen | (static_max <= static_min))


def reference_aggregation_scaling(train, test) -> tuple:
    """Reference scaling of aggregation tables: the scaled (grid, statics) of `test`.

    The arithmetic of the aggregation-only fit and apply that fit_scaling
    and scale_frames replaced: each (variable, statistic) column and each
    static is on its own, with the min, max and mean of its training cells
    that are not NaN. A NaN cell takes that mean, or 0 where the column was
    never observed; a never-observed or constant column scales to 0.5 and
    the rest clip into [0, 1]. scale_frames(test, fit_scaling(train)) must
    equal it bit for bit.
    """
    def scaled(fit_on, values):
        seen = ~np.isnan(fit_on)
        counts = seen.sum(axis=0)
        ever = counts > 0
        lo = np.where(ever, np.where(seen, fit_on, np.inf).min(axis=0), np.nan)
        hi = np.where(ever, np.where(seen, fit_on, -np.inf).max(axis=0), np.nan)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(ever, np.where(seen, fit_on, 0.0).sum(axis=0)
                            / np.maximum(counts, 1), np.nan)
            filled = np.where(np.isnan(values), np.where(np.isnan(mean), 0.0, mean), values)
            out = np.clip((filled - lo) / (hi - lo), 0.0, 1.0)
        return np.where(~ever | (hi <= lo), 0.5, out)

    return scaled(train.grid, test.grid), scaled(train.statics, test.statics)


def square_distance_tensor(grid, statics) -> np.ndarray:
    """Reference per-variable pairwise squared distances, square: shape (40, n, n).

    The gram-matrix build the packed leave-one-out tensor replaced, with
    its symmetrizing step and zero diagonal; the packed tensor must equal
    its upper triangle bit for bit. The gram is taken over the distinct
    patients (grid and statics equal bit for bit) in their first-seen
    order, and each copy of a patient gets its first copy's entries.
    """
    n, n_dyn, n_cols = grid.shape
    first_copy = {}
    copy_of = np.array([first_copy.setdefault(row.tobytes(), len(first_copy))
                        for row in np.concatenate([grid.reshape(n, -1), statics], axis=1)])
    distinct = np.array([copy_of.tolist().index(c) for c in range(len(first_copy))])
    out = np.empty((vocab.N_VARIABLES, n, n))
    for v in range(n_dyn):
        x = (grid[:, v, :] - grid[:, v, :].mean(axis=0))[distinct]
        sq = (x * x).sum(axis=1)
        d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        d = np.maximum(d, 0.0) / n_cols
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        out[v] = d[np.ix_(copy_of, copy_of)]
    for j in range(statics.shape[1]):
        s = statics[:, j]
        out[n_dyn + j] = (s[:, None] - s[None, :]) ** 2
    return out


def equal_frequency_bins(x) -> np.ndarray:
    """Reference binning of one variable's summaries: 10 equal-frequency bins."""
    edges = np.quantile(x, np.linspace(0.1, 0.9, weights.N_BINS - 1))
    return np.searchsorted(edges, x, side="right")


def contingency(bins, labels) -> np.ndarray:
    """Reference (bin, label) counts of one variable as floats; empty bins dropped."""
    counts = np.bincount(2 * bins + labels.astype(int), minlength=2 * weights.N_BINS)
    table = counts.reshape(weights.N_BINS, 2).astype(float)
    return table[table.sum(axis=1) > 0]


def chi_square_score(table) -> float:
    """Reference chi-square statistic of one compact (bin, label) table."""
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def _entropy(counts) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _gini(counts) -> float:
    p = counts / counts.sum()
    return float(1.0 - (p ** 2).sum())


def _impurity_gain(table, impurity) -> float:
    total = table.sum()
    within = sum((row.sum() / total) * impurity(row) for row in table)
    return float(impurity(table.sum(axis=0)) - within)


def information_gain_score(table) -> float:
    """Reference information gain of one compact (bin, label) table."""
    return _impurity_gain(table, _entropy)


def gini_score(table) -> float:
    """Reference gini gain of one compact (bin, label) table."""
    return _impurity_gain(table, _gini)


SCORERS = {"chi2": chi_square_score, "infogain": information_gain_score, "gini": gini_score}


def table_filter_scores(frames, method) -> np.ndarray:
    """Reference filter scores: each variable binned, tabulated and scored on its own.

    The per-variable path that weights.filter_score computes in whole-array
    passes; the two must agree bit for bit.
    """
    summaries = np.concatenate([frames.grid.mean(axis=2), frames.statics], axis=1)
    return np.array([SCORERS[method](contingency(equal_frequency_bins(x), frames.labels))
                     for x in summaries.T])


def full_scan(queries, train, weightings) -> np.ndarray:
    """Reference weighted squared distances (m, q, n_train): every query against every
    training patient, under each of the m weightings.

    One exact difference scan per query fills one reused (n_train, 40)
    buffer, and each weighting is one (n_train, 40) @ w product on it: the
    arithmetic knn.nearest applies to its candidates.
    """
    n_dyn = train.grid.shape[1]
    per_var = np.empty((len(train), vocab.N_VARIABLES))
    out = np.empty((len(weightings), len(queries), len(train)))
    for i, (grid, statics) in enumerate(zip(queries.grid, queries.statics)):
        per_var[:, :n_dyn] = ((train.grid - grid[None]) ** 2).mean(axis=2)
        per_var[:, n_dyn:] = (train.statics - statics[None]) ** 2
        for d2, w in zip(out, weightings):
            d2[i] = per_var @ w
    return out


def full_scan_nearest(queries, train, weightings, k, leave_one_out=False) -> list:
    """Reference (idx, d2_sel) per weighting: top_k over full_scan's rows, left-out at +inf."""
    d2 = full_scan(queries, train, weightings)
    if leave_one_out:
        d2[:, np.array(queries.ids)[:, None] == np.array(train.ids)] = np.inf
    return [(idx := top_k(rows, k), np.take_along_axis(rows, idx, axis=1)) for rows in d2]


@dataclass
class NeighborSet:
    """The k nearest training patients for one query.

    Entries are (train_patient_id, squared_distance, label), ascending by
    squared distance with patient_id breaking ties.
    """

    query_id: str
    entries: list = field(default_factory=list)


def variable_distances_sq(a, b) -> np.ndarray:
    """Reference: all 40 per-variable squared distances between two dense patients."""
    dyn = ((a.dynamic - b.dynamic) ** 2).mean(axis=1)
    return np.concatenate([dyn, (a.statics - b.statics) ** 2])


def scan_neighbors(query, train, w, k) -> NeighborSet:
    """Reference neighbor set of one query: every training patient, one pair at a time.

    Each pair's distance is variable_distances_sq @ w, and the scan sorts
    (distance, patient_id). The sums go in another order than
    knn.nearest's, so its distances agree with them only to rounding.
    """
    scan = sorted(((float(variable_distances_sq(query, t) @ w), t.patient_id, t.label)
                   for t in train), key=lambda item: (item[0], item[1]))
    return NeighborSet(query.patient_id, [(pid, d2, label) for d2, pid, label in scan[:k]])


def nearest_sets(queries, model, leave_one_out=False) -> list:
    """knn.nearest's neighbor sets for the rows of `queries`, a Frames, in its order."""
    (idx, d2_sel), = nearest(queries, model.frames, [model.weights.values], model.k,
                             leave_one_out)
    train = model.frames
    return [NeighborSet(pid, [(train.ids[i], float(d), int(train.labels[i]))
                              for i, d in zip(row, dist)])
            for pid, row, dist in zip(queries.ids, idx, d2_sel)]


def nearest_set(query, model, leave_one_out=False) -> NeighborSet:
    """knn.nearest's neighbor set of one query: a one-query batch."""
    return nearest_sets(stack([query]), model, leave_one_out)[0]


def classify(query, model):
    """(label, score) of one query: classify_batch of a one-query batch."""
    labels, scores = classify_batch(stack([query]), model)
    return int(labels[0]), float(scores[0])


def decide(neighbor_set: NeighborSet, mode, threshold=0.5) -> tuple:
    """(label, score) of one neighbor set under the given mode (see knn.decide_rows)."""
    d2 = np.array([[e[1] for e in neighbor_set.entries]])
    y = np.array([[e[2] for e in neighbor_set.entries]], dtype=int)
    labels, scores = decide_rows(d2, y, mode, threshold)
    return int(labels[0]), float(scores[0])


def soft_score(neighbor_set: NeighborSet) -> float:
    """Similarity-weighted positive fraction: sum(s*y)/sum(s), s = exp(-d2)."""
    return decide(neighbor_set, "weighted")[1]


def argsort_top_k(d2, k):
    """Reference selection: a stable row-wise argsort, first k columns.

    Equal distances keep ascending column order, +inf entries sort last,
    and a NaN entry sorts as +inf.
    """
    d2 = np.asarray(d2)
    return np.argsort(np.where(np.isnan(d2), np.inf, d2), axis=1, kind="stable")[:, :k]


def events_of(rows) -> ingest.Events:
    """Events of (patient_id, minute, variable, value) rows, kept in the given (file) order."""
    ids = list(dict.fromkeys(row[0] for row in rows))
    code = {pid: i for i, pid in enumerate(ids)}
    return ingest.Events(
        ids,
        np.array([code[row[0]] for row in rows], dtype=np.int32),
        np.array([row[1] for row in rows], dtype=np.int16),
        np.array([vocab.VARIABLE_INDEX[row[2]] for row in rows], dtype=np.int8),
        np.array([row[3] for row in rows], dtype=np.float64))


def cohort_of(rows, labels) -> ingest.Cohort:
    """The cohort of `labels` (patient_id -> label) with (patient_id, minute, variable, value) rows.

    build_cohort puts the rows in canonical order. A patient in `labels`
    without rows gets none, which build_cohort would reject and framing
    must handle.
    """
    with_rows = [pid for pid in labels if any(row[0] == pid for row in rows)]
    joined = ingest.build_cohort(events_of(rows), ingest.Outcomes(
        with_rows, np.array([labels[pid] for pid in with_rows], dtype=np.int64)))
    patient_ids = sorted(labels)
    renumber = np.array([patient_ids.index(pid) for pid in joined.patient_ids], dtype=np.int32)
    return ingest.Cohort(patient_ids, np.array([labels[pid] for pid in patient_ids]),
                         renumber[joined.patient], joined.minute, joined.variable, joined.value)


def framing_oracle(rows, labels, window_hours=2, horizon_hours=48) -> dict:
    """Per-event reference for frame_cohort and aggregate_cohort.

    Each patient's (patient_id, minute, variable, value) rows are sorted by
    (minute, variable), stable in file order, then bucketed and summarized
    one event at a time. Returns patient_id -> (dynamic, mask, statics,
    table) for every patient in `labels`.
    """
    n_buckets = horizon_hours // window_hours
    per_patient = {pid: [] for pid in labels}
    for row in rows:
        per_patient[row[0]].append(row)
    out = {}
    for pid, events in per_patient.items():
        events.sort(key=lambda row: (row[1], row[2]))
        sums = np.zeros((vocab.N_DYNAMIC, n_buckets))
        counts = np.zeros((vocab.N_DYNAMIC, n_buckets), dtype=int)
        statics = np.full(vocab.N_STATIC, np.nan)
        per_var = [[] for _ in range(vocab.N_DYNAMIC)]
        for _, minute, variable, value in events:
            if variable in vocab.STATIC_INDEX:
                if np.isnan(statics[vocab.STATIC_INDEX[variable]]):
                    statics[vocab.STATIC_INDEX[variable]] = value
                continue
            if minute >= horizon_hours * 60:
                continue
            v = vocab.DYNAMIC_INDEX[variable]
            sums[v, minute // (60 * window_hours)] += value
            counts[v, minute // (60 * window_hours)] += 1
            per_var[v].append(value)
        mask = counts > 0
        dynamic = np.where(mask, sums / np.maximum(counts, 1), np.nan)
        table = np.full((vocab.N_DYNAMIC, N_AGG), np.nan)
        for v, values in enumerate(per_var):
            table[v, 5] = len(values)
            if values:
                arr = np.asarray(values, dtype=float)
                table[v, :5] = [arr.min(), arr.max(), np.median(arr), arr[0], arr[-1]]
        out[pid] = (dynamic, mask, statics, table)
    return out


# ---------------------------------------------------------------------------
# mutations of a table file, for the reader equivalence and fuzz tests

# mutations that make any table file with at least one row malformed
FAULTS = ("drop_cell", "add_cell", "truncate", "header_only", "empty", "nan", "inf", "non_utf8")
# mutations that change the bytes: the row loop reads some as before and rejects others
RESHAPES = ("crlf", "blank", "space", "non_ascii", "shuffle", "no_final_newline", "odd_cell")
# cell texts where number parsers, or the fast path's byte rules, might disagree
ODD_CELLS = ("nan", "-inf", "1e400", "1_0", "5_0", " 1", "1 ", "0x10", "5.0", "+5", "05", "-0",
             "", "1d5", ".5", "5.", "1e5", "Heart rate", "é", "(1)")


def mutate(text, mutation, draw) -> str:
    """`text`, a table file with a header and at least one row, changed by `mutation`.

    `draw` is hypothesis's data.draw: it picks the row, cell and details,
    so a failing case shrinks. Write the result with
    `encode(errors="surrogateescape")`: "non_utf8" puts in a byte that
    no UTF-8 text holds, as that error handler decodes it.
    """
    head, *rows = text.splitlines()
    i = draw(st.integers(0, len(rows) - 1))
    cells = rows[i].split(",")
    j = draw(st.integers(1, len(cells) - 1))   # a cell after the id
    if mutation == "empty":
        return ""
    if mutation == "header_only":
        rows = []
    elif mutation == "drop_cell":
        rows[i] = ",".join(cells[:-1])
    elif mutation == "add_cell":
        rows[i] += ",1"
    elif mutation == "truncate":   # cut before the last comma, keeping part of the id
        rows[i] = rows[i][:draw(st.integers(1, max(1, rows[i].rindex(",") - 1)))]
    elif mutation in ("nan", "inf", "odd_cell"):
        cells[j] = {"nan": "nan", "inf": "inf"}.get(mutation) or draw(st.sampled_from(ODD_CELLS))
        rows[i] = ",".join(cells)
    elif mutation == "blank":
        rows.insert(i, draw(st.sampled_from(["", " ", "\t"])))
    elif mutation == "space":
        cells[j] = draw(st.sampled_from([" ", ""])) + cells[j] + draw(st.sampled_from([" ", ""]))
        rows[i] = ",".join(cells)
    elif mutation == "non_utf8":
        at, byte = draw(st.integers(0, len(rows[i]))), draw(st.sampled_from("\udcff\udcc3\udc80"))
        rows[i] = rows[i][:at] + byte + rows[i][at:]
    elif mutation == "non_ascii":
        rows[i] = "é" + rows[i]
    elif mutation == "shuffle":
        rows = draw(st.permutations(rows))
    out = "\n".join([head, *rows]) + "\n"
    if mutation == "crlf":
        return out.replace("\n", "\r\n")
    if mutation == "no_final_newline":
        return out[:-1]
    return out
