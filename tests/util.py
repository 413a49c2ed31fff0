import numpy as np

from patsim import ingest, vocab
from patsim.framing import N_AGG, FramedPatient, stack
from patsim.knn import NeighborSet, classify_batch, decide_rows


def random_dense_frames(n, rng, n_buckets=24, prevalence=0.4):
    """Random dense scaled frames (grids already in [0, 1])."""
    frames = []
    width = len(str(n))
    for i in range(n):
        frames.append(FramedPatient(
            patient_id=f"q{i:0{width}d}",
            dynamic=rng.random((vocab.N_DYNAMIC, n_buckets)),
            mask=np.ones((vocab.N_DYNAMIC, n_buckets), dtype=bool),
            statics=rng.random(vocab.N_STATIC),
            label=int(rng.random() < prevalence),
        ))
    # ensure both classes are present
    if n >= 2:
        frames[0].label = 0
        frames[1].label = 1
    return frames


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

    Equal distances keep ascending column order, +inf entries sort last.
    """
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


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
