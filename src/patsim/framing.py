"""Standardization of irregular event lists into fixed-width representations.

Two representations are produced from the same raw events:

* time-frame grid: each dynamic variable averaged into fixed windows
  (default 2-hour windows over 48 hours, i.e. 24 values per variable),
* aggregation table: six summary statistics per dynamic variable
  (minimum, maximum, median, first, last, count).

Both share one min-max scaling, fitted on training patients only and
reused to transform anything else: an aggregation table scales as 216
one-bucket variables, one per (variable, statistic) column. The pipeline
works on whole `Frames` cohorts; the per-patient names left, `FramedPatient`
(a cohort's item, as `write_frames` walks it), `stack` and
`impute_and_scale`, stay because perfbench's set-up and tracer bind them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from . import tables, vocab
from .config import check_choices
from .errors import InputFault, PatsimError

AGG_FUNCTIONS = ("minimum", "maximum", "median", "first", "last", "count")
N_AGG = len(AGG_FUNCTIONS)


@dataclass
class FramedPatient:
    """One patient, as one row of a Frames cohort.

    On the time-frame grid `dynamic` is (36, n_buckets); before imputation
    it holds NaN wherever no event was observed, after scale_frames it is
    dense with every entry in [0, 1]. An aggregation row holds the (36, 6)
    table, columns in AGG_FUNCTIONS order.
    """

    patient_id: str
    dynamic: np.ndarray   # (36, n_buckets) or (36, 6) float, NaN = unobserved
    statics: np.ndarray   # (4,) float, NaN = unobserved
    label: int


@dataclass(frozen=True, eq=False)
class Frames(Sequence):
    """A cohort stacked in ascending patient_id order.

    Patient i is `ids[i]` with label `labels[i]`, feature grid `grid[i]`
    (36 variables by the time-frame buckets, or by the six aggregation
    statistics) and statics `statics[i]`. `aggregated` marks a cohort of
    aggregation tables. Item i is patient i's FramedPatient, whose arrays
    are views into these.
    """

    ids: list
    labels: np.ndarray    # (n,) int
    grid: np.ndarray      # (n, 36, c) float, NaN = unobserved before imputation
    statics: np.ndarray   # (n, 4) float
    _: KW_ONLY
    aggregated: bool = False

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i) -> FramedPatient:
        i = range(len(self.ids))[i]
        return FramedPatient(self.ids[i], self.grid[i], self.statics[i], int(self.labels[i]))

    def take(self, rows) -> Frames:
        """The patients at the given rows, copied; ascending rows keep the patient_id order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Frames([self.ids[r] for r in rows], self.labels[rows], self.grid[rows],
                      self.statics[rows], aggregated=self.aggregated)


def stack(rows) -> Frames:
    """The time-frame Frames of FramedPatient rows, sorted by patient_id (stable for equal ids)."""
    if not rows:
        raise PatsimError("cohort has no patients")
    rows = sorted(rows, key=lambda f: f.patient_id)
    return Frames([f.patient_id for f in rows], np.array([f.label for f in rows], dtype=int),
                  np.stack([f.dynamic for f in rows]), np.stack([f.statics for f in rows]))


def _first_statics(cohort) -> np.ndarray:
    """(n, 4) first value of each static in row order, NaN where never observed; no horizon."""
    rows = np.flatnonzero(cohort.variable >= vocab.N_DYNAMIC)
    keys, first = np.unique(cohort.patient[rows].astype(np.intp) * vocab.N_STATIC
                            + (cohort.variable[rows] - vocab.N_DYNAMIC), return_index=True)
    statics = np.full(cohort.n_patients * vocab.N_STATIC, np.nan)
    statics[keys] = cohort.value[rows[first]]
    return statics.reshape(cohort.n_patients, vocab.N_STATIC)


def _dynamic_rows(cohort, horizon_hours):
    """Indices of the dynamic rows before the horizon, and their (patient, variable) cell."""
    rows = np.flatnonzero((cohort.variable < vocab.N_DYNAMIC)
                          & (cohort.minute.astype(np.intp) < horizon_hours * 60))
    return rows, cohort.patient[rows].astype(np.intp) * vocab.N_DYNAMIC + cohort.variable[rows]


def frame_cohort(cohort, window_hours=vocab.WINDOW_HOURS,
                 horizon_hours=vocab.HORIZON_HOURS) -> Frames:
    """Average every patient's events into fixed time buckets, in patient_id order.

    Bucket t covers minutes [60*window_hours*t, 60*window_hours*(t+1));
    a cell is the arithmetic mean of the observations falling in it, summed
    in the cohort's row order. Events at or beyond the horizon are ignored.
    Statics take the first observed value. Unobserved cells are NaN.
    """
    check_choices(window_hours=window_hours, horizon_hours=horizon_hours)
    n_buckets = horizon_hours // window_hours
    rows, cell = _dynamic_rows(cohort, horizon_hours)
    cell = cell * n_buckets + cohort.minute[rows].astype(np.intp) // (60 * window_hours)
    shape = (cohort.n_patients, vocab.N_DYNAMIC, n_buckets)
    # bincount adds each cell's values in row order, one after another
    sums = np.bincount(cell, weights=cohort.value[rows], minlength=np.prod(shape))
    counts = np.bincount(cell, minlength=np.prod(shape))
    dynamic = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan).reshape(shape)
    return Frames(list(cohort.patient_ids), cohort.labels.astype(int), dynamic,
                  _first_statics(cohort))


def sparsity(frames: Frames) -> float:
    """Fraction of dynamic cells with no observation, before imputation."""
    if not frames:
        raise PatsimError("sparsity of an empty cohort is undefined")
    return int(np.isnan(frames.grid).sum()) / frames.grid.size


@dataclass
class ScalingStats:
    """Training-set statistics for imputing and scaling a cohort's grids.

    Mins/maxes pool all buckets of a variable; bucket means are per
    (variable, bucket) and NaN where that bucket was never observed.
    Degenerate variables (never observed, or constant) scale to 0.5. The
    shapes are the time-frame grid's: an aggregation table scales as 216
    one-bucket variables, its (variable, statistic) columns, so each
    column's statistics are its own.
    """

    n_buckets: int
    dyn_min: np.ndarray          # (36,)
    dyn_max: np.ndarray          # (36,)
    dyn_mean: np.ndarray         # (36,) pooled mean over observed cells
    dyn_bucket_mean: np.ndarray  # (36, n_buckets)
    dyn_degenerate: np.ndarray   # (36,) bool
    static_min: np.ndarray       # (4,)
    static_max: np.ndarray       # (4,)
    static_mean: np.ndarray      # (4,)
    static_degenerate: np.ndarray  # (4,) bool


def _column_sums(values) -> tuple:
    """(min, max, sum, count) over axis 0 of the observed entries, those not NaN.

    A column never observed has min +inf, max -inf, sum 0 and count 0.
    """
    observed = ~np.isnan(values)
    return (np.where(observed, values, np.inf).min(axis=0),
            np.where(observed, values, -np.inf).max(axis=0),
            np.where(observed, values, 0.0).sum(axis=0), observed.sum(axis=0))


def _column_stats(lo, hi, sums, counts) -> tuple:
    """(min, max, mean, degenerate) of columns from their _column_sums.

    Columns never observed get NaN statistics; they and constant columns
    are degenerate.
    """
    seen = counts > 0
    with np.errstate(invalid="ignore"):
        mean = np.where(seen, sums / np.maximum(counts, 1), np.nan)
    lo, hi = np.where(seen, lo, np.nan), np.where(seen, hi, np.nan)
    return lo, hi, mean, ~seen | (hi <= lo)


def _fill(values, mean):
    """NaN entries take the training mean, or 0 where that is NaN too."""
    return np.where(np.isnan(values), np.where(np.isnan(mean), 0.0, mean), values)


def _variable_grid(frames: Frames) -> np.ndarray:
    """The grid as (n, variables, buckets); an aggregation table's columns are variables.

    The (n, 36, 6) table is viewed as (n, 216, 1): over one bucket
    carry-forward changes nothing, and a variable's pooled statistics are
    its one column's own.
    """
    n, rows, cols = frames.grid.shape
    return frames.grid.reshape(n, rows * cols, 1) if frames.aggregated else frames.grid


def fit_scaling(frames: Frames) -> ScalingStats:
    """Fit per-variable scaling statistics from training frames only.

    One pass over the cells not NaN gives the sums of every (variable,
    bucket); a variable's statistics pool its buckets' sums. An aggregated
    cohort is fitted column by column.
    """
    if not frames:
        raise PatsimError("cannot fit scaling statistics on an empty cohort")
    if frames.grid.shape[1] != vocab.N_DYNAMIC:
        raise PatsimError("expected 36 dynamic variables")
    grid = _variable_grid(frames)
    lo, hi, sums, counts = _column_sums(grid)     # each (variables, n_buckets)
    dyn_min, dyn_max, dyn_mean, dyn_degenerate = _column_stats(
        lo.min(axis=1), hi.max(axis=1), sums.sum(axis=1), counts.sum(axis=1))
    return ScalingStats(grid.shape[2], dyn_min, dyn_max, dyn_mean,
                        _column_stats(lo, hi, sums, counts)[2], dyn_degenerate,
                        *_column_stats(*_column_sums(frames.statics)))


def _locf(values: np.ndarray) -> np.ndarray:
    """Carry the last observed value forward along the last axis (NaN = missing)."""
    observed = ~np.isnan(values)
    idx = np.where(observed, np.arange(values.shape[-1]), 0)
    np.maximum.accumulate(idx, axis=-1, out=idx)
    return np.take_along_axis(values, idx, axis=-1)


def _scale01(values, lo, hi, degenerate):
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = (values - lo) / span
    scaled = np.clip(scaled, 0.0, 1.0)
    return np.where(degenerate, 0.5, scaled)


def _impute_stack(dynamic, statics, stats: ScalingStats) -> tuple:
    """Fill unobserved cells of stacked raw grids (n, variables, nb) and statics (n, 4).

    Carry-forward first, then the training bucket mean, the pooled mean,
    and 0 when the variable was never observed in training. Values
    already present are never modified.
    """
    if dynamic.shape[1:] != stats.dyn_bucket_mean.shape:
        raise PatsimError(f"frame grid {dynamic.shape[1:]} does not match stats "
                          f"{stats.dyn_bucket_mean.shape}")
    return (_fill(_locf(dynamic), _fill(stats.dyn_bucket_mean, stats.dyn_mean[:, None])),
            _fill(statics, stats.static_mean))


def scale_frames(frames: Frames, stats: ScalingStats) -> Frames:
    """Dense, [0, 1]-scaled copy of a cohort, time frames or aggregates, in one pass.

    Every step is elementwise per patient, so a patient's result does not
    depend on the rest of the cohort.
    """
    filled, statics = _impute_stack(_variable_grid(frames), frames.statics, stats)
    return replace(frames,
                   grid=_scale01(filled, stats.dyn_min[:, None], stats.dyn_max[:, None],
                                 stats.dyn_degenerate[:, None]).reshape(frames.grid.shape),
                   statics=_scale01(statics, stats.static_min, stats.static_max,
                                    stats.static_degenerate))


def impute_and_scale(frame: FramedPatient, stats: ScalingStats) -> FramedPatient:
    """Dense, [0, 1]-scaled copy of one time-frame patient."""
    return scale_frames(stack([frame]), stats)[0]


def aggregate_cohort(cohort, horizon_hours=vocab.HORIZON_HOURS) -> Frames:
    """Summarize each dynamic variable by the six aggregation statistics.

    Events at or beyond the horizon are ignored; first/last follow the
    cohort's row order. A variable with no events gets count 0 and NaN for
    the other five. Statics are as in frame_cohort.
    """
    # the aggregates summarize the whole horizon as one window
    check_choices(window_hours=horizon_hours, horizon_hours=horizon_hours)
    rows, cell = _dynamic_rows(cohort, horizon_hours)
    order = np.argsort(cell, kind="stable")
    cell, values = cell[order], cohort.value[rows][order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    counts = np.diff(np.append(starts, len(cell)))
    ends = starts + counts
    table = np.full((cohort.n_patients * vocab.N_DYNAMIC, N_AGG), np.nan)
    table[:, 5] = 0.0
    at = cell[starts]
    table[at, 0] = np.minimum.reduceat(values, starts)
    table[at, 1] = np.maximum.reduceat(values, starts)
    # the median as np.median takes it: the mean of the middle value or middle two,
    # a sum that starts from +0.0, so the signs of equal zeros do not matter
    ranked = values[np.lexsort((values, cell))]
    lo, hi = ranked[starts + (counts - 1) // 2] + 0.0, ranked[starts + counts // 2]
    table[at, 2] = np.where(counts % 2 == 1, lo, (lo + hi) / 2)
    table[at, 3] = values[starts]
    table[at, 4] = values[ends - 1]
    table[at, 5] = counts
    return Frames(list(cohort.patient_ids), cohort.labels.astype(int),
                  table.reshape(cohort.n_patients, vocab.N_DYNAMIC, N_AGG), _first_statics(cohort),
                  aggregated=True)


# ---------------------------------------------------------------------------
# file formats


def _cell_names(n_buckets) -> list:
    return [f"d{v:02d}_t{t:02d}" for v in range(vocab.N_DYNAMIC) for t in range(n_buckets)]


def _dynamic_header(n_buckets):
    cols = _cell_names(n_buckets)
    cols += [f"s{i}_{name.lower()}" for i, name in enumerate(vocab.STATIC_VARIABLES)]
    return ",".join(["patient_id", "label"] + cols)


def write_frames(frames, path) -> None:
    """Write dense frames as CSV, variable-major cells.

    Rows are written one patient at a time, in the order given, so any
    sequence of FramedPatient rows can be written as well as a Frames.
    """
    if not frames:
        raise PatsimError("no frames to write")
    tables.write_rows(path, _dynamic_header(frames[0].dynamic.shape[1]), (
        ",".join([f.patient_id, str(f.label)] + [repr(float(x)) for x in f.dynamic.ravel()]
                 + [repr(float(x)) for x in f.statics])
        for f in frames))


def write_mask(frames: Frames, path) -> None:
    """Write the 0/1 observation mask of raw frames, 1 where a cell is not NaN; an output only."""
    cells = np.where(np.isnan(frames.grid), "0", "1").reshape(len(frames), -1).tolist()
    tables.write_rows(path, ",".join(["patient_id"] + _cell_names(frames.grid.shape[2])), (
        ",".join([pid, *row]) for pid, row in zip(frames.ids, cells)))


def read_frames(path) -> Frames:
    """Read frames written by write_frames, in one columnar pass when the file is well-formed.

    The bucket count is read off the header's column count, and the header
    must then be exactly the one write_frames writes. Besides the table
    faults (header, cell count), a non-numeric or non-finite cell, a cell
    outside [0, 1] (the range frame scales every cell into), a label
    outside {0, 1} or a repeated patient id raises InputFault naming the
    file and line, and a file with no patient rows one naming the file.
    The patients come back in ascending patient_id order.
    """
    ids, labels, cells = _frame_columns(path) or _frame_rows(path)
    if not ids:
        raise InputFault("no patient rows, so the cohort has no patients", path=path)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return Frames([ids[i] for i in order], labels[order],
                  cells[order, :-vocab.N_STATIC].reshape(len(ids), vocab.N_DYNAMIC, -1),
                  cells[order, -vocab.N_STATIC:])


def _frames_header(line):
    """The frames header with the bucket count that line 1's column count implies."""
    return _dynamic_header(max(1, (line.count(",") - 1 - vocab.N_STATIC) // vocab.N_DYNAMIC))


def _frame_columns(path):
    """_frame_rows's result for a well-formed frames file, from tables.read_columns, else None."""
    ids, labels, cells = [], [], []
    for block in tables.read_columns(path, _frames_header, lambda header: [
            ("label", "S2"), ("cells", np.float64, (header.count(",") - 1,))]):
        if block is None or not (np.isin(block["label"], (b"0", b"1")).all()
                                 and ((block["cells"] >= 0.0) & (block["cells"] <= 1.0)).all()):
            return None
        ids += [pid.decode("ascii") for pid in block["id"].tolist()]
        labels.append(block["label"] == b"1")
        cells.append(block["cells"])
    if not ids or len(set(ids)) != len(ids):
        return None
    return ids, np.concatenate(labels).astype(int), np.concatenate(cells)


def _frame_rows(path):
    """(patient_ids, labels, cells) of a frames file, in file order, read row by row."""
    first_line, labels, rows = {}, [], []
    for line_no, cells in tables.read_rows(path, _frames_header):
        pid, label = cells[0], cells[1]
        if label not in ("0", "1"):
            raise InputFault(f"label must be 0 or 1, got {label!r}", line_no, path)
        if pid in first_line:
            raise InputFault(f"duplicate patient id {pid!r} (first at line "
                             f"{first_line[pid]})", line_no, path)
        first_line[pid] = line_no
        values = []
        for col in range(2, len(cells)):
            value = tables.finite_number(cells[col])
            if value is None or not 0.0 <= value <= 1.0:
                reason = "not a finite number" if value is None else "outside [0, 1]"
                raise InputFault(f"cell {_frames_header(','.join(cells)).split(',')[col]} is "
                                 f"{reason}: {cells[col]!r}", line_no, path)
            values.append(value)
        labels.append(int(label))
        rows.append(values)
    return list(first_line), np.array(labels, dtype=int), np.array(rows, dtype=float)


_DYN_STATS = ("dyn_min", "dyn_max", "dyn_mean", "dyn_degenerate")
_STATIC_STATS = ("static_min", "static_max", "static_mean", "static_degenerate")


def _stats_keys(n_buckets):
    """(key, field, index) of each line of a scaling-stats file after n_buckets, in order."""
    for v in range(vocab.N_DYNAMIC):
        yield from ((f"{name}.{v}", name, v) for name in _DYN_STATS)
        yield from ((f"dyn_bucket_mean.{v}.{t}", "dyn_bucket_mean", (v, t))
                    for t in range(n_buckets))
    for i in range(vocab.N_STATIC):
        yield from ((f"{name}.{i}", name, i) for name in _STATIC_STATS)


def write_scaling_stats(stats: ScalingStats, path) -> None:
    """Persist scaling statistics as a plain-text key=value file; flags print as 0/1."""
    def fmt(name, x):
        if name.endswith("degenerate"):
            return int(x)
        return "nan" if np.isnan(x) else repr(float(x))

    tables.write_rows(path, f"n_buckets={stats.n_buckets}", (
        f"{key}={fmt(name, getattr(stats, name)[index])}"
        for key, name, index in _stats_keys(stats.n_buckets)))


def read_scaling_stats(path) -> ScalingStats:
    """Read a file written by write_scaling_stats.

    Every line must be key=value; a missing key or an unparsable value
    raises InputFault naming the file (and the line, for a bad value).
    The first missing key in file order is the one named.
    """
    kv = {key: (line_no, value)
          for line_no, (key, value) in tables.read_rows(path, width=2, sep="=")}

    def get(key, convert=float):
        if key not in kv:
            raise InputFault(f"missing key {key!r}", path=path)
        line_no, value = kv[key]
        try:
            return convert(value)
        except ValueError:
            raise InputFault(f"bad value {value!r} for {key!r}", line_no, path) from None

    n_buckets = get("n_buckets", int)
    if not 1 <= n_buckets <= len(kv):   # it sizes an array before any other key is read
        raise InputFault(f"bad value {kv['n_buckets'][1]!r} for 'n_buckets'",
                         kv["n_buckets"][0], path)
    fields = {name: np.empty(size, dtype=bool if name.endswith("degenerate") else float)
              for names, size in ((_DYN_STATS, vocab.N_DYNAMIC), (_STATIC_STATS, vocab.N_STATIC))
              for name in names}
    fields["dyn_bucket_mean"] = np.empty((vocab.N_DYNAMIC, n_buckets))
    for key, name, index in _stats_keys(n_buckets):
        fields[name][index] = get(key, int if name.endswith("degenerate") else float)
    return ScalingStats(n_buckets=n_buckets, **fields)
