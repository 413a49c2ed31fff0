"""Standardization of irregular event lists into fixed-width representations.

Two representations are produced from the same raw events:

* time-frame grid: each dynamic variable averaged into fixed windows
  (default 2-hour windows over 48 hours, i.e. 24 values per variable),
* aggregation table: six summary statistics per dynamic variable
  (minimum, maximum, median, first, last, count).

Both share one min-max scaling, fitted on training patients only and
reused to transform anything else. It takes every group of variables as
an (n, variables, buckets) grid: the statics scale as 4 one-bucket
variables, and an aggregation table as 216, one per (variable, statistic)
column. The pipeline works on whole `Frames` cohorts; the per-patient names
left, `FramedPatient` (a cohort's item, as `write_frames` walks it), `stack`
and `impute_and_scale`, stay because perfbench's set-up and tracer bind them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from . import ingest, tables, vocab
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


def _dynamic_rows(cohort, horizon_hours, block=slice(None)):
    """Indices, from the start of `block`, of its dynamic rows before the horizon, and their
    (patient, variable) cell."""
    variable = cohort.variable[block]
    rows = np.flatnonzero((variable < vocab.N_DYNAMIC)
                          & (cohort.minute[block].astype(np.intp) < horizon_hours * 60))
    return rows, cohort.patient[block][rows].astype(np.intp) * vocab.N_DYNAMIC + variable[rows]


# Event rows framed at once: frame_cohort takes whole patients, at least one, while
# a block holds at most this many rows, so its temporaries stay bounded as n grows.
FRAME_BLOCK_ROWS = 1 << 15


def _patient_blocks(cohort):
    """(patients, rows) slices of consecutive blocks of whole patients.

    The cohort's rows are in canonical order, so each patient's rows are
    one run and the runs follow the patient order.
    """
    ends = np.searchsorted(cohort.patient, np.arange(cohort.n_patients + 1,
                                                     dtype=cohort.patient.dtype))
    return ingest.run_blocks(ends, FRAME_BLOCK_ROWS)


def frame_cohort(cohort, window_hours=vocab.WINDOW_HOURS,
                 horizon_hours=vocab.HORIZON_HOURS) -> Frames:
    """Average every patient's events into fixed time buckets, in patient_id order.

    Bucket t covers minutes [60*window_hours*t, 60*window_hours*(t+1));
    a cell is the arithmetic mean of the observations falling in it, summed
    in the cohort's row order. Events at or beyond the horizon are ignored.
    Statics take the first observed value. Unobserved cells are NaN.

    The grid is filled a block of whole patients at a time (_patient_blocks).
    A cell's events all belong to one patient, so each cell's sum is the
    one a single pass over the cohort gives.
    """
    check_choices(window_hours=window_hours, horizon_hours=horizon_hours)
    n_buckets = horizon_hours // window_hours
    grid = np.empty((cohort.n_patients, vocab.N_DYNAMIC, n_buckets))
    for patients, block in _patient_blocks(cohort):
        rows, cell = _dynamic_rows(cohort, horizon_hours, block)
        cell -= patients.start * vocab.N_DYNAMIC
        cell *= n_buckets
        cell += cohort.minute[block][rows] // (60 * window_hours)
        out = grid[patients].reshape(-1)
        # bincount adds each cell's values in row order, one after another
        sums = np.bincount(cell, weights=cohort.value[block][rows], minlength=out.size)
        counts = np.bincount(cell, minlength=out.size)
        np.divide(sums, np.maximum(counts, 1), out=out)
        out[counts == 0] = np.nan
    return Frames(list(cohort.patient_ids), cohort.labels.astype(int), grid,
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
    shapes are the grid's as _variables views it: an aggregation table's
    are (216, 1), so each (variable, statistic) column has its own.
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


def _variables(frames: Frames) -> tuple:
    """The grid and the statics as (n, variables, buckets) groups, scaled each on its own.

    The statics are (n, 4, 1), and an aggregation table's (n, 36, 6) is
    viewed as (n, 216, 1): over one bucket carry-forward changes nothing,
    and a variable's pooled statistics are its one column's own.
    """
    n, rows, cols = frames.grid.shape
    grid = frames.grid.reshape(n, rows * cols, 1) if frames.aggregated else frames.grid
    return grid, frames.statics[:, :, None]


def _fit(values) -> tuple:
    """(min, max, mean, bucket means, degenerate) of each variable of a group, NaN skipped.

    One pass over the cells gives every (variable, bucket)'s min, max, sum
    and count; a variable's statistics pool its buckets'. A bucket never
    observed has a NaN mean; a variable never observed gets NaN statistics,
    and it and a constant variable are degenerate.
    """
    observed = ~np.isnan(values)
    lo = np.where(observed, values, np.inf).min(axis=0)     # each (variables, buckets)
    hi = np.where(observed, values, -np.inf).max(axis=0)
    sums, counts = np.where(observed, values, 0.0).sum(axis=0), observed.sum(axis=0)
    seen = counts.sum(axis=1) > 0
    with np.errstate(invalid="ignore"):
        mean = np.where(seen, sums.sum(axis=1) / np.maximum(counts.sum(axis=1), 1), np.nan)
        bucket_mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    lo, hi = np.where(seen, lo.min(axis=1), np.nan), np.where(seen, hi.max(axis=1), np.nan)
    return lo, hi, mean, bucket_mean, ~seen | (hi <= lo)


def _scale(values, lo, hi, mean, bucket_mean, degenerate) -> np.ndarray:
    """Dense, [0, 1]-scaled copy of a group, by the statistics _fit gives.

    An unobserved cell takes the last observed value before it, else the
    bucket mean, the pooled mean or 0; observed cells keep their values.
    Each variable then scales by its min and max, clipped into [0, 1], or
    to 0.5 when degenerate, in place in the one grid-sized output.
    """
    out, gaps = values.copy(), np.isnan(values)
    for t in range(1, out.shape[2]):
        np.copyto(out[..., t], out[..., t - 1], where=gaps[..., t])
    fallback = np.where(np.isnan(bucket_mean), np.where(np.isnan(mean), 0.0, mean)[:, None],
                        bucket_mean)
    np.copyto(out, fallback, where=np.isnan(out))
    with np.errstate(invalid="ignore", divide="ignore"):
        out -= lo[:, None]
        out /= (hi - lo)[:, None]
    np.clip(out, 0.0, 1.0, out=out)
    out[:, degenerate] = 0.5
    return out


def fit_scaling(frames: Frames) -> ScalingStats:
    """Fit per-variable scaling statistics from training frames only.

    The grid and the statics are fitted the same way (_fit); an aggregated
    cohort is fitted column by column.
    """
    if not frames:
        raise PatsimError("cannot fit scaling statistics on an empty cohort")
    if frames.grid.shape[1] != vocab.N_DYNAMIC:
        raise PatsimError("expected 36 dynamic variables")
    grid, statics = _variables(frames)
    dyn_min, dyn_max, dyn_mean, bucket_mean, dyn_degenerate = _fit(grid)
    static_min, static_max, static_mean, _, static_degenerate = _fit(statics)
    return ScalingStats(grid.shape[2], dyn_min, dyn_max, dyn_mean, bucket_mean, dyn_degenerate,
                        static_min, static_max, static_mean, static_degenerate)


def scale_frames(frames: Frames, stats: ScalingStats) -> Frames:
    """Dense, [0, 1]-scaled copy of a cohort, time frames or aggregates, in one pass.

    Every step is elementwise per patient, so a patient's result does not
    depend on the rest of the cohort.
    """
    grid, statics = _variables(frames)
    if grid.shape[1:] != stats.dyn_bucket_mean.shape:
        raise PatsimError(f"frame grid {grid.shape[1:]} does not match stats "
                          f"{stats.dyn_bucket_mean.shape}")
    grid = _scale(grid, stats.dyn_min, stats.dyn_max, stats.dyn_mean, stats.dyn_bucket_mean,
                  stats.dyn_degenerate)
    statics = _scale(statics, stats.static_min, stats.static_max, stats.static_mean,
                     stats.static_mean[:, None], stats.static_degenerate)
    return replace(frames, grid=grid.reshape(frames.grid.shape), statics=statics[:, :, 0])


def impute_and_scale(frame: FramedPatient, stats: ScalingStats) -> FramedPatient:
    """Dense, [0, 1]-scaled copy of one time-frame patient."""
    return scale_frames(Frames([frame.patient_id], np.array([frame.label]), frame.dynamic[None],
                               frame.statics[None]), stats)[0]


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
        ",".join([f.patient_id, str(f.label), *map(repr, f.dynamic.ravel().tolist()),
                  *map(repr, f.statics.tolist())])
        for f in frames))


def write_mask(frames: Frames, path) -> None:
    """Write the 0/1 observation mask of raw frames, 1 where a cell is not NaN; an output only."""
    tables.write_rows(path, ",".join(["patient_id"] + _cell_names(frames.grid.shape[2])), (
        ",".join([pid, *np.where(np.isnan(grid), "0", "1").ravel().tolist()])
        for pid, grid in zip(frames.ids, frames.grid)))


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
            ("label", "S2"), ("cells", np.float64, (header.count(",") - 1,))],
            tables.BLOCK_BYTES):
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

    Every line must be key=value; a missing key or a bad value raises
    InputFault naming the file (and the line, for a bad value). The first
    missing key in file order is the one named. A value is bad when it
    does not parse, when it is infinite, or when it breaks what
    fit_scaling guarantees of a variable: its min, max and mean are nan
    together (it was never observed) or not at all, and it is degenerate
    unless its min is below its max. Scaling by such statistics would
    write nan cells.
    """
    kv = {key: (line_no, value)
          for line_no, (key, value) in tables.read_rows(path, width=2, sep="=")}

    def bad(key, reason=""):
        line_no, value = kv[key]
        return InputFault(f"bad value {value!r} for {key!r}{reason}", line_no, path)

    def get(key, convert=float):
        if key not in kv:
            raise InputFault(f"missing key {key!r}", path=path)
        try:
            value = convert(kv[key][1])
        except ValueError:
            raise bad(key) from None
        if abs(value) == np.inf:
            raise bad(key)
        return value

    n_buckets = get("n_buckets", int)
    if not 1 <= n_buckets <= len(kv):   # it sizes an array before any other key is read
        raise bad("n_buckets")
    fields = {name: np.empty(size, dtype=bool if name.endswith("degenerate") else float)
              for names, size in ((_DYN_STATS, vocab.N_DYNAMIC), (_STATIC_STATS, vocab.N_STATIC))
              for name in names}
    fields["dyn_bucket_mean"] = np.empty((vocab.N_DYNAMIC, n_buckets))
    for key, name, index in _stats_keys(n_buckets):
        fields[name][index] = get(key, int if name.endswith("degenerate") else float)
    for names in (_DYN_STATS, _STATIC_STATS):
        lo, hi, mean, degenerate = (fields[name] for name in names)
        for i in range(len(lo)):
            unseen = [name for name, x in zip(names, (lo[i], hi[i], mean[i])) if np.isnan(x)]
            if 0 < len(unseen) < 3:
                raise bad(f"{unseen[0]}.{i}", ": nan only where min, max and mean all are")
            if not (degenerate[i] or lo[i] < hi[i]):
                raise bad(f"{names[3]}.{i}", ": degenerate unless min is below max")
    return ScalingStats(n_buckets=n_buckets, **fields)
