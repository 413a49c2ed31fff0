"""Parsing and validation of raw event and outcome files, and the columnar cohort.

Events file: CSV with header ``patient_id,minute,variable,value``, one
observation per row. Static features (Age, Gender, Height, Weight) travel
as ordinary events, conventionally at minute 0. Outcomes file: CSV with
header ``patient_id,in_hospital_death``.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import tables, vocab
from .errors import InputFault

logger = logging.getLogger(__name__)

EVENTS_HEADER = "patient_id,minute,variable,value"
OUTCOMES_HEADER = "patient_id,in_hospital_death"

# PhysioNet-style placeholder for a missing measurement; physiologically
# impossible for every variable in the vocabulary, so dropped at parse time.
MISSING_PLACEHOLDER = -1.0

# canonical variable index -> rank of its name; rows sort by name, not by index
_NAME_RANK = np.array([sorted(vocab.ALL_VARIABLES).index(name) for name in vocab.ALL_VARIABLES])

# the columnar parse reads names one byte wider than the longest, so a longer one cannot
# truncate into a match, and minutes wider than int16, so any past the horizon shows
_SORTED_NAMES = np.array(sorted(vocab.ALL_VARIABLES), dtype=np.bytes_)
_SORTED_INDEX = np.argsort(_NAME_RANK).astype(np.int8)
_EVENT_FIELDS = [("minute", "i8"), ("name", f"S{_SORTED_NAMES.itemsize + 1}"), ("value", "f8")]


@dataclass(frozen=True, eq=False)
class Events:
    """Event rows as parallel columns, in file order; every id has at least one row.

    `first_line[c]` is the line of patient ids[c]'s first row, and `path`
    the file, when the rows were read from one.
    """

    ids: list
    patient: np.ndarray    # int32
    minute: np.ndarray     # int16
    variable: np.ndarray   # int8
    value: np.ndarray      # float64
    first_line: list | None = None
    path: object = None

    def __len__(self) -> int:
        return len(self.value)


@dataclass(frozen=True, eq=False)
class Outcomes:
    """Outcome rows in file order; `lines[i]` is row i's line, when read from a file."""

    ids: list
    labels: np.ndarray
    lines: list | None = None
    path: object = None


@dataclass(frozen=True, eq=False)
class Cohort:
    """Joined events and outcomes as columns.

    `patient_ids` is sorted and `labels[i]` is patient i's label. Event row
    j belongs to patient `patient[j]`. Rows are in canonical order:
    (patient, minute, variable name, file order), the order write_events
    writes and every framing reduction reads.
    """

    patient_ids: list
    labels: np.ndarray
    patient: np.ndarray    # int32
    minute: np.ndarray     # int16
    variable: np.ndarray   # int8, canonical index into vocab.ALL_VARIABLES
    value: np.ndarray      # float64

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    def select(self, ids) -> Cohort:
        """The patients in `ids` with their rows, in this cohort's order."""
        keep = set(ids)
        chosen = np.array([pid in keep for pid in self.patient_ids], dtype=bool)
        rows = chosen[self.patient]
        return Cohort([pid for pid in self.patient_ids if pid in keep], self.labels[chosen],
                      (np.cumsum(chosen, dtype=np.int32) - 1)[self.patient[rows]],
                      self.minute[rows], self.variable[rows], self.value[rows])


def parse_events(path) -> Events:
    """Parse the events file at `path`.

    The first line must be EVENTS_HEADER. Rows whose value equals the -1
    placeholder are dropped with a counted warning. Raises InputFault, with
    the file and the line, on the first offending row; a well-formed file
    takes one columnar pass.
    """
    events, dropped = _event_columns(path) or _event_rows(path)
    if dropped:
        logger.warning("dropped %d rows with -1 placeholder values", dropped)
    return events


def _event_columns(path):
    """_event_rows's result for a well-formed events file, from tables.read_columns, else None."""
    codes, first_line, columns = {}, [], []   # codes: patient_id bytes -> code
    dropped, line = 0, 1   # line: the last line of the blocks read so far
    for rows in tables.read_columns(path, EVENTS_HEADER, _EVENT_FIELDS):
        if rows is None:
            return None
        minute, name, value = rows["minute"], rows["name"], rows["value"]
        at = np.searchsorted(_SORTED_NAMES, name) % len(_SORTED_NAMES)
        if not ((_SORTED_NAMES[at] == name).all() and (minute >= 0).all()
                and (minute < vocab.HORIZON_MINUTES).all() and np.isfinite(value).all()):
            return None
        kept = np.flatnonzero(value != MISSING_PLACEHOLDER)
        dropped += len(rows) - len(kept)
        ids = rows["id"][kept]
        runs = np.flatnonzero(np.concatenate(([len(ids) > 0], ids[1:] != ids[:-1])))
        for pid, row in zip(ids[runs].tolist(), kept[runs].tolist()):
            if pid not in codes:
                codes[pid] = len(codes)
                first_line.append(line + 1 + row)
        run_codes = np.array([codes[pid] for pid in ids[runs].tolist()], dtype=np.int32)
        columns.append((np.repeat(run_codes, np.diff(runs, append=len(ids))),
                        minute[kept].astype(np.int16), _SORTED_INDEX[at[kept]], value[kept]))
        line += len(rows)
    return (Events([pid.decode("ascii") for pid in codes], *map(np.concatenate, zip(*columns)),
                   first_line, path), dropped) if columns else None


def _event_rows(path):
    """(Events, placeholder rows dropped) of an events file, read row by row; the reference."""
    codes = {}
    first_line = []
    # typed arrays hold a row in 15 bytes, where Python ints and floats take about 100
    patient, minutes, variables, values = array("i"), array("h"), array("b"), array("d")
    dropped = 0
    for line_no, (pid, minute_s, name, value_s) in tables.read_rows(path, EVENTS_HEADER):
        try:
            minute = int(minute_s)
        except ValueError:
            raise InputFault(f"non-integer minute {minute_s!r}", line_no, path) from None
        try:
            value = float(value_s)
        except ValueError:
            raise InputFault(f"non-numeric value {value_s!r}", line_no, path) from None
        variable = vocab.VARIABLE_INDEX.get(name)
        if variable is None:
            raise InputFault(f"unknown variable name: {name!r}", line_no, path)
        if not (0 <= minute < vocab.HORIZON_MINUTES):
            raise InputFault(f"minute {minute} outside the observation window", line_no, path)
        if not math.isfinite(value):
            raise InputFault(f"non-finite value {value_s!r}", line_no, path)
        if value == MISSING_PLACEHOLDER:
            dropped += 1
            continue
        code = codes.get(pid)
        if code is None:
            code = codes[pid] = len(first_line)
            first_line.append(line_no)
        patient.append(code)
        minutes.append(minute)
        variables.append(variable)
        values.append(value)
    return Events(list(codes), np.asarray(patient), np.asarray(minutes), np.asarray(variables),
                  np.asarray(values), first_line, path), dropped


def parse_outcomes(path) -> Outcomes:
    """Parse the outcomes file at `path`; line 1 must be OUTCOMES_HEADER, labels in {0, 1}."""
    rows = {}   # patient_id -> (label, line)
    for line_no, (pid, label_s) in tables.read_rows(path, OUTCOMES_HEADER):
        try:
            label_f = float(label_s)
        except ValueError:
            label_f = None
        if label_f not in (0.0, 1.0):
            raise InputFault(f"outcome label must be 0 or 1, got {label_s!r}", line_no, path)
        if pid in rows:
            raise InputFault(f"duplicate outcome row for patient {pid!r}", line_no, path)
        rows[pid] = (int(label_f), line_no)
    return Outcomes(list(rows), np.array([label for label, _ in rows.values()], dtype=np.int64),
                    [line for _, line in rows.values()], path)


def build_cohort(events: Events, outcomes: Outcomes) -> Cohort:
    """Join parsed events and outcomes into one cohort in canonical order.

    Every patient must appear on both sides: the first patient (in events
    file order) with rows but no outcome is a fault at its first events
    row, and the first with an outcome but no rows one at its outcomes row.
    """
    label_of = dict(zip(outcomes.ids, outcomes.labels.tolist()))
    for code, pid in enumerate(events.ids):
        if pid not in label_of:
            raise InputFault(f"patient {pid!r} has events but no outcome row",
                             events.first_line and events.first_line[code], events.path)
    present = set(events.ids)
    for i, pid in enumerate(outcomes.ids):
        if pid not in present:
            raise InputFault(f"patient {pid!r} has an outcome but no events",
                             outcomes.lines and outcomes.lines[i], outcomes.path)
    patient_ids = sorted(events.ids)
    index = {pid: i for i, pid in enumerate(patient_ids)}
    patient = np.array([index[pid] for pid in events.ids], dtype=np.int32)[events.patient]
    labels = np.array([label_of[pid] for pid in patient_ids], dtype=np.int64)
    # one int64 per row ordered as (patient, minute + 2**15 in 16 bits, name rank in 6); rows
    # already in canonical order, as write_events leaves them, skip the stable sort
    key = (patient.astype(np.int64) << 22 | (events.minute.astype(np.int64) + 2 ** 15) << 6
           | _NAME_RANK[events.variable])
    order = slice(None) if (key[1:] >= key[:-1]).all() else np.argsort(key, kind="stable")
    return Cohort(patient_ids, labels, patient[order], events.minute[order],
                  events.variable[order], events.value[order])


def load_cohort(events_path, outcomes_path) -> Cohort:
    """The cohort of an events and an outcomes file; a pair with no patients is an events fault."""
    events = parse_events(events_path)
    cohort = build_cohort(events, parse_outcomes(outcomes_path))
    if not cohort.n_patients:
        raise InputFault("no event rows, so the cohort has no patients", path=events.path)
    return cohort


_WRITE_BLOCK = 1 << 14


def write_events(cohort: Cohort, path) -> None:
    """Serialize cohort events in canonical order; values print as repr, which round-trips."""
    ids, names = cohort.patient_ids, vocab.ALL_VARIABLES
    # a block of events at a time, so the Python objects of every event never coexist
    blocks = (slice(lo, lo + _WRITE_BLOCK) for lo in range(0, len(cohort.value), _WRITE_BLOCK))
    tables.write_rows(path, EVENTS_HEADER, (
        f"{ids[p]},{m},{names[v]},{x!r}"
        for b in blocks
        for p, m, v, x in zip(cohort.patient[b].tolist(), cohort.minute[b].tolist(),
                              cohort.variable[b].tolist(), cohort.value[b].tolist())))


def write_outcomes(cohort: Cohort, path) -> None:
    tables.write_rows(path, OUTCOMES_HEADER, (
        f"{pid},{y}" for pid, y in zip(cohort.patient_ids, cohort.labels.tolist())))
