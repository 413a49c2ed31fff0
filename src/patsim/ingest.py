"""Parsing and validation of raw event and outcome files.

Events file: CSV with header ``patient_id,minute,variable,value``, one
observation per row. Static features (Age, Gender, Height, Weight) travel
as ordinary events, conventionally at minute 0. Outcomes file: CSV with
header ``patient_id,in_hospital_death``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from . import tables, vocab
from .errors import (
    DuplicatePatient,
    InvalidLabel,
    MalformedRow,
    MissingEvents,
    MissingOutcome,
    OutOfWindow,
    UnknownVariable,
)

logger = logging.getLogger(__name__)

EVENTS_HEADER = "patient_id,minute,variable,value"
OUTCOMES_HEADER = "patient_id,in_hospital_death"

# PhysioNet-style placeholder for a missing measurement; physiologically
# impossible for every variable in the vocabulary, so dropped at parse time.
MISSING_PLACEHOLDER = -1.0


@dataclass(frozen=True, slots=True)
class Event:
    patient_id: str
    minute: int
    variable: str
    value: float


@dataclass(frozen=True)
class Outcome:
    patient_id: str
    in_hospital_death: int


@dataclass
class RawCohort:
    """Joined events + outcomes, one sorted event list per patient."""

    patients: dict = field(default_factory=dict)   # patient_id -> list[Event]
    outcomes: dict = field(default_factory=dict)   # patient_id -> Outcome

    @property
    def patient_ids(self) -> list:
        return sorted(self.patients)

    @property
    def n_patients(self) -> int:
        return len(self.patients)

    def label(self, patient_id) -> int:
        return self.outcomes[patient_id].in_hospital_death

    @property
    def prevalence(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.in_hospital_death for o in self.outcomes.values()) / len(self.outcomes)


def parse_events(stream) -> list:
    """Parse an events file (path, file object, or iterable of lines).

    The first line must be EVENTS_HEADER. Rows whose value equals the -1
    placeholder are dropped with a counted warning. Raises MalformedRow,
    UnknownVariable or OutOfWindow, with the line (and the file, when
    given a path), on the first offending row.
    """
    events = []
    names = {}   # one string object per distinct id or variable, not one per row
    dropped = 0
    path = tables.path_of(stream)
    for line_no, (pid, minute_s, variable, value_s) in tables.read_rows(stream, EVENTS_HEADER):
        try:
            minute = int(minute_s)
        except ValueError:
            raise MalformedRow(f"non-integer minute {minute_s!r}", line_no, path) from None
        try:
            value = float(value_s)
        except ValueError:
            raise MalformedRow(f"non-numeric value {value_s!r}", line_no, path) from None
        if variable not in vocab.VARIABLE_INDEX:
            raise UnknownVariable(variable, line_no, path)
        if not (0 <= minute < vocab.HORIZON_MINUTES):
            raise OutOfWindow(minute, line_no, path)
        if not math.isfinite(value):
            raise MalformedRow(f"non-finite value {value_s!r}", line_no, path)
        if value == MISSING_PLACEHOLDER:
            dropped += 1
            continue
        events.append(Event(names.setdefault(pid, pid), minute,
                            names.setdefault(variable, variable), value))
    if dropped:
        logger.warning("dropped %d rows with -1 placeholder values", dropped)
    return events


def parse_outcomes(stream) -> list:
    """Parse an outcomes file; the first line must be OUTCOMES_HEADER, labels in {0, 1}."""
    outcomes = []
    seen = set()
    path = tables.path_of(stream)
    for line_no, (pid, label_s) in tables.read_rows(stream, OUTCOMES_HEADER):
        try:
            label_f = float(label_s)
        except ValueError:
            raise InvalidLabel(label_s, line_no, path) from None
        if label_f not in (0.0, 1.0):
            raise InvalidLabel(label_s, line_no, path)
        if pid in seen:
            raise DuplicatePatient(pid, line_no, path)
        seen.add(pid)
        outcomes.append(Outcome(pid, int(label_f)))
    return outcomes


def build_cohort(events, outcomes) -> RawCohort:
    """Join parsed events and outcomes into a consistent cohort.

    Every patient must appear on both sides; per-patient event lists are
    sorted by (minute, variable), stable with respect to input order.
    """
    outcome_map = {}
    for o in outcomes:
        outcome_map[o.patient_id] = o
    patients = {}
    for ev in events:
        patients.setdefault(ev.patient_id, []).append(ev)
    for pid in patients:
        if pid not in outcome_map:
            raise MissingOutcome(pid)
    for pid in outcome_map:
        if pid not in patients:
            raise MissingEvents(pid)
    for pid, evs in patients.items():
        evs.sort(key=lambda e: (e.minute, e.variable))
    return RawCohort(patients=patients, outcomes=outcome_map)


def load_cohort(events_path, outcomes_path) -> RawCohort:
    return build_cohort(parse_events(events_path), parse_outcomes(outcomes_path))


def _fmt(value: float) -> str:
    # repr round-trips exactly; integers print without exponent noise
    return repr(float(value))


def write_events(cohort: RawCohort, stream) -> None:
    """Serialize cohort events; patients sorted by id, events as stored."""
    tables.write_rows(stream, EVENTS_HEADER, (
        f"{ev.patient_id},{ev.minute},{ev.variable},{_fmt(ev.value)}"
        for pid in cohort.patient_ids for ev in cohort.patients[pid]))


def write_outcomes(cohort: RawCohort, stream) -> None:
    tables.write_rows(stream, OUTCOMES_HEADER, (
        f"{pid},{cohort.outcomes[pid].in_hospital_death}" for pid in cohort.patient_ids))
