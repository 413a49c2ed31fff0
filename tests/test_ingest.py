import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import ingest, vocab
from patsim.errors import (
    DuplicatePatient,
    InvalidLabel,
    MalformedRow,
    MissingEvents,
    MissingOutcome,
    OutOfWindow,
    UnknownVariable,
)

EV_HEADER = "patient_id,minute,variable,value\n"
OUT_HEADER = "patient_id,in_hospital_death\n"


def events_stream(*rows):
    return io.StringIO(EV_HEADER + "".join(r + "\n" for r in rows))


def outcomes_stream(*rows):
    return io.StringIO(OUT_HEADER + "".join(r + "\n" for r in rows))


def rows_of(events):
    """(patient_id, minute, variable, value) of each row of parsed events or a cohort."""
    ids = events.ids if isinstance(events, ingest.Events) else events.patient_ids
    return [(ids[p], m, vocab.ALL_VARIABLES[v], x) for p, m, v, x in zip(
        events.patient.tolist(), events.minute.tolist(), events.variable.tolist(),
        events.value.tolist())]


def assert_same_cohort(a, b):
    assert a.patient_ids == b.patient_ids
    for column in ("labels", "patient", "minute", "variable", "value"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), column


class TestParseEvents:
    def test_basic_row(self):
        evs = ingest.parse_events(events_stream("p1,10,Heart rate,80"))
        assert len(evs) == 1
        assert rows_of(evs) == [("p1", 10, "Heart rate", 80.0)]

    def test_events_are_typed_columns(self):
        evs = ingest.parse_events(events_stream(
            "p1,0,Age,54", "p1,10,Heart rate,80", "p2,10,Heart rate,-1", "p2,30,Heart rate,71.5"))
        assert rows_of(evs) == [
            ("p1", 0, "Age", 54.0),
            ("p1", 10, "Heart rate", 80.0),
            ("p2", 30, "Heart rate", 71.5),
        ]
        assert evs.ids == ["p1", "p2"]
        assert [evs.patient.dtype, evs.minute.dtype, evs.variable.dtype, evs.value.dtype] \
            == [np.int32, np.int16, np.int8, np.float64]
        # each patient's first kept row; p2's line-4 row is a dropped placeholder
        assert evs.first_line == [2, 5]
        assert evs.path is None

    def test_header_only(self):
        assert len(ingest.parse_events(io.StringIO(EV_HEADER))) == 0

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            ingest.parse_events(events_stream("p1,10,HeartRateX,80"))

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            ingest.parse_events(events_stream("p1,2880,Heart rate,80"))
        with pytest.raises(OutOfWindow):
            ingest.parse_events(events_stream("p1,-5,Heart rate,80"))

    def test_last_minute_accepted(self):
        evs = ingest.parse_events(events_stream("p1,2879,Heart rate,80"))
        assert evs.minute.tolist() == [2879]

    def test_malformed_rows(self):
        with pytest.raises(MalformedRow) as exc:
            ingest.parse_events(events_stream("p1,10,Heart rate"))
        assert exc.value.line_no == 2
        with pytest.raises(MalformedRow):
            ingest.parse_events(events_stream("p1,ten,Heart rate,80"))
        with pytest.raises(MalformedRow):
            ingest.parse_events(events_stream("p1,10,Heart rate,abc"))
        with pytest.raises(MalformedRow):
            ingest.parse_events(events_stream("p1,10,Heart rate,nan"))

    @pytest.mark.parametrize("header", ["", "patient,minute,variable,value",
                                        "p1,10,Heart rate,80"])
    def test_header_checked(self, header):
        with pytest.raises(MalformedRow, match="line 1: expected header") as exc:
            ingest.parse_events(io.StringIO(header + "\np1,10,Heart rate,80\n"))
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("row, error, message", [
        ("p1,10,Heart rate", MalformedRow, "expected 4 cells, got 3"),
        ("p1,ten,Heart rate,80", MalformedRow, "non-integer minute 'ten'"),
        ("p1,10,Heart rate,inf", MalformedRow, "non-finite value 'inf'"),
        ("p1,10,Pulse,80", UnknownVariable, "unknown variable name: 'Pulse'"),
        ("p1,2880,Heart rate,80", OutOfWindow, "minute 2880 outside the observation window"),
    ])
    def test_errors_name_file_and_line(self, tmp_path, row, error, message):
        path = tmp_path / "events.csv"
        path.write_text(EV_HEADER + "p1,0,Age,54\n\n" + row + "\n")
        with pytest.raises(error) as exc:
            ingest.parse_events(path)
        assert (exc.value.path, exc.value.line_no) == (path, 4)
        assert str(exc.value) == f"{path} line 4: {message}"
        with pytest.raises(error) as exc:
            ingest.parse_events(io.StringIO(EV_HEADER + row + "\n"))
        assert (exc.value.path, exc.value.line_no) == (None, 2)
        assert str(exc.value) == f"line 2: {message}"

    def test_placeholder_dropped(self, caplog):
        with caplog.at_level("WARNING"):
            evs = ingest.parse_events(events_stream(
                "p1,10,Heart rate,-1", "p1,20,Heart rate,75"))
        assert len(evs) == 1 and evs.value.tolist() == [75.0]
        assert "1 rows" in caplog.text


class TestParseOutcomes:
    def test_basic(self):
        outs = ingest.parse_outcomes(outcomes_stream("p1,1", "p2,0"))
        assert outs.ids == ["p1", "p2"] and outs.labels.tolist() == [1, 0]
        assert outs.lines == [2, 3]

    def test_duplicate(self):
        with pytest.raises(DuplicatePatient):
            ingest.parse_outcomes(outcomes_stream("p1,1", "p1,0"))

    def test_invalid_label(self):
        with pytest.raises(InvalidLabel):
            ingest.parse_outcomes(outcomes_stream("p1,2"))
        with pytest.raises(InvalidLabel):
            ingest.parse_outcomes(outcomes_stream("p1,dead"))


    def test_header_checked(self):
        with pytest.raises(MalformedRow, match="line 1: expected header"):
            ingest.parse_outcomes(io.StringIO("patient_id,death\np1,1\n"))

    @pytest.mark.parametrize("row, error, message", [
        ("p1,1,0", MalformedRow, "expected 2 cells, got 3"),
        ("p1,2", InvalidLabel, "outcome label must be 0 or 1, got '2'"),
        ("p1,dead", InvalidLabel, "outcome label must be 0 or 1, got 'dead'"),
        ("p0,1", DuplicatePatient, "duplicate outcome row for patient 'p0'"),
    ])
    def test_errors_name_file_and_line(self, tmp_path, row, error, message):
        path = tmp_path / "outcomes.csv"
        path.write_text(OUT_HEADER + "p0,0\n" + row + "\n")
        with pytest.raises(error) as exc:
            ingest.parse_outcomes(path)
        assert (exc.value.path, exc.value.line_no) == (path, 3)
        assert str(exc.value) == f"{path} line 3: {message}"


class TestBuildCohort:
    def test_join_and_prevalence(self):
        evs = ingest.parse_events(events_stream(
            "p1,10,Heart rate,80", "p2,5,Glucose,120",
            "p3,1,pH,7.3", "p4,2,Lactate,1.1", "p5,3,Albumin,3.9"))
        outs = ingest.parse_outcomes(outcomes_stream(
            "p1,1", "p2,0", "p3,0", "p4,0", "p5,0"))
        cohort = ingest.build_cohort(evs, outs)
        assert cohort.n_patients == 5
        assert cohort.labels.mean() == pytest.approx(0.20)

    def test_missing_outcome(self):
        evs = ingest.parse_events(events_stream("p1,5,pH,7.3", "p3,10,Heart rate,80"))
        with pytest.raises(MissingOutcome) as exc:
            ingest.build_cohort(evs, ingest.parse_outcomes(outcomes_stream("p1,0")))
        assert str(exc.value) == "line 3: patient 'p3' has events but no outcome row"

    def test_missing_events(self):
        outs = ingest.parse_outcomes(outcomes_stream("p9,0"))
        with pytest.raises(MissingEvents) as exc:
            ingest.build_cohort(ingest.parse_events(io.StringIO(EV_HEADER)), outs)
        assert str(exc.value) == "line 2: patient 'p9' has an outcome but no events"

    def test_events_sorted(self):
        # canonical order: patient, minute, variable name (not vocabulary index), file order
        evs = ingest.parse_events(events_stream(
            "p2,10,pH,7.1", "p1,50,Heart rate,90", "p1,10,Heart rate,80", "p1,10,Albumin,4",
            "p1,10,Heart rate,81", "p1,10,Age,60"))
        cohort = ingest.build_cohort(evs, ingest.parse_outcomes(outcomes_stream("p2,1", "p1,0")))
        assert cohort.patient_ids == ["p1", "p2"] and cohort.labels.tolist() == [0, 1]
        assert rows_of(cohort) == [
            ("p1", 10, "Age", 60.0), ("p1", 10, "Albumin", 4.0), ("p1", 10, "Heart rate", 80.0),
            ("p1", 10, "Heart rate", 81.0), ("p1", 50, "Heart rate", 90.0), ("p2", 10, "pH", 7.1)]

    def test_select_keeps_cohort_order(self):
        evs = ingest.parse_events(events_stream(
            "p3,10,pH,7.1", "p1,50,Heart rate,90", "p2,10,Albumin,4", "p3,0,Age,60"))
        cohort = ingest.build_cohort(
            evs, ingest.parse_outcomes(outcomes_stream("p1,0", "p2,1", "p3,1")))
        chosen = cohort.select(["p3", "p1"])
        assert chosen.patient_ids == ["p1", "p3"] and chosen.labels.tolist() == [0, 1]
        assert rows_of(chosen) == [r for r in rows_of(cohort) if r[0] != "p2"]
        assert_same_cohort(cohort.select(cohort.patient_ids), cohort)


def test_roundtrip_and_closure(rng):
    rows = []
    variables = list(vocab.ALL_VARIABLES)
    for i in range(8):
        for _ in range(rng.integers(3, 15)):
            v = variables[rng.integers(len(variables))]
            minute = 0 if v in vocab.STATIC_VARIABLES else int(rng.integers(0, 2880))
            value = round(float(rng.uniform(0.5, 200.0)), 4)
            rows.append(f"p{i},{minute},{v},{value}")
    outcome_rows = [f"p{i},{int(rng.random() < 0.4)}" for i in range(8)]
    cohort = ingest.build_cohort(
        ingest.parse_events(events_stream(*rows)),
        ingest.parse_outcomes(outcomes_stream(*outcome_rows)))

    ev_buf, out_buf = io.StringIO(), io.StringIO()
    ingest.write_events(cohort, ev_buf)
    ingest.write_outcomes(cohort, out_buf)
    again = ingest.build_cohort(
        ingest.parse_events(io.StringIO(ev_buf.getvalue())),
        ingest.parse_outcomes(io.StringIO(out_buf.getvalue())))
    assert_same_cohort(again, cohort)

    assert cohort.variable.min() >= 0 and cohort.variable.max() < vocab.N_VARIABLES
    for p in range(cohort.n_patients):
        minutes = cohort.minute[cohort.patient == p]
        assert len(minutes) and (np.diff(minutes) >= 0).all()
    assert (np.diff(cohort.patient) >= 0).all()


def test_shuffled_events_file_gives_the_same_cohort(tmp_path, rng):
    from patsim import synth

    cohort = synth.generate(synth.SynthSpec(n_patients=12, seed=5)).cohort()
    events, outcomes = tmp_path / "events.csv", tmp_path / "outcomes.csv"
    ingest.write_events(cohort, events)
    ingest.write_outcomes(cohort, outcomes)
    sorted_cohort = ingest.load_cohort(events, outcomes)
    assert_same_cohort(sorted_cohort, cohort)
    # a stable shuffle by one random key per (patient, minute, variable): rows that
    # tie in canonical order keep their file order, which breaks the tie
    head, *lines = events.read_text().splitlines()
    group = np.unique(np.stack([cohort.patient, cohort.minute, cohort.variable]), axis=1,
                      return_inverse=True)[1].ravel()
    order = np.argsort(rng.random(group.max() + 1)[group], kind="stable")
    assert (order != np.arange(len(order))).any()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([head] + [lines[i] for i in order]) + "\n")
    assert_same_cohort(ingest.load_cohort(shuffled, outcomes), sorted_cohort)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2 ** 15, 2 ** 15 - 1),
                          st.integers(0, vocab.N_VARIABLES - 1), st.sampled_from([0.5, 1.5])),
                min_size=1, max_size=12).map(sorted) | st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([-2 ** 15, -1, 0, 7, 2 ** 15 - 1]),
              st.integers(0, 2), st.sampled_from([0.5, 1.5])), min_size=1, max_size=12))
def test_cohort_rows_follow_lexsort(rows):
    """build_cohort's one-key order, and its skip for sorted rows, equal a stable lexsort."""
    ids = [f"p{p}" for p, _, _, _ in rows]
    events = ingest.Events(list(dict.fromkeys(ids)), np.array(
        [list(dict.fromkeys(ids)).index(pid) for pid in ids], dtype=np.int32),
        np.array([m for _, m, _, _ in rows], dtype=np.int16),
        np.array([v for _, _, v, _ in rows], dtype=np.int8),
        np.array([x for _, _, _, x in rows], dtype=np.float64))
    cohort = ingest.build_cohort(events, ingest.Outcomes(
        sorted(set(ids)), np.zeros(len(set(ids)), dtype=np.int64)))
    patient = np.array([sorted(set(ids)).index(pid) for pid in ids], dtype=np.int32)
    order = np.lexsort((ingest._NAME_RANK[events.variable], events.minute, patient))
    assert cohort.patient.tolist() == patient[order].tolist()
    for column in ("minute", "variable", "value"):
        assert getattr(cohort, column).tolist() == getattr(events, column)[order].tolist()
