import io

import pytest

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


class TestParseEvents:
    def test_basic_row(self):
        evs = ingest.parse_events(events_stream("p1,10,Heart rate,80"))
        assert evs == [ingest.Event("p1", 10, "Heart rate", 80.0)]

    def test_events_are_slotted_and_share_strings(self):
        evs = ingest.parse_events(events_stream(
            "p1,0,Age,54", "p1,10,Heart rate,80", "p2,10,Heart rate,-1", "p2,30,Heart rate,71.5"))
        assert evs == [
            ingest.Event("p1", 0, "Age", 54.0),
            ingest.Event("p1", 10, "Heart rate", 80.0),
            ingest.Event("p2", 30, "Heart rate", 71.5),
        ]
        assert not hasattr(evs[0], "__dict__")
        assert evs[0].patient_id is evs[1].patient_id
        assert evs[1].variable is evs[2].variable
        with pytest.raises(AttributeError):
            evs[0].value = 1.0

    def test_header_only(self):
        assert ingest.parse_events(io.StringIO(EV_HEADER)) == []

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
        assert evs[0].minute == 2879

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
        assert len(evs) == 1 and evs[0].value == 75.0
        assert "1 rows" in caplog.text


class TestParseOutcomes:
    def test_basic(self):
        outs = ingest.parse_outcomes(outcomes_stream("p1,1", "p2,0"))
        assert outs == [ingest.Outcome("p1", 1), ingest.Outcome("p2", 0)]

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
        assert cohort.prevalence == pytest.approx(0.20)

    def test_missing_outcome(self):
        evs = ingest.parse_events(events_stream("p3,10,Heart rate,80"))
        with pytest.raises(MissingOutcome):
            ingest.build_cohort(evs, [])

    def test_missing_events(self):
        outs = ingest.parse_outcomes(outcomes_stream("p9,0"))
        with pytest.raises(MissingEvents):
            ingest.build_cohort([], outs)

    def test_events_sorted(self):
        evs = ingest.parse_events(events_stream(
            "p1,50,Heart rate,90", "p1,10,Heart rate,80", "p1,10,Albumin,4"))
        cohort = ingest.build_cohort(evs, ingest.parse_outcomes(outcomes_stream("p1,0")))
        stored = cohort.patients["p1"]
        assert [(e.minute, e.variable) for e in stored] == sorted(
            (e.minute, e.variable) for e in stored)


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
    assert again == cohort

    for events in cohort.patients.values():
        for ev in events:
            assert ev.variable in vocab.VARIABLE_INDEX
        minutes = [e.minute for e in events]
        assert minutes == sorted(minutes)
