"""The columnar fast path for events and frames files against the row loop.

Given a path, ingest.parse_events and framing.read_frames first try one
columnar pass (tables.read_columns) and fall back to the row loop, which
stays the reference and the only source of fault text. Every file here,
well-formed or mutated, must give the loop's exact result (every column
and dtype, the ids and first lines) or raise the loop's exact fault.
"""

import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import framing, ingest, tables, vocab
from patsim.errors import MalformedRow, PatsimError
from util import FAULTS, RESHAPES, mutate, random_dense_frames

# tiny blocks make files of a few rows span several np.loadtxt calls
BLOCK_SIZES = st.sampled_from([1, 48, 300, tables.BLOCK_BYTES])


def outcome(read, path):
    """("ok", read(path)), or ("fault", its type, its text) when it raises a PatsimError."""
    try:
        return "ok", read(path)
    except PatsimError as exc:
        return "fault", type(exc), str(exc)


def columns_of(result):
    """The parts of an Events or a Frames that must match bit for bit."""
    if isinstance(result, ingest.Events):
        return (result.ids, result.first_line, result.path,
                [(a.dtype.str, a.tobytes()) for a in
                 (result.patient, result.minute, result.variable, result.value)])
    return (result.ids, [(a.dtype.str, a.shape, a.tobytes()) for a in
                         (result.labels, result.grid, result.statics, result.mask)])


def same_outcome(got, want):
    if want[0] == "ok":
        return got[0] == "ok" and columns_of(got[1]) == columns_of(want[1])
    return got == want


def written(text, tmp, name):
    path = Path(tmp) / name
    path.write_bytes(text.encode("utf-8", errors="surrogateescape"))
    return path


# ---------------------------------------------------------------------------
# events

IDS = st.text("abcxyz019_-.", min_size=1, max_size=6)
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.just(ingest.MISSING_PLACEHOLDER))
EVENT_ROWS = st.lists(st.tuples(IDS, st.integers(0, vocab.HORIZON_MINUTES - 1),
                                st.sampled_from(vocab.ALL_VARIABLES), VALUES),
                      min_size=1, max_size=40)
# events-only mutations: a patient whose rows are all placeholders, a name the
# vocabulary lacks (one long enough to be cut to a vocabulary name's width), a minute
# outside the window
EVENT_ONLY = ("placeholder_patient", "unknown_name", "out_of_window")
LONG_NAME = max(vocab.ALL_VARIABLES, key=len) + " (more)"


def events_text(rows):
    return "".join([ingest.EVENTS_HEADER + "\n"] +
                   [f"{pid},{minute},{name},{value!r}\n" for pid, minute, name, value in rows])


def mutate_events(text, mutation, draw):
    if mutation not in EVENT_ONLY:
        return mutate(text, mutation, draw)
    head, *rows = text.splitlines()
    i = draw(st.integers(0, len(rows)))
    if mutation == "placeholder_patient":
        rows[i:i] = [f"zz,{m},Heart rate,-1.0" for m in range(draw(st.integers(1, 3)))]
    else:
        cells = rows[min(i, len(rows) - 1)].split(",")
        if mutation == "unknown_name":
            cells[2] = draw(st.sampled_from([LONG_NAME, "Heart Rate", "HR", "Age\t"]))
        else:
            cells[1] = draw(st.sampled_from(["-1", str(vocab.HORIZON_MINUTES), "32768",
                                             "99999999999999999999"]))
        rows[min(i, len(rows) - 1)] = ",".join(cells)
    return "\n".join([head, *rows]) + "\n"


def reference_events(path):
    with mock.patch.object(ingest, "_event_columns", lambda path: None):
        return ingest.parse_events(path)


@settings(max_examples=300, deadline=None)
@given(EVENT_ROWS, st.sampled_from((None,) + FAULTS + RESHAPES + EVENT_ONLY), BLOCK_SIZES,
       st.data())
def test_events_columns_match_the_row_loop(rows, mutation, block, data):
    text = events_text(rows)
    if mutation is not None:
        text = mutate_events(text, mutation, data.draw)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tables, "BLOCK_BYTES", block):
        path = written(text, tmp, "events.csv")
        fast = ingest._event_columns(path)
        if mutation in (None, "shuffle", "no_final_newline", "placeholder_patient"):
            assert fast is not None   # well-formed files take the fast path
        if fast is not None:
            events, dropped = ingest._event_rows(path)
            assert columns_of(fast[0]) == columns_of(events) and fast[1] == dropped
        assert same_outcome(outcome(ingest.parse_events, path),
                            outcome(reference_events, path))


def test_patient_codes_follow_first_kept_rows(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(ingest.EVENTS_HEADER + "\nb,0,Age,-1\na,0,Age,50\nb,5,Age,60\na,9,Age,-1\n"
                    "c,1,Age,-1\nb,7,Age,1\n")
    with mock.patch.object(tables, "BLOCK_BYTES", 1):
        events, dropped = ingest._event_columns(path)
    assert (events.ids, events.first_line, dropped) == (["a", "b"], [3, 4], 3)
    assert events.patient.tolist() == [0, 1, 1]


# number parsing: np.loadtxt against int() and float()

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NUMBER_TEXTS = st.one_of(
    FLOATS.map(repr),
    st.tuples(FLOATS, st.integers(0, 20)).map(lambda fp: f"%.{fp[1]}g" % fp[0]),
    st.tuples(st.floats(-1e20, 1e20), st.integers(0, 20)).map(lambda fp: f"%.{fp[1]}f" % fp[0]),
)
MINUTE_TEXTS = st.tuples(st.integers(0, vocab.HORIZON_MINUTES - 1),
                         st.sampled_from(["{}", "+{}", "0{}", "00{}"])).map(
    lambda mf: mf[1].format(mf[0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(MINUTE_TEXTS, NUMBER_TEXTS.filter(
    lambda v: math.isfinite(float(v)) and float(v) != ingest.MISSING_PLACEHOLDER)),
    min_size=1, max_size=30))
def test_numbers_parse_as_int_and_float_do(cells):
    text = ingest.EVENTS_HEADER + "\n" + "".join(f"p,{m},Age,{v}\n" for m, v in cells)
    with tempfile.TemporaryDirectory() as tmp:
        fast = ingest._event_columns(written(text, tmp, "events.csv"))
    assert fast is not None
    events, _ = fast
    assert events.minute.tolist() == [int(m) for m, _ in cells]
    assert events.value.tobytes() == np.array([float(v) for _, v in cells]).tobytes()


@pytest.mark.parametrize("minute, value, minute_read, value_read", [
    ("0", "1_0", 0, 10.0),
    ("5_0", "1", 50, 1.0),
])
def test_underscores_take_the_loop(tmp_path, minute, value, minute_read, value_read):
    path = tmp_path / "events.csv"
    path.write_text(f"{ingest.EVENTS_HEADER}\np,{minute},Age,{value}\n")
    assert ingest._event_columns(path) is None
    events = ingest.parse_events(path)
    assert (events.minute.tolist(), events.value.tolist()) == ([minute_read], [value_read])


@pytest.mark.parametrize("value", ["1e400", "nan", "-inf"])
def test_non_finite_values_keep_the_loop_fault(tmp_path, value):
    path = tmp_path / "events.csv"
    path.write_text(f"{ingest.EVENTS_HEADER}\np,0,Age,1\np,0,Age,{value}\n")
    with pytest.raises(MalformedRow) as exc:
        ingest.parse_events(path)
    assert str(exc.value) == f"{path} line 3: non-finite value {value!r}"


def test_header_only_file_takes_the_loop_without_a_warning(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(ingest.EVENTS_HEADER + "\n")
    assert ingest._event_columns(path) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(ingest.parse_events(path)) == 0


# ---------------------------------------------------------------------------
# frames

FRAME_ONLY = ("duplicate_id", "bad_label")


def mutate_frames(text, mutation, draw):
    if mutation not in FRAME_ONLY:
        return mutate(text, mutation, draw)
    head, *rows = text.splitlines()
    i = draw(st.integers(0, len(rows) - 1))
    if mutation == "duplicate_id":
        rows.insert(draw(st.integers(0, len(rows))), rows[i])
    else:
        cells = rows[i].split(",")
        cells[1] = draw(st.sampled_from(["2", "01", "1.0", "", " 1", "-0"]))
        rows[i] = ",".join(cells)
    return "\n".join([head, *rows]) + "\n"


def reference_frames(path):
    with mock.patch.object(framing, "_frame_columns", lambda path: None):
        return framing.read_frames(path)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 3),
       st.sampled_from((None,) + FAULTS + RESHAPES + FRAME_ONLY), BLOCK_SIZES, st.data())
def test_frames_columns_match_the_row_loop(seed, n, n_buckets, mutation, block, data):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tables, "BLOCK_BYTES", block):
        path = Path(tmp) / "frames.csv"
        framing.write_frames(random_dense_frames(n, np.random.default_rng(seed), n_buckets),
                             path)
        if mutation is not None:
            path.write_bytes(mutate_frames(path.read_text(), mutation, data.draw)
                             .encode(errors="surrogateescape"))
        fast = framing._frame_columns(path)
        if mutation in (None, "shuffle", "no_final_newline"):
            assert fast is not None
        if fast is not None:
            ids, labels, cells = framing._frame_rows(path)
            assert fast[0] == ids
            assert [(a.dtype.str, a.shape, a.tobytes()) for a in fast[1:]] == \
                [(a.dtype.str, a.shape, a.tobytes()) for a in (labels, cells)]
        assert same_outcome(outcome(framing.read_frames, path), outcome(reference_frames, path))
