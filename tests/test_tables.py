"""Contract tests for the row layout every patsim table file shares.

Each row format round-trips through its writer and reader; line ends in
CRLF and blank lines leave the result unchanged; and every reader names
line 1 for a wrong header and the file and line of a short row.
"""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import evaluation, framing, ingest, tables, vocab, weights
from patsim.config import read_config_values
from patsim.errors import MalformedRow
from patsim.evaluation import FoldMetrics
from patsim.framing import FramedPatient, ScalingStats
from patsim.knn import FeatureWeights
from util import cohort_of, mask_lines, random_dense_frames

FINITE = st.floats(allow_nan=False, allow_infinity=False)
IDS = st.text("abcxyz019_-.", min_size=1, max_size=6)


def variants(text):
    """The same table with LF, with CRLF, and with blank lines after every line."""
    spaced = text.replace("\n", "\n\n \n")
    return [text, text.replace("\n", "\r\n"), spaced, spaced.replace("\n", "\r\n")]


def read_each(text, read, stream=False):
    """read() of every variant of `text`, from a file (and from lines, with `stream`)."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for variant in variants(text):
            path.write_bytes(variant.encode("utf-8"))
            out.append(read(path))
            if stream:
                out.append(read(io.StringIO(variant, newline="")))
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(IDS, st.integers(0, vocab.HORIZON_MINUTES - 1),
                          st.sampled_from(vocab.ALL_VARIABLES),
                          FINITE.filter(lambda v: v != ingest.MISSING_PLACEHOLDER)),
                min_size=1, max_size=30),
       st.data())
def test_events_and_outcomes_round_trip(rows, data):
    pids = sorted({row[0] for row in rows})
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(pids), max_size=len(pids)))
    cohort = cohort_of(rows, dict(zip(pids, labels)))
    ev_buf, out_buf = io.StringIO(), io.StringIO()
    ingest.write_events(cohort, ev_buf)
    ingest.write_outcomes(cohort, out_buf)
    for parsed in read_each(ev_buf.getvalue(), ingest.parse_events, stream=True):
        assert parsed.ids == pids
        for column in ("patient", "minute", "variable", "value"):
            assert getattr(parsed, column).tobytes() == getattr(cohort, column).tobytes()
    for parsed in read_each(out_buf.getvalue(), ingest.parse_outcomes, stream=True):
        assert parsed.ids == pids and parsed.labels.tolist() == labels


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 4))
def test_frames_and_mask_round_trip(seed, n_buckets, n):
    rng = np.random.default_rng(seed)
    shape = (vocab.N_DYNAMIC, n_buckets)
    frames = [FramedPatient(f"p{i}", rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape),
                            rng.random(shape) < 0.6, rng.normal(size=vocab.N_STATIC),
                            int(rng.integers(0, 2)))
              for i in rng.permutation(n)]
    with tempfile.TemporaryDirectory() as tmp:
        fpath, mpath = Path(tmp) / "frames.csv", Path(tmp) / "mask.csv"
        framing.write_frames(frames, fpath, mpath)
        # the mask file is written in the given order and never read back
        assert mpath.read_text().splitlines() == \
            mask_lines([f.patient_id for f in frames], [f.mask for f in frames])
        for variant in variants(fpath.read_text()):
            fpath.write_bytes(variant.encode("utf-8"))
            back = framing.read_frames(fpath)
            # written in the given order, read back in patient_id order
            assert [(f.patient_id, f.label) for f in back] == \
                sorted((f.patient_id, f.label) for f in frames)
            for a, b in zip(back, framing.stack(frames)):
                assert a.dynamic.tobytes() == b.dynamic.tobytes()
                assert a.statics.tobytes() == b.statics.tobytes()
            assert back.mask.all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), min_size=vocab.N_VARIABLES,
                max_size=vocab.N_VARIABLES))
def test_learned_weights_round_trip(values):
    buf = io.StringIO()
    weights.save_weights(FeatureWeights(values), buf)
    for read in (weights.read_weights, weights.load_manual_weights):
        for back in read_each(buf.getvalue(), read):
            assert back.values.tolist() == values


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          FINITE, FINITE, FINITE), max_size=25))
def test_fold_metrics_round_trip(rows):
    metrics = [FoldMetrics(*row) for row in rows]
    buf = io.StringIO()
    evaluation.save_fold_metrics(metrics, buf)
    for back in read_each(buf.getvalue(), evaluation.load_fold_metrics):
        assert back == metrics


def _with_nans(rng, shape):
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.2] = np.nan
    return values


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_scaling_stats_round_trip(seed, n_buckets):
    rng = np.random.default_rng(seed)
    n_dyn, n_stat = vocab.N_DYNAMIC, vocab.N_STATIC
    stats = ScalingStats(n_buckets, _with_nans(rng, n_dyn), _with_nans(rng, n_dyn),
                         _with_nans(rng, n_dyn), _with_nans(rng, (n_dyn, n_buckets)),
                         rng.random(n_dyn) < 0.5, _with_nans(rng, n_stat),
                         _with_nans(rng, n_stat), _with_nans(rng, n_stat),
                         rng.random(n_stat) < 0.5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stats.txt"
        framing.write_scaling_stats(stats, path)
        text = path.read_text()
    for back in read_each(text, framing.read_scaling_stats):
        assert back.n_buckets == n_buckets
        for name in ("dyn_min", "dyn_max", "dyn_mean", "dyn_bucket_mean", "dyn_degenerate",
                     "static_min", "static_max", "static_mean", "static_degenerate"):
            got, want = getattr(back, name), getattr(stats, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# one fault format across every reader


def _events(d):
    path = d / "events.csv"
    path.write_text(ingest.EVENTS_HEADER + "\np1,0,Age,54\np1,10,Heart rate,80\n")
    return path, ingest.parse_events


def _outcomes(d):
    path = d / "outcomes.csv"
    path.write_text(ingest.OUTCOMES_HEADER + "\np1,0\np2,1\n")
    return path, ingest.parse_outcomes


def _frames(d):
    path = d / "frames.csv"
    framing.write_frames(random_dense_frames(2, np.random.default_rng(0), n_buckets=2), path)
    return path, framing.read_frames


def _learned_weights(d):
    path = d / "weights.csv"
    weights.save_weights(FeatureWeights.uniform(), path)
    return path, weights.read_weights


def _manual_weights(d):
    path = d / "manual.csv"
    path.write_text("Heart rate,2.0\nAge,1.0\n")
    return path, weights.load_manual_weights


def _fold_metrics(d):
    path = d / "folds.csv"
    evaluation.save_fold_metrics([FoldMetrics(0, 1, 2, 3, 4, 0.5, 0.25, 1 / 3)] * 2, path)
    return path, evaluation.load_fold_metrics


def _stats(d):
    path = d / "stats.txt"
    framing.write_scaling_stats(
        framing.fit_scaling(framing.stack(
            random_dense_frames(3, np.random.default_rng(0), n_buckets=2))), path)
    return path, framing.read_scaling_stats


def _config(d):
    path = d / "run.cfg"
    path.write_text("# a comment\nk = 5\nfolds=4\n")
    return path, read_config_values


WITH_HEADER = [_events, _outcomes, _frames, _learned_weights, _fold_metrics]
ALL_READERS = WITH_HEADER + [_manual_weights, _stats, _config]


@pytest.mark.parametrize("table", WITH_HEADER, ids=lambda f: f.__name__[1:])
def test_wrong_header_names_line_1(tmp_path, table):
    path, read = table(tmp_path)
    read(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["not,the,header"] + lines[1:]) + "\n")
    with pytest.raises(MalformedRow) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path} line 1: expected header ")
    assert str(exc.value).endswith(", got 'not,the,header'")
    assert (exc.value.path, exc.value.line_no) == (path, 1)


@pytest.mark.parametrize("table", ALL_READERS, ids=lambda f: f.__name__[1:])
def test_short_row_names_file_and_line(tmp_path, table):
    path, read = table(tmp_path)
    read(path)
    lines = path.read_text().splitlines()
    sep = "=" if table in (_stats, _config) else ","
    width = len(lines[-1].split(sep))
    lines[-1] = sep.join(lines[-1].split(sep)[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow) as exc:
        read(path)
    assert str(exc.value) == f"{path} line {len(lines)}: expected {width} cells, " \
                             f"got {width - 1}"
    assert (exc.value.path, exc.value.line_no) == (path, len(lines))


def test_read_rows_takes_lines_and_skips_comments():
    lines = ["k=1\r\n", "  # note\n", "\n", "a = b\n"]
    assert list(tables.read_rows(lines, width=2, sep="=", comment="#")) == \
        [(1, ["k", "1"]), (4, ["a ", " b"])]
    with pytest.raises(MalformedRow) as exc:
        list(tables.read_rows(["h,i\n", "x,y\n", "x\n"], header="h,i"))
    assert str(exc.value) == "line 3: expected 2 cells, got 1"
    assert exc.value.path is None


def test_write_rows_to_a_stream():
    buf = io.StringIO()
    tables.write_rows(buf, "a,b", (f"{i},{i * i}" for i in range(3)))
    assert buf.getvalue() == "a,b\n0,0\n1,1\n2,4\n"
