import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import framing, ingest, synth, vocab
from patsim.errors import InputFault, PatsimError
from patsim.framing import (
    N_AGG,
    FramedPatient,
    Frames,
    aggregate_cohort,
    fit_scaling,
    frame_cohort,
    impute_and_scale,
    read_frames,
    read_scaling_stats,
    scale_frames,
    sparsity,
    stack,
    write_frames,
    write_mask,
    write_scaling_stats,
)
from util import (cohort_of, framing_oracle, reference_aggregation_scaling,
                  reference_fit_scaling, reference_time_frame_scaling, traced_peak)

HR = vocab.DYNAMIC_INDEX["Heart rate"]
AGE = vocab.STATIC_INDEX["Age"]


def ev(pid, minute, variable, value):
    return (pid, minute, variable, value)


def frame_one(pid, rows, label, window_hours=2, horizon_hours=48):
    """frame_cohort of a one-patient cohort."""
    return frame_cohort(cohort_of(rows, {pid: label}), window_hours, horizon_hours)[0]


def aggregate_one(pid, rows, label):
    """aggregate_cohort of a one-patient cohort."""
    return aggregate_cohort(cohort_of(rows, {pid: label}))[0]


def hand_fixture():
    """Three patients with hand-computable buckets, scaling and imputation; c has no events."""
    return frame_cohort(cohort_of([
        ev("a", 10, "Heart rate", 80.0),
        ev("a", 50, "Heart rate", 90.0),
        ev("a", 130, "Heart rate", 100.0),
        ev("a", 0, "Age", 40.0),
        ev("b", 120, "Heart rate", 70.0),
        ev("b", 0, "Age", 60.0),
    ], {"a": 1, "b": 0, "c": 0}))


class TestBucketize:
    def test_bucket_mean(self):
        a, _, _ = hand_fixture()
        assert a.dynamic[HR, 0] == 85.0
        assert a.dynamic[HR, 1] == 100.0
        assert np.isnan(a.dynamic[HR, 2:]).all()
        assert a.statics[AGE] == 40.0

    def test_half_open_boundary(self):
        b = frame_one("b", [ev("b", 120, "Heart rate", 70.0)], label=0)
        assert np.isnan(b.dynamic[HR, 0])
        assert b.dynamic[HR, 1] == 70.0

    def test_final_minute_lands_in_last_bucket(self):
        f = frame_one("x", [ev("x", 2879, "Heart rate", 66.0)], label=0)
        assert f.dynamic[HR, 23] == 66.0

    def test_one_hour_windows(self):
        f = frame_one("x", [ev("x", 59, "Heart rate", 70.0)], label=0,
                       window_hours=1, horizon_hours=48)
        assert f.dynamic.shape == (36, 48)
        assert f.dynamic[HR, 0] == 70.0

    def test_bad_config(self):
        with pytest.raises(PatsimError, match="^window_hours must be positive and divide "):
            frame_one("x", [], label=0, window_hours=5, horizon_hours=48)
        with pytest.raises(PatsimError, match="at most 48"):
            frame_one("x", [], label=0, window_hours=2, horizon_hours=72)
        with pytest.raises(PatsimError, match="at most 48"):
            aggregate_cohort(cohort_of([], {"x": 0}), 72)

    def test_partition_property(self, rng):
        # every in-window event lands in exactly one bucket
        events = []
        expected = {}
        for _ in range(200):
            minute = int(rng.integers(0, 2880))
            value = float(rng.uniform(50, 100))
            events.append(ev("p", minute, "Heart rate", value))
            expected.setdefault(minute // 120, []).append(value)
        f = frame_one("p", events, label=0)
        for t in range(24):
            if t in expected:
                assert f.dynamic[HR, t] == pytest.approx(np.mean(expected[t]))
            else:
                assert np.isnan(f.dynamic[HR, t])
        assert int((~np.isnan(f.dynamic[HR])).sum()) == len(expected)


class TestSparsity:
    def test_extremes(self):
        a, b, c = hand_fixture()
        full = frame_one("full", [
            ev("full", t * 120, v, 1.0)
            for v in vocab.DYNAMIC_VARIABLES for t in range(24)
        ], label=0)
        assert sparsity(stack([full])) == 0.0
        assert sparsity(stack([c])) == 1.0

    def test_empty(self):
        with pytest.raises(PatsimError, match="^sparsity of an empty cohort is undefined$"):
            sparsity(hand_fixture().take([]))

    def test_mixed(self):
        a, b, c = hand_fixture()
        total = 3 * 36 * 24
        observed = 2 + 1 + 0
        assert sparsity(stack([a, b, c])) == pytest.approx((total - observed) / total)


class TestScaling:
    def test_min_max_and_means(self):
        a, b, c = hand_fixture()
        stats = fit_scaling(stack([a, b, c]))
        assert stats.dyn_min[HR] == 70.0 and stats.dyn_max[HR] == 100.0
        assert stats.dyn_bucket_mean[HR, 0] == 85.0
        assert stats.dyn_bucket_mean[HR, 1] == pytest.approx(85.0)
        assert np.isnan(stats.dyn_bucket_mean[HR, 5])
        assert stats.dyn_mean[HR] == pytest.approx((85 + 100 + 70) / 3)
        assert not stats.dyn_degenerate[HR]
        assert stats.dyn_degenerate[vocab.DYNAMIC_INDEX["Glucose"]]
        assert stats.static_min[AGE] == 40.0 and stats.static_max[AGE] == 60.0

    def test_empty(self):
        with pytest.raises(PatsimError, match="^cannot fit scaling statistics on an empty cohort$"):
            fit_scaling(hand_fixture().take([]))

    def test_impute_and_scale_hand_values(self):
        a, b, c = hand_fixture()
        stats = fit_scaling(stack([a, b, c]))
        da = impute_and_scale(a, stats)
        assert da.dynamic[HR, 0] == 0.5
        assert da.dynamic[HR, 1] == 1.0
        assert (da.dynamic[HR, 2:] == 1.0).all()        # carried forward
        assert da.statics[AGE] == 0.0

        db = impute_and_scale(b, stats)
        assert db.dynamic[HR, 0] == 0.5                 # leading gap -> bucket mean
        assert db.dynamic[HR, 1] == 0.0
        assert (db.dynamic[HR, 2:] == 0.0).all()
        assert db.statics[AGE] == 1.0

        dc = impute_and_scale(c, stats)
        assert (dc.dynamic[HR] == 0.5).all()            # bucket/pooled means
        assert dc.statics[AGE] == 0.5                   # static mean of 40, 60
        # degenerate variables everywhere at 0.5
        glucose = vocab.DYNAMIC_INDEX["Glucose"]
        assert (da.dynamic[glucose] == 0.5).all()

    def test_raw_nan_cells_preserved(self):
        a, b, c = hand_fixture()
        unobserved = np.isnan(a.dynamic)
        stats = fit_scaling(stack([a, b, c]))
        da = impute_and_scale(a, stats)
        assert (np.isnan(a.dynamic) == unobserved).all() and not np.isnan(da.dynamic).any()

    def test_clamp_above_training_max(self):
        a, b, c = hand_fixture()
        stats = fit_scaling(stack([a, b, c]))
        hot = frame_one("hot", [ev("hot", 10, "Heart rate", 140.0)], label=0)
        assert impute_and_scale(hot, stats).dynamic[HR, 0] == 1.0

    def test_impute_identity_on_dense(self, rng):
        # with no cell to impute, every cell is its own value min-max scaled
        from util import random_dense_frames
        dense_raw = stack(random_dense_frames(4, rng))
        stats = fit_scaling(dense_raw)
        scaled = scale_frames(dense_raw, stats)
        lo, hi = stats.dyn_min[:, None], stats.dyn_max[:, None]
        assert (scaled.grid == (dense_raw.grid - lo) / (hi - lo)).all()
        lo, hi = stats.static_min, stats.static_max
        assert (scaled.statics == (dense_raw.statics - lo) / (hi - lo)).all()

    def test_scaling_bounds_and_endpoints(self, rng):
        frames = []
        for i in range(6):
            events = []
            for v in ("Heart rate", "Glucose", "pH"):
                for t in range(24):
                    if rng.random() < 0.7:
                        events.append(ev(f"p{i}", t * 120 + 5, v, float(rng.uniform(1, 9))))
            frames.append(frame_one(f"p{i}", events, label=i % 2))
        stats = fit_scaling(stack(frames))
        dense = [impute_and_scale(f, stats) for f in frames]
        values = np.stack([d.dynamic for d in dense])
        assert values.min() >= 0.0 and values.max() <= 1.0
        for v in (HR, vocab.DYNAMIC_INDEX["Glucose"]):
            observed = np.concatenate([d.dynamic[v][~np.isnan(f.dynamic[v])]
                                       for d, f in zip(dense, frames)])
            assert observed.min() == 0.0 and observed.max() == 1.0

    def test_dimension_mismatch(self):
        a, b, c = hand_fixture()
        stats = fit_scaling(stack([a, b, c]))
        short = frame_one("s", [], label=0, window_hours=4, horizon_hours=48)
        with pytest.raises(PatsimError,
                           match=r"^frame grid \(36, 12\) does not match stats \(36, 24\)$"):
            impute_and_scale(short, stats)


class TestAggregate:
    def test_six_statistics(self):
        f = aggregate_one("p", [
            ev("p", 10, "Heart rate", 3.0),
            ev("p", 20, "Heart rate", 1.0),
            ev("p", 30, "Heart rate", 2.0),
        ], label=0)
        assert list(f.dynamic[HR]) == [1.0, 3.0, 2.0, 3.0, 2.0, 3.0]

    def test_single_value(self):
        f = aggregate_one("p", [ev("p", 10, "Heart rate", 7.0)], label=0)
        assert list(f.dynamic[HR]) == [7.0, 7.0, 7.0, 7.0, 7.0, 1.0]

    def test_even_count_median(self):
        f = aggregate_one("p", [
            ev("p", 10, "Heart rate", 1.0),
            ev("p", 20, "Heart rate", 3.0),
        ], label=0)
        assert f.dynamic[HR, 2] == 2.0

    def test_zero_events(self):
        f = aggregate_one("p", [], label=0)
        assert f.dynamic[HR, 5] == 0.0
        assert np.isnan(f.dynamic[HR, :5]).all()

    def test_permutation_sensitivity(self, rng):
        minutes = sorted(int(m) for m in rng.choice(2800, size=9, replace=False))
        values = rng.uniform(1, 9, size=9)
        for _ in range(10):
            perm = rng.permutation(9)
            f = aggregate_one("p", [ev("p", m, "Heart rate", float(values[perm][i]))
                                for i, m in enumerate(minutes)], label=0)
            assert f.dynamic[HR, 0] == values.min()
            assert f.dynamic[HR, 1] == values.max()
            assert f.dynamic[HR, 2] == pytest.approx(np.median(values))
            assert f.dynamic[HR, 5] == 9.0
            assert f.dynamic[HR, 3] == values[perm][0]
            assert f.dynamic[HR, 4] == values[perm][-1]

    def test_scale_fills_missing_from_training(self):
        stats = fit_scaling(aggregate_cohort(cohort_of([
            ev("t1", 10, "Heart rate", 10.0),
            ev("t2", 10, "Heart rate", 20.0),
            ev("t2", 20, "Heart rate", 30.0)], {"t1": 0, "t2": 1})))
        scaled, = scale_frames(aggregate_cohort(cohort_of([], {"q": 0})), stats)
        # count 0 scales to 0 (training counts 1 and 2), means fill the rest
        assert scaled.dynamic[HR, 5] == 0.0
        assert scaled.dynamic[HR, 0] == pytest.approx((15 - 10) / 10)   # mean of 10,20

    def test_the_aggregation_marker_is_keyword_only(self):
        a = hand_fixture()
        with pytest.raises(TypeError):
            Frames(a.ids, a.labels, a.grid, a.statics, True)
        assert Frames(a.ids, a.labels, a.grid, a.statics, aggregated=True).take([1]).aggregated

    def test_stacked_rows_are_time_frames(self):
        # a cohort's row carries no marker: stacked aggregation rows are a 6-bucket grid
        stats = fit_scaling(aggregate_cohort(cohort_of([ev("t", 10, "Heart rate", 1.0)],
                                                       {"t": 0})))
        empty = aggregate_one("q", [], label=0)
        assert not stack([empty]).aggregated
        with pytest.raises(PatsimError,
                           match=r"^frame grid \(36, 6\) does not match stats \(216, 1\)$"):
            impute_and_scale(empty, stats)


def test_frames_file_roundtrip(tmp_path, rng):
    from util import mask_lines, random_dense_frames
    frames = random_dense_frames(5, rng)
    raw = stack(frames)
    raw.grid[2, :, ::3] = np.nan
    fpath, mpath = tmp_path / "f.csv", tmp_path / "m.csv"
    write_frames(frames, fpath)
    write_mask(raw, mpath)
    back = read_frames(fpath)
    for orig, new in zip(frames, back):
        assert orig.patient_id == new.patient_id and orig.label == new.label
        assert (orig.dynamic == new.dynamic).all()
        assert (orig.statics == new.statics).all()
    assert not np.isnan(back.grid).any()
    # the mask file is an output only: it holds the raw cohort's NaN cells as 0
    assert mpath.read_text().splitlines() == mask_lines(raw.ids, ~np.isnan(raw.grid))
    assert mpath.read_text().count(",0") == 36 * 8


def test_missing_mask_file_is_an_error(tmp_path, rng):
    from util import random_dense_frames
    fpath = tmp_path / "f.csv"
    write_frames(random_dense_frames(3, rng), fpath)
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]
    assert not np.isnan(read_frames(fpath).grid).any()
    with pytest.raises(FileNotFoundError):
        write_mask(stack(random_dense_frames(3, rng)), tmp_path / "no_such_dir" / "m.csv")


def test_scaling_stats_roundtrip(tmp_path):
    a, b, c = hand_fixture()
    stats = fit_scaling(stack([a, b, c]))
    path = tmp_path / "stats.txt"
    write_scaling_stats(stats, path)
    back = read_scaling_stats(path)
    np.testing.assert_array_equal(back.dyn_min, stats.dyn_min)
    np.testing.assert_array_equal(back.dyn_bucket_mean, stats.dyn_bucket_mean)
    np.testing.assert_array_equal(back.dyn_degenerate, stats.dyn_degenerate)
    np.testing.assert_array_equal(back.static_mean, stats.static_mean)
    da = impute_and_scale(a, stats)
    db = impute_and_scale(a, back)
    assert (da.dynamic == db.dynamic).all()


def test_scaling_stats_missing_key_names_file_and_key(tmp_path):
    a, b, c = hand_fixture()
    path = tmp_path / "stats.txt"
    write_scaling_stats(fit_scaling(stack([a, b, c])), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("static_mean.2=")))
    with pytest.raises(InputFault, match=r"stats\.txt: missing key 'static_mean\.2'"):
        read_scaling_stats(path)


def test_scaling_stats_bad_value_names_line(tmp_path):
    a, b, c = hand_fixture()
    path = tmp_path / "stats.txt"
    write_scaling_stats(fit_scaling(stack([a, b, c])), path)
    written = path.read_text().splitlines()
    # an n_buckets below 1 or beyond the file's key count is refused before it sizes an array
    for line, value, reason in [(3, "abc", "'abc' for 'dyn_max.0'"),
                                (1, "-1", "'-1' for 'n_buckets'"),
                                (1, "99999999999", "'99999999999' for 'n_buckets'")]:
        lines = list(written)
        lines[line - 1] = lines[line - 1].split("=")[0] + "=" + value
        path.write_text("\n".join(lines))
        with pytest.raises(InputFault, match=f"line {line}: bad value {re.escape(reason)}$") as exc:
            read_scaling_stats(path)
        assert str(exc.value) == f"{path} line {line}: bad value {reason}"


@pytest.mark.parametrize("key, value, named, reason", [
    ("dyn_max.{hr}", "inf", "dyn_max.{hr}", ""),
    ("static_min.{age}", "-inf", "static_min.{age}", ""),
    ("dyn_min.{hr}", "nan", "dyn_min.{hr}", ": nan only where min, max and mean all are"),
    ("static_mean.{age}", "nan", "static_mean.{age}", ": nan only where min, max and mean all are"),
    ("dyn_max.{hr}", "70.0", "dyn_degenerate.{hr}", ": degenerate unless min is below max"),
    ("dyn_degenerate.{ph}", "0", "dyn_degenerate.{ph}", ": degenerate unless min is below max"),
], ids=["inf", "minus_inf", "nan_min", "nan_mean", "min_equals_max", "never_observed"])
def test_scaling_stats_that_would_write_nan_cells_name_the_line(tmp_path, key, value, named,
                                                                reason):
    """Each edit, of a file write_scaling_stats wrote, would make scale_frames write nan cells."""
    path = tmp_path / "stats.txt"
    write_scaling_stats(fit_scaling(hand_fixture()), path)
    index = {"hr": HR, "age": AGE, "ph": vocab.DYNAMIC_INDEX["pH"]}
    key, named = key.format(**index), named.format(**index)
    lines = path.read_text().splitlines()
    at = [line.split("=")[0] for line in lines]
    lines[at.index(key)] = f"{key}={value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputFault) as exc:
        read_scaling_stats(path)
    line = lines[at.index(named)]
    assert str(exc.value) == (f"{path} line {at.index(named) + 1}: bad value "
                              f"{line.split('=')[1]!r} for {named!r}{reason}")


ALL_NAN_VAR, CONSTANT_VAR, HIGH_VAR, LOW_VAR, ZERO_VAR = 0, 1, 2, 3, 4


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_train=st.integers(2, 7),
       n_test=st.integers(1, 5), n_buckets=st.sampled_from([1, 3, 24]),
       missing=st.floats(0.0, 1.0))
def test_batch_scaling_matches_per_frame_bitwise(seed, n_train, n_test, n_buckets, missing):
    rng = np.random.default_rng(seed)

    def raw(pid, spread):
        dynamic = rng.normal(0.0, spread, (vocab.N_DYNAMIC, n_buckets))
        dynamic[rng.random(dynamic.shape) < missing] = np.nan
        dynamic[ALL_NAN_VAR] = np.nan
        dynamic[CONSTANT_VAR] = np.where(np.isnan(dynamic[CONSTANT_VAR]), np.nan, 3.25)
        dynamic[CONSTANT_VAR, 0] = 3.25
        statics = rng.normal(0.0, spread, vocab.N_STATIC)
        statics[rng.random(vocab.N_STATIC) < missing] = np.nan
        statics[0] = np.nan
        return FramedPatient(pid, dynamic, statics, int(rng.random() < 0.5))

    train = [raw(f"a{i}", 1.0) for i in range(n_train)]
    # both extremes observed in training, so out-of-range test cells must clip
    train[0].dynamic[[HIGH_VAR, LOW_VAR], 0] = (-1.0, 1.0)
    train[1].dynamic[[HIGH_VAR, LOW_VAR], 0] = (1.0, -1.0)
    test = [raw(f"b{i}", 5.0) for i in range(n_test)]
    test[0].dynamic[HIGH_VAR, 0] = 1e6
    test[0].dynamic[LOW_VAR, 0] = -1e6
    frames = train + test
    unobserved = [np.isnan(f.dynamic) for f in frames]
    stats = fit_scaling(stack(train))

    scaled = scale_frames(stack(frames), stats)
    dynamic, statics = scaled.grid, scaled.statics
    ref_dynamic, ref_statics = reference_time_frame_scaling(stack(frames), stats)
    for i, f in enumerate(frames):
        single = impute_and_scale(f, stats)
        for got in (dynamic[i], scaled[i].dynamic, single.dynamic):
            assert got.tobytes() == ref_dynamic[i].tobytes()
        for got in (statics[i], scaled[i].statics, single.statics):
            assert got.tobytes() == ref_statics[i].tobytes()
        assert (np.isnan(f.dynamic) == unobserved[i]).all()
    assert (dynamic[:, ALL_NAN_VAR] == 0.5).all() and (dynamic[:, CONSTANT_VAR] == 0.5).all()
    assert (statics[:, 0] == 0.5).all()
    assert dynamic[n_train, HIGH_VAR, 0] == 1.0 and dynamic[n_train, LOW_VAR, 0] == 0.0


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       n_buckets=st.sampled_from([1, 2, 24]), missing=st.floats(0.0, 1.0),
       levels=st.sampled_from([0, 3]))
def test_fit_scaling_equals_the_pass_by_pass_reference(seed, n, n_buckets, missing, levels):
    """Every statistic's bits, on drawn masked grids with a never-observed and a
    constant variable and static, one patient or one bucket, continuous or tied values.
    Cells hold no -0.0, as frame_cohort's do: its bincount sums start from +0.0."""
    rng = np.random.default_rng(seed)
    grid = rng.normal(0.0, 2.0, (n, vocab.N_DYNAMIC, n_buckets))
    statics = rng.normal(0.0, 2.0, (n, vocab.N_STATIC))
    if levels:
        grid, statics = np.round(grid * levels) / levels + 0.0, np.round(statics * levels) + 0.0
    mask = rng.random(grid.shape) >= missing
    mask[:, ALL_NAN_VAR] = False
    mask[0, CONSTANT_VAR, 0] = True
    grid[:, CONSTANT_VAR] = 3.25
    grid[~mask] = np.nan
    statics[rng.random(statics.shape) < missing] = np.nan
    statics[:, 0], statics[:, 1] = np.nan, -1.5
    frames = Frames([f"p{i}" for i in range(n)], np.zeros(n, dtype=int), grid, statics)
    got, want = fit_scaling(frames), reference_fit_scaling(frames)
    assert got.n_buckets == want.n_buckets == n_buckets
    for name in ("dyn_min", "dyn_max", "dyn_mean", "dyn_bucket_mean", "dyn_degenerate",
                 "static_min", "static_max", "static_mean", "static_degenerate"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.dyn_degenerate[[ALL_NAN_VAR, CONSTANT_VAR]].all()
    assert got.static_degenerate[:2].all()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_train=st.integers(1, 6), n_test=st.integers(1, 4),
       missing=st.floats(0.0, 1.0), levels=st.sampled_from([0, 3]))
def test_aggregation_scaling_equals_the_column_by_column_reference(seed, n_train, n_test,
                                                                   missing, levels):
    """Both sides' bits, on drawn aggregation tables with NaN cells, a never-observed
    variable and static, constant columns (one of +0.0 and -0.0 mixed) and signed zeros,
    continuous or tied values, and test cells beyond the training range."""
    rng = np.random.default_rng(seed)

    def table(n, spread):
        grid = rng.normal(0.0, spread, (n, vocab.N_DYNAMIC, N_AGG))
        statics = rng.normal(0.0, spread, (n, vocab.N_STATIC))
        if levels:
            grid, statics = np.round(grid * levels) / levels, np.round(statics * levels)
        grid[rng.random(grid.shape) < 0.1] = -0.0
        grid[rng.random(grid.shape) < missing] = np.nan
        statics[rng.random(statics.shape) < missing] = np.nan
        return Frames([f"p{i}" for i in range(n)], np.zeros(n, dtype=int), grid, statics,
                      aggregated=True)

    train, test = table(n_train, 1.0), table(n_test, 5.0)
    train.grid[:, ALL_NAN_VAR] = np.nan
    train.grid[:, CONSTANT_VAR] = 3.25
    train.grid[:, CONSTANT_VAR, 0] = np.where(np.arange(n_train) % 2, -0.0, 0.0)
    train.statics[:, 0], train.statics[:, 1] = np.nan, -1.5
    stats = fit_scaling(train)
    for side in (train, test):
        got = scale_frames(side, stats)
        want_grid, want_statics = reference_aggregation_scaling(train, side)
        assert got.aggregated and got.grid.shape == side.grid.shape
        assert got.grid.tobytes() == want_grid.tobytes()
        assert got.statics.tobytes() == want_statics.tobytes()
        assert (got.grid[:, [ALL_NAN_VAR, CONSTANT_VAR]] == 0.5).all()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_train=st.integers(2, 6), n_test=st.integers(1, 4),
       n_buckets=st.sampled_from([1, 12, 24]), missing=st.floats(0.0, 1.0),
       levels=st.sampled_from([0, 3]))
def test_time_frame_scaling_equals_the_bucket_by_bucket_reference(seed, n_train, n_test,
                                                                  n_buckets, missing, levels):
    """Both sides' bits, on drawn grids of 1, 12 or 24 buckets with NaN cells, a
    never-observed and a constant variable and static, signed zeros (-0.0 test cells
    against a training minimum of +0.0), continuous or tied values, and test cells
    beyond the training range."""
    rng = np.random.default_rng(seed)

    def frames(n, spread):
        grid = rng.normal(0.0, spread, (n, vocab.N_DYNAMIC, n_buckets))
        statics = rng.normal(0.0, spread, (n, vocab.N_STATIC))
        if levels:
            grid, statics = np.round(grid * levels) / levels, np.round(statics * levels)
        grid[rng.random(grid.shape) < 0.1] = -0.0
        grid[rng.random(grid.shape) < missing] = np.nan
        statics[rng.random(statics.shape) < missing] = np.nan
        return Frames([f"p{i}" for i in range(n)], np.zeros(n, dtype=int), grid, statics)

    train, test = frames(n_train, 1.0), frames(n_test, 5.0)
    train.grid[:, ALL_NAN_VAR] = np.nan
    train.grid[:, CONSTANT_VAR] = 3.25
    train.grid[:, ZERO_VAR] = np.abs(train.grid[:, ZERO_VAR])
    train.grid[:2, [HIGH_VAR, LOW_VAR, ZERO_VAR], 0] = [[-1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
    train.statics[:, 0], train.statics[:, 1] = np.nan, -1.5
    test.grid[0, [HIGH_VAR, LOW_VAR, ZERO_VAR], 0] = (1e6, -1e6, -0.0)
    stats = fit_scaling(train)
    for side in (train, test):
        got = scale_frames(side, stats)
        want_grid, want_statics = reference_time_frame_scaling(side, stats)
        assert not got.aggregated and got.grid.shape == side.grid.shape
        assert got.grid.tobytes() == want_grid.tobytes()
        assert got.statics.tobytes() == want_statics.tobytes()
        assert (got.grid[:, [ALL_NAN_VAR, CONSTANT_VAR]] == 0.5).all()
        assert (got.statics[:, :2] == 0.5).all()
    assert tuple(got.grid[0, [HIGH_VAR, LOW_VAR], 0]) == (1.0, 0.0)


ORACLE_VARIABLES = ("Heart rate", "pH", "Glucose", "Age", "Weight")
# bucket edges of both window widths, the 24 h horizon and the last minute
ORACLE_MINUTES = (0, 1, 59, 60, 119, 120, 239, 240, 1439, 1440, 2879)


@st.composite
def oracle_rows(draw):
    """Patients and rows in shuffled file order, with 3+ observations per cell.

    Values come from a small set, signed zeros and subnormals included, so
    first/last, min/max and medians meet ties, and statics are observed more than once and past a 24 h horizon.
    The last patient has only statics, and may have no rows at all.
    """
    n = draw(st.integers(1, 4))
    values = (st.sampled_from([1.0, 2.5, 7.25, 100.0, 0.1, 0.0, -0.0, 5e-324, -5e-324])
              | st.floats(-1e6, 1e6))
    rows = []
    for i in range(n):
        cells = draw(st.lists(st.tuples(st.sampled_from(ORACLE_MINUTES),
                                        st.sampled_from(ORACLE_VARIABLES)), max_size=6))
        for minute, variable in cells:
            if i == n - 1 and variable not in vocab.STATIC_INDEX:
                continue
            for value in draw(st.lists(values, min_size=3, max_size=5)):
                rows.append((f"p{i}", minute, variable, value))
    labels = {f"p{i}": i % 2 for i in range(n)}
    return draw(st.permutations(rows)), labels


def bits(array):
    return np.asarray(array).tobytes()


@settings(max_examples=150, deadline=None)
@given(oracle_rows(), st.sampled_from([(2, 48), (1, 24), (4, 48)]))
def test_framing_matches_per_event_oracle(case, grid):
    rows, labels = case
    window_hours, horizon_hours = grid
    cohort = cohort_of(rows, labels)
    frames = frame_cohort(cohort, window_hours, horizon_hours)
    aggs = aggregate_cohort(cohort, horizon_hours)
    oracle = framing_oracle(rows, labels, window_hours, horizon_hours)
    assert [f.patient_id for f in frames] == [a.patient_id for a in aggs] == sorted(labels)
    assert aggs.aggregated and not frames.aggregated
    for frame, agg in zip(frames, aggs):
        dynamic, mask, statics, table = oracle[frame.patient_id]
        assert frame.label == agg.label == labels[frame.patient_id]
        assert bits(frame.dynamic) == bits(dynamic)
        assert bits(~np.isnan(frame.dynamic)) == bits(mask)
        assert bits(frame.statics) == bits(statics) == bits(agg.statics)
        assert bits(agg.dynamic) == bits(table)

    # the framing invariants: scaling never touches the raw grid's NaN cells, dense
    # output lies in [0, 1], and carrying forward never overwrites an observed cell,
    # as the bucket-by-bucket reference, which keeps every observed value, shows
    raw = frames.grid.copy()
    stats = fit_scaling(frames)
    scaled = scale_frames(frames, stats)
    dense = [*scaled, *(impute_and_scale(f, stats) for f in frames)]
    assert bits(frames.grid) == bits(raw)
    for d in dense:
        assert ((d.dynamic >= 0.0) & (d.dynamic <= 1.0)).all()
        assert ((d.statics >= 0.0) & (d.statics <= 1.0)).all()
    assert bits(scaled.grid) == bits(reference_time_frame_scaling(frames, stats)[0])


@settings(max_examples=100, deadline=None)
@given(oracle_rows(), st.sampled_from([(2, 48), (1, 24), (4, 48)]))
def test_framing_a_patient_at_a_time_matches_one_block(case, grid):
    """Blocks of one patient each give the grid and statics of one block, bit for bit:
    patients with only static rows or none, events past a 24 h horizon, one patient."""
    cohort = cohort_of(*case)
    with mock.patch.object(framing, "FRAME_BLOCK_ROWS", 1):
        # a block is one patient, or patients whose rows number at most the constant
        assert all(p.stop - p.start == 1 or r.stop - r.start <= 1
                   for p, r in framing._patient_blocks(cohort))
        blocks = frame_cohort(cohort, *grid)
    with mock.patch.object(framing, "FRAME_BLOCK_ROWS", 2 ** 40):
        assert len(list(framing._patient_blocks(cohort))) == 1
        whole = frame_cohort(cohort, *grid)
    assert bits(blocks.grid) == bits(whole.grid)
    assert bits(blocks.statics) == bits(whole.statics)


@pytest.fixture(scope="module")
def planted_cohort():
    return synth.generate(synth.SynthSpec(n_patients=400, seed=1001)).cohort()


def test_frame_cohort_holds_little_beyond_its_grid(planted_cohort):
    frames, peak = traced_peak(lambda: frame_cohort(planted_cohort))
    assert peak <= 3.5 * frames.grid.nbytes, (peak, frames.grid.nbytes)


def test_write_frames_holds_a_bounded_block(planted_cohort, tmp_path):
    frames = frame_cohort(planted_cohort)
    dense = scale_frames(frames, fit_scaling(frames))
    _, peak = traced_peak(lambda: write_frames(dense, tmp_path / "frames.csv"))
    assert peak <= 2 * 2 ** 20, peak


def test_write_events_holds_a_bounded_block(planted_cohort, tmp_path):
    _, peak = traced_peak(lambda: ingest.write_events(planted_cohort, tmp_path / "events.csv"))
    assert peak <= 1.9 * 2 ** 20, peak


def test_scale_frames_holds_little_beyond_its_grid(planted_cohort):
    frames = frame_cohort(planted_cohort)
    stats = fit_scaling(frames)
    _, peak = traced_peak(lambda: scale_frames(frames, stats))
    assert peak <= 2.5 * frames.grid.nbytes, (peak, frames.grid.nbytes)


def test_write_mask_holds_a_bounded_block(planted_cohort, tmp_path):
    frames = frame_cohort(planted_cohort)
    _, peak = traced_peak(lambda: write_mask(frames, tmp_path / "mask.csv"))
    assert peak <= 2 * 2 ** 20, peak
