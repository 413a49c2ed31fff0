import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import vocab
from patsim.errors import InputFault, PatsimError
from patsim.framing import (
    N_AGG,
    FramedPatient,
    Frames,
    _impute_stack,
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
    write_scaling_stats,
)
from util import (cohort_of, framing_oracle, reference_aggregation_scaling,
                  reference_fit_scaling)

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
        assert a.mask[HR, 0] and a.mask[HR, 1]
        assert not a.mask[HR, 2:].any()
        assert a.statics[AGE] == 40.0

    def test_half_open_boundary(self):
        b = frame_one("b", [ev("b", 120, "Heart rate", 70.0)], label=0)
        assert not b.mask[HR, 0]
        assert b.mask[HR, 1] and b.dynamic[HR, 1] == 70.0

    def test_final_minute_lands_in_last_bucket(self):
        f = frame_one("x", [ev("x", 2879, "Heart rate", 66.0)], label=0)
        assert f.mask[HR, 23] and f.dynamic[HR, 23] == 66.0

    def test_one_hour_windows(self):
        f = frame_one("x", [ev("x", 59, "Heart rate", 70.0)], label=0,
                       window_hours=1, horizon_hours=48)
        assert f.dynamic.shape == (36, 48)
        assert f.mask[HR, 0]

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
                assert f.mask[HR, t]
                assert f.dynamic[HR, t] == pytest.approx(np.mean(expected[t]))
            else:
                assert not f.mask[HR, t]
        assert int(f.mask[HR].sum()) == len(expected)


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

    def test_mask_preserved(self):
        a, b, c = hand_fixture()
        stats = fit_scaling(stack([a, b, c]))
        da = impute_and_scale(a, stats)
        assert (da.mask == a.mask).all()

    def test_clamp_above_training_max(self):
        a, b, c = hand_fixture()
        stats = fit_scaling(stack([a, b, c]))
        hot = frame_one("hot", [ev("hot", 10, "Heart rate", 140.0)], label=0)
        assert impute_and_scale(hot, stats).dynamic[HR, 0] == 1.0

    def test_impute_identity_on_dense(self, rng):
        from util import random_dense_frames
        dense_raw = random_dense_frames(4, rng)
        stats = fit_scaling(stack(dense_raw))
        for f in dense_raw:
            dynamic, statics = _impute_stack(f.dynamic[None], f.statics[None], stats)
            assert (dynamic[0] == f.dynamic).all()
            assert (statics[0] == f.statics).all()

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
            observed = np.concatenate([d.dynamic[v][f.mask[v]]
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
        tr1 = aggregate_one("t1", [ev("t1", 10, "Heart rate", 10.0)], label=0)
        tr2 = aggregate_one("t2", [ev("t2", 10, "Heart rate", 20.0),
                               ev("t2", 20, "Heart rate", 30.0)], label=1)
        stats = fit_scaling(stack([tr1, tr2]))
        empty = aggregate_one("q", [], label=0)
        scaled, = scale_frames(stack([empty]), stats)
        # count 0 scales to 0 (training counts 1 and 2), means fill the rest
        assert scaled.dynamic[HR, 5] == 0.0
        assert scaled.dynamic[HR, 0] == pytest.approx((15 - 10) / 10)   # mean of 10,20


def test_frames_file_roundtrip(tmp_path, rng):
    from util import mask_lines, random_dense_frames
    frames = random_dense_frames(5, rng)
    frames[2].mask[:, ::3] = False
    fpath, mpath = tmp_path / "f.csv", tmp_path / "m.csv"
    write_frames(frames, fpath, mpath)
    back = read_frames(fpath)
    for orig, new in zip(frames, back):
        assert orig.patient_id == new.patient_id and orig.label == new.label
        assert (orig.dynamic == new.dynamic).all()
        assert new.mask.all()
        assert (orig.statics == new.statics).all()
    # the mask file is an output only: it holds the mask written, not the one read
    assert mpath.read_text().splitlines() == \
        mask_lines([f.patient_id for f in frames], [f.mask for f in frames])


def test_missing_mask_file_is_an_error(tmp_path, rng):
    from util import random_dense_frames
    fpath = tmp_path / "f.csv"
    write_frames(random_dense_frames(3, rng), fpath)
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]
    assert all(f.mask.all() for f in read_frames(fpath))
    with pytest.raises(FileNotFoundError):
        write_frames(random_dense_frames(3, rng), fpath, tmp_path / "no_such_dir" / "m.csv")


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


def _reference_impute_and_scale(frame, stats):
    """Oracle: one patient at a time, row-wise carry-forward on a 2-D grid."""
    n_rows, n_cols = frame.dynamic.shape
    idx = np.where(~np.isnan(frame.dynamic), np.arange(n_cols)[None, :], 0)
    np.maximum.accumulate(idx, axis=1, out=idx)
    filled = frame.dynamic[np.arange(n_rows)[:, None], idx]
    gaps = np.isnan(filled)
    if gaps.any():
        fallback = np.where(np.isnan(stats.dyn_bucket_mean),
                            stats.dyn_mean[:, None], stats.dyn_bucket_mean)
        fallback = np.where(np.isnan(fallback), 0.0, fallback)
        filled = np.where(gaps, fallback, filled)
    statics = np.where(np.isnan(frame.statics),
                       np.where(np.isnan(stats.static_mean), 0.0, stats.static_mean),
                       frame.statics)

    def scale(values, lo, hi, degenerate):
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
        return np.where(degenerate, 0.5, scaled)

    return (scale(filled, stats.dyn_min[:, None], stats.dyn_max[:, None],
                  stats.dyn_degenerate[:, None]),
            scale(statics, stats.static_min, stats.static_max, stats.static_degenerate))


ALL_NAN_VAR, CONSTANT_VAR, HIGH_VAR, LOW_VAR = 0, 1, 2, 3


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
        return FramedPatient(pid, dynamic, ~np.isnan(dynamic), statics, int(rng.random() < 0.5))

    train = [raw(f"a{i}", 1.0) for i in range(n_train)]
    # both extremes observed in training, so out-of-range test cells must clip
    train[0].dynamic[[HIGH_VAR, LOW_VAR], 0] = (-1.0, 1.0)
    train[1].dynamic[[HIGH_VAR, LOW_VAR], 0] = (1.0, -1.0)
    for f in train:
        f.mask = ~np.isnan(f.dynamic)
    test = [raw(f"b{i}", 5.0) for i in range(n_test)]
    test[0].dynamic[HIGH_VAR, 0] = 1e6
    test[0].dynamic[LOW_VAR, 0] = -1e6
    frames = train + test
    stats = fit_scaling(stack(train))

    scaled = scale_frames(stack(frames), stats)
    dynamic, statics = scaled.grid, scaled.statics
    for i, f in enumerate(frames):
        ref_dynamic, ref_statics = _reference_impute_and_scale(f, stats)
        single = impute_and_scale(f, stats)
        for got in (dynamic[i], scaled[i].dynamic, single.dynamic):
            assert got.tobytes() == ref_dynamic.tobytes()
        for got in (statics[i], scaled[i].statics, single.statics):
            assert got.tobytes() == ref_statics.tobytes()
        assert (scaled[i].mask == f.mask).all() and (single.mask == f.mask).all()
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
    frames = Frames([f"p{i}" for i in range(n)], np.zeros(n, dtype=int), grid, statics, mask)
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
        return Frames([f"p{i}" for i in range(n)], np.zeros(n, dtype=int), grid, statics)

    train, test = table(n_train, 1.0), table(n_test, 5.0)
    train.grid[:, ALL_NAN_VAR] = np.nan
    train.grid[:, CONSTANT_VAR] = 3.25
    train.grid[:, CONSTANT_VAR, 0] = np.where(np.arange(n_train) % 2, -0.0, 0.0)
    train.statics[:, 0], train.statics[:, 1] = np.nan, -1.5
    stats = fit_scaling(train)
    for side in (train, test):
        got = scale_frames(side, stats)
        want_grid, want_statics = reference_aggregation_scaling(train, side)
        assert got.mask is None and got.grid.shape == side.grid.shape
        assert got.grid.tobytes() == want_grid.tobytes()
        assert got.statics.tobytes() == want_statics.tobytes()
        assert (got.grid[:, [ALL_NAN_VAR, CONSTANT_VAR]] == 0.5).all()


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
    for frame, agg in zip(frames, aggs):
        dynamic, mask, statics, table = oracle[frame.patient_id]
        assert frame.label == agg.label == labels[frame.patient_id]
        assert bits(frame.dynamic) == bits(dynamic) and bits(frame.mask) == bits(mask)
        assert bits(frame.statics) == bits(statics) == bits(agg.statics)
        assert bits(agg.dynamic) == bits(table) and agg.mask is None

    # the framing invariants: scaling never touches the mask, dense output
    # lies in [0, 1], and carrying forward never overwrites an observed cell
    raw = np.stack([f.dynamic for f in frames])
    masks = np.stack([f.mask for f in frames])
    stats = fit_scaling(frames)
    dense = scale_frames(frames, stats)
    assert all(bits(d.mask) == bits(m) for d, m in zip(dense, masks))
    assert all(bits(impute_and_scale(f, stats).mask) == bits(f.mask) for f in frames)
    for d in dense:
        assert ((d.dynamic >= 0.0) & (d.dynamic <= 1.0)).all()
        assert ((d.statics >= 0.0) & (d.statics <= 1.0)).all()
    filled, _ = _impute_stack(raw, np.stack([f.statics for f in frames]), stats)
    assert bits(filled[masks]) == bits(raw[masks])
