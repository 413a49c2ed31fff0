import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import vocab, weights
from patsim.config import FEATURE_SETS
from patsim.errors import InputFault, PatsimError
from patsim.framing import stack
from patsim.knn import FeatureWeights, Model
from patsim.weights import (
    N_BINS,
    TrainConfig,
    Workspace,
    _SCORERS,
    _error_value,
    _filter_tables,
    feature_mask,
    filter_score,
    filter_weights,
    load_manual_weights,
    read_weights,
    save_weights,
    train_gd,
)
from util import (
    equal_frequency_bins,
    nearest_sets,
    quantized_frames,
    random_dense_frames,
    soft_score,
    table_filter_scores,
)

HR = vocab.DYNAMIC_INDEX["Heart rate"]


def two_tight_clusters(rng, n_per_class=8, gap=0.8):
    """Two well-separated clusters, one per label: LOO neighbors agree."""
    frames = random_dense_frames(2 * n_per_class, rng)
    for i, f in enumerate(frames):
        label = i % 2
        f.label = label
        f.dynamic = np.full((36, 24), 0.1 + gap * label) + 0.01 * rng.random((36, 24))
        f.statics = np.full(4, 0.1 + gap * label)
    return frames


class TestTrainingError:
    def test_pure_clusters_give_zero_error(self, rng):
        ws, w = Workspace(stack(two_tight_clusters(rng))), np.ones(vocab.N_VARIABLES)
        e, _ = ws.error_and_gradient(w, ws.neighbor_sets(w, 3))
        # scores are not exactly 0/1 (kernel in (0,1]) but must be tiny
        assert e < 1e-8

    def test_naive_loop_oracle(self, small_cohort, rng):
        w = FeatureWeights(rng.random(vocab.N_VARIABLES) + 0.1)
        k = 5
        ws = Workspace(small_cohort)
        fast, _ = ws.error_and_gradient(w.values, ws.neighbor_sets(w.values, k))
        model = Model(small_cohort, w, k=k)
        slow = 0.0
        for f, ns in zip(small_cohort, nearest_sets(small_cohort, model, leave_one_out=True)):
            yhat = soft_score(ns)
            slow += (f.label - yhat) ** 2 + ((1 - f.label) - (1 - yhat)) ** 2
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_half_score_identity(self, rng):
        # with every score at 0.5, both class terms contribute 0.25 apiece
        labels = (rng.random(16) < 0.4).astype(float)
        assert _error_value(np.full(16, 0.5), labels) == pytest.approx(0.5 * 16)

    def test_k_too_large(self, small_cohort):
        with pytest.raises(PatsimError, match="^k=30 but only 29 leave-one-out candidates$"):
            Workspace(small_cohort).neighbor_sets(np.ones(vocab.N_VARIABLES), 30)

    def test_single_class(self, rng):
        frames = random_dense_frames(10, rng)
        for f in frames:
            f.label = 1
        with pytest.raises(PatsimError, match="^training cohort contains a single class$"):
            Workspace(stack(frames)).neighbor_sets(np.ones(vocab.N_VARIABLES), 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=8), st.integers(0, 8))
def test_cohort_check_gives_np_uniques_messages(labels, k):
    """The two-class check avoids np.unique, whose first call imports numpy.ma, and
    faults exactly where and as a check by np.unique did."""
    labels = np.array(labels, dtype=int)
    expected = ("training cohort contains a single class" if len(np.unique(labels)) < 2
                else f"k={k} but only {len(labels) - 1} leave-one-out candidates"
                if k > len(labels) - 1 else None)
    try:
        weights._check_cohort(labels, k)
        got = None
    except PatsimError as exc:
        got = str(exc)
    assert got == expected


class TestGradient:
    def test_matches_finite_differences(self, small_cohort, rng):
        w0 = rng.random(vocab.N_VARIABLES) + 0.2
        k = 5
        ws = Workspace(small_cohort)
        sets = ws.neighbor_sets(w0, k)
        _, grad = ws.error_and_gradient(w0, sets)
        h = 1e-5
        for v in range(vocab.N_VARIABLES):
            wp, wm = w0.copy(), w0.copy()
            wp[v] += h
            wm[v] -= h
            ep, _ = ws.error_and_gradient(wp, sets)
            em, _ = ws.error_and_gradient(wm, sets)
            fd = (ep - em) / (2 * h)
            rel = abs(grad[v] - fd) / max(abs(grad[v]), abs(fd), 1e-8)
            assert rel < 1e-4

    def test_constant_variable_has_zero_component(self, rng):
        frames = random_dense_frames(12, rng)
        for f in frames:
            f.dynamic[HR] = 0.42
        ws, w = Workspace(stack(frames)), np.ones(vocab.N_VARIABLES)
        _, grad = ws.error_and_gradient(w, ws.neighbor_sets(w, 4))
        assert grad[HR] == 0.0

    def test_zero_at_zero_error(self, rng):
        ws, w = Workspace(stack(two_tight_clusters(rng))), np.ones(vocab.N_VARIABLES)
        _, grad = ws.error_and_gradient(w, ws.neighbor_sets(w, 3))
        assert np.abs(grad).max() < 1e-6


class TestTrainGd:
    def test_tiny_learning_rate_keeps_weights(self, small_cohort):
        cfg = TrainConfig(learning_rate=1e-30, max_epochs=10, k=5)
        learned, trace = train_gd(Workspace(small_cohort), cfg)
        assert (learned.values == 1.0).all()
        assert trace.stop_reason == "converged"

    def test_planted_variable_wins(self, rng):
        # one informative variable, 35 noise variables
        frames = random_dense_frames(80, rng, prevalence=0.4)
        for f in frames:
            f.dynamic[HR] = 0.25 + 0.5 * f.label + 0.05 * rng.random(24)
        cfg = TrainConfig(k=7, max_epochs=60)
        learned, _ = train_gd(Workspace(stack(frames)), cfg)
        noise = np.delete(learned.values[: vocab.N_DYNAMIC], HR)
        assert learned.values[HR] > noise.max()

    def test_best_so_far_non_increasing(self, small_cohort):
        _, trace = train_gd(Workspace(small_cohort), TrainConfig(k=5, max_epochs=25))
        best = np.minimum.accumulate(trace.errors)
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        assert trace.best_error == pytest.approx(min(trace.errors))
        assert trace.epochs_run <= 25

    def test_converged_stop_reason(self, rng):
        frames = two_tight_clusters(rng)
        _, trace = train_gd(Workspace(stack(frames)), TrainConfig(k=3, max_epochs=100))
        assert trace.stop_reason == "converged"
        assert trace.epochs_run < 100

    def test_single_class_rejected(self, rng):
        frames = random_dense_frames(12, rng)
        for f in frames:
            f.label = 0
        with pytest.raises(PatsimError, match="^training cohort contains a single class$"):
            train_gd(Workspace(stack(frames)), TrainConfig(k=3))

    def test_needs_k_plus_one(self, rng):
        frames = random_dense_frames(5, rng)
        with pytest.raises(PatsimError, match="^k=5 but only 4 leave-one-out candidates$"):
            train_gd(Workspace(stack(frames)), TrainConfig(k=5))

    def test_non_negative_weights(self, small_cohort):
        learned, _ = train_gd(Workspace(small_cohort), TrainConfig(k=5, learning_rate=2.0,
                                                                   max_epochs=15))
        assert learned.values.min() >= 0.0

    def test_active_mask_pins_inactive_to_zero(self, small_cohort):
        """Every variable outside the named feature set keeps weight 0."""
        cohort = Workspace(small_cohort)
        for features in FEATURE_SETS:
            learned, _ = train_gd(cohort, TrainConfig(k=5, max_epochs=5), features)
            inside = feature_mask(features)
            assert (learned.values[~inside] == 0.0).all()

    def test_bad_config(self):
        with pytest.raises(PatsimError, match="^learning_rate must be positive and finite$"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(PatsimError, match="^patience must be at least 1$"):
            TrainConfig(patience=0)


class TestFeatureSets:
    def test_each_name_masks_its_range_of_the_canonical_order(self):
        dynamic, static = [True] * vocab.N_DYNAMIC, [True] * vocab.N_STATIC
        assert feature_mask("all").tolist() == dynamic + static
        assert feature_mask("dynamic_only").tolist() == dynamic + [False] * vocab.N_STATIC
        assert feature_mask("static_only").tolist() == [False] * vocab.N_DYNAMIC + static

    def test_unknown_name_is_refused_by_check_choices(self, small_cohort):
        cohort = Workspace(small_cohort)
        refused = r"^features must be one of \('all', 'dynamic_only', 'static_only'\), " \
                  r"got 'vitals'$"
        for learn in (lambda: feature_mask("vitals"),
                      lambda: train_gd(cohort, TrainConfig(k=5), "vitals"),
                      lambda: filter_weights(cohort, "chi2", "vitals")):
            with pytest.raises(PatsimError, match=refused):
                learn()


def score_of(table, method) -> float:
    """A filter's score of one (bin, label) table, through the whole-array scorers."""
    return float(_SCORERS[method](np.array([table], dtype=float))[0])


class TestFilterScores:
    # an empty bin between two pure ones, which every scorer skips
    PURE_BALANCED = [[10.0, 0.0], [0.0, 0.0], [0.0, 10.0]]

    def test_chi_square_hand_table(self):
        assert score_of(self.PURE_BALANCED, "chi2") == pytest.approx(20.0)

    def test_information_gain_pure_balanced(self):
        assert score_of(self.PURE_BALANCED, "infogain") == pytest.approx(1.0)

    def test_gini_pure_balanced(self):
        assert score_of(self.PURE_BALANCED, "gini") == pytest.approx(0.5)

    def test_pure_split_from_data(self, rng):
        frames = random_dense_frames(40, rng)
        for i, f in enumerate(frames):
            f.label = i % 2
            f.dynamic[HR] = f.label + 0.01 * rng.random(24)
        scores = filter_score(Workspace(stack(frames)), "infogain")
        assert scores[HR] == pytest.approx(1.0, abs=1e-6)

    def test_independent_variable_scores_zero(self, rng):
        # identical bin distribution per class by construction
        frames = random_dense_frames(40, rng)
        values = np.tile(np.arange(20) / 19.0, 2)
        for i, f in enumerate(frames):
            f.label = i % 2
            f.dynamic[HR] = values[i // 2 if i % 2 == 0 else 20 + i // 2 - 10]
        # simpler: equal class counts inside every bin
        for b in range(20):
            frames[2 * b].dynamic[HR] = b / 19.0
            frames[2 * b].label = 0
            frames[2 * b + 1].dynamic[HR] = b / 19.0
            frames[2 * b + 1].label = 1
        chi = filter_score(Workspace(stack(frames)), "chi2")
        gin = filter_score(Workspace(stack(frames)), "gini")
        assert chi[HR] == pytest.approx(0.0, abs=1e-9)
        assert gin[HR] == pytest.approx(0.0, abs=1e-9)

    def test_planted_ranks_first_all_filters(self, rng):
        frames = random_dense_frames(60, rng)
        for f in frames:
            f.dynamic[HR] = 0.3 + 0.4 * f.label + 0.05 * rng.random(24)
        for method in ("chi2", "infogain", "gini"):
            scores = filter_score(Workspace(stack(frames)), method)
            assert int(np.argmax(scores)) == HR

    def test_normalization_sums_to_variable_count(self, small_cohort):
        for method in ("chi2", "infogain", "gini"):
            fw = filter_weights(Workspace(small_cohort), method)
            assert fw.values.sum() == pytest.approx(vocab.N_VARIABLES)
            assert fw.values.min() >= 0.0

    def test_single_class_rejected(self, rng):
        frames = random_dense_frames(10, rng)
        for f in frames:
            f.label = 0
        with pytest.raises(PatsimError, match="^training cohort contains a single class$"):
            filter_weights(Workspace(stack(frames)), "chi2")

    @pytest.mark.parametrize("method", ["chi2", "infogain", "gini"])
    def test_no_positive_score_falls_back_to_the_active_variables(self, rng, method):
        """Identical patients score 0 everywhere: each active variable then weighs 1."""
        frames = random_dense_frames(12, rng)
        for i, f in enumerate(frames):
            f.label = i % 2
            f.dynamic, f.statics = frames[0].dynamic.copy(), frames[0].statics.copy()
        cohort = Workspace(stack(frames))
        assert (filter_score(cohort, method) <= 0).all()
        assert filter_weights(cohort, method).values.tolist() == [1.0] * vocab.N_VARIABLES
        for features in FEATURE_SETS:
            assert filter_weights(cohort, method, features).values.tolist() == \
                feature_mask(features).astype(float).tolist()

    def test_unknown_method(self, small_cohort):
        with pytest.raises(PatsimError, match="^unknown filter method 'relief'$"):
            filter_score(Workspace(small_cohort), "relief")

    def test_contingency_matches_counting_loop(self, rng):
        for n, spread in ((7, 1.0), (40, 1.0), (40, 0.0), (300, 3.0)):
            # one grid cell per dynamic variable, so each summary is that cell
            x = np.round(rng.normal(0.0, 1.0, (n, vocab.N_VARIABLES)) * spread, 1)
            labels = (rng.random(n) < 0.3).astype(int)
            cohort = SimpleNamespace(grid=x[:, :vocab.N_DYNAMIC, None],
                                     statics=x[:, vocab.N_DYNAMIC:], labels=labels)
            tables = _filter_tables(cohort)
            assert tables.dtype == np.float64
            for v in range(vocab.N_VARIABLES):
                loop = np.zeros((N_BINS, 2))
                for b, y in zip(equal_frequency_bins(x[:, v]), labels):
                    loop[b, y] += 1
                assert tables[v].tobytes() == loop.tobytes()

    def test_shared_tables_equal_per_filter_rebinning(self, rng, monkeypatch):
        frames = random_dense_frames(57, rng)
        for f in frames[::3]:
            f.dynamic = np.round(f.dynamic, 1)      # ties at bin edges
        calls = []
        build = weights._filter_tables
        monkeypatch.setattr(weights, "_filter_tables", lambda train: calls.append(1) or build(train))
        cohort = stack(frames)
        shared = Workspace(cohort)
        for method in ("chi2", "infogain", "gini"):
            # the reference bins, tabulates and scores every variable on its own
            expected = table_filter_scores(cohort, method)
            assert filter_score(shared, method).tobytes() == expected.tobytes()
            assert filter_score(Workspace(cohort), method).tobytes() == expected.tobytes()
            assert filter_weights(shared, method, "dynamic_only").values.tobytes() == \
                filter_weights(Workspace(cohort), method, "dynamic_only").values.tobytes()
        # one table build for the shared workspace, one more for each fresh workspace
        assert len(calls) == 1 + 2 * 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 90), st.sampled_from([1, 2, 6]),
           st.sampled_from(["random", "quantized", "rounded"]))
    def test_scores_equal_the_per_table_reference(self, seed, n, n_buckets, kind):
        """Bit for bit, including the sign of zero, on cohorts with empty bins, pure
        bins, constant variables and ties at bin edges."""
        rng = np.random.default_rng(seed)
        if kind == "quantized":
            frames = quantized_frames(n, rng, levels=int(rng.integers(2, 5)),
                                      n_buckets=n_buckets, duplicates=n // 3)
        else:
            frames = random_dense_frames(n, rng, n_buckets=n_buckets)
            if kind == "rounded":
                for f in frames:
                    f.dynamic, f.statics = np.round(f.dynamic, 1), np.round(f.statics, 1)
        cohort = Workspace(stack(frames))
        for method in ("chi2", "infogain", "gini"):
            assert filter_score(cohort, method).tobytes() == \
                table_filter_scores(cohort.train, method).tobytes()


class TestManualWeights:
    def write(self, tmp_path, text):
        path = tmp_path / "manual.csv"
        path.write_text(text)
        return path

    def test_full_file(self, tmp_path):
        text = "variable,weight\n" + "".join(f"{n},1.0\n" for n in vocab.ALL_VARIABLES)
        fw = load_manual_weights(self.write(tmp_path, text))
        assert (fw.values == 1.0).all()

    def test_partial_file_defaults_zero(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            fw = load_manual_weights(self.write(tmp_path, "Heart rate,2.0\n"))
        assert fw.values[HR] == 2.0
        assert fw.values.sum() == 2.0
        assert "39 variables" in caplog.text

    def test_negative_weight(self, tmp_path):
        path = self.write(tmp_path, "Heart rate,-1\n")
        with pytest.raises(InputFault, match="^" + re.escape(f"{path} ") +
                           "line 1: weight for 'Heart rate' must be "
                           r"non-negative, got -1\.0$"):
            load_manual_weights(path)

    def test_unknown_variable(self, tmp_path):
        path = self.write(tmp_path, "Pulse,1.0\n")
        with pytest.raises(InputFault, match="^" + re.escape(f"{path} ") +
                           "line 1: unknown variable name: 'Pulse'$"):
            load_manual_weights(path)

    def test_malformed(self, tmp_path):
        path = self.write(tmp_path, "Heart rate,abc\n")
        with pytest.raises(InputFault, match="^" + re.escape(f"{path} ") +
                           "line 1: non-numeric weight 'abc'$"):
            load_manual_weights(path)

    def test_non_finite_weight(self, tmp_path):
        with pytest.raises(InputFault, match="line 2: non-finite weight 'inf'"):
            load_manual_weights(self.write(tmp_path, "variable,weight\nHeart rate,inf\n"))

    def test_save_load_roundtrip(self, tmp_path, rng):
        fw = FeatureWeights(rng.random(vocab.N_VARIABLES))
        path = tmp_path / "w.csv"
        save_weights(fw, path)
        back = load_manual_weights(path)
        np.testing.assert_array_equal(back.values, fw.values)
        lines = path.read_text().splitlines()
        assert lines[0] == "variable,weight"
        assert [l.rpartition(",")[0] for l in lines[1:]] == list(vocab.ALL_VARIABLES)


class TestLearnedWeightsFile:
    """read_weights accepts exactly what save_weights writes."""

    def write(self, tmp_path, rows, header="variable,weight"):
        path = tmp_path / "learned.csv"
        path.write_text("".join(line + "\n" for line in [header] + rows))
        return path

    def full_rows(self):
        return [f"{name},{0.5 * i!r}" for i, name in enumerate(vocab.ALL_VARIABLES)]

    def test_roundtrip_bit_for_bit(self, tmp_path, rng):
        fw = FeatureWeights(rng.random(vocab.N_VARIABLES))
        path = tmp_path / "w.csv"
        save_weights(fw, path)
        assert read_weights(path).values.tobytes() == fw.values.tobytes()
        rows = self.full_rows()[::-1]
        assert read_weights(self.write(tmp_path, rows)).values.tolist() == \
            [0.5 * i for i in range(vocab.N_VARIABLES)]

    @pytest.mark.parametrize("edit, where, message", [
        (lambda rows: rows[:1], ":",
         f"39 of 40 variables missing, first {vocab.ALL_VARIABLES[1]!r}"),
        (lambda rows: rows + rows[3:4], " line 42:",
         f"variable {vocab.ALL_VARIABLES[3]!r} listed twice"),
        (lambda rows: rows[:5] + ["Pulse,1.0"] + rows[5:], " line 7:",
         "unknown variable name: 'Pulse'"),
        (lambda rows: rows[:2] + ["Heart rate 2.0"] + rows[2:], " line 4:",
         "expected 2 cells, got 1"),
        (lambda rows: rows[:-1] + [rows[-1].replace(",19.5", ",abc")],
         " line 41:", "non-numeric weight 'abc'"),
        (lambda rows: [rows[0].replace(",0.0", ",-1.0")] + rows[1:],
         " line 2:", f"weight for {vocab.ALL_VARIABLES[0]!r} must be non-negative, got -1.0"),
        (lambda rows: [rows[0].replace(",0.0", ",nan")] + rows[1:],
         " line 2:", "non-finite weight 'nan'"),
    ])
    def test_faults_name_file_and_line(self, tmp_path, edit, where, message):
        path = self.write(tmp_path, edit(self.full_rows()))
        with pytest.raises(InputFault, match=f"{where} {re.escape(message)}$") as exc:
            read_weights(path)
        assert str(exc.value) == f"{path}{where} {message}"
        assert exc.value.path == path

    @pytest.mark.parametrize("header", ["", "name,value", "Heart rate,1.0"])
    def test_header_required(self, tmp_path, header):
        path = self.write(tmp_path, self.full_rows(), header=header)
        with pytest.raises(InputFault, match=r"line 1: expected header"):
            read_weights(path)
