import itertools
import json
import math
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from patsim import evaluation, experiments, framing, knn, synth, tails, vocab, weights
from patsim.config import RunConfig
from patsim.errors import PatsimError
from patsim.evaluation import (
    MethodSpec,
    _average_ranks,
    _learn_weights,
    _predict_fold_methods,
    _scale_split,
    compare,
    cross_validate,
    fold_metrics,
    friedman,
    kfold,
    load_fold_metrics,
    prf,
    save_fold_metrics,
    split_dev_validation,
    wilcoxon_signed_rank,
)
from patsim.knn import FeatureWeights
from util import random_dense_frames

HR = vocab.DYNAMIC_INDEX["Heart rate"]


class TestSplit:
    def ids_labels(self, n=100, positives=18):
        ids = [f"p{i:03d}" for i in range(n)]
        labels = [1 if i < positives else 0 for i in range(n)]
        return ids, labels

    def test_stratified_halving(self):
        ids, labels = self.ids_labels()
        dev, val = split_dev_validation(ids, labels, seed=1)
        assert len(dev) == 50 and len(val) == 50
        lab = dict(zip(ids, labels))
        assert sum(lab[p] for p in dev) == 9
        assert sum(lab[p] for p in val) == 9
        assert set(dev) | set(val) == set(ids)
        assert not set(dev) & set(val)

    def test_same_seed_reproduces(self):
        ids, labels = self.ids_labels()
        assert split_dev_validation(ids, labels, 5) == split_dev_validation(ids, labels, 5)

    def test_different_seeds_differ(self):
        ids, labels = self.ids_labels()
        splits = {tuple(split_dev_validation(ids, labels, s)[0]) for s in range(10)}
        assert len(splits) > 1

    def test_single_class(self):
        with pytest.raises(PatsimError, match="both classes are required for a stratified split"):
            split_dev_validation(["a", "b"], [1, 1], 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 30), st.integers(0, 30), st.integers(0, 2 ** 31),
       st.randoms(use_true_random=False))
def test_kfold_and_split_are_stratified_partitions(k, extra0, extra1, seed, shuffle):
    sizes = (k + extra0, k + extra1)
    ids = [f"p{i:03d}" for i in range(sum(sizes))]
    shuffle.shuffle(ids)
    labels = [0] * sizes[0] + [1] * sizes[1]
    label = dict(zip(ids, labels))

    folds = kfold(ids, labels, k=k, seed=seed)
    assert len(folds) == k
    members = list(itertools.chain.from_iterable(folds))
    assert sorted(members) == sorted(ids)                  # disjoint and covering
    totals = [len(f) for f in folds]
    assert max(totals) - min(totals) <= 1
    for cls in (0, 1):
        per_class = [sum(label[p] == cls for p in f) for f in folds]
        assert max(per_class) - min(per_class) <= 1

    dev, validation = split_dev_validation(ids, labels, seed)
    assert sorted(dev + validation) == sorted(ids) and not set(dev) & set(validation)
    for cls, size in enumerate(sizes):
        assert abs(2 * sum(label[p] == cls for p in dev) - size) <= 1


class TestKfold:
    def test_sizes_and_stratification(self):
        ids = [f"p{i:03d}" for i in range(200)]
        labels = [1 if i < 40 else 0 for i in range(200)]
        folds = kfold(ids, labels, k=20, seed=0)
        assert len(folds) == 20
        assert all(len(f) == 10 for f in folds)
        lab = dict(zip(ids, labels))
        assert all(sum(lab[p] for p in f) == 2 for f in folds)

    def test_partition(self):
        ids = [f"p{i:03d}" for i in range(103)]
        labels = [i % 3 == 0 for i in range(103)]
        folds = kfold(ids, [int(x) for x in labels], k=5, seed=3)
        sizes = sorted(len(f) for f in folds)
        assert max(sizes) - min(sizes) <= 1
        everything = list(itertools.chain.from_iterable(folds))
        assert sorted(everything) == sorted(ids)

    def test_too_few_per_class(self):
        ids = [f"p{i}" for i in range(30)]
        labels = [1] * 5 + [0] * 25
        with pytest.raises(PatsimError, match="^class 1 has fewer than 10 members$"):
            kfold(ids, labels, k=10, seed=0)

    def test_deterministic(self):
        ids = [f"p{i:03d}" for i in range(80)]
        labels = [i % 4 == 0 for i in range(80)]
        labels = [int(x) for x in labels]
        assert kfold(ids, labels, 10, 9) == kfold(ids, labels, 10, 9)


class TestPrf:
    def test_perfect(self):
        assert prf(2, 0, 0) == (1.0, 1.0, 1.0)

    def test_half(self):
        assert prf(1, 1, 1) == (0.5, 0.5, 0.5)

    def test_degenerate_zero_convention(self):
        assert prf(0, 0, 5) == (0.0, 0.0, 0.0)
        assert prf(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_counts_conserved_and_recomputable(self, rng):
        y_true = (rng.random(40) < 0.3).astype(int)
        y_pred = (rng.random(40) < 0.5).astype(int)
        m = fold_metrics(0, y_true, y_pred)
        assert m.tp + m.fp + m.fn + m.tn == 40
        p, r, f = prf(m.tp, m.fp, m.fn)
        assert (m.precision, m.recall, m.f_measure) == (p, r, f)


def separable_frames(rng, n=80):
    frames = random_dense_frames(n, rng, prevalence=0.3)
    for f in frames:
        f.dynamic[HR] = 0.1 + 0.8 * f.label + 0.02 * rng.random(24)
    return framing.stack(frames)


@pytest.fixture(scope="module")
def raw_frames():
    """Unscaled frames with gaps, as experiments hand them to cross-validation."""
    cohort = synth.generate(synth.SynthSpec(n_patients=60, seed=5)).cohort()
    return framing.frame_cohort(cohort)


def per_patient_cv(frames, method, k_folds, seed):
    """Oracle: fit scaling per fold and scale each patient on its own."""
    folds = kfold(frames.ids, frames.labels, k=k_folds, seed=seed)
    out = []
    for i, fold in enumerate(folds):
        train = [f for f in frames if f.patient_id not in fold]
        test = [f for f in frames if f.patient_id in fold]
        stats = framing.fit_scaling(framing.stack(train))
        y_pred = _predict_fold_methods(
            framing.stack([framing.impute_and_scale(f, stats) for f in train]),
            framing.stack([framing.impute_and_scale(f, stats) for f in test]), [method])[0]
        out.append(fold_metrics(i, [f.label for f in test], y_pred))
    return out


class TestCrossValidate:
    def test_separable_cohort_perfect_folds(self, rng):
        frames = separable_frames(rng)
        method = MethodSpec(name="m", weighting="none", k=5)
        metrics = cross_validate(frames, [method], k_folds=4, seed=0)["m"]
        assert len(metrics) == 4
        assert all(m.f_measure == 1.0 for m in metrics)

    def test_fold_sizes_and_conservation(self, rng):
        frames = separable_frames(rng, n=83)
        method = MethodSpec(name="m", weighting="none", k=5)
        metrics = cross_validate(frames, [method], k_folds=4, seed=0)["m"]
        sizes = [m.tp + m.fp + m.fn + m.tn for m in metrics]
        assert sum(sizes) == 83
        assert max(sizes) - min(sizes) <= 1

    def test_majority_baseline_recall_zero(self, rng):
        frames = framing.stack(random_dense_frames(60, rng, prevalence=0.25))
        method = MethodSpec(name="maj", kind="majority")
        metrics = cross_validate(frames, [method], k_folds=4, seed=0)["maj"]
        assert all(m.recall == 0.0 for m in metrics)

    def test_workers_do_not_change_results(self, rng):
        frames = separable_frames(rng, n=60)
        method = MethodSpec(name="m", weighting="chi2", k=5)
        seq = cross_validate(frames, [method], k_folds=4, seed=1, workers=1)
        par = cross_validate(frames, [method], k_folds=4, seed=1, workers=4)
        assert seq == par

    @pytest.mark.parametrize("workers, processes", [(1000, 4), (3, 3), (1, None), (0, None)])
    def test_pool_size_is_workers_capped_at_folds(self, rng, monkeypatch, workers, processes):
        """No more fold processes than folds; one worker runs no pool at all."""
        started = []

        class InProcessPool:
            def __init__(self, n):
                started.append(n)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(evaluation, "_fold_pool", InProcessPool)
        frames = separable_frames(rng, n=60)
        method = MethodSpec(name="m", weighting="chi2", k=5)
        got = cross_validate(frames, [method], k_folds=4, seed=1, workers=workers)
        assert got == cross_validate(frames, [method], k_folds=4, seed=1, workers=1)
        assert started == ([] if processes is None else [processes])
        assert evaluation._JOB is None

    def test_folds_outer_matches_per_method_and_per_patient_scaling(self, raw_frames):
        methods = [
            MethodSpec(name="gd", weighting="gd", k=5, max_epochs=3),
            MethodSpec(name="chi2", weighting="chi2", k=5),
            MethodSpec(name="none", weighting="none", k=5),
            MethodSpec(name="maj", kind="majority"),
            MethodSpec(name="lin", kind="linear"),
        ]
        expected = {m.name: per_patient_cv(raw_frames, m, k_folds=4, seed=3) for m in methods}
        for workers in (1, 2):
            shared = cross_validate(raw_frames, methods, k_folds=4, seed=3, workers=workers)
            assert list(shared) == [m.name for m in methods]
            assert shared == expected
            for m in methods:
                assert cross_validate(raw_frames, [m], k_folds=4, seed=3,
                                      workers=workers) == {m.name: expected[m.name]}

    def test_fold_shared_predictions_equal_per_method_models(self, raw_frames):
        """Every weighting on the fold workspace predicts as its own Model scan would."""
        manual = FeatureWeights(np.random.default_rng(4).random(vocab.N_VARIABLES))
        methods = [
            MethodSpec(name="gd", weighting="gd", k=5, max_epochs=3),
            MethodSpec(name="gd_dyn", weighting="gd", k=4, max_epochs=2, mode="weighted",
                       features="dynamic_only"),
            MethodSpec(name="chi2", weighting="chi2", k=5),
            MethodSpec(name="infogain", weighting="infogain", k=5, mode="weighted"),
            MethodSpec(name="maj", kind="majority"),
            MethodSpec(name="gini", weighting="gini", k=3, features="static_only"),
            MethodSpec(name="none", weighting="none", k=5, mode="weighted", threshold=0.3),
            MethodSpec(name="manual", weighting="manual", k=5, manual_weights=manual),
        ]
        folds = kfold(raw_frames.ids, raw_frames.labels, k=4, seed=3)
        expected = {m.name: [] for m in methods}
        for i, fold in enumerate(folds):
            in_fold = np.isin(raw_frames.ids, fold)
            train, test = _scale_split(raw_frames.take(np.flatnonzero(~in_fold)),
                                       raw_frames.take(np.flatnonzero(in_fold)))
            shared = _predict_fold_methods(train, test, methods)
            for method, got in zip(methods, shared):
                if method.kind == "knn":
                    learned = _learn_weights(weights.Workspace(train), method)
                    model = knn.Model(train, learned, k=method.k,
                                      mode=method.mode, threshold=method.threshold)
                    own = knn.classify_batch(test, model)[0]
                else:
                    own = _predict_fold_methods(train, test, [method])[0]
                assert got.tobytes() == own.tobytes(), (i, method.name)
                expected[method.name].append(fold_metrics(i, test.labels, own))
        for workers in (1, 2):
            assert cross_validate(raw_frames, methods, k_folds=4, seed=3,
                                  workers=workers) == expected

    def test_manual_requires_weights(self):
        with pytest.raises(PatsimError, match="manual weighting requires a loaded weights file"):
            MethodSpec(name="m", weighting="manual")

    def test_weights_file_is_for_manual_weighting_alone(self, tmp_path):
        manual = FeatureWeights(np.ones(vocab.N_VARIABLES))
        with pytest.raises(PatsimError, match="^a weights file is for manual weighting, not chi2$"):
            MethodSpec(name="m", weighting="chi2", manual_weights=manual)
        methods = experiments.preset_methods("exp3", RunConfig(), manual_weights=manual)
        assert [m.name for m in methods if m.manual_weights is not None] == ["manual"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])
                | st.floats(-1e3, 1e3, allow_nan=False), max_size=40))
def test_average_ranks_match_scipy_rankdata(values):
    """Tie-heavy vectors, -0.0 against 0.0 included: equal to rankdata's average method."""
    expected = scipy_stats.rankdata(values, method="average") if values else np.empty(0)
    assert _average_ranks(values).tolist() == expected.tolist()


class TestFriedman:
    def test_identical_methods(self):
        matrix = np.tile([[0.5], [0.6], [0.7]], (1, 4))
        stat, p = friedman(matrix)
        assert stat == 0.0 and p == 1.0

    def test_column_permutation_invariance(self, rng):
        matrix = rng.random((12, 5))
        stat, p = friedman(matrix)
        perm = rng.permutation(5)
        stat2, p2 = friedman(matrix[:, perm])
        assert stat == pytest.approx(stat2) and p == pytest.approx(p2)

    def test_matches_scipy_on_random_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(6, 30))
            m = int(rng.integers(3, 7))
            matrix = rng.random((n, m))
            stat, p = friedman(matrix)
            ref = scipy_stats.friedmanchisquare(*[matrix[:, j] for j in range(m)])
            assert abs(stat - ref.statistic) < 1e-9
            assert abs(p - ref.pvalue) < 1e-9

    def test_dominant_method_hits_maximum(self):
        # fully consistent rankings reach the chi-square maximum N*(M-1)
        n, m = 10, 3
        matrix = np.column_stack([np.full(n, 0.9), np.full(n, 0.5), np.full(n, 0.1)])
        matrix += np.arange(n)[:, None] * 1e-6   # distinct rows, same ranking
        stat, p = friedman(matrix)
        assert stat == pytest.approx(n * (m - 1))
        ref = scipy_stats.friedmanchisquare(*[matrix[:, j] for j in range(m)])
        assert stat == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue)

    def test_degenerate(self):
        with pytest.raises(PatsimError, match="^need at least 2 folds and 2 methods$"):
            friedman(np.ones((1, 3)))
        with pytest.raises(PatsimError, match="^need at least 2 folds and 2 methods$"):
            friedman(np.ones((5, 1)))


class TestWilcoxon:
    def test_equal_samples_rejected(self):
        a = np.arange(10.0)
        assert wilcoxon_signed_rank(a, a) == (0.0, 1.0)

    def test_all_positive_n5_exact(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a - np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        stat, p = wilcoxon_signed_rank(a, b)
        assert stat == 0.0
        assert p == pytest.approx(2 / 32)

    def test_enumeration_oracle_small_n(self, rng):
        # literal 2^n enumeration of sign assignments
        for _ in range(20):
            n = int(rng.integers(5, 10))
            d = rng.standard_normal(n)
            d[d == 0] = 0.5
            a = np.zeros(n)
            stat, p = wilcoxon_signed_rank(d, a)
            ranks = scipy_stats.rankdata(np.abs(d))
            observed = min(ranks[d > 0].sum(), ranks[d < 0].sum())
            count = 0
            for signs in itertools.product([1, -1], repeat=n):
                w_plus = sum(r for r, s in zip(ranks, signs) if s > 0)
                w_minus = ranks.sum() - w_plus
                if min(w_plus, w_minus) <= observed:
                    count += 1
            assert p == pytest.approx(count / 2 ** n)

    def test_swap_symmetry(self, rng):
        a, b = rng.random(12), rng.random(12)
        assert wilcoxon_signed_rank(a, b)[1] == pytest.approx(
            wilcoxon_signed_rank(b, a)[1])

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(6, 26))
            a, b = rng.random(n), rng.random(n)
            stat, p = wilcoxon_signed_rank(a, b)
            ref = scipy_stats.wilcoxon(a, b, alternative="two-sided", method="exact")
            assert abs(stat - ref.statistic) < 1e-9
            assert abs(p - ref.pvalue) < 1e-9

    def test_matches_scipy_approx(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            a, b = rng.random(40), rng.random(40)
            stat, p = wilcoxon_signed_rank(a, b)
            ref = scipy_stats.wilcoxon(a, b, alternative="two-sided",
                                       method="approx", correction=True)
            assert abs(stat - ref.statistic) < 1e-9
            assert abs(p - ref.pvalue) < 1e-9

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2, 3, 4, 5, 6, 7])
        b = a.copy()
        b[:5] += np.array([0.5, -0.25, 0.75, 1.0, 0.3])
        stat, p = wilcoxon_signed_rank(a, b)
        ref = scipy_stats.wilcoxon(a, b, alternative="two-sided",
                                   method="exact", zero_method="wilcox")
        assert stat == ref.statistic
        assert p == pytest.approx(ref.pvalue)



class TestTailProbabilities:
    """Friedman p-values come from patsim.tails, which ports only chdtrc for
    0 < a = df/2 < 13 (up to 26 methods), bit-identical to scipy.special and so
    to the scipy.stats calls; other inputs take scipy's own chdtrc. The Wilcoxon
    normal tail for n > 25 imports scipy.special.ndtr; no preset at the default
    20 folds reaches it."""

    def test_chdtrc_equals_scipy_on_every_branch(self):
        # the port covers a = df/2 < 13: df 1-25 reach the continued fraction, the
        # series, Lanczos and lgam in igam_fac, and the deferred igamc_series (df <= 2);
        # df 26-60, 300 and 600 and the non-finite edges are scipy's, outside the range
        from scipy.special import chdtrc
        edges = [0.0, 5e-324, 1e-300, 1e-10, 1e300, math.inf]
        grid = np.concatenate([np.linspace(0, 3, 601), np.linspace(3, 150, 1471),
                               np.geomspace(150, 4000, 61), edges])
        for df in [*range(1, 61), 300, 600]:
            xs = np.concatenate([grid, df * np.linspace(0.5, 1.5, 201)])
            got = np.array([tails.chdtrc(df, x) for x in xs.tolist()])
            assert got.tobytes() == chdtrc(float(df), xs).tobytes(), df
        for a, x, branch in [(0.5, 0.5, "igamc_series"), (25.0, 25.0, "outside 0 < a < 13"),
                             (300.0, 400.0, "outside 0 < a < 13")]:
            with pytest.raises(tails.NotPorted, match=branch):
                tails._igamc(a, x)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60),
           st.floats(0, 4000) | st.sampled_from([5e-324, 1e300, math.inf]))
    def test_tails_equal_scipy_on_random_draws(self, df, x):
        from scipy.special import chdtrc
        assert struct.pack("d", tails.chdtrc(df, x)) == struct.pack("d", chdtrc(df, x))

    def test_special_functions_equal_stats_calls(self):
        from scipy.special import chdtrc, ndtr
        rng = np.random.default_rng(31)
        for _ in range(1000):
            df = int(rng.integers(1, 10))
            x = float(rng.exponential(5.0)) * float(rng.integers(0, 2))
            z = float(rng.normal(0.0, 3.0))
            assert chdtrc(df, x) == scipy_stats.chi2.sf(x, df)
            assert ndtr(-abs(z)) == scipy_stats.norm.sf(abs(z))

    def test_friedman_p_equals_chi2_sf(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n, m = int(rng.integers(2, 25)), int(rng.integers(2, 31))
            matrix = np.round(rng.random((n, m)), int(rng.integers(1, 3)))
            stat, p = friedman(matrix)
            assert p == float(scipy_stats.chi2.sf(stat, m - 1))

    def test_wilcoxon_normal_p_equals_norm_sf(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(26, 60))
            a, b = np.round(rng.random(n), 2), np.round(rng.random(n), 2)
            _, p = wilcoxon_signed_rank(a, b)
            d = (a - b)[a != b]
            ranks = scipy_stats.rankdata(np.abs(d))
            w_plus = float(ranks[d > 0].sum())
            k = len(d)
            mean = k * (k + 1) / 4.0
            _, counts = np.unique(ranks, return_counts=True)
            var = k * (k + 1) * (2 * k + 1) / 24.0 - float((counts ** 3 - counts).sum()) / 48.0
            z = (w_plus - mean - 0.5 * np.sign(w_plus - mean)) / np.sqrt(var)
            assert p == float(min(1.0, 2.0 * scipy_stats.norm.sf(abs(z))))

    def test_cli_import_leaves_scipy_stats_out(self):
        code = "import sys, patsim.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_out(self):
        """scipy loads only when a p-value reaches an input or a cephes branch
        patsim.tails does not port (test_experiment_exp3_leaves_scipy_out,
        test_compare_in_a_deferred_branch_prints_scipys_bits,
        test_friedman_loads_scipy_only_past_26_methods)."""
        code = "import sys, patsim.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_numpy_random_out(self):
        """numpy.random loads only when a command draws random numbers (synth, splits,
        folds), not on `import patsim.cli`, so train and predict never pay for it."""
        code = ("import sys, patsim.cli; "
                "print(sorted({m.split('.')[0] for m in sys.modules if m == 'scipy' "
                "or m.startswith(('scipy.', 'numpy.random'))}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"

    def test_train_leaves_numpy_ma_out(self, tmp_path):
        """np.unique's first call imports numpy.ma (11-13 ms); train's class and copy
        checks do without it."""
        frames = framing.stack(random_dense_frames(12, np.random.default_rng(35)))
        framing.write_frames(frames, tmp_path / "f.csv")
        argv = ["train", "--frames", str(tmp_path / "f.csv"), "--k", "3", "--max-epochs", "2",
                "--weights-out", str(tmp_path / "w.csv")]
        code = ("import sys; from patsim.cli import main; "
                f"assert main({argv!r}) == 0; print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1] == "False"

    def test_cli_import_leaves_scipy_and_the_pool_modules_out(self):
        """patsim.tails (and through it scipy.special) loads only inside friedman and
        wilcoxon_signed_rank, and
        multiprocessing and concurrent.futures only when folds run in processes, so a
        stray top-level import cannot slow every train and predict unnoticed."""
        code = ("import sys, patsim.cli; print(sorted({m.split('.')[0] for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"

    def test_experiment_exp3_leaves_scipy_out(self, tmp_path):
        """exp3's Friedman tests have 3 to 5 degrees of freedom, which no deferred
        cephes branch reaches, so a whole exp3 run never imports scipy."""
        (tmp_path / "run.cfg").write_text("max_epochs = 3\n")
        argv = ["experiment", "exp3", "--n-patients", "100", "--seed", "5", "--folds", "3",
                "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "out")]
        code = ("import sys; from patsim.cli import main; "
                f"assert main({argv!r}) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "exp3_report.json").exists()

    def test_compare_in_a_deferred_branch_prints_scipys_bits(self, tmp_path):
        """Three methods whose rank sums over 4 folds are 6, 8 and 10 give a Friedman
        statistic of exactly 2 on 2 degrees of freedom, in cephes's igamc_series
        branch. scipy's p there is 0.36787944117144245, not exp(-1); compare must
        load scipy and report its bits."""
        from scipy.special import chdtrc
        # true positives per fold, with one false positive and one false negative
        # each, so F = tp / (tp + 1)
        tps = {"a": [3, 3, 2, 2], "b": [2, 2, 3, 1], "c": [1, 1, 1, 3]}
        reports = []
        for name, fold_tps in tps.items():
            save_fold_metrics([fold_metrics(i, [1] * tp + [0, 1], [1] * tp + [1, 0])
                               for i, tp in enumerate(fold_tps)], tmp_path / f"{name}.csv")
            reports.append(f"{name}={tmp_path / name}.csv")
        out_json = tmp_path / "cmp.json"
        code = ("import sys; from patsim.cli import main; "
                f"assert main(['compare', *{reports!r}, '--out-json', {str(out_json)!r}]) == 0; "
                "print('scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1] == "True"
        friedman_record = json.loads(out_json.read_text())["friedman"]
        assert friedman_record["statistic"] == 2.0
        assert friedman_record["p_value"] == float(chdtrc(2, 2.0)) != math.exp(-1.0)

    @pytest.mark.parametrize("m, loads_scipy", [(26, False), (27, True)])
    def test_friedman_loads_scipy_only_past_26_methods(self, m, loads_scipy):
        """m methods give a = (m - 1)/2, and patsim.tails ports a < 13: 26 methods
        leave scipy out, 27 load it, and both report scipy's bits."""
        from scipy.special import chdtrc
        matrix = np.random.default_rng(34).random((8, m)).tolist()
        code = ("import sys; from patsim.evaluation import friedman; "
                f"print(*friedman({matrix!r})); print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        result, loaded = out.stdout.splitlines()
        stat, p = map(float, result.split())
        assert loaded == str(loads_scipy)
        assert struct.pack("d", p) == struct.pack("d", chdtrc(m - 1, stat))

    def test_compare_on_30_folds_prints_the_normal_tails_bits(self, tmp_path):
        """Two methods whose F-measures differ in all 30 folds, a ahead in 24: Friedman
        fires, and the Wilcoxon test takes its normal tail (n > 25), which loads
        scipy.special and reports min(1, 2 sf(|z|)) bit for bit."""
        tps = {"a": [2 + i % 5 for i in range(30)]}
        tps["b"] = [tp - 1 if i % 5 else tp + 1 for i, tp in enumerate(tps["a"])]
        reports = []
        for name, fold_tps in tps.items():
            save_fold_metrics([fold_metrics(i, [1] * tp + [0, 1], [1] * tp + [1, 0])
                               for i, tp in enumerate(fold_tps)], tmp_path / f"{name}.csv")
            reports.append(f"{name}={tmp_path / name}.csv")
        out_json = tmp_path / "cmp.json"
        code = ("import sys; from patsim.cli import main; "
                f"assert main(['compare', *{reports!r}, '--out-json', {str(out_json)!r}]) == 0; "
                "print('scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1] == "True"
        record = json.loads(out_json.read_text())
        assert record["friedman"]["p_value"] < 0.05
        f = np.array(record["fold_f_measures"])
        d = f[:, 0] - f[:, 1]
        assert np.count_nonzero(d) == 30
        ranks = scipy_stats.rankdata(np.abs(d))
        w_plus = float(ranks[d > 0].sum())
        mean = 30 * 31 / 4.0
        _, counts = np.unique(ranks, return_counts=True)
        var = 30 * 31 * 61 / 24.0 - float((counts ** 3 - counts).sum()) / 48.0
        z = (w_plus - mean - 0.5 * np.sign(w_plus - mean)) / np.sqrt(var)
        [pair] = record["pairwise"]
        assert pair["p_value"] == float(min(1.0, 2.0 * scipy_stats.norm.sf(abs(z))))

def make_fold_metrics(f_values):
    return [fold_metrics(i, [1, 0], [1 if f > 0.5 else 0, 0]) for i, f in enumerate(f_values)]


def metrics_with_f(f_values):
    out = []
    for i, f in enumerate(f_values):
        m = fold_metrics(i, [1, 0], [1, 0])
        m.f_measure = float(f)
        out.append(m)
    return out


class TestCompare:
    def test_identical_methods_gate(self, rng):
        f = rng.random(10)
        report = compare({"a": metrics_with_f(f), "b": metrics_with_f(f)})
        assert report.friedman_p == 1.0
        assert report.pairwise == []

    def test_dominant_method_all_significant(self, rng):
        base = 0.3 + 0.1 * rng.random(20)
        report = compare({
            "best": metrics_with_f(base + 0.5),
            "mid": metrics_with_f(base + 0.2),
            "low": metrics_with_f(base),
        })
        assert report.friedman_p < 0.05
        best_pairs = [p for p in report.pairwise if "best" in (p.method_a, p.method_b)]
        assert len(best_pairs) == 2
        assert all(p.significant for p in best_pairs)

    def test_means_recomputed(self, rng):
        f1, f2 = rng.random(8), rng.random(8)
        report = compare({"a": metrics_with_f(f1), "b": metrics_with_f(f2)})
        assert report.mean_f_measure["a"] == pytest.approx(np.mean(f1))
        assert report.mean_f_measure["b"] == pytest.approx(np.mean(f2))

    def test_no_pairwise_without_friedman(self, rng):
        # two near-identical methods, each fold differing by random sign
        base = rng.random(30)
        noise = 1e-6 * rng.choice([-1, 1], size=30)
        report = compare({"a": metrics_with_f(base), "b": metrics_with_f(base + noise)})
        if report.friedman_p >= 0.05:
            assert report.pairwise == []

    def test_tied_pair_reported_insignificant(self, rng):
        f = rng.random(20)
        report = compare({
            "best": metrics_with_f(f + 1.0),
            "tied1": metrics_with_f(f),
            "tied2": metrics_with_f(f),
        })
        assert report.friedman_p < 0.05
        tied = [p for p in report.pairwise
                if {p.method_a, p.method_b} == {"tied1", "tied2"}]
        assert len(tied) == 1
        assert tied[0].p_value == 1.0 and not tied[0].significant

    def test_needs_two_methods(self, rng):
        with pytest.raises(PatsimError, match="^need at least two methods to compare$"):
            compare({"only": metrics_with_f(rng.random(5))})

    def test_unequal_fold_counts_name_each_method_and_count(self, rng):
        with pytest.raises(PatsimError, match="^methods cover different numbers of folds: "
                                              "a has 5, b has 4$"):
            compare({"a": metrics_with_f(rng.random(5)), "b": metrics_with_f(rng.random(4))})

    def test_empty_fold_lists_refuse_before_any_mean(self):
        # the suite turns numpy's "Mean of empty slice" RuntimeWarning into an error
        with pytest.raises(PatsimError, match="^need at least 2 folds and 2 methods$"):
            compare({"a": [], "b": []})


def test_fold_metrics_file_roundtrip(tmp_path, rng):
    metrics = [fold_metrics(i, (rng.random(10) < 0.4).astype(int),
                            (rng.random(10) < 0.5).astype(int)) for i in range(6)]
    path = tmp_path / "folds.csv"
    save_fold_metrics(metrics, path)
    assert load_fold_metrics(path) == metrics


def test_exp3_scales_each_fold_once(monkeypatch):
    cohort = synth.generate(synth.SynthSpec(n_patients=160, seed=11)).cohort()
    config = RunConfig(folds=4, k=5, max_epochs=2, workers=1, seed=2)
    calls = {"fit_scaling": 0, "impute_and_scale": 0}

    def counting(name):
        original = getattr(framing, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(framing, name, counting(name))
    report = experiments.run_experiment("exp3", config, cohort)
    assert report.methods == ["gd", "chi2", "infogain", "gini", "none"]
    assert report.f_measures.shape == (4, 5)
    assert calls == {"fit_scaling": 4, "impute_and_scale": 0}


@pytest.mark.parametrize("preset, expected", [
    # one table build per fold, shared by the three filters
    ("exp3", {"workspace": 4, "tables": 4, "tensor": 4}),
    # two representations, one workspace each per fold; three GD methods share
    # the timeseries tensor
    ("exp2", {"workspace": 8, "tables": 0, "tensor": 8}),
])
def test_one_workspace_per_fold(monkeypatch, preset, expected):
    cohort = synth.generate(synth.SynthSpec(n_patients=160, seed=11)).cohort()
    config = RunConfig(folds=4, k=5, max_epochs=2, workers=1, seed=2)
    calls = {"workspace": 0, "tables": 0, "tensor": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evaluation, "Workspace", counting("workspace", weights.Workspace))
    monkeypatch.setattr(weights, "_filter_tables", counting("tables", weights._filter_tables))
    monkeypatch.setattr(weights, "_distance_tensor",
                        counting("tensor", weights._distance_tensor))
    report = experiments.run_experiment(preset, config, cohort)
    assert report.f_measures.shape == (4, len(report.methods))
    assert calls == expected


def test_fold_tensor_is_freed_before_the_test_side_is_scanned(monkeypatch, raw_frames):
    """A fold learns every kNN method's weights, then drops its workspace and
    tensor, and only then searches the test side, once for all weightings."""
    tensors, scans = [], []
    build, search = weights._distance_tensor, evaluation.nearest

    def recording_build(*args):
        tensor = build(*args)
        tensors.append(weakref.ref(tensor))
        return tensor

    def checking_search(queries, train, weightings, k, *args):
        assert tensors and all(ref() is None for ref in tensors)
        scans.append(len(weightings))
        return search(queries, train, weightings, k, *args)

    monkeypatch.setattr(weights, "_distance_tensor", recording_build)
    monkeypatch.setattr(evaluation, "nearest", checking_search)
    methods = [MethodSpec(name="gd", weighting="gd", k=5, max_epochs=2),
               MethodSpec(name="maj", kind="majority"),
               MethodSpec(name="chi2", weighting="chi2", k=5),
               MethodSpec(name="gd_static", weighting="gd", k=3, max_epochs=2,
                          features="static_only")]
    cross_validate(raw_frames, methods, k_folds=3, seed=1, workers=1)
    assert len(tensors) == 3 and scans == [3, 3, 3]
