"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s`. The experiment-level
criteria run the real CLI on the default synthetic cohorts and take a few
minutes in total.
"""

import itertools
import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from patsim import framing, vocab
from patsim.config import RunConfig
from patsim.errors import PatsimError
from patsim.evaluation import friedman, wilcoxon_signed_rank
from patsim.experiments import run_experiment
from patsim.knn import FeatureWeights, Model
from patsim.synth import SynthSpec, generate
from patsim.weights import TrainConfig, Workspace, train_gd
from util import cohort_of, nearest_sets, random_dense_frames, scan_neighbors

pytestmark = pytest.mark.acceptance


def ok(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


# ---------------------------------------------------------------------------
# expensive shared runs


@pytest.fixture(scope="module")
def exp3_runs(tmp_path_factory):
    """Two CLI runs of `experiment exp3 --seed 7` with different workers."""
    runs = {}
    for tag, workers in (("a", "2"), ("b", "1")):
        out = tmp_path_factory.mktemp(f"exp3_{tag}")
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "patsim.cli", "experiment", "exp3",
             "--seed", "7", "--workers", workers, "--out-dir", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs[tag] = {"dir": out, "seconds": time.time() - t0}
    return runs


@pytest.fixture(scope="module")
def exp2_trend_report():
    config = RunConfig(seed=7, workers=2)
    cohort = generate(SynthSpec(n_patients=600, profile="trend", seed=config.seed)).cohort()
    t0 = time.time()
    report = run_experiment("exp2", config, cohort)
    return report, time.time() - t0


@pytest.fixture(scope="module")
def exp2_planted_report():
    config = RunConfig(seed=7, workers=2)
    cohort = generate(SynthSpec(n_patients=1000, seed=config.seed)).cohort()
    return run_experiment("exp2", config, cohort)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_oracle():
    start = time.time()
    k, h = 5, 1e-5
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        ws = Workspace(framing.stack(random_dense_frames(30, rng)))
        w0 = rng.random(vocab.N_VARIABLES) + 0.2
        sets = ws.neighbor_sets(w0, k)
        _, grad = ws.error_and_gradient(w0, sets)
        for v in range(vocab.N_VARIABLES):
            wp, wm = w0.copy(), w0.copy()
            wp[v] += h
            wm[v] -= h
            ep, _ = ws.error_and_gradient(wp, sets)
            em, _ = ws.error_and_gradient(wm, sets)
            fd = (ep - em) / (2 * h)
            rel = abs(grad[v] - fd) / max(abs(grad[v]), abs(fd), 1e-8)
            assert rel < 1e-4, f"trial {trial} variable {v}: rel error {rel}"
            worst = max(worst, rel)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"
    ok(1, f"gradient matches central differences on 20 cohorts "
          f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_brute_force_knn():
    start = time.time()
    rng = np.random.default_rng(2024)
    train = random_dense_frames(300, rng)
    # plant exact duplicates so distance ties actually occur
    train[10] = replace(train[10], dynamic=train[11].dynamic.copy(),
                        statics=train[11].statics.copy())
    queries = random_dense_frames(199, np.random.default_rng(5))
    queries.append(replace(train[11], patient_id="tie_query"))
    w = FeatureWeights(rng.random(vocab.N_VARIABLES) + 0.05)
    model = Model(framing.stack(train), w, k=10)
    batch = framing.stack(queries)
    for q, ns in zip(batch, nearest_sets(batch, model)):
        scan = scan_neighbors(q, train, w.values, 10)
        assert [(e[0], e[2]) for e in ns.entries] == [(s[0], s[2]) for s in scan.entries]
        np.testing.assert_allclose([e[1] for e in ns.entries],
                                   [s[1] for s in scan.entries], rtol=1e-12)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"brute-force check took {elapsed:.1f}s"
    ok(2, f"neighbor retrieval equals the exhaustive scan on 200 queries "
          f"including tie-breaks ({elapsed:.1f}s)")


def test_criterion_3_framing_exactness():
    hr = vocab.DYNAMIC_INDEX["Heart rate"]
    age = vocab.STATIC_INDEX["Age"]
    a, b, c = framing.frame_cohort(cohort_of([
        ("a", 10, "Heart rate", 80.0),
        ("a", 50, "Heart rate", 90.0),
        ("a", 130, "Heart rate", 100.0),
        ("a", 0, "Age", 40.0),
        ("b", 120, "Heart rate", 70.0),
        ("b", 0, "Age", 60.0),
    ], {"a": 1, "b": 0, "c": 0}))     # c has no events

    assert a.dynamic[hr, 0] == 85.0 and a.dynamic[hr, 1] == 100.0
    assert not np.isnan(a.dynamic[hr, :2]).any() and np.isnan(a.dynamic[hr, 2:]).all()
    assert not np.isnan(b.dynamic[hr, 1]) and np.isnan(b.dynamic[hr, 0])

    unobserved = [np.isnan(f.dynamic) for f in (a, b, c)]
    stats = framing.fit_scaling(framing.stack([a, b, c]))
    assert stats.dyn_min[hr] == 70.0 and stats.dyn_max[hr] == 100.0
    assert stats.dyn_bucket_mean[hr, 0] == 85.0
    assert stats.dyn_bucket_mean[hr, 1] == 85.0

    da, db, dc = (framing.impute_and_scale(f, stats) for f in (a, b, c))
    assert da.dynamic[hr, 0] == 0.5 and da.dynamic[hr, 1] == 1.0
    assert (da.dynamic[hr, 2:] == 1.0).all()            # carried forward
    assert db.dynamic[hr, 0] == 0.5                     # leading gap, bucket mean
    assert db.dynamic[hr, 1] == 0.0 and (db.dynamic[hr, 2:] == 0.0).all()
    assert (dc.dynamic[hr] == 0.5).all()                # all-missing variable
    assert da.statics[age] == 0.0 and db.statics[age] == 1.0 and dc.statics[age] == 0.5
    # scaling copies: each raw patient's unobserved cells are NaN still, and only those
    assert all((np.isnan(f.dynamic) == nan).all() for f, nan in zip((a, b, c), unobserved))

    result = generate(SynthSpec(n_patients=200, missing_rate=0.28, seed=21))
    frames = framing.frame_cohort(result.cohort())
    observed = framing.sparsity(frames)
    counter = result.manifest["dropped_cells"] / result.manifest["total_cells"]
    assert observed == pytest.approx(counter, abs=1e-12)
    assert abs(observed - 0.28) < 0.02
    ok(3, f"hand-built framing values exact; generated sparsity {observed:.4f} "
          f"within 0.28 +/- 0.02 and equal to the drop counter")


def test_criterion_4_statistic_oracles():
    from scipy import stats as scipy_stats

    rng = np.random.default_rng(4000)
    for _ in range(50):
        n, m = int(rng.integers(6, 30)), int(rng.integers(3, 7))
        matrix = rng.random((n, m))
        stat, p = friedman(matrix)
        ref = scipy_stats.friedmanchisquare(*[matrix[:, j] for j in range(m)])
        assert abs(stat - ref.statistic) < 1e-9
        assert abs(p - ref.pvalue) < 1e-9
    for _ in range(50):
        n = int(rng.integers(6, 26))
        a, b = rng.random(n), rng.random(n)
        stat, p = wilcoxon_signed_rank(a, b)
        ref = scipy_stats.wilcoxon(a, b, alternative="two-sided", method="exact")
        assert abs(stat - ref.statistic) < 1e-9
        assert abs(p - ref.pvalue) < 1e-9

    # n=5, all differences positive: exhaustive sign enumeration gives 2/32
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = a - np.array([0.3, 0.1, 0.2, 0.5, 0.4])
    stat, p = wilcoxon_signed_rank(a, b)
    ranks = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    observed = 0.0                                       # all positive: W- = 0
    count = sum(
        1 for signs in itertools.product([1, -1], repeat=5)
        if min(sum(r for r, s in zip(ranks, signs) if s > 0),
               sum(r for r, s in zip(ranks, signs) if s < 0)) <= observed
    )
    assert stat == 0.0
    assert p == count / 32 == 0.0625
    ok(4, "Friedman and Wilcoxon match scipy within 1e-9 on 100 random "
          "matrices; exact n=5 enumeration gives p = 0.0625")


def test_criterion_5_weighting_ordering(exp3_runs):
    run = exp3_runs["a"]
    assert run["seconds"] < 300, f"exp3 took {run['seconds']:.0f}s"
    report = json.loads((run["dir"] / "exp3_report.json").read_text())
    mean_f = report["mean_f_measure"]
    for filt in ("chi2", "infogain", "gini"):
        assert mean_f["gd"] > mean_f[filt], (
            f"gd ({mean_f['gd']:.3f}) not above {filt} ({mean_f[filt]:.3f})")
        assert mean_f[filt] > mean_f["none"], (
            f"{filt} ({mean_f[filt]:.3f}) not above none ({mean_f['none']:.3f})")
    assert report["friedman"]["p_value"] < 0.05
    ok(5, "exp3 mean F ordering gd > each filter > none with significant "
          f"Friedman test (gd {mean_f['gd']:.3f}, none {mean_f['none']:.3f}, "
          f"{run['seconds']:.0f}s)")


def test_criterion_6_representation_ordering(exp2_trend_report):
    report, seconds = exp2_trend_report
    assert seconds < 300, f"exp2 took {seconds:.0f}s"
    f_ts = report.mean_f_measure["timeseries"]
    f_agg = report.mean_f_measure["aggregation"]
    assert f_ts > f_agg
    p = next(pw.p_value for pw in report.pairwise
             if {pw.method_a, pw.method_b} == {"timeseries", "aggregation"})
    assert p < 0.05
    ok(6, f"trend cohort: time-frame representation beats aggregation "
          f"({f_ts:.3f} vs {f_agg:.3f}, Wilcoxon p = {p:.2e}, {seconds:.0f}s)")


def test_criterion_7_ablation_direction(exp2_planted_report):
    f = exp2_planted_report.mean_f_measure
    assert f["dynamic_only"] > f["static_only"]
    assert f["timeseries"] >= f["dynamic_only"]
    assert f["timeseries"] >= f["static_only"]
    ok(7, f"ablations: full {f['timeseries']:.3f} >= dynamic-only "
          f"{f['dynamic_only']:.3f} > static-only {f['static_only']:.3f}")


def test_criterion_8_determinism(exp3_runs):
    a, b = exp3_runs["a"]["dir"], exp3_runs["b"]["dir"]
    json_a = (a / "exp3_report.json").read_bytes()
    json_b = (b / "exp3_report.json").read_bytes()
    text_a = (a / "exp3_report.txt").read_bytes()
    text_b = (b / "exp3_report.txt").read_bytes()
    assert json_a == json_b
    assert text_a == text_b
    ok(8, "two `experiment exp3 --seed 7` runs with different --workers "
          "produced byte-identical reports")


def test_criterion_9_training_sanity():
    rng = np.random.default_rng(99)
    ws = Workspace(framing.stack(random_dense_frames(40, rng)))

    _, trace = train_gd(ws, TrainConfig(k=5, max_epochs=30))
    best = np.minimum.accumulate(trace.errors)
    assert all(later <= earlier for earlier, later in zip(best, best[1:]))

    frozen, _ = train_gd(ws, TrainConfig(k=5, learning_rate=1e-30, max_epochs=10))
    assert (frozen.values == 1.0).all()

    single = random_dense_frames(20, rng)
    for f in single:
        f.label = 1
    with pytest.raises(PatsimError, match="contains a single class"):
        train_gd(Workspace(framing.stack(single)), TrainConfig(k=5))
    ok(9, "best-so-far error non-increasing, tiny learning rate keeps "
          "weights, single-class cohort rejected")
