import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import framing, vocab, weights
from patsim.cli import main
from patsim.errors import PatsimError
from patsim.synth import SynthSpec, _round4, generate


def frames_for(result):
    return framing.frame_cohort(result.cohort())


class TestSpecValidation:
    def test_bad_values(self):
        with pytest.raises(PatsimError, match="^n_patients must be at least 1$"):
            SynthSpec(n_patients=0)
        with pytest.raises(PatsimError, match=r"^prevalence must be in \(0, 1\)$"):
            SynthSpec(prevalence=1.0)
        with pytest.raises(PatsimError, match=r"^missing_rate must be in \[0, 1\)$"):
            SynthSpec(missing_rate=1.0)
        with pytest.raises(PatsimError, match="^n_informative_variables must be between 1 and 36$"):
            SynthSpec(n_informative_variables=0)
        with pytest.raises(PatsimError, match="^profile must be one of .*, got 'weird'$"):
            SynthSpec(profile="weird")


class TestGenerator:
    def test_no_missing_gives_zero_sparsity(self):
        result = generate(SynthSpec(n_patients=20, missing_rate=0.0, seed=1))
        assert framing.sparsity(frames_for(result)) == 0.0

    def test_prevalence_within_3_sigma(self):
        spec = SynthSpec(n_patients=1000, prevalence=0.18, seed=2)
        result = generate(spec)
        positives = int(result.outcomes.labels.sum())
        sigma = np.sqrt(1000 * 0.18 * 0.82)
        assert abs(positives - 180) <= 3 * sigma
        assert result.manifest["prevalence_actual"] == positives / 1000

    def test_sparsity_matches_drop_counter(self):
        result = generate(SynthSpec(n_patients=120, missing_rate=0.28, seed=3))
        observed = framing.sparsity(frames_for(result))
        counter = result.manifest["dropped_cells"] / result.manifest["total_cells"]
        assert observed == pytest.approx(counter, abs=1e-12)
        assert abs(observed - 0.28) < 0.02

    def test_determinism(self):
        spec = SynthSpec(n_patients=15, seed=9)
        r1, r2 = generate(spec), generate(spec)
        assert r1.events.ids == r2.events.ids and r1.outcomes.ids == r2.outcomes.ids
        for column in ("patient", "minute", "variable", "value"):
            assert getattr(r1.events, column).tobytes() == getattr(r2.events, column).tobytes()
        assert r1.outcomes.labels.tolist() == r2.outcomes.labels.tolist()

    def test_manifest_lists_informative(self):
        result = generate(SynthSpec(n_patients=10, n_informative_variables=4, seed=4))
        manifest = result.manifest
        assert len(manifest["informative_variables"]) == 4
        assert set(manifest["level_variables"]) | set(manifest["shape_variables"]) \
            == set(manifest["informative_variables"])
        assert set(manifest["latent_risk"]) == set(result.outcomes.ids)


# a value, or a half-way point of the 4th decimal and its neighbouring doubles
HALF_WAYS = st.integers(-3 * 10 ** 6, 3 * 10 ** 6).flatmap(lambda i: st.sampled_from(
    [float(np.nextafter((i + 0.5) / 1e4, to)) for to in (-np.inf, np.inf)]
    + [(i + 0.5) / 1e4]))
ROUNDABLE = st.one_of(HALF_WAYS, st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(ROUNDABLE, min_size=1, max_size=50))
def test_vectorized_rounding_is_pythons(values):
    """Bit for bit, also where np.round alone lands on the other side of a half-way point."""
    expected = np.array([round(x, 4) for x in values])
    assert _round4(np.array(values)).tobytes() == expected.tobytes()


class TestSignal:
    def scaled_frames(self, result):
        frames = frames_for(result)
        return framing.scale_frames(frames, framing.fit_scaling(frames))

    def test_filters_rank_informative_above_noise(self):
        result = generate(SynthSpec(n_patients=400, seed=5))
        dense = self.scaled_frames(result)
        informative = [vocab.VARIABLE_INDEX[n]
                       for n in result.manifest["informative_variables"]]
        noise = [v for v in range(vocab.N_DYNAMIC) if v not in informative]
        for method in ("chi2", "infogain", "gini"):
            scores = weights.filter_score(weights.Workspace(dense), method)
            assert min(scores[informative]) > max(scores[noise])

    def test_gd_ranks_informative_above_noise(self):
        result = generate(SynthSpec(n_patients=300, seed=6))
        dense = self.scaled_frames(result)
        learned, _ = weights.train_gd(weights.Workspace(dense),
                                       weights.TrainConfig(max_epochs=80))
        informative = [vocab.VARIABLE_INDEX[n]
                       for n in result.manifest["informative_variables"]]
        noise = [v for v in range(vocab.N_DYNAMIC) if v not in informative]
        assert min(learned.values[informative]) > max(learned.values[noise])

    def test_label_permutation_destroys_filter_scores(self):
        result = generate(SynthSpec(n_patients=400, seed=7))
        dense = self.scaled_frames(result)
        informative = [vocab.VARIABLE_INDEX[n]
                       for n in result.manifest["informative_variables"]]
        noise = [v for v in range(vocab.N_DYNAMIC) if v not in informative]
        before = weights.filter_score(weights.Workspace(dense), "chi2")
        assert min(before[informative]) > max(before[noise])

        rng = np.random.default_rng(0)
        labels = np.array([f.label for f in dense])
        rng.shuffle(labels)
        shuffled = replace(dense, labels=labels)
        after = weights.filter_score(weights.Workspace(shuffled), "chi2")
        # informative scores collapse into the noise score range
        assert max(after[informative]) < np.percentile(after[noise], 99) * 3

    def test_trend_profile_matches_aggregates_not_buckets(self):
        result = generate(SynthSpec(n_patients=300, seed=8, profile="trend",
                                    missing_rate=0.0))
        cohort = result.cohort()
        aggs = framing.aggregate_cohort(cohort)
        frames = framing.frame_cohort(cohort)
        informative = [vocab.DYNAMIC_INDEX[n]
                       for n in result.manifest["informative_variables"]]
        labels = np.array([a.label for a in aggs])
        tables, grids = aggs.grid, frames.grid
        v = informative[0]
        for col in range(5):   # min, max, median, first, last
            pos = tables[labels == 1, v, col].mean()
            neg = tables[labels == 0, v, col].mean()
            spread = tables[:, v, col].std()
            assert abs(pos - neg) < 0.5 * spread
        # while early buckets separate the classes clearly
        early = grids[:, v, 5:8].mean(axis=1)
        gap = abs(early[labels == 1].mean() - early[labels == 0].mean())
        assert gap > grids[:, v, 5:8].std() * 0.8


# sha256 of the synth command's files for 30 patients, seed 1001; a change to
# the generator's draw order, arithmetic or rounding changes these bytes.
SYNTH_SHA256 = {
    "planted": {
        "events.csv": "11dfa10f59355d88fd28be3123dbe497b074c74823e5c6a73cc866d252b9dda9",
        "outcomes.csv": "b446c501fef9f1e222e01862388e8709e139cdd80c5032f91019ccf8bd784570",
        "manifest.json": "f630c28b8bbf3226d5783e1f50592484a2196a6925c4fa445c1f34468175001e",
    },
    "trend": {
        "events.csv": "e0edcf009cd683336a034a747836e5b3abbefe0ec494a27a4b2c0ecd37ff68a6",
        "outcomes.csv": "b446c501fef9f1e222e01862388e8709e139cdd80c5032f91019ccf8bd784570",
        "manifest.json": "6f2f260d415afc1abd325aa3085e082a83e2e086ca0b7f57bd5b0dea3fca9a19",
    },
}


@pytest.mark.parametrize("profile", sorted(SYNTH_SHA256))
def test_synth_bytes_are_pinned(tmp_path, profile):
    assert main(["synth", "--out-dir", str(tmp_path), "--n-patients", "30",
                 "--seed", "1001", "--profile", profile]) == 0
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SYNTH_SHA256[profile]}
    assert written == SYNTH_SHA256[profile]
