import math
import re
from dataclasses import replace

import numpy as np
import pytest

from patsim import vocab
from patsim.errors import PatsimError
from patsim.framing import stack
from patsim.knn import FeatureWeights, Model, nearest, neighbors, weighted_distance_sq
from util import (
    NeighborSet,
    classify,
    nearest_set,
    nearest_sets,
    random_dense_frames,
    scan_neighbors,
    soft_score,
    variable_distances_sq,
)

HR = vocab.DYNAMIC_INDEX["Heart rate"]


class TestFeatureWeights:
    def test_negative_rejected(self):
        values = np.ones(vocab.N_VARIABLES)
        values[3] = -0.5
        with pytest.raises(PatsimError, match=r"^weight for 'Non-invasive \(diastolic\)' must be "
                                              r"non-negative, got -0\.5$"):
            FeatureWeights(values)

    def test_uniform(self):
        w = FeatureWeights.uniform()
        assert (w.values == 1.0).all()
        assert w.values.shape == (vocab.N_VARIABLES,)

    @pytest.mark.parametrize("shape", [(39,), (41,), (1, 40)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(PatsimError, match=f"^expected 40 weights, got shape "
                                              f"{re.escape(str(shape))}$"):
            FeatureWeights(np.ones(shape))

    def test_nan_rejected(self):
        values = np.ones(vocab.N_VARIABLES)
        values[HR] = np.nan
        with pytest.raises(PatsimError, match="^weight for 'Heart rate' is not finite$"):
            FeatureWeights(values)


class TestVariableDistance:
    def test_identical_frames(self, rng):
        a = random_dense_frames(1, rng)[0]
        b = replace(a, patient_id="other")
        for v in range(vocab.N_VARIABLES):
            assert variable_distances_sq(a, b)[v] == 0.0

    def test_constant_offset(self, rng):
        a, b = random_dense_frames(2, rng)
        b.dynamic[:] = a.dynamic
        b.dynamic[HR] = a.dynamic[HR] + 0.5
        assert variable_distances_sq(a, b)[HR] == pytest.approx(0.25)
        assert variable_distances_sq(a, b)[vocab.VARIABLE_INDEX["Heart rate"]] == \
            pytest.approx(0.25)

    def test_static_distance(self, rng):
        a, b = random_dense_frames(2, rng)
        a.statics[0], b.statics[0] = 0.2, 0.7
        assert variable_distances_sq(a, b)[vocab.VARIABLE_INDEX["Age"]] == pytest.approx(0.25)


class TestWeightedDistance:
    def test_zero_weights(self, rng):
        a, b = random_dense_frames(2, rng)
        assert weighted_distance_sq(a, b, np.zeros(vocab.N_VARIABLES)) == 0.0

    def test_single_weight(self, rng):
        a, b = random_dense_frames(2, rng)
        w = np.zeros(vocab.N_VARIABLES)
        w[HR] = 1.0
        assert weighted_distance_sq(a, b, w) == pytest.approx(
            variable_distances_sq(a, b)[HR])

    def test_linear_in_weights_and_ranking(self, rng):
        frames = random_dense_frames(10, rng)
        q = frames[0]
        w1 = FeatureWeights(rng.random(vocab.N_VARIABLES))
        w2 = FeatureWeights(2.0 * w1.values)
        d1 = [weighted_distance_sq(q, f, w1) for f in frames[1:]]
        d2 = [weighted_distance_sq(q, f, w2) for f in frames[1:]]
        assert np.allclose(d2, np.array(d1) * 2.0)
        assert np.argsort(d1).tolist() == np.argsort(d2).tolist()

    def test_symmetry_and_identity(self, rng):
        frames = random_dense_frames(6, rng)
        w = FeatureWeights(rng.random(vocab.N_VARIABLES))
        for a in frames[:3]:
            assert weighted_distance_sq(a, a, w) == 0.0
            for b in frames[3:]:
                assert weighted_distance_sq(a, b, w) == pytest.approx(
                    weighted_distance_sq(b, a, w))

    def test_different_grids_rejected(self, rng):
        a = random_dense_frames(1, rng)[0]
        b = replace(a, patient_id="b", dynamic=a.dynamic[:, :12])
        with pytest.raises(PatsimError, match="^patients are on different grids$"):
            weighted_distance_sq(a, b, FeatureWeights.uniform())


class TestNeighbors:
    def test_exact_copy_is_rank_one(self, rng):
        frames = random_dense_frames(12, rng)
        query = replace(frames[4], patient_id="query")
        model = Model(stack(frames), FeatureWeights.uniform(), k=3)
        ns = nearest_set(query, model, leave_one_out=False)
        assert ns.entries[0][0] == frames[4].patient_id
        assert ns.entries[0][1] == 0.0

    def test_tie_break_by_patient_id(self, rng):
        frames = random_dense_frames(5, rng)
        frames[2].dynamic = frames[1].dynamic.copy()
        frames[2].statics = frames[1].statics.copy()
        query = replace(frames[1], patient_id="zz_query")
        model = Model(stack(frames), FeatureWeights.uniform(), k=2)
        ns = nearest_set(query, model, leave_one_out=False)
        first_two = [ns.entries[0][0], ns.entries[1][0]]
        assert first_two == sorted([frames[1].patient_id, frames[2].patient_id])

    def test_leave_one_out_excludes_self(self, rng):
        frames = random_dense_frames(8, rng)
        model = Model(stack(frames), FeatureWeights.uniform(), k=3)
        ns = nearest_set(frames[2], model, leave_one_out=True)
        assert frames[2].patient_id not in [e[0] for e in ns.entries]

    def test_query_grid_must_match_the_training_grid(self, rng):
        train = stack(random_dense_frames(6, rng))
        queries = replace(train, grid=train.grid[:, :, :12])
        with pytest.raises(PatsimError, match="^query grid does not match training grid$"):
            nearest(queries, train, [FeatureWeights.uniform().values], 3)

    def test_plain_weight_vector_is_validated_into_feature_weights(self, rng):
        train = stack(random_dense_frames(6, rng))
        model = Model(train, np.full(vocab.N_VARIABLES, 2.0), k=3)
        assert isinstance(model.weights, FeatureWeights)
        assert model.weights.values.tolist() == [2.0] * vocab.N_VARIABLES
        with pytest.raises(PatsimError, match=r"^expected 40 weights, got shape \(39,\)$"):
            Model(train, np.ones(vocab.N_VARIABLES - 1), k=3)

    def test_k_too_large(self, rng):
        frames = random_dense_frames(4, rng)
        with pytest.raises(PatsimError, match="^k=5 with 4 training patients$"):
            Model(stack(frames), FeatureWeights.uniform(), k=5)
        model = Model(stack(frames), FeatureWeights.uniform(), k=4)
        with pytest.raises(PatsimError, match="^k=4 but only 3 candidate neighbors$"):
            nearest_set(frames[0], model, leave_one_out=True)

    def test_brute_force_oracle(self, rng):
        train = random_dense_frames(60, rng)
        queries = random_dense_frames(25, np.random.default_rng(9))
        w = FeatureWeights(rng.random(vocab.N_VARIABLES))
        model = Model(stack(train), w, k=7)
        batch = stack(queries)
        for q, ns in zip(batch, nearest_sets(batch, model)):
            # independent scan: per-pair distance, sorted by (d2, id)
            scan = scan_neighbors(q, train, w.values, 7)
            assert [(e[0], e[2]) for e in ns.entries] == [(s[0], s[2]) for s in scan.entries]
            # the scan accumulates in a different float order; identity and
            # ordering must be exact, values to rounding resolution
            np.testing.assert_allclose([e[1] for e in ns.entries],
                                       [s[1] for s in scan.entries], rtol=1e-12)
            # the one-query entry perfbench's tracer times is nearest's row for q
            idx, d2 = neighbors(q, model)
            assert [(model.frames.ids[i], float(d)) for i, d in zip(idx, d2)] == \
                [(e[0], e[1]) for e in ns.entries]


class TestSoftScore:
    def test_all_positive(self):
        ns = NeighborSet("q", [("a", 0.3, 1), ("b", 0.9, 1)])
        assert soft_score(ns) == 1.0

    def test_equidistant_half(self):
        ns = NeighborSet("q", [("a", 0.4, 1), ("b", 0.4, 0),
                               ("c", 0.4, 1), ("d", 0.4, 0)])
        assert soft_score(ns) == pytest.approx(0.5)

    def test_hand_computed(self):
        ns = NeighborSet("q", [("a", 0.0, 1), ("b", math.log(2.0), 0)])
        assert soft_score(ns) == pytest.approx(1.0 / 1.5)


class TestClassify:
    def build(self, rng, labels, k, mode="majority", threshold=0.5):
        frames = random_dense_frames(len(labels), rng)
        query = random_dense_frames(1, np.random.default_rng(5))[0]
        # place all training points equidistant from the query
        for i, f in enumerate(frames):
            f.dynamic[:] = query.dynamic
            f.statics[:] = query.statics
            f.statics[0] = query.statics[0] + 0.1
            f.label = labels[i]
        model = Model(stack(frames), FeatureWeights.uniform(), k=k,
                      mode=mode, threshold=threshold)
        return query, model

    def test_majority(self, rng):
        labels = [1] * 7 + [0] * 3
        query, model = self.build(rng, labels, k=10)
        assert classify(query, model) == (1, pytest.approx(0.7))

    def test_tie_goes_positive(self, rng):
        labels = [1] * 5 + [0] * 5
        query, model = self.build(rng, labels, k=10)
        label, score = classify(query, model)
        assert label == 1 and score == pytest.approx(0.5)

    def test_weighted_threshold(self, rng):
        # 49 positives of 100 equidistant neighbors -> soft score 0.49
        labels = [1] * 49 + [0] * 51
        query, model = self.build(rng, labels, k=100, mode="weighted")
        label, score = classify(query, model)
        assert score == pytest.approx(0.49)
        assert label == 0

    def test_bad_mode_and_threshold(self, rng):
        frames = random_dense_frames(5, rng)
        with pytest.raises(PatsimError, match="^mode must be one of .*, got 'oracle'$"):
            Model(stack(frames), FeatureWeights.uniform(), k=2, mode="oracle")
        with pytest.raises(PatsimError, match=r"^threshold must be in \(0, 1\)$"):
            Model(stack(frames), FeatureWeights.uniform(), k=2, threshold=1.5)


class TestInvariants:
    def test_positive_scaling_keeps_order_and_votes(self, rng):
        frames = random_dense_frames(30, rng)
        queries = random_dense_frames(10, np.random.default_rng(3))
        base = rng.random(vocab.N_VARIABLES) + 0.05
        m1 = Model(stack(frames), FeatureWeights(base), k=5)
        m2 = Model(stack(frames), FeatureWeights(base * 3.7), k=5)
        for q in queries:
            n1 = nearest_set(q, m1, leave_one_out=False)
            n2 = nearest_set(q, m2, leave_one_out=False)
            assert [e[0] for e in n1.entries] == [e[0] for e in n2.entries]
            assert classify(q, m1)[0] == classify(q, m2)[0]

    def test_irrelevant_feature_nullity(self, rng):
        frames = random_dense_frames(20, rng)
        w = rng.random(vocab.N_VARIABLES)
        w[HR] = 0.0
        model = Model(stack(frames), FeatureWeights(w), k=5)
        q = random_dense_frames(1, np.random.default_rng(8))[0]
        before = classify(q, model)
        q.dynamic[HR] = rng.random(24)
        perturbed_frames = [replace(f, dynamic=f.dynamic.copy()) for f in frames]
        for f in perturbed_frames:
            f.dynamic[HR] = rng.random(24)
        model2 = Model(stack(perturbed_frames), FeatureWeights(w), k=5)
        assert classify(q, model2) == before

    def test_kernel_range(self, rng):
        frames = random_dense_frames(10, rng)
        w = FeatureWeights(rng.random(vocab.N_VARIABLES))
        model = Model(stack(frames), w, k=4)
        for q in frames[:4]:
            ns = nearest_set(q, model, leave_one_out=False)
            for _, d2, _ in ns.entries:
                s = math.exp(-d2)
                assert d2 >= 0.0 and 0.0 < s <= 1.0
            assert ns.entries[0][1] == 0.0   # the query itself

    def test_determinism(self, rng):
        frames = random_dense_frames(25, rng)
        w = FeatureWeights(rng.random(vocab.N_VARIABLES))
        q = random_dense_frames(1, np.random.default_rng(4))[0]
        runs = []
        for _ in range(2):
            model = Model(stack(frames), w, k=6)
            ns = nearest_set(q, model, leave_one_out=False)
            runs.append((tuple(ns.entries), classify(q, model)))
        assert runs[0] == runs[1]
