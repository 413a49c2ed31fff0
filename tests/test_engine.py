"""The neighbor engine shared by prediction and leave-one-out training.

Selection is checked against a sorted (distance, patient_id) scan and a
stable argsort on tie-heavy matrices, NaN entries sorting as +inf; batch
prediction against the one-query path; the screened search under several
weightings against a full exact scan and against per-method scans, bit
for bit, at each k as the prefix of a larger k, and its screen against
admitting everyone;
the packed leave-one-out tensor against the square one it replaced, and
its weighted sums on exact duplicate patients; and gradient descent
against the loop that gathered the selected pairs twice per epoch.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patsim import knn, vocab, weights
from patsim.config import FEATURE_SETS
from patsim.errors import PatsimError
from patsim.framing import FramedPatient, stack
from patsim.knn import (
    FeatureWeights,
    Model,
    classify_batch,
    decide_rows,
    nearest,
    top_k,
)
from patsim.weights import (
    TrainConfig,
    Workspace,
    _distance_tensor,
    _error_value,
    feature_mask,
    train_gd,
)
from util import (
    argsort_top_k,
    decide,
    full_scan,
    full_scan_nearest,
    nearest_set,
    quantized_frames,
    random_dense_frames,
    square_distance_tensor,
)

SEEDS = st.integers(0, 2 ** 32 - 1)


def quantized_weights(rng):
    """Weights in {0, 1, 2}: keeps distances tie-heavy, some variables off."""
    return FeatureWeights(rng.integers(0, 3, vocab.N_VARIABLES).astype(float))


def scan(row, ids, k, skip=None):
    """Indices of the k nearest columns by a sorted (distance, id) scan."""
    order = sorted((j for j in range(len(ids)) if ids[j] != skip),
                   key=lambda j: (row[j], ids[j]))
    return order[:k]


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 8), st.integers(1, 25), st.integers(1, 25))
def test_top_k_matches_sorted_scan(seed, levels, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    d2 = rng.integers(0, levels, (n_rows, n_cols)).astype(float)
    d2[rng.random((n_rows, n_cols)) < 0.2] = np.inf
    k = int(rng.integers(1, n_cols + 1))
    ids = list(range(n_cols))
    assert top_k(d2, k).tolist() == [scan(row, ids, k) for row in d2]


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(1, 12), st.integers(2, 30),
       st.sampled_from(["none", "diagonal", "scattered"]))
def test_top_k_equals_stable_argsort(seed, levels, n_rows, n_cols, exclusions):
    rng = np.random.default_rng(seed)
    d2 = rng.integers(0, levels, (n_rows, n_cols)) / levels
    if exclusions == "diagonal":
        d2[np.arange(n_rows), np.arange(n_rows) % n_cols] = np.inf
    elif exclusions == "scattered":
        d2[rng.random((n_rows, n_cols)) < 0.3] = np.inf
    for k in {1, int(rng.integers(1, n_cols + 1)), n_cols - 1, n_cols}:
        assert top_k(d2, k).tolist() == argsort_top_k(d2, k).tolist()


@pytest.mark.parametrize("d2, k", [
    # ties straddling the k-th place: four candidates at the boundary value
    ([[3.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0]], 3),
    ([[1.0, 1.0, 1.0, 1.0, 0.0, 1.0], [2.0, 0.5, 0.5, 0.5, 0.5, 0.1]], 2),
    # every entry equal: ascending columns
    ([[0.25] * 9] * 4, 5),
    ([[0.0] * 6] * 3, 6),
    # +inf exclusions on the diagonal, k = n - 1 keeps every finite entry
    ([[np.inf, 1.0, 1.0, 0.5], [1.0, np.inf, 1.0, 1.0],
      [0.5, 0.5, np.inf, 0.5], [2.0, 1.0, 0.0, np.inf]], 3),
    # fewer finite entries than k: +inf columns follow in ascending order
    ([[np.inf, 2.0, np.inf, 1.0, np.inf]], 4),
    # a NaN k-th value: the row keeps k entries, NaN tying with +inf by column
    ([[np.inf, 1.0, np.nan, np.nan], [1.0, np.inf, 2.0, 3.0]], 3),
])
def test_top_k_boundary_cases(d2, k):
    d2 = np.array(d2)
    assert top_k(d2, k).tolist() == argsort_top_k(d2, k).tolist()


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(1, 12), st.integers(1, 30))
def test_top_k_sorts_nan_as_inf(seed, n_rows, n_cols):
    """Rows with NaN and +inf entries, tied or distinct values, select as if each
    NaN were +inf, and each row's selection comes from that row alone."""
    rng = np.random.default_rng(seed)
    d2 = rng.integers(0, 3, (n_rows, n_cols)) / 3 + rng.random((n_rows, n_cols)) * rng.random()
    d2[rng.random((n_rows, n_cols)) < rng.random()] = np.nan
    d2[rng.random((n_rows, n_cols)) < 0.2] = np.inf
    for k in {1, int(rng.integers(1, n_cols + 1)), n_cols}:
        expected = argsort_top_k(d2, k).tolist()
        assert top_k(d2, k).tolist() == expected
        assert [top_k(row[None], k)[0].tolist() for row in d2] == expected


def loo_distances(ws, w):
    """The weighted leave-one-out distances Workspace.neighbor_sets selects from, as it
    sums them: +inf on the diagonal."""
    d2 = np.einsum("v,vp->p", w, ws.tensor)[ws.pairs]
    np.fill_diagonal(d2, np.inf)
    return d2


def test_nan_loo_distances_select_from_their_own_row():
    """A static of 1e200 overflows its squared distances to +inf, and a weight of 0
    makes them NaN: that patient's leave-one-out row is NaN but for its +inf
    diagonal, and its neighbors are the first k other patients, not another row's."""
    frames = random_dense_frames(12, np.random.default_rng(0))
    frames[5].statics[1] = 1e200
    train = stack(frames)
    w = np.ones(vocab.N_VARIABLES)
    w[vocab.N_DYNAMIC + 1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        ws = Workspace(train)
        d2 = loo_distances(ws, w)
        sets = ws.neighbor_sets(w, 3)
    assert np.isnan(np.delete(d2[5], 5)).all()
    assert sets[5].tolist() == [0, 1, 2]
    assert sets.tolist() == argsort_top_k(d2, 3).tolist()


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 12), st.integers(1, 40), st.booleans())
def test_top_k_without_boundary_ties_skips_the_lexsort(seed, n_rows, n_cols, scale):
    """Distinct continuous distances: no row ties at its k-th value, so the
    selection is a stable sort of each row's k nearest, never a lexsort."""
    rng = np.random.default_rng(seed)
    d2 = rng.random((n_rows, n_cols)) * (1e-300 if scale else 1.0)
    for k in {1, int(rng.integers(1, n_cols + 1)), n_cols}:
        with mock.patch("numpy.lexsort", side_effect=AssertionError("lexsort ran")):
            assert top_k(d2, k).tolist() == argsort_top_k(d2, k).tolist()


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(2, 12), st.integers(1, 30))
def test_top_k_mixed_rows_equal_stable_argsort(seed, n_rows, n_cols):
    """Rows that tie at their boundary, rows that do not, and rows partly or
    wholly +inf, in one matrix: either way of ordering gives argsort's."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 4, n_rows)
    kinds[:2] = [0, 1]
    d2 = np.empty((n_rows, n_cols))
    for row, kind in zip(d2, kinds):
        if kind == 0:      # distinct
            row[:] = rng.random(n_cols)
        elif kind == 1:    # tie-heavy
            row[:] = rng.integers(0, 3, n_cols) / 3
        elif kind == 2:    # partly excluded
            row[:] = rng.random(n_cols)
            row[rng.random(n_cols) < 0.4] = np.inf
        else:              # wholly excluded
            row[:] = np.inf
    for k in {1, int(rng.integers(1, n_cols + 1)), n_cols}:
        assert top_k(d2, k).tolist() == argsort_top_k(d2, k).tolist()


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(2, 4), st.integers(12, 30))
# a BLAS product over the tensor summed row 11's two identical patients apart
@example(seed=1032, levels=2, n=12)
def test_loo_neighbor_sets_match_scan(seed, levels, n):
    rng = np.random.default_rng(seed)
    frames = stack(quantized_frames(n, rng, levels=levels, n_buckets=6, duplicates=n // 4))
    w = quantized_weights(rng)
    k = int(rng.integers(1, n))
    d2 = np.einsum("v,vij->ij", w.values, square_distance_tensor(frames.grid, frames.statics))
    expected = [scan(d2[i], frames.ids, k, skip=frames.ids[i]) for i in range(n)]
    assert Workspace(frames).neighbor_sets(w.values, k).tolist() == expected


def copy_heavy_frames(n, rng):
    """Near-continuous values, with about half of the patients exact copies of others."""
    return quantized_frames(n, rng, levels=2 ** 20, duplicates=max(1, n // 2))


def one_bucket_frames(n, rng):
    """One grid column per variable (window = horizon), where numpy sums a
    variable's column mean in another order than the whole grid's."""
    return random_dense_frames(n, rng, n_buckets=1)


@pytest.mark.parametrize("n", [2, 3, 17, 64])
@pytest.mark.parametrize("make", [random_dense_frames, quantized_frames, copy_heavy_frames,
                                  one_bucket_frames])
def test_packed_tensor_is_the_square_upper_triangle(make, n):
    """Bit for bit, pair p of the packed tensor is entry (i, j) of the square oracle."""
    frames = stack(make(n, np.random.default_rng(n)))
    packed = _distance_tensor(frames.grid, frames.statics)
    iu, ju = np.triu_indices(n, 1)
    assert packed.dtype == np.float64
    assert packed.tolist() == \
        square_distance_tensor(frames.grid, frames.statics)[:, iu, ju].tolist()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 3))
def test_distinct_rows_map_each_row_to_its_first_copy(data, n, n_buckets):
    """Rows equal bit for bit map to the first of them, and `distinct` lists those
    first copies in ascending order; 0.0 and -0.0 cells are different bits."""
    cells = st.sampled_from([0.0, -0.0, 0.5, 1.0])
    grid = np.array(data.draw(st.lists(cells, min_size=n * vocab.N_DYNAMIC * n_buckets,
                                       max_size=n * vocab.N_DYNAMIC * n_buckets)))
    grid = grid.reshape(n, vocab.N_DYNAMIC, n_buckets)
    statics = np.array(data.draw(st.lists(cells, min_size=4 * n, max_size=4 * n))).reshape(n, 4)
    plants = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                min_size=1, max_size=n))
    for src, dst in plants:
        grid[dst], statics[dst] = grid[src], statics[src]
    rows = np.concatenate([grid.reshape(n, -1), statics], axis=1).view(np.uint64)
    first_copy = (rows[:, None, :] == rows[None, :, :]).all(axis=2).argmax(axis=1)
    distinct, copy_of = weights._distinct_rows(grid, statics)
    assert distinct[copy_of].tolist() == first_copy.tolist()
    assert distinct.tolist() == sorted(set(first_copy.tolist()))


def test_tensor_build_heap_stays_small(monkeypatch):
    """Besides the tensor, an untracked memory map, the build holds a few
    (n, n) arrays and pair-length arrays on the heap; taking every dynamic
    variable's gram entries into the tensor at once would add 36 pair-length
    rows. The copy search runs beforehand, as its arrays scale with the grid."""
    n = 300
    frames = stack(random_dense_frames(n, np.random.default_rng(3)))
    found = weights._distinct_rows(frames.grid, frames.statics)
    monkeypatch.setattr(weights, "_distinct_rows", lambda grid, statics: found)
    tracemalloc.start()
    try:
        _distance_tensor(frames.grid, frames.statics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    square, pairs = 8 * n * n, 8 * n * (n - 1) // 2
    assert peak < 2 * square + 12 * pairs


def test_workspace_holds_the_packed_tensor():
    n = 23
    ws = Workspace(stack(random_dense_frames(n, np.random.default_rng(4))))
    tensor, pairs = ws.tensor, ws.pairs
    assert tensor.shape == (vocab.N_VARIABLES, n * (n - 1) // 2)
    assert tensor.nbytes == 8 * vocab.N_VARIABLES * n * (n - 1) // 2
    assert ws.tensor is tensor
    iu, ju = np.triu_indices(n, 1)
    assert (pairs[iu, ju] == np.arange(len(iu))).all()
    assert (pairs == pairs.T).all()


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from([2, 3, 5, 1000]), st.integers(12, 60), st.integers(1, 4))
def test_exact_duplicates_tie_and_resolve_by_patient_id(seed, levels, n, copies):
    """Copies of one patient lie at distance 0 from each other, hold
    bit-equal per-variable and weighted distances in every row, and enter
    that row's neighbor set in ascending patient_id order."""
    rng = np.random.default_rng(seed)
    frames = quantized_frames(n, rng, levels=levels, duplicates=copies * (n // 4))
    ws = Workspace(stack(frames))
    w = rng.random(vocab.N_VARIABLES) * rng.integers(0, 2, vocab.N_VARIABLES)
    w[0] = 1.0 + rng.random()
    k = int(rng.integers(1, n))
    per_var = ws.tensor[:, ws.pairs]
    d2 = loo_distances(ws, w)
    sets = ws.neighbor_sets(w, k)
    keys = [ws.train.grid[i].tobytes() + ws.train.statics[i].tobytes() for i in range(n)]
    copies_of = {}
    for j, key in enumerate(keys):
        copies_of.setdefault(key, []).append(j)
    tied_sets = 0
    for group in (g for g in copies_of.values() if len(g) > 1):
        for i in range(n):
            tied = [j for j in group if j != i]
            if i in group:
                assert (per_var[:, i, tied] == 0.0).all()
            if len(tied) < 2:
                continue
            tied_sets += 1
            assert len({per_var[:, i, j].tobytes() for j in tied}) == 1
            assert len({d2[i, j].tobytes() for j in tied}) == 1
            chosen = [j for j in sets[i] if j in tied]
            assert chosen == tied[:len(chosen)]
    assert tied_sets > 0
    assert sets.tolist() == [scan(d2[i], ws.train.ids, k, skip=ws.train.ids[i])
                             for i in range(n)]


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(2, 4), st.integers(8, 30), st.booleans(),
       st.sampled_from(["majority", "weighted"]))
def test_classify_batch_matches_scan(seed, levels, n, leave_one_out, mode):
    rng = np.random.default_rng(seed)
    train = quantized_frames(n, rng, levels=levels, n_buckets=6, duplicates=n // 4)
    k = int(rng.integers(1, n))
    model = Model(stack(train), quantized_weights(rng), k=k, mode=mode)
    if leave_one_out:
        queries = stack(train[: n // 2])
    else:
        queries = stack(quantized_frames(n // 2, rng, levels=levels, n_buckets=6))
    labels, scores = classify_batch(queries, model, leave_one_out=leave_one_out)
    ids, y = model.frames.ids, model.frames.labels
    for q, label, score in zip(queries, labels, scores):
        row = full_scan(stack([q]), model.frames, [model.weights.values])[0, 0]
        nearest = scan(row, ids, k, skip=q.patient_id if leave_one_out else None)
        assert [e[0] for e in nearest_set(q, model, leave_one_out).entries] == \
            [ids[j] for j in nearest]
        if mode == "majority":
            pos = int(y[nearest].sum())
            expected = (int(2 * pos >= k), pos / k)
        else:
            s = np.exp(-row[nearest])
            soft = float((s * y[nearest]).sum() / s.sum())
            expected = (int(soft >= model.threshold), soft)
        assert (label, score) == expected


@pytest.mark.parametrize("mode", ["majority", "weighted"])
@pytest.mark.parametrize("leave_one_out", [False, True])
@pytest.mark.parametrize("make", [random_dense_frames, quantized_frames])
def test_classify_batch_equals_per_query_path(mode, leave_one_out, make):
    rng = np.random.default_rng(11)
    train = make(40, rng)
    model = Model(stack(train), FeatureWeights(rng.random(vocab.N_VARIABLES)), k=7,
                  mode=mode, threshold=0.4)
    queries = stack(train[:15] if leave_one_out else make(15, np.random.default_rng(12)))
    labels, scores = classify_batch(queries, model, leave_one_out=leave_one_out)
    one_by_one = [decide(nearest_set(q, model, leave_one_out), mode, model.threshold)
                  for q in queries]
    assert labels.tolist() == [label for label, _ in one_by_one]
    assert scores.tolist() == [score for _, score in one_by_one]


@pytest.mark.parametrize("make", [random_dense_frames, quantized_frames])
def test_weighted_rows_equal_the_per_query_product(make):
    """Every weighting's selection is that of one exact per-query scan weighed alone,
    in indices and distances, bit for bit."""
    rng = np.random.default_rng(21)
    train = stack(make(50, rng))
    queries = stack(make(13, np.random.default_rng(22)))
    weightings = [rng.random(vocab.N_VARIABLES), np.ones(vocab.N_VARIABLES),
                  quantized_weights(rng).values]
    found = nearest(queries, train, weightings, 7)
    assert len(found) == len(weightings)
    for i, q in enumerate(queries):
        dyn = ((train.grid - q.dynamic[None]) ** 2).mean(axis=2)
        stat = (train.statics - q.statics[None]) ** 2
        per_var = np.concatenate([dyn, stat], axis=1)
        for (idx, d2_sel), w in zip(found, weightings):
            row = (per_var @ w)[None]
            assert idx[i].tolist() == top_k(row, 7)[0].tolist()
            assert d2_sel[i].tolist() == row[0, idx[i]].tolist()


@pytest.mark.parametrize("mode", ["majority", "weighted"])
@pytest.mark.parametrize("make", [random_dense_frames, quantized_frames])
def test_shared_distances_equal_per_method_classify_batch(mode, make):
    """Several weightings in one search predict as their own Model scans would."""
    rng = np.random.default_rng(31)
    train, queries = make(40, rng), stack(make(17, np.random.default_rng(32)))
    shared = stack(train)
    weightings = [FeatureWeights.uniform(), quantized_weights(rng),
                  FeatureWeights(rng.random(vocab.N_VARIABLES))]
    found = nearest(queries, shared, [w.values for w in weightings], 6)
    for w, (idx, d2_sel) in zip(weightings, found):
        on_own = Model(stack(train), w, k=6, mode=mode, threshold=0.45)
        expected = classify_batch(queries, on_own)
        got = decide_rows(d2_sel, shared.labels[idx], mode, 0.45)
        assert got[0].tolist() == expected[0].tolist()
        assert got[1].tolist() == expected[1].tolist()


# ---------------------------------------------------------------------------
# the screened search against the full exact scan


def assert_equals_full_scan(queries, train, weightings, k, leave_one_out=False):
    """nearest() gives full_scan_nearest's indices and distance bits under every weighting."""
    got = nearest(queries, train, weightings, k, leave_one_out)
    expected = full_scan_nearest(queries, train, weightings, k, leave_one_out)
    assert len(got) == len(expected)
    for (idx, d2_sel), (want_idx, want_d2) in zip(got, expected):
        assert idx.tolist() == want_idx.tolist()
        assert d2_sel.tobytes() == want_d2.tobytes()


def drawn_weighting(rng, kind):
    if kind == "random":
        return rng.random(vocab.N_VARIABLES)
    if kind == "sparse":     # most variables off
        return rng.random(vocab.N_VARIABLES) * (rng.random(vocab.N_VARIABLES) < 0.2)
    if kind == "integer":
        return rng.integers(0, 4, vocab.N_VARIABLES).astype(float)
    return np.ones(vocab.N_VARIABLES)


@settings(max_examples=120, deadline=None)
@given(SEEDS, st.sampled_from([random_dense_frames, quantized_frames]), st.integers(2, 70),
       st.booleans(), st.lists(st.sampled_from(["random", "sparse", "integer", "uniform"]),
                               min_size=1, max_size=3),
       st.sampled_from([1, 3, None]), st.sampled_from([6, 24]))
def test_screened_search_equals_the_full_scan(seed, make, n, leave_one_out, kinds,
                                              block_queries, n_buckets):
    """Bit for bit, on dense and duplicate-heavy cohorts, with blocks of 1 or 3 queries
    or the default budget."""
    rng = np.random.default_rng(seed)
    train_list = make(n, rng, n_buckets=n_buckets)
    train = stack(train_list)
    if leave_one_out:
        queries = stack(train_list[: int(rng.integers(1, n + 1))])
    else:
        queries = stack(make(int(rng.integers(1, 12)), rng, n_buckets=n_buckets))
    weightings = [drawn_weighting(rng, kind) for kind in kinds]
    k = int(rng.integers(1, n))
    budget = knn.SCREEN_ELEMENTS if block_queries is None else block_queries * n
    with mock.patch.object(knn, "SCREEN_ELEMENTS", budget):
        assert_equals_full_scan(queries, train, weightings, k, leave_one_out)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([random_dense_frames, quantized_frames]), st.integers(2, 40),
       st.booleans(), st.lists(st.sampled_from(["random", "sparse", "integer", "uniform"]),
                               min_size=1, max_size=3))
def test_nearest_at_a_larger_k_holds_each_smaller_k_as_a_prefix(seed, make, n, leave_one_out,
                                                                 kinds):
    """The first k columns of nearest() at K are nearest() at k, in indices and
    distance bits, for every k <= K: what lets a fold's methods share one search
    at their largest k."""
    rng = np.random.default_rng(seed)
    train_list = make(n, rng, n_buckets=6)
    train = stack(train_list)
    queries = (stack(train_list[: int(rng.integers(1, n + 1))]) if leave_one_out
               else stack(make(int(rng.integers(1, 12)), rng, n_buckets=6)))
    weightings = [drawn_weighting(rng, kind) for kind in kinds]
    top = int(rng.integers(1, n)) if leave_one_out else int(rng.integers(1, n + 1))
    widest = nearest(queries, train, weightings, top, leave_one_out)
    for k in range(1, top + 1):
        for (idx, d2_sel), (wide_idx, wide_d2) in zip(
                nearest(queries, train, weightings, k, leave_one_out), widest):
            assert idx.tobytes() == np.ascontiguousarray(wide_idx[:, :k]).tobytes()
            assert d2_sel.tobytes() == np.ascontiguousarray(wide_d2[:, :k]).tobytes()


@pytest.mark.parametrize("leave_one_out", [False, True])
@pytest.mark.parametrize("scale, variables", [
    (1e308, slice(0, 3)),     # the gram's norms overflow, the exact distances do not
    (1e308, slice(None)),     # both overflow: every distance is +inf
    (1e200, slice(None)),
])
def test_overflowing_weights_equal_the_full_scan(leave_one_out, scale, variables):
    """Where the gram overflows, every pair is a candidate; where the exact path
    overflows too, each query is scanned in full, +inf ties going by patient_id."""
    rng = np.random.default_rng(3)
    train = stack(random_dense_frames(30, rng))
    queries = train if leave_one_out else stack(random_dense_frames(8, rng))
    w = rng.random(vocab.N_VARIABLES)
    w[variables] = scale
    with np.errstate(over="ignore"):
        assert_equals_full_scan(queries, train, [w, np.ones(vocab.N_VARIABLES)], 5,
                                leave_one_out)


def test_exact_overflow_under_a_finite_gram_falls_back_to_the_full_scan():
    """A difference of 1.4e154 squares to +inf on the exact path, while the gram, under
    a weight of 1e-300, puts the pair at about 7.8e6: that pair alone would pass the
    screen at k = 1, and the nearest patient (at 1.6e7) would be missed."""
    far_cell = np.zeros((vocab.N_DYNAMIC, 24))
    far_cell[0, 0] = 1.4e154
    query = FramedPatient("q", np.zeros((vocab.N_DYNAMIC, 24)), statics=np.zeros(4), label=0)
    train = stack([FramedPatient("a", far_cell, statics=np.zeros(4), label=0),
                   FramedPatient("b", np.zeros((vocab.N_DYNAMIC, 24)),
                                 statics=np.array([4000.0, 0, 0, 0]), label=0)])
    w = np.ones(vocab.N_VARIABLES)
    w[0] = 1e-300
    with np.errstate(over="ignore"):
        (idx, d2_sel), = nearest(stack([query]), train, [w], 1)
        assert_equals_full_scan(stack([query]), train, [w], 1)
    assert idx.tolist() == [[1]] and d2_sel.tolist() == [[1.6e7]]


@pytest.mark.parametrize("leave_one_out", [False, True])
def test_identical_cohort_ties_by_patient_id(leave_one_out):
    frames = random_dense_frames(25, np.random.default_rng(5))
    for f in frames[1:]:
        f.dynamic, f.statics = frames[0].dynamic.copy(), frames[0].statics.copy()
    train = stack(frames)
    queries = stack(frames[::-3]) if leave_one_out else stack(frames[:1])
    (idx, d2_sel), = nearest(queries, train, [np.ones(vocab.N_VARIABLES)], 24 if
                             leave_one_out else 25, leave_one_out)
    for pid, row in zip(queries.ids, idx):
        assert [train.ids[j] for j in row] == [p for p in train.ids if
                                                not (leave_one_out and p == pid)]
    assert (d2_sel == 0.0).all()
    assert_equals_full_scan(queries, train, [np.ones(vocab.N_VARIABLES)], 7, leave_one_out)


def test_screen_admits_few_exact_rows(monkeypatch):
    """On 200 random dense patients at k = 10, fewer than 2k training rows per query
    get the exact scan: a screen that admits everyone fails here."""
    frames = stack(random_dense_frames(200, np.random.default_rng(8)))
    rows = []
    exact = knn._exact_terms

    def counting(train, candidates, *args):
        rows.append(len(candidates))
        return exact(train, candidates, *args)

    monkeypatch.setattr(knn, "_exact_terms", counting)
    w = np.random.default_rng(9).random(vocab.N_VARIABLES)
    nearest(frames, frames, [w], 10, leave_one_out=True)
    assert len(rows) == 200
    assert max(rows) < 20


def test_leave_one_out_batch_too_few_candidates():
    frames = stack(random_dense_frames(5, np.random.default_rng(2)))
    model = Model(frames, FeatureWeights.uniform(), k=5)
    assert classify_batch(frames, model)[0].shape == (5,)
    with pytest.raises(PatsimError, match="^k=5 but only 4 candidate neighbors$"):
        classify_batch(frames, model, leave_one_out=True)


def test_empty_batch():
    frames = stack(random_dense_frames(5, np.random.default_rng(2)))
    model = Model(frames, FeatureWeights.uniform(), k=2)
    labels, scores = classify_batch(frames.take([]), model, leave_one_out=True)
    assert labels.shape == scores.shape == (0,)


# ---------------------------------------------------------------------------
# gradient descent against the loop that gathered twice per epoch


def _old_neighbor_sets(dist, w, k):
    d2 = np.einsum("v,vij->ij", w, dist)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _old_soft_scores(dist, w, sets, labels):
    rows = np.arange(dist.shape[1])[:, None]
    d2_sel = np.einsum("v,vnk->nk", w, dist[:, rows, sets])
    s = np.exp(-d2_sel)
    return (s * labels[sets]).sum(axis=1) / s.sum(axis=1)


def _old_gradient_for_sets(dist, w, sets, labels):
    rows = np.arange(dist.shape[1])[:, None]
    d_sel = dist[:, rows, sets]
    d2_sel = np.einsum("v,vnk->nk", w, d_sel)
    s = np.exp(-d2_sel)
    y_n = labels[sets]
    big_s = s.sum(axis=1)
    big_t = (s * y_n).sum(axis=1)
    yhat = big_t / big_s
    d_t = -np.einsum("vnk,nk->nv", d_sel, s * y_n)
    d_s = -np.einsum("vnk,nk->nv", d_sel, s)
    d_yhat = (d_t * big_s[:, None] - big_t[:, None] * d_s) / (big_s ** 2)[:, None]
    return -4.0 * ((labels - yhat)[:, None] * d_yhat).sum(axis=0)


def _old_train_gd(frames, config, active):
    """(best weights, errors, best epoch, stop reason) of the double-gather loop."""
    frames = sorted(frames, key=lambda f: f.patient_id)
    grid = np.stack([f.dynamic for f in frames])
    statics = np.stack([f.statics for f in frames])
    labels = np.array([f.label for f in frames], dtype=float)
    w = np.ones(vocab.N_VARIABLES) * active if config.initial_weights is None \
        else config.initial_weights.values * active
    dist = square_distance_tensor(grid, statics)
    sets = _old_neighbor_sets(dist, w, config.k)
    err = _error_value(_old_soft_scores(dist, w, sets, labels), labels)
    errors, best_err, best_w, best_epoch, plateau = [err], err, w.copy(), 0, 0
    for epoch in range(1, config.max_epochs + 1):
        grad = _old_gradient_for_sets(dist, w, sets, labels)
        w = np.maximum(w - config.learning_rate * grad, 0.0)
        w *= active
        sets = _old_neighbor_sets(dist, w, config.k)
        new_err = _error_value(_old_soft_scores(dist, w, sets, labels), labels)
        errors.append(new_err)
        if new_err < best_err:
            best_err, best_w, best_epoch = new_err, w.copy(), epoch
        rel = (err - new_err) / err if err > 0 else 0.0
        plateau = plateau + 1 if rel < config.min_relative_improvement else 0
        err = new_err
        if plateau >= config.patience:
            return best_w, errors, best_epoch, "converged"
    return best_w, errors, best_epoch, "max_epochs"


def _assert_same_run(learned, trace, reference):
    """train_gd's weights and whole trace equal the reference loop's, bit for bit."""
    old_w, old_errors, old_best_epoch, old_stop = reference
    assert trace.errors == old_errors
    assert learned.values.tobytes() == old_w.tobytes()
    assert trace.best_epoch == old_best_epoch
    assert trace.best_error == old_errors[old_best_epoch]
    assert trace.epochs_run == len(old_errors) - 1
    assert trace.stop_reason == old_stop


@pytest.mark.parametrize("make", [random_dense_frames, quantized_frames])
@pytest.mark.parametrize("features", ["all", "dynamic_only"])
def test_train_gd_equals_double_gather_loop(make, features):
    rng = np.random.default_rng(5)
    frames = make(45, rng)
    for cfg in (TrainConfig(k=6, max_epochs=12, patience=13),
                TrainConfig(k=4, max_epochs=200, learning_rate=0.5,
                            initial_weights=FeatureWeights(rng.random(vocab.N_VARIABLES)))):
        learned, trace = train_gd(Workspace(stack(frames)), cfg, features)
        _assert_same_run(learned, trace, _old_train_gd(frames, cfg, feature_mask(features)))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.sampled_from([random_dense_frames, quantized_frames, copy_heavy_frames,
                               one_bucket_frames]),
       st.integers(4, 40), st.sampled_from(sorted(FEATURE_SETS)), st.booleans(),
       st.sampled_from([0.1, 0.5, 2.0, 1e4]), st.integers(1, 25), st.integers(1, 4))
def test_train_gd_equals_the_reference_loop_on_drawn_cohorts(seed, make, n, features,
                                                             initial, lr, max_epochs, patience):
    """Weights and the whole trace, bit for bit, on dense, tie-heavy, copy-heavy and
    one-bucket cohorts, with every feature set and with or without start weights; a
    reference run that leaves the finite numbers makes train_gd fail in one PatsimError."""
    rng = np.random.default_rng(seed)
    frames = make(n, rng)
    start = FeatureWeights(2.0 * rng.random(vocab.N_VARIABLES)) if initial else None
    cfg = TrainConfig(k=int(rng.integers(1, min(n - 1, 8) + 1)), learning_rate=lr,
                      max_epochs=max_epochs, patience=patience, initial_weights=start)
    with np.errstate(all="ignore"):
        reference = _old_train_gd(frames, cfg, feature_mask(features))
    if not np.isfinite(reference[1]).all():
        with pytest.raises(PatsimError):
            train_gd(Workspace(stack(frames)), cfg, features)
        return
    learned, trace = train_gd(Workspace(stack(frames)), cfg, features)
    _assert_same_run(learned, trace, reference)
