import numpy as np

from patsim import vocab
from patsim.framing import FramedPatient


def random_dense_frames(n, rng, n_buckets=24, prevalence=0.4):
    """Random dense scaled frames (grids already in [0, 1])."""
    frames = []
    width = len(str(n))
    for i in range(n):
        frames.append(FramedPatient(
            patient_id=f"q{i:0{width}d}",
            dynamic=rng.random((vocab.N_DYNAMIC, n_buckets)),
            mask=np.ones((vocab.N_DYNAMIC, n_buckets), dtype=bool),
            statics=rng.random(vocab.N_STATIC),
            label=int(rng.random() < prevalence),
        ))
    # ensure both classes are present
    if n >= 2:
        frames[0].label = 0
        frames[1].label = 1
    return frames


def quantized_frames(n, rng, levels=3, n_buckets=24, duplicates=3, prevalence=0.4):
    """Dense frames on a coarse value grid: a tie-heavy cohort.

    Every cell takes one of `levels` evenly spaced values in [0, 1], so
    many pairs lie at equal distances, and `duplicates` patients copy
    another patient's grid and statics exactly (distance 0 between them).
    The list comes back shuffled, not in patient_id order.
    """
    frames = random_dense_frames(n, rng, n_buckets=n_buckets, prevalence=prevalence)
    for f in frames:
        f.dynamic = np.round(f.dynamic * (levels - 1)) / (levels - 1)
        f.statics = np.round(f.statics * (levels - 1)) / (levels - 1)
    for _ in range(duplicates if n >= 2 else 0):
        src, dst = rng.choice(n, size=2, replace=False)
        frames[dst].dynamic = frames[src].dynamic.copy()
        frames[dst].statics = frames[src].statics.copy()
    return [frames[i] for i in rng.permutation(n)]


def argsort_top_k(d2, k):
    """Reference selection: a stable row-wise argsort, first k columns.

    Equal distances keep ascending column order, +inf entries sort last.
    """
    return np.argsort(d2, axis=1, kind="stable")[:, :k]
