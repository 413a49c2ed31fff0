"""Named random sub-streams derived from a single seed.

Every source of randomness (synthetic data, dev/validation split, fold
assignment) pulls its generator from here, so a whole run is reproducible
from one seed while each component can be re-run in isolation.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the sub-stream `name`, deterministic in (seed, name)."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
