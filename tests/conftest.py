import numpy as np
import pytest

from patsim.framing import stack
from util import random_dense_frames


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_cohort(rng):
    return stack(random_dense_frames(30, rng))
