import warnings
from contextlib import suppress

import numpy as np
import pytest

from patsim.framing import stack
from util import random_dense_frames

# hypothesis imports its failing-example patch writer (and libcst with it) on the
# first failing example; under the suite's error::DeprecationWarning filter a
# deprecation raised inside that import ends the whole run with INTERNALERROR.
# Imported once here, the failure is reported and the run goes on.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_cohort(rng):
    return stack(random_dense_frames(30, rng))
