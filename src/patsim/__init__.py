"""Patient-similarity ICU mortality prediction.

Standardizes irregular 48-hour clinical time series into fixed time-frame
grids, classifies patients with a weighted nearest-neighbor model, and
learns per-variable distance weights with a gradient-descent wrapper.
"""

import os

# One BLAS thread per process: cross-validation already runs one fold per
# core in forked processes, and BLAS threads on top of them only contend.
# Set before the first numpy import, which reads it; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import PatsimError
from .knn import FeatureWeights, Model

__all__ = ["FeatureWeights", "Model", "PatsimError", "__version__"]
