import os

# One BLAS thread per process, unless the caller chose otherwise: faster for
# these small matrices, and the grid runners then train one process per CPU.
# OpenBLAS reads this once, when NumPy loads it, so it must come first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)
