import os
import sys

# One BLAS thread: on a shared host a BLAS-bound test otherwise swings
# tenfold with the threads OpenBLAS starts.  OpenBLAS reads these once,
# when numpy loads it, so they are set before the import below.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
NUMPY_LOADED_FIRST = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from ksns import Grid


@pytest.fixture(scope="session")
def unit16():
    return Grid(1.0, 1.0, 16, 16)


@pytest.fixture(scope="session")
def unit32():
    return Grid(1.0, 1.0, 32, 32)


@pytest.fixture(scope="session")
def unit64():
    return Grid(1.0, 1.0, 64, 64)


@pytest.fixture(scope="session")
def rect2x1():
    # same cell size h = 1/32 in both directions
    return Grid(2.0, 1.0, 64, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240915)
