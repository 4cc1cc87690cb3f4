import os

# numpy's BLAS pool reads these when numpy is first imported, which is
# below; one thread, as in CI, keeps the per-grid eigh from oversubscribing
# a shared machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import tracemalloc

import hypothesis
import numpy as np
import pytest

from axns.grid import GridSpec, make_grid, zeros_field
from axns.kinematics import State

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("suite")


def make_state(grid, u1=None, om1=None, psi1=None, t=0.0):
    """A State on grid with zero fields where none is given."""
    z = zeros_field(grid)
    return State(
        u1=u1 if u1 is not None else z,
        omega1=om1 if om1 is not None else z,
        psi1=psi1 if psi1 is not None else z,
        t=t,
    )


@pytest.fixture(scope="session")
def grid16():
    return make_grid(GridSpec(R=1.0, Lz=1.0, nr=16, nz=16))


@pytest.fixture(scope="session")
def grid32():
    return make_grid(GridSpec(R=1.0, Lz=1.0, nr=32, nz=32))


@pytest.fixture(scope="session")
def grid64():
    return make_grid(GridSpec(R=1.0, Lz=1.0, nr=64, nz=64))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def traced_peak():
    """Peak bytes that tracemalloc sees allocated while fn() runs."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
