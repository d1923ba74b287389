"""Per-layer timings of the kernels the commands spend their time in.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

The directory is outside the test suite's `testpaths`, so the suite never
runs it.  Each case times one library call on a fixed input and checks its
result, so a timing is never of a wrong answer.
"""
import numpy as np
import pytest

from harmotop.krein_counting import ball_counting

ENERGIES = np.linspace(2000.0, 200000.0, 5)
# the last count of each sweep, equal to a scipy enumeration of the buckling values
LAST_COUNT = {2: 49498, 3: 6229178}


@pytest.mark.parametrize("d", sorted(LAST_COUNT))
def test_ball_counting_sweep(benchmark, d):
    counts = benchmark(ball_counting, d, ENERGIES)
    assert counts[-1] == LAST_COUNT[d]
