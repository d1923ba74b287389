"""Per-layer timings of the kernels the commands spend their time in.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

The directory is outside the test suite's `testpaths`, so the suite never
runs it.  Each case times one library call on a fixed input and checks its
result, so a timing is never of a wrong answer.
"""
import numpy as np
import pytest

from harmotop.galerkin_toeplitz import assemble, section_spectrum
from harmotop.grids import TruncationSpec
from harmotop.krein_counting import ball_counting
from harmotop.symbols import TabulatedSymbol

ENERGIES = np.linspace(2000.0, 200000.0, 5)
# the last count of each sweep, equal to a scipy enumeration of the buckling values
LAST_COUNT = {2: 49498, 3: 6229178}


@pytest.mark.parametrize("d", sorted(LAST_COUNT))
def test_ball_counting_sweep(benchmark, d):
    counts = benchmark(ball_counting, d, ENERGIES)
    assert counts[-1] == LAST_COUNT[d]


# seeded values uniform in [-1, 2) on the for_degree grid (seed K), and the
# trace of their section; eigvalsh keeps it to rounding
SECTION_TRACE = {(2, 120): 120.05932861388348, (3, 22): 265.36882336664166}


def _tabulated(d, K):
    spec = TruncationSpec.for_degree(K)
    values = np.random.default_rng(K).uniform(-1.0, 2.0, spec.node_count(d))
    return TabulatedSymbol(d=d, spec=spec, values=values), spec


@pytest.mark.parametrize("d, K", sorted(SECTION_TRACE))
def test_assemble(benchmark, d, K):
    tab, spec = _tabulated(d, K)
    A = benchmark(assemble, tab, d, spec)
    assert np.array_equal(A, A.T)
    assert np.trace(A) == pytest.approx(SECTION_TRACE[d, K], rel=1e-12)


def test_section_spectrum(benchmark):
    tab, spec = _tabulated(3, 22)
    A = assemble(tab, 3, spec)
    assert np.array_equal(A, A.T)
    eigs = benchmark(section_spectrum, A).values
    assert eigs.sum() == pytest.approx(SECTION_TRACE[3, 22], rel=1e-12)
