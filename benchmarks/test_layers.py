"""Per-layer timings of the kernels the commands spend their time in.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

The directory is outside the test suite's `testpaths`, so the suite never
runs it.  Each case times one library call on a fixed input and checks its
result, so a timing is never of a wrong answer.
"""
import math

import numpy as np
import pytest

from harmotop import radial_toeplitz as rt
from harmotop.galerkin_toeplitz import assemble, section_spectrum
from harmotop.grids import TruncationSpec, ball_grid
from harmotop.harmonic_basis import angular_basis_matrix
from harmotop.krein_counting import ball_counting
from harmotop.symbols import Power, Step, TabulatedSymbol

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


# a `radial-closed` counting op: Power on a 200-point ln lambda grid; the
# count at ln lambda = -14 and the sum of the 200 counts
LN_GRID = np.linspace(-14.0, -1.0, 200).tolist()
POWER_COUNTS = {2: (1547, 47499), 3: (599076, 9425056)}


@pytest.mark.parametrize("d", sorted(POWER_COUNTS))
def test_counting_power_grid(benchmark, d):
    counts = benchmark(rt.counting, Power(1.0, 2.0), d, ln_lam=LN_GRID)
    assert (counts[0], sum(counts)) == POWER_COUNTS[d]


def test_power_log_mu(benchmark):
    sign, logs = benchmark(Power(1.0, 2.0).log_mu, 3, np.arange(400))
    assert sign == 1 and logs.size == 400
    assert logs[-1] == pytest.approx(-12.682316141253331, rel=1e-14)
    assert math.fsum(logs.tolist()) == pytest.approx(-4292.961423273717, rel=1e-14)


# the exact cases schatten-radial-weak and schatten-radial
@pytest.mark.parametrize(
    "symbol, d, p, weak, value",
    [(Power(1.0, 3.0), 3, 2.0, True, 0.049999999999999982), (Step(1.0, 0.5), 2, 1.5, False, 0.29559901889789758)],
    ids=["weak-power", "strong-step"],
)
def test_schatten_radial(benchmark, symbol, d, p, weak, value):
    assert benchmark(rt.schatten_radial, symbol, d, p, weak=weak) == value


def _grid_and_basis(d, K):
    grid = ball_grid(d, TruncationSpec.for_degree(K))
    return grid, angular_basis_matrix(d, K, grid.ang_dirs)


def test_ball_grid_and_angular_basis(benchmark):
    grid, psi = benchmark(_grid_and_basis, 3, 22)
    assert psi.shape == (529, 1200)
    # orthonormal under the angular weights, which the first shell's weights are up to a factor
    w = grid.weights[:1200] * (4.0 * math.pi / grid.weights[:1200].sum())
    assert np.max(np.abs((psi * w) @ psi.T - np.eye(529))) < 1e-13
    assert grid.weights.sum() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
