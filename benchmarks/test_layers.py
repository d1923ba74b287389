"""Per-layer timings of the kernels the commands spend their time in.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

The directory is outside the test suite's `testpaths`, so the suite never
runs it.  Each case times one library call, or one in-process command for
the routes that live in `cli` (the `krein` sweep, the radial dump), on a
fixed input and checks its result, so a timing is never of a wrong
answer.
"""
import contextlib
import hashlib
import io
import math

import mpmath
import numpy as np
import pytest

from harmotop import radial_toeplitz as rt
from harmotop.cli import main
from harmotop.galerkin_toeplitz import assemble, section_spectrum
from harmotop.grids import TruncationSpec, ball_grid
from harmotop.harmonic_basis import angular_basis_matrix
from harmotop.krein_counting import ball_counting
from harmotop.symbols import Power, Step, SymbolSum, TabulatedSymbol

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


# The slow and open routes: a sum's count (the degree-table route), the strong
# series at p = 3, the `krein` remainder sweep and the radial matrix dump.


def _count_50_digits(mu, ln_lam: float) -> int:
    """#{eigenvalues > lambda} at d = 2 for a decreasing mu_k, by bisection over k at 50 digits."""
    with mpmath.workdps(50):
        lam = mpmath.exp(mpmath.mpf(ln_lam))
        lo, hi = -1, 1  # mu_lo > lam >= mu_hi
        while mu(hi) > lam:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mu(mid) > lam else (lo, mid)
    return max(2 * hi - 1, 0)  # m_0 = 1 and m_k = 2 at d = 2


def test_counting_sum_table_route(benchmark):
    # `counting --d 2 --symbol "sum:[power:a=1,gamma=1; step:b=0.5,c=0.3]" --lnlambda -14:-4:50`
    grid = np.linspace(-14.0, -4.0, 50).tolist()
    counts = benchmark(rt.counting, SymbolSum([Power(1.0, 1.0), Step(0.5, 0.3)]), 2, ln_lam=grid)
    mu = lambda k: 1 / mpmath.mpf(2 * k + 3) + mpmath.mpf(0.5) * mpmath.mpf(0.3) ** (2 * k + 2)
    assert counts == [_count_50_digits(mu, t) for t in grid]


def test_schatten_radial_power_p3(benchmark):
    # d = 2: mu_k = 1/(2k+3) with m_0 = 1, m_k = 2, so the p = 3 sum is (7/4) zeta(3) - 2 - 1/27
    value = benchmark(rt.schatten_radial, Power(1.0, 1.0), 2, 3.0)
    with mpmath.workdps(50):
        exact = float(mpmath.cbrt(mpmath.mpf(7) / 4 * mpmath.zeta(3) - 2 - mpmath.mpf(1) / 27))
    assert exact == 0.40526892364800356
    assert abs(value - exact) <= 4e-12 * exact


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _column(csv: str, name: str) -> list[str]:
    lines = csv.splitlines()
    names = next(line for line in lines if line.startswith("# columns: ")).removeprefix("# columns: ").split(",")
    return [line.split(",")[names.index(name)] for line in lines if not line.startswith("#")]


def test_krein_remainder_sweep(benchmark):
    argv = ["--d", "2", "--symbol", "power:a=1,gamma=1", "--lnlambda", "-8:-4:30"]
    out = benchmark(_cli, "krein", *argv, "--lam1", "1e9")
    assert _column(out, "lower") == _column(_cli("counting", *argv), "n")


# the SHA-256 of the d = 3, K = 40 dump: 1,681 rows, diag(mu_k) with mu_k on its m_k rows
RADIAL_DUMP_SHA256 = "f8ef02f8633a65532d5919853e6e5c0a8a3b95a260a9fe0dcba805074f3fdbaf"


def test_radial_matrix_dump(benchmark, tmp_path):
    path = tmp_path / "radial.csv"
    benchmark(_cli, "spectrum", "--d", "3", "--symbol", "power:a=1,gamma=1", "--K", "40", "--matrix-output", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RADIAL_DUMP_SHA256
