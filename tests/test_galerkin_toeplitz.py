import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmotop import galerkin_toeplitz as gt
from harmotop import grids
from harmotop import radial_toeplitz as rt
from harmotop.galerkin_toeplitz import assemble, spectrum, write_matrix_csv
from harmotop.grids import TruncationSpec, ball_grid, harmonic_node_matrix, weighted_gram
from harmotop.harmonic_basis import angular_basis_matrix, basis_degrees, cumulative_multiplicity
from harmotop.numerics import symmetric_eigen
from harmotop.symbols import Power, Step, TabulatedSymbol, symbol_on_grid
from reference import norm_domination_check

UNIT = lambda p: np.ones(p.shape[0])


def extension_node_matrix(d, max_degree, grid):
    """Rows: harmonic extensions r^k psi_{k,l} (no normalisation) at the grid nodes."""
    psi = angular_basis_matrix(d, max_degree, grid.ang_dirs)
    r_pow = grid.r_nodes[None, :, None] ** basis_degrees(d, max_degree)[:, None, None]
    return (r_pow * psi[:, None, :]).reshape(psi.shape[0], -1)


def test_truncation_spec_invariants():
    with pytest.raises(ValueError):
        TruncationSpec(max_degree=8, n_r=24, n_ang=17)  # angular below 2K+2
    with pytest.raises(ValueError):
        TruncationSpec(max_degree=8, n_r=10, n_ang=20)  # radial below K+8
    spec = TruncationSpec.for_degree(8)
    assert spec.n_ang >= 18 and spec.n_r >= 16
    for d in (2, 3):
        for s in (spec, TruncationSpec(max_degree=8, n_r=17, n_ang=19)):
            assert s.node_count(d) == ball_grid(d, s).weights.size
    with pytest.raises(ValueError):
        spec.node_count(4)


@pytest.mark.parametrize("d", [2, 3])
def test_unit_symbol_assembles_to_identity(d):
    spec = TruncationSpec.for_degree(6)
    A = assemble(UNIT, d, spec)
    assert np.max(np.abs(A - np.eye(A.shape[0]))) < 1e-10


def test_odd_symbol_kills_the_diagonal():
    A = assemble(lambda p: p[:, 0], 2, TruncationSpec.for_degree(8))
    assert np.max(np.abs(np.diag(A))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_radial_symbol_gives_diagonal_blocks(d):
    spec = TruncationSpec.for_degree(12 if d == 2 else 10)
    A = assemble(Step(1.0, 0.5), d, spec)
    off = A - np.diag(np.diag(A))
    assert np.max(np.abs(off)) < 1e-10
    expected = Step(1.0, 0.5).mu(d, basis_degrees(d, spec.max_degree))
    assert np.max(np.abs(np.diag(A) - expected)) < 1e-10


def test_polynomial_symbol_matches_hand_computed_matrix():
    # V = x1^2 in d = 2, K = 2; radial-angular factorisation done by hand:
    # diag (1/4, 1/2, 1/6, 3/8, 3/8), coupling <const, cos 2theta> = sqrt(6)/12.
    A = assemble(lambda p: p[:, 0] ** 2, 2, TruncationSpec.for_degree(2))
    expected = np.diag([0.25, 0.5, 1.0 / 6.0, 0.375, 0.375])
    expected[0, 3] = expected[3, 0] = math.sqrt(6.0) / 12.0
    assert np.max(np.abs(A - expected)) < 1e-12


def test_spectrum_of_zero_and_radial_symbols():
    spec = TruncationSpec.for_degree(10)
    zero = spectrum(lambda p: np.zeros(p.shape[0]), 2, spec)
    assert np.max(np.abs(zero.values)) < 1e-14
    sp_power = spectrum(Power(1.0, 1.0), 2, spec)
    exact = rt.radial_spectrum(Power(1.0, 1.0), 2, 10)
    assert np.sort(sp_power.values) == pytest.approx(
        np.sort(np.repeat(exact.values, exact.multiplicities)), abs=1e-9
    )
    assert sp_power.total_count == cumulative_multiplicity(2, 10)


def test_section_count_above_identity_and_radial():
    from harmotop.radial_toeplitz import Spectrum

    def count_above(s: Spectrum, lam: float) -> int:
        return int(s.multiplicities[s.values > lam].sum())

    m_k = cumulative_multiplicity(2, 6)
    ident = Spectrum(np.array([1.0]), np.array([m_k]))
    assert count_above(ident, 0.5) == m_k
    assert count_above(ident, 1.0) == 0  # strict inequality
    assembled = spectrum(UNIT, 2, TruncationSpec.for_degree(6))
    assert count_above(assembled, 0.5) == m_k
    sp_step = spectrum(Step(1.0, 0.5), 2, TruncationSpec.for_degree(10))
    assert count_above(sp_step, 0.01) == rt.counting(Step(1.0, 0.5), 2, ln_lam=math.log(0.01)) == 5


def test_section_schatten_values():
    spec = TruncationSpec.for_degree(6)
    ident = spectrum(UNIT, 2, spec)
    m_k = cumulative_multiplicity(2, 6)
    assert ident.schatten(1.0) == pytest.approx(m_k, rel=1e-10)
    sp_step = spectrum(Step(1.0, 0.5), 2, TruncationSpec.for_degree(10))
    assert sp_step.schatten(2.0) <= sp_step.schatten(1.0)
    assert sp_step.schatten(2.0) == pytest.approx(rt.radial_spectrum(Step(1.0, 0.5), 2, 10).schatten(2.0), rel=1e-9)


def test_eigenvalue_range_bounded_by_symbol_range():
    V = lambda p: 0.3 + 0.25 * p[:, 0] + 0.1 * p[:, 1] ** 2
    eigs = spectrum(V, 2, TruncationSpec.for_degree(10)).values  # a section's multiplicities are 1
    # range of V on the closed ball: 0.3 +- 0.25 |x1| + ...
    assert eigs.min() >= 0.05 - 1e-9
    assert eigs.max() <= 0.65 + 1e-9


def test_norm_domination_trace_equality_and_gaps():
    spec = TruncationSpec.for_degree(12)
    lhs, rhs, ok = norm_domination_check(Step(1.0, 0.5), 2, spec, 1.0)
    assert ok and lhs == pytest.approx(rhs, rel=1e-8)
    lhs, rhs, ok = norm_domination_check(Power(1.0, 1.0), 2, spec, 2.0)
    assert ok and lhs < rhs
    lhs, rhs, ok = norm_domination_check(Power(1.0, 1.0), 2, spec, 1.5, weak=True)
    assert ok


def test_constant_symbol_norm_is_tight():
    V = lambda p: np.full(p.shape[0], 0.7)
    eigs = spectrum(V, 2, TruncationSpec.for_degree(8)).values
    assert np.max(np.abs(eigs - 0.7)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_weyl_inequalities_random_matrices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    X = rng.normal(size=(n, n))
    Y = rng.normal(size=(n, n))
    A, B = 0.5 * (X + X.T), 0.5 * (Y + Y.T)
    ea, eb, es = symmetric_eigen(A), symmetric_eigen(B), symmetric_eigen(A + B)
    s1, s2 = rng.uniform(0.01, 3.0, 2)
    for sign in (1, -1):
        lhs = int(np.count_nonzero(sign * es > s1 + s2))
        rhs = int(np.count_nonzero(sign * ea > s1)) + int(np.count_nonzero(sign * eb > s2))
        assert lhs <= rhs


def test_matrix_csv_round_trip(tmp_path):
    spec = TruncationSpec.for_degree(4)
    A = assemble(Step(1.0, 0.5), 2, spec)
    path = tmp_path / "section.csv"
    write_matrix_csv(path, A, 2, 4)
    header = path.read_text().splitlines()[0]
    assert header == f"# harmotop matrix d=2 K=4 n={cumulative_multiplicity(2, 4)}"
    assert np.array_equal(A, np.loadtxt(path, delimiter=","))
    with pytest.raises(ValueError):
        write_matrix_csv(path, A[:3, :3], 2, 4)


def test_matrix_csv_takes_rows_and_refuses_a_wrong_count(tmp_path):
    A = np.arange(25.0).reshape(5, 5) / 7.0
    whole, lazy = tmp_path / "whole.csv", tmp_path / "lazy.csv"
    write_matrix_csv(whole, A, 2, 2)
    write_matrix_csv(lazy, (row.tolist() for row in A), 2, 2)  # any iterable of rows
    assert lazy.read_bytes() == whole.read_bytes()
    with pytest.raises(ValueError, match="4 rows do not match M_K = 5"):
        write_matrix_csv(lazy, A[:4], 2, 2)
    with pytest.raises(ValueError, match="row 6 of shape"):
        write_matrix_csv(lazy, np.vstack((A, A[:1])), 2, 2)


def test_matrix_csv_dump_holds_one_row_of_text_at_a_time(tmp_path):
    # d = 3, K = 22, the largest section the benchmark dumps: 529 x 529
    # values, 5.6 MB of text; the whole-matrix list and string took 15 MB
    A = np.random.default_rng(5).standard_normal((529, 529))
    path = tmp_path / "section.csv"
    tracemalloc.start()
    try:
        write_matrix_csv(path, A, 3, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5e6
    assert peak < size / 100


def test_matrix_csv_matches_the_per_cell_rule(tmp_path):
    # d = 2, K = 2: a 5 x 5 dump holding every special value of the format
    A = np.array(
        [
            [-0.0, np.inf, -np.inf, np.nan, 5e-324],
            [1e308, -1e308, 0.1, 1.0 / 3.0, -2.5],
            [0.0, 1.0, -1.0, 2.0**-1074, 123456789.0],
            [1e-300, -5e-324, np.pi, -np.e, 1e16],
            [2.0**53 + 2.0, 0.5, -0.0, 7.0, 1e-5],
        ]
    )
    path = tmp_path / "section.csv"
    write_matrix_csv(path, A, 2, 2)
    rule = "# harmotop matrix d=2 K=2 n=5\n" + "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in A)
    assert path.read_text() == rule


def test_skewed_kernel_is_refused_not_averaged(monkeypatch):
    spec = TruncationSpec.for_degree(4)
    exact = gt.weighted_gram

    def skewed(*args):
        G = exact(*args)
        G[0, 1] += 1e-6 * np.max(np.abs(G))
        return G

    monkeypatch.setattr(gt, "weighted_gram", skewed)
    with pytest.raises(ValueError, match="not symmetric"):
        gt.spectrum(Step(1.0, 0.5), 2, spec)


@pytest.mark.parametrize(
    "d, spec",
    [
        (2, TruncationSpec.for_degree(40)),
        (3, TruncationSpec.for_degree(22)),
        (3, TruncationSpec(7, 23, 19)),
        (2, TruncationSpec(14, 30, 31)),
    ],
    ids=["d2-K40", "d3-K22", "d3-odd-n_ang", "d2-odd-n_ang"],
)
def test_gram_and_section_equal_their_transpose(d, spec):
    grid = ball_grid(d, spec)
    values = _sign_changing(grid.points)
    G = weighted_gram(d, spec.max_degree, grid, grid.weights * values)
    assert np.array_equal(G, G.T)
    A = assemble(TabulatedSymbol(d=d, spec=spec, values=values), d, spec)
    assert np.array_equal(A, A.T)


def test_tabulated_symbol_assembly():
    spec = TruncationSpec.for_degree(6)
    grid = ball_grid(2, spec)
    tab = TabulatedSymbol(d=2, spec=spec, values=0.5 * (1.0 + grid.points[:, 0]))
    direct = assemble(lambda p: 0.5 * (1.0 + p[:, 0]), 2, spec)
    assert np.max(np.abs(assemble(tab, 2, spec) - direct)) < 1e-14
    with pytest.raises(ValueError):
        TabulatedSymbol(d=2, spec=spec, values=np.ones(7))
    other = TruncationSpec.for_degree(7)
    with pytest.raises(ValueError):
        assemble(tab, 2, other)
    TabulatedSymbol(d=3, spec=spec, values=np.ones(ball_grid(3, spec).weights.size))
    with pytest.raises(ValueError):
        TabulatedSymbol(d=3, spec=spec, values=np.ones(grid.weights.size))
    with pytest.raises(ValueError):
        TabulatedSymbol(d=4, spec=spec, values=np.ones(grid.weights.size))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_symbol_values_are_refused(bad):
    spec = TruncationSpec(max_degree=0, n_r=16, n_ang=4)
    values = np.ones(spec.node_count(2))
    values[5] = bad
    with pytest.raises(ValueError, match="1 non-finite values, the first at index 5"):
        TabulatedSymbol(d=2, spec=spec, values=values)
    ragged = lambda p: np.where(np.arange(p.shape[0]) == 5, bad, 1.0)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        spectrum(ragged, 2, spec)


def _sign_changing(p):
    return np.sin(3.0 * p[:, 0] - p[:, 1]) + 0.4 * p[:, -1] ** 2 - 0.2


def _kernel_cases():
    # for_degree grids have even n_ang, so every direction has its antipode
    # on the grid and the kernel folds the pairs; at d = 3 an even K gives an
    # odd number of polar cosines, with a u = 0 row that pairs within itself.
    # An odd n_ang has no pairs, and the kernel runs over every direction.
    for grid_id, d, spec in (
        ("d2", 2, TruncationSpec.for_degree(14)),
        ("d2-nang31", 2, TruncationSpec(max_degree=14, n_r=30, n_ang=31)),
        ("d3", 3, TruncationSpec.for_degree(7)),
        ("d3-K6", 3, TruncationSpec.for_degree(6)),
        ("d3-nang19", 3, TruncationSpec(max_degree=7, n_r=23, n_ang=19)),
    ):
        tab = TabulatedSymbol(d=d, spec=spec, values=_sign_changing(ball_grid(d, spec).points))
        for name, V in (("general", _sign_changing), ("tabulated", tab), ("step", Step(1.3, 0.4))):
            yield pytest.param(V, d, spec, id=f"{grid_id}-{name}")


@pytest.mark.parametrize("V, d, spec", list(_kernel_cases()))
def test_factored_assembly_matches_dense_node_matrix(V, d, spec):
    # Reference: the dense node matrix B and one GEMM over every node,
    # (B * (w V)) @ B.T, with no antipodal fold.  The Step's breakpoint
    # splits the radial rule.
    grid, vals = symbol_on_grid(V, d, spec)
    for fast, nodes in (
        (assemble(V, d, spec), harmonic_node_matrix(d, spec.max_degree, grid)),
        (weighted_gram(d, spec.max_degree, grid, grid.weights * vals), extension_node_matrix(d, spec.max_degree, grid)),
    ):
        ref = (nodes * (grid.weights * vals)) @ nodes.T
        ref = 0.5 * (ref + ref.T)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "spec",
    [TruncationSpec.for_degree(6), TruncationSpec.for_degree(7), TruncationSpec(7, 23, 19)],
    ids=["K6", "K7", "nang19"],
)
def test_antipodes_pair_each_direction_of_the_first_half_with_its_negative(d, spec):
    grid = ball_grid(d, spec)
    n = grid.ang_dirs.shape[0]
    pairs = grid.antipodes.size
    if spec.n_ang % 2:
        assert pairs == 0
        return
    assert 2 * pairs == n
    assert sorted(grid.antipodes.tolist()) == list(range(pairs, n))
    assert np.max(np.abs(grid.ang_dirs[grid.antipodes] + grid.ang_dirs[:pairs])) <= 1e-15


@pytest.mark.parametrize(
    "d, spec, evaluated",
    [
        (3, TruncationSpec.for_degree(22), 600),  # 25 polar cosines x 48 azimuths
        (3, TruncationSpec.for_degree(7), 90),
        (2, TruncationSpec.for_degree(40), 42),
        (3, TruncationSpec(7, 23, 19), 190),  # odd n_ang: no pairs, every direction
        (2, TruncationSpec(14, 30, 31), 31),
    ],
    ids=["d3-K22", "d3-K7", "d2-K40", "d3-nang19", "d2-nang31"],
)
def test_kernel_evaluates_harmonics_on_half_the_directions(d, spec, evaluated, monkeypatch):
    seen = []

    def counting(d_, K, dirs):
        seen.append(dirs.shape[0])
        return angular_basis_matrix(d_, K, dirs)

    monkeypatch.setattr(grids, "angular_basis_matrix", counting)
    grid = ball_grid(d, spec)
    weighted_gram(d, spec.max_degree, grid, grid.weights)
    assert seen == [evaluated]


def test_assembly_peak_memory_stays_below_the_node_matrix():
    # At d=3 K=22 the dense node matrix alone is M_K x nodes = 529 x 45,600
    # doubles (193 MB); the factored kernel keeps every array at M_K x n_ang.
    spec = TruncationSpec.for_degree(22)
    tab = TabulatedSymbol(d=3, spec=spec, values=_sign_changing(ball_grid(3, spec).points))
    tracemalloc.start()
    try:
        assemble(tab, 3, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
