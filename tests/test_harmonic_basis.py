import math

import numpy as np
import pytest

from harmotop.grids import TruncationSpec, ball_grid, harmonic_node_matrix
from harmotop.harmonic_basis import (
    _normalized_alp_table,
    angular_basis_matrix,
    basis_degrees,
    cumulative_multiplicity,
    multiplicity,
    sphere_surface_area,
)
from reference import multiplicity_asymptotic_check, zonal_sum


def spherical_harmonic(d, k, ell, point):
    """Value of the real orthonormal spherical harmonic psi_{k,ell} (1 <= ell <= m_k) at a unit vector."""
    mat = angular_basis_matrix(d, k, np.asarray(point, dtype=float)[None, :])
    return float(mat[cumulative_multiplicity(d, k - 1) + ell - 1, 0])


def basis_value(d, k, ell, x):
    """Orthonormal harmonic basis element sqrt(2k+d) |x|^k psi_{k,ell}(x/|x|) at a point x of the ball."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    scale = math.sqrt(2.0 * k + d)
    if r == 0.0:
        return scale / math.sqrt(sphere_surface_area(d)) if k == 0 else 0.0
    return scale * r**k * spherical_harmonic(d, k, ell, x / r)


def test_multiplicity_values():
    assert multiplicity(2, 0) == 1
    assert multiplicity(2, 5) == 2
    assert multiplicity(3, 2) == 5  # C(4,2) - C(2,2)
    assert multiplicity(4, 1) == 4  # C(4,3) - C(2,3)


def test_cumulative_multiplicity_values():
    assert cumulative_multiplicity(2, 3) == 7  # 1+2+2+2
    assert cumulative_multiplicity(3, 2) == 9  # 1+3+5
    for d in range(2, 7):
        assert cumulative_multiplicity(d, -1) == 0


def _binom(m: int, n: int) -> int:
    # binom(m, n) = 0 whenever m < n (including negative m)
    return math.comb(m, n) if 0 <= n <= m else 0


def binomial_multiplicity(d: int, k: int) -> int:
    """m_k = C(d+k-1, d-1) - C(d+k-3, d-1): degree-k homogeneous polynomials less |x|^2 times degree k-2."""
    return _binom(d + k - 1, d - 1) - _binom(d + k - 3, d - 1)


def binomial_cumulative(d: int, k: int) -> int:
    """M_k = C(d+k-1, d-1) + C(d+k-2, d-1), the sum of the m_j for j <= k; M_(-1) = 0."""
    return _binom(d + k - 1, d - 1) + _binom(d + k - 2, d - 1)


_COUNT_DEGREES = [-1, 0, 1, 10, 10**6, 10**15]


@pytest.mark.parametrize("d", [2, 3, 5, 21, 25])
def test_counts_equal_the_binomial_forms_for_ints_and_arrays(d):
    # an int gives a Python int; an array is int64 while (d-1)! M_k < 2^63 at
    # its largest degree and holds Python ints beyond: d = 2 stays int64 to
    # 1e15, d = 3 switches between 1e6 and 1e15 and d = 5 between 10 and 1e6,
    # d = 21 holds 20! M_0 < 2^63 but not 20! M_1, and 24! alone leaves int64
    for k in _COUNT_DEGREES:
        n = cumulative_multiplicity(d, k)
        assert type(n) is int and n == binomial_cumulative(d, k)
        if k >= 0:
            m = multiplicity(d, k)
            assert type(m) is int and m == binomial_multiplicity(d, k)
        else:
            with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
                multiplicity(d, k)
    sides = set()
    for top in range(len(_COUNT_DEGREES)):
        ks = np.array(_COUNT_DEGREES[: top + 1], dtype=np.int64)
        fits = math.factorial(d - 1) * max(1, binomial_cumulative(d, int(ks.max()))) < 2**63
        sides.add(fits)
        cum = cumulative_multiplicity(d, ks)
        assert cum.dtype == (np.int64 if fits else object)
        assert cum.tolist() == [binomial_cumulative(d, k) for k in ks.tolist()]
        if top:
            m = multiplicity(d, ks[1:])
            assert m.dtype == cum.dtype
            assert m.tolist() == [binomial_multiplicity(d, k) for k in ks[1:].tolist()]
        # one degree at a time, as a 0-d and a 1-element array
        assert cumulative_multiplicity(d, ks[top : top + 1]).tolist() == [binomial_cumulative(d, int(ks[top]))]
        assert int(cumulative_multiplicity(d, ks[top])) == binomial_cumulative(d, int(ks[top]))
    assert sides == ({True} if d == 2 else {False} if d == 25 else {True, False})


def test_counts_refuse_bad_degrees_and_dimensions():
    with pytest.raises(ValueError, match="cumulative multiplicity needs k >= -1, got -2"):
        cumulative_multiplicity(3, np.array([4, -2, 0]))
    with pytest.raises(ValueError, match="cumulative multiplicity needs k >= -1, got -2"):
        cumulative_multiplicity(3, -2)
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        multiplicity(3, np.array([0, -1]))
    with pytest.raises(ValueError, match="space dimension must be >= 2, got 1"):
        multiplicity(1, np.array([0]))
    with pytest.raises(ValueError, match="space dimension must be >= 2, got 1"):
        cumulative_multiplicity(1, 0)
    with pytest.raises(TypeError):
        multiplicity(3, 2.0)  # a degree is an integer
    assert cumulative_multiplicity(4, np.array([], dtype=np.int64)).tolist() == []
    assert type(multiplicity(3, np.int64(4))) is int  # an integer scalar of numpy counts as an int


@pytest.mark.parametrize("d", range(2, 7))
def test_cumulative_equals_running_sum(d):
    running = 0
    for k in range(201):
        running += multiplicity(d, k)
        assert cumulative_multiplicity(d, k) == running


def test_multiplicity_asymptotic_deviation():
    # d=2: M_k = 2k+1 exactly, so the scaled deviation is identically 1/2.
    assert multiplicity_asymptotic_check(2, 10) == pytest.approx(0.5, rel=1e-12)
    # d=3: M_k = (k+1)^2 gives deviation 2 + 2/k_max, bounded just above 2.
    assert multiplicity_asymptotic_check(3, 10_000) == pytest.approx(2.0, abs=1e-3)


def test_sphere_surface_area():
    assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_surface_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


def test_spherical_harmonic_values():
    assert spherical_harmonic(2, 0, 1, [1.0, 0.0]) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
    assert spherical_harmonic(2, 1, 1, [1.0, 0.0]) == pytest.approx(1.0 / math.sqrt(math.pi))
    assert spherical_harmonic(3, 0, 1, [0.0, 0.0, 1.0]) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi))


@pytest.mark.parametrize("d", [2, 3])
def test_ball_basis_gram_is_identity(d):
    grid = ball_grid(d, TruncationSpec.for_degree(6))
    basis = harmonic_node_matrix(d, 6, grid)
    gram = (basis * grid.weights) @ basis.T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9


@pytest.mark.parametrize("d,k", [(2, 0), (2, 1), (2, 9), (3, 1), (3, 7), (4, 3), (6, 11)])
def test_zonal_sum_at_one_gives_multiplicity(d, k):
    value = zonal_sum(d, k, 1.0) * sphere_surface_area(d)
    assert value == pytest.approx(multiplicity(d, k), rel=1e-12)


def test_zonal_sum_special_values():
    assert zonal_sum(2, 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    t = 0.37
    assert zonal_sum(3, 1, t) == pytest.approx(3.0 * t / (4.0 * math.pi), rel=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_zonal_sum_matches_direct_addition(d):
    rng = np.random.default_rng(5)
    xi = rng.normal(size=d)
    xi /= np.linalg.norm(xi)
    eta = rng.normal(size=d)
    eta /= np.linalg.norm(eta)
    for k in (0, 1, 4):
        direct = sum(
            spherical_harmonic(d, k, ell, xi) * spherical_harmonic(d, k, ell, eta)
            for ell in range(1, multiplicity(d, k) + 1)
        )
        assert direct == pytest.approx(zonal_sum(d, k, float(xi @ eta)), abs=1e-12)


def test_basis_value_examples():
    assert basis_value(2, 0, 1, np.array([0.3, -0.2])) == pytest.approx(1.0 / math.sqrt(math.pi))
    assert basis_value(2, 1, 1, np.zeros(2)) == 0.0
    assert basis_value(3, 2, 3, np.zeros(3)) == 0.0


def test_basis_value_homogeneity_along_rays():
    xi = np.array([0.6, 0.8])
    for k, ell in [(1, 2), (3, 1), (5, 2)]:
        at_unit_scale = basis_value(2, k, ell, 0.9 * xi)
        at_half = basis_value(2, k, ell, 0.45 * xi)
        assert at_half == pytest.approx(0.5**k * at_unit_scale, rel=1e-12, abs=1e-15)


def test_basis_value_unit_norm_by_quadrature():
    # (d, k, ell) = (2, 3, 2)
    grid = ball_grid(2, TruncationSpec.for_degree(8))
    vals = np.array([basis_value(2, 3, 2, p) for p in grid.points])
    assert float(np.dot(grid.weights, vals**2)) == pytest.approx(1.0, abs=1e-10)


def test_basis_degrees_order():
    assert basis_degrees(2, 2).tolist() == [0, 1, 1, 2, 2]
    assert basis_degrees(3, 2).tolist() == [0, 1, 1, 1, 2, 2, 2, 2, 2]
    assert len(basis_degrees(3, 5)) == cumulative_multiplicity(3, 5)


def _alp_table_by_order(K, u):
    # the order-by-order loop the per-degree table replaced, kept as its reference
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    N = np.zeros((K + 1, K + 1, u.size))
    N[0, 0] = 1.0
    if K >= 1:
        N[1, 1] = math.sqrt(3.0) * s
        N[1, 0] = math.sqrt(3.0) * u
    for m in range(2, K + 1):
        N[m, m] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * N[m - 1, m - 1]
    for m in range(1, K):
        N[m + 1, m] = math.sqrt(2.0 * m + 3.0) * u * N[m, m]
    for m in range(0, K + 1):
        for k in range(m + 2, K + 1):
            a = math.sqrt((2.0 * k - 1.0) * (2.0 * k + 1.0) / ((k - m) * (k + m)))
            b = math.sqrt(
                (2.0 * k + 1.0) * (k + m - 1.0) * (k - m - 1.0) / ((2.0 * k - 3.0) * (k - m) * (k + m))
            )
            N[k, m] = a * u * N[k - 1, m] - b * N[k - 2, m]
    return N


@pytest.mark.parametrize("K", [0, 1, 2, 7, 22])
def test_legendre_table_per_degree_equals_the_loop_over_orders(K):
    u = np.linspace(-1.0, 1.0, 37)
    assert np.array_equal(_normalized_alp_table(K, u), _alp_table_by_order(K, u))


@pytest.mark.parametrize("K", [3, 12, 22])
def test_d3_harmonics_equal_the_three_index_gather(K):
    # rows spread by two takes from distinct polar cosines and azimuths equal
    # the gather of N[k, |m|] and the trig row at every direction
    grid = ball_grid(3, TruncationSpec.for_degree(K))
    dirs = grid.ang_dirs
    u, polar = np.unique(dirs[:, 2], return_inverse=True)
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    N = _alp_table_by_order(K, u)
    angles = np.arange(1, K + 1)[:, None] * phi
    trig = np.vstack([np.ones_like(phi), np.cos(angles), np.sin(angles)])
    k = np.repeat(np.arange(K + 1), 2 * np.arange(K + 1) + 1)
    m = np.arange(k.size) - k * (k + 1)
    ref = N[k[:, None], np.abs(m)[:, None], polar]
    ref *= trig[np.where(m < 0, K - m, m)]
    ref *= 1.0 / math.sqrt(4.0 * math.pi)
    assert np.array_equal(angular_basis_matrix(3, K, dirs), ref)


def _d2_basis_by_degree(K, dirs):
    # the per-degree rows the one trig table replaced: 1/sqrt(2 pi), then
    # cos(k theta) and sin(k theta) times 1/sqrt(pi) for k = 1..K
    theta = np.arctan2(dirs[:, 1], dirs[:, 0])
    rows = [np.full(dirs.shape[0], 1.0 / math.sqrt(2.0 * math.pi))]
    for k in range(1, K + 1):
        rows += [np.cos(k * theta) * (1.0 / math.sqrt(math.pi)), np.sin(k * theta) * (1.0 / math.sqrt(math.pi))]
    return np.vstack(rows)


def _d2_directions(K, case):
    if case == "for_degree":  # n_ang = 2K + 4, as the benchmark's files and berezin's default
        return ball_grid(2, TruncationSpec.for_degree(K)).ang_dirs
    if case == "odd":  # n_ang = 2K + 3: no direction has its antipode
        return ball_grid(2, TruncationSpec(max_degree=K, n_r=K + 8, n_ang=2 * K + 3)).ang_dirs
    if case == "half":  # the directions weighted_gram evaluates, n_ang = 4K + 8
        grid = ball_grid(2, TruncationSpec(max_degree=K, n_r=K + 8, n_ang=4 * K + 8))
        return grid.ang_dirs[: grid.ang_dirs.shape[0] - grid.antipodes.size]
    x = np.random.default_rng(K).normal(size=(9, 2))  # unit vectors, as berezin passes them
    return x / np.linalg.norm(x, axis=1)[:, None]


@pytest.mark.parametrize("case", ["for_degree", "odd", "half", "random"])
@pytest.mark.parametrize("K", [0, 1, 7, 40, 120])
def test_d2_harmonics_equal_the_per_degree_rows_bit_for_bit(K, case):
    dirs = _d2_directions(K, case)
    psi = angular_basis_matrix(2, K, dirs)
    ref = _d2_basis_by_degree(K, dirs)
    assert psi.shape == ref.shape == (2 * K + 1, dirs.shape[0])
    assert psi.tobytes() == ref.tobytes()
