import math
import tracemalloc

import numpy as np
import pytest

from harmotop import galerkin_toeplitz as gt
from harmotop.grids import TruncationSpec, ball_grid
from harmotop.harmonic_basis import angular_basis_matrix, basis_degrees, multiplicity, sphere_surface_area
from harmotop.kernel_berezin import berezin_transform, density_radial
from harmotop.symbols import Power, Sampled, Step, TabulatedSymbol
from reference import QuadratureDivergence, density_integral, zonal_sum

CONST_ONE = Sampled([0.0, 0.5], [1.0, 1.0])


def suggested_max_degree(max_radius: float) -> int:
    """Truncation degree making the kernel tail negligible at radius max_radius in [0, 1)."""
    return math.ceil(40.0 / (1.0 - max_radius))


def reproducing_kernel(d, x, y, max_degree):
    """Truncated kernel sum_{k<=K} (2k+d) |x|^k |y|^k Z_k(x^.y^) at one pair of points."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    t = float(np.dot(x, y) / (rx * ry)) if rx > 0.0 and ry > 0.0 else 1.0
    return sum((2 * k + d) * (rx * ry) ** k * zonal_sum(d, k, t) for k in range(max_degree + 1))


def test_kernel_at_origin():
    assert reproducing_kernel(2, [0.0, 0.0], [0.0, 0.0], 8) == pytest.approx(1.0 / math.pi)
    assert density_radial(3, 0.0, 8) == pytest.approx(3.0 / (4.0 * math.pi))


def test_kernel_symmetry_and_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for _ in range(12):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        kxy = reproducing_kernel(2, x, y, 14)
        assert kxy == reproducing_kernel(2, y, x, 14)
        assert abs(kxy) <= math.sqrt(density_radial(2, np.linalg.norm(x), 14) * density_radial(2, np.linalg.norm(y), 14)) + 1e-14


def test_density_monotone_in_radius():
    r = np.linspace(0.0, 0.95, 30)
    for d in (2, 3):
        rho = density_radial(d, r, 30)
        assert np.all(np.diff(rho) > 0.0)
    with pytest.raises(ValueError):
        density_radial(2, 1.0, 10)


def test_density_boundary_rate_bracket():
    # rho_K(x) (1-|x|)^d stays inside a fixed bracket once K tracks 1/(1-|x|).
    for d in (2, 3):
        values = []
        for r in (0.5, 0.9, 0.99, 0.999):
            k = suggested_max_degree(r)
            values.append(float(density_radial(d, np.array([r]), k)[0]) * (1.0 - r) ** d)
        assert max(values) / min(values) <= 10.0


def test_suggested_max_degree():
    assert suggested_max_degree(0.0) == 40
    assert suggested_max_degree(0.999) == 40_000


def test_density_integral_constants():
    assert density_integral(CONST_ONE, 2, 0) == pytest.approx(1.0, rel=1e-12)
    assert density_integral(CONST_ONE, 2, 3) == pytest.approx(7.0, rel=1e-12)
    assert density_integral(Step(1.0, 0.5), 2, 40) == pytest.approx(5.0 / 12.0, abs=1e-6)


def test_density_integral_general_matches_radial():
    wrapped = lambda p: (1.0 - np.linalg.norm(p, axis=1)) ** 2
    direct = density_integral(Power(1.0, 2.0), 2, 10)
    tensor = density_integral(wrapped, 2, 10)
    assert tensor == pytest.approx(direct, rel=1e-10)


def test_density_integral_divergence_flag():
    # A discontinuous callable defeats the smooth tensor rule; consecutive
    # refinements disagree and the integral must refuse.
    rough = lambda p: (np.linalg.norm(p, axis=1) < 0.5).astype(float)
    with pytest.raises(QuadratureDivergence):
        density_integral(rough, 2, 25, spec=TruncationSpec(25, 33, 52))


def test_density_integral_of_tabulated_symbol_uses_its_own_grid():
    # V = (1 + x1)/2 integrates against rho_20 to M_20 / 2 = 20.5: the odd
    # part vanishes and the constant part gives the trace of the projection.
    # The file's grid is the only one, on a non-default grid too.
    for spec in (TruncationSpec.for_degree(20), TruncationSpec(20, 31, 43)):
        tab = TabulatedSymbol(d=2, spec=spec, values=0.5 * (1.0 + ball_grid(2, spec).points[:, 0]))
        assert density_integral(tab, 2, 20) == pytest.approx(20.5, rel=1e-12)
    with pytest.raises(ValueError, match="different grid"):
        density_integral(tab, 2, 20, spec=TruncationSpec.for_degree(20))


def test_berezin_of_unit_symbol_is_one():
    for d in (2, 3):
        for x in ([0.0] * d, [0.3] + [0.0] * (d - 1), [0.0] * (d - 1) + [0.85]):
            assert berezin_transform(CONST_ONE, d, x, 10) == pytest.approx(1.0, rel=1e-12)


def test_berezin_nonnegative_and_decaying_for_step():
    vals = [berezin_transform(Step(1.0, 0.5), 2, [r, 0.0], 60) for r in (0.5, 0.9, 0.99)]
    assert all(v >= 0.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_berezin_general_path_matches_radial_path():
    wrapped = lambda p: 1.0 - np.linalg.norm(p, axis=1)
    for x in ([0.0, 0.0], [0.4, 0.2]):
        fast = berezin_transform(Power(1.0, 1.0), 2, x, 10)
        slow = berezin_transform(wrapped, 2, x, 10, spec=TruncationSpec.for_degree(12))
        assert slow == pytest.approx(fast, rel=1e-8)


def test_covariant_contravariant_sandwich():
    V = lambda p: 0.5 * (1.0 + p[:, 0])
    spec = TruncationSpec.for_degree(12)
    top = float(np.max(gt.spectrum(V, 2, spec).values))
    sampled = max(
        berezin_transform(V, 2, [x, 0.0], 12) for x in (-0.9, -0.5, 0.0, 0.5, 0.9, 0.95)
    )
    assert top >= sampled - 1e-6
    assert top <= 1.0 + 1e-6  # sup V = 1


def test_trace_identity_structural():
    V = lambda p: (1.0 - (p**2).sum(axis=1)) * (1.0 + 0.5 * p[:, 0]) + 0.3
    spec = TruncationSpec.for_degree(12)
    section = gt.spectrum(V, 2, spec)
    trace = float(np.cumsum(section.multiplicities * section.values)[-1])
    integral = density_integral(V, 2, 12, spec=spec)
    assert trace == pytest.approx(integral, rel=1e-8)


def _bumpy(p):
    return 1.0 + 0.5 * np.sin(3.0 * p[:, 0]) * np.cos(2.0 * p[:, 1]) + 0.3 * p[:, -1] ** 2


def _pole_pairs(d, rho, t):
    """Points x = sqrt(rho) e_d and y_j = sqrt(rho) eta_j with eta_j . e_d = t_j (row 0 is x)."""
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    eta = np.stack([s, t], axis=1) if d == 2 else np.stack([s, np.zeros_like(t), t], axis=1)
    pole = np.zeros((1, d))
    pole[0, -1] = 1.0
    return np.sqrt(rho), np.vstack([pole, eta])


@pytest.mark.parametrize("d, K", [(2, 200), (3, 40)])
def test_kernel_sum_matches_zonal_sum(d, K):
    # R_K(x, y) = phi(x)^T phi(y), with phi as the section route forms it, is
    # the zonal kernel sum at the degrees the Berezin transform runs at.
    t = np.concatenate([np.linspace(-1.0, 1.0, 41), np.cos([1e-3, 1e-2, 3.1])])
    deg = basis_degrees(d, K)
    for rho in (0.0, 0.3, 0.7, 0.95):
        ref = sum((2 * k + d) * rho**k * zonal_sum(d, k, t) for k in range(K + 1))
        scale = sum((2 * k + d) * rho**k * multiplicity(d, k) for k in range(K + 1)) / sphere_surface_area(d)
        r, dirs = _pole_pairs(d, rho, t)
        phi = angular_basis_matrix(d, K, dirs) * (np.sqrt(2.0 * deg + d) * r**deg)[:, None]
        got = phi[:, 0] @ phi[:, 1:]
        assert np.max(np.abs(got - ref)) <= 2e-13 * scale


@pytest.mark.parametrize("d, K", [(2, 30), (3, 10)])
def test_berezin_general_symbol_matches_the_zonal_sum_kernel(d, K):
    spec = TruncationSpec.for_degree(K)
    grid = ball_grid(d, spec)
    vals = _bumpy(grid.points)
    for r in (0.0, 0.45, 0.9):
        x = np.zeros(d)
        x[0], x[-1] = 0.8 * r, 0.6 * r
        t = grid.points @ x / (r * grid.radii) if r > 0.0 else np.ones(grid.radii.size)
        kernel = sum((2 * k + d) * (r * grid.radii) ** k * zonal_sum(d, k, np.clip(t, -1.0, 1.0)) for k in range(K + 1))
        ref = np.dot(grid.weights, kernel**2 * vals) / density_radial(d, np.linalg.norm(x), K)
        assert berezin_transform(_bumpy, d, x, K, spec=spec) == pytest.approx(ref, rel=1e-13)


def test_berezin_of_a_point_stack_matches_single_points():
    stack = np.array([[0.0, 0.0], [0.3, -0.2], [0.0, 0.85]])
    for V in (Step(1.0, 0.5), _bumpy):
        values = berezin_transform(V, 2, stack, 16)
        assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert values.tolist() == [berezin_transform(V, 2, x, 16) for x in stack]
    assert berezin_transform(Step(1.0, 0.5), 2, np.zeros((0, 2)), 16).shape == (0,)
    with pytest.raises(ValueError, match="inside the unit ball"):
        berezin_transform(_bumpy, 2, np.array([[0.1, 0.0], [1.0, 0.0]]), 16)


def test_berezin_general_symbol_memory_is_linear_in_the_nodes():
    # d = 2, K = 200: 87,264 nodes.  A (K+1) x nodes zonal table alone would
    # be 140 MB; the section route holds the symbol's node values, the
    # assembly's moment and angular arrays and the 401 x 401 section.
    tracemalloc.start()
    try:
        berezin_transform(_bumpy, 2, [0.5, 0.3], 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


def test_berezin_refuses_a_degree_above_its_grid():
    # The section of a degree-10 grid holds no kernel of degree 12.
    with pytest.raises(ValueError, match="Berezin degree 12 exceeds the grid's degree 10"):
        berezin_transform(_bumpy, 2, [0.3, 0.0], 12, spec=TruncationSpec.for_degree(10))
