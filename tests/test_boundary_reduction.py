import math

import numpy as np
import pytest

from harmotop import radial_toeplitz as rt
from harmotop.boundary_reduction import (
    dtn_eigenvalue,
    extension_gram_eigenvalue,
    inverse_power_weyl_fit,
    principal_symbol_value,
    symbol_order_check,
)
from harmotop.galerkin_toeplitz import assemble
from harmotop.grids import TruncationSpec, ball_grid, harmonic_node_matrix, weighted_gram
from harmotop.harmonic_basis import basis_degrees
from harmotop.numerics import gauss_legendre
from harmotop.symbols import Power, Step, symbol_on_grid


def test_gram_eigenvalue_against_quadrature_oracle():
    for d, k in [(2, 0), (3, 1), (2, 7), (3, 12)]:
        rule = gauss_legendre(k + d + 4, 0.0, 1.0)
        oracle = float(np.dot(rule.weights, rule.nodes ** (2 * k) * rule.nodes ** (d - 1)))
        assert extension_gram_eigenvalue(d, k) == pytest.approx(oracle, rel=1e-13)
    assert extension_gram_eigenvalue(2, 0) == pytest.approx(0.5)
    assert extension_gram_eigenvalue(3, 1) == pytest.approx(0.2)


def test_gram_eigenvalues_positive_and_vanishing():
    for d in (2, 3):
        vals = [extension_gram_eigenvalue(d, k) for k in range(1001)]
        assert all(v > 0.0 for v in vals)  # trivial kernel of the extension
        assert all(a > b for a, b in zip(vals, vals[1:]))  # compactness at spectral level
        assert all(abs((2 * k + d) * v - 1.0) <= 2.3e-16 for k, v in enumerate(vals))


def test_dtn_eigenvalues():
    assert dtn_eigenvalue(2, 0) == 0.0
    assert dtn_eigenvalue(2, 1) == 1.0
    vals = [dtn_eigenvalue(3, k) for k in range(1001)]
    assert all(v >= 0.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[1000] / 1000.0 == pytest.approx(1.0)  # first-order growth


def test_dtn_matches_finite_difference_normal_derivative():
    # d=2, k=4: central difference of r^4 at r=1 against the symbol value 4.
    k = 4
    h = 1e-4
    fd = ((1.0 + h) ** k - (1.0 - h) ** k) / (2.0 * h)
    assert abs(fd - dtn_eigenvalue(2, k)) < 1e-6


def _weighted_gram(V, d: int, spec: TruncationSpec) -> np.ndarray:
    """The V-weighted extension Gram form <V G psi_i, G psi_j> on the assembly grid."""
    grid, vals = symbol_on_grid(V, d, spec)
    return weighted_gram(d, spec.max_degree, grid, grid.weights * vals)


@pytest.mark.parametrize("d", [2, 3])
def test_weighted_gram_of_unit_symbol_is_gram_diagonal(d):
    spec = TruncationSpec.for_degree(6)
    unit = lambda p: np.ones(p.shape[0])
    J = _weighted_gram(unit, d, spec)
    expected = np.diag([extension_gram_eigenvalue(d, k) for k in basis_degrees(d, 6)])
    assert np.max(np.abs(J - expected)) < 1e-12


def test_weighted_gram_radial_diagonal_and_symmetric():
    spec = TruncationSpec.for_degree(8)
    J = _weighted_gram(Step(1.0, 0.5), 2, spec)
    assert np.array_equal(J, J.T)
    k = basis_degrees(2, 8)
    expected = Step(1.0, 0.5).mu(2, k) / (2 * k + 2)
    assert np.max(np.abs(np.diag(J) - expected)) < 1e-12
    assert np.max(np.abs(J - np.diag(np.diag(J)))) < 1e-12


def test_section_radial_diagonal_is_mu():
    # the Gram diagonal 1/(2k+d) scaled away: the section of a radial symbol is diag(mu_k)
    spec = TruncationSpec.for_degree(8)
    R = assemble(Power(1.0, 1.0), 2, spec)
    expected = Power(1.0, 1.0).mu(2, basis_degrees(2, 8))
    assert np.max(np.abs(np.diag(R) - expected)) < 1e-10
    unit = lambda p: np.ones(p.shape[0])
    assert np.max(np.abs(assemble(unit, 2, spec) - np.eye(R.shape[0]))) < 1e-10


def test_projection_reproduces_harmonic_polynomials():
    # G J^-1 G* acts as the identity on degree-<=K harmonic polynomials.
    d, K = 2, 5
    spec = TruncationSpec.for_degree(K)
    grid = ball_grid(d, spec)
    degrees = basis_degrees(d, K)
    basis = harmonic_node_matrix(d, K, grid) / np.sqrt(2 * degrees + d)[:, None]
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=basis.shape[0])
    u_nodes = coeffs @ basis
    # <u, G psi_(k,l)> over the ball, then scale by the inverse Gram diagonal
    inner = basis @ (grid.weights * u_nodes)
    scaled = inner * (2 * degrees + d)
    assert np.max(np.abs(scaled - coeffs)) < 1e-10
    reconstructed = scaled @ basis
    assert np.max(np.abs(reconstructed - u_nodes)) < 1e-10


def test_symbol_order_limits():
    assert symbol_order_check(Power(1.0, 1.0), 2) == pytest.approx(0.5, abs=1e-4)
    assert symbol_order_check(Power(1.0, 2.0), 3) == pytest.approx(0.5, abs=1e-3)
    est_1 = symbol_order_check(Power(1.0, 1.5), 2)
    est_3 = symbol_order_check(Power(3.0, 1.5), 2)
    assert est_3 == pytest.approx(3.0 * est_1, rel=1e-9)  # linear in the amplitude
    assert principal_symbol_value(Power(1.0, 1.0)) == pytest.approx(0.5)


def test_inverse_power_weyl_fit():
    fit = inverse_power_weyl_fit(Power(1.0, 1.0), 2, np.geomspace(1e3, 1e5, 12))
    assert fit.coefficient == pytest.approx(rt.boundary_law_constant(2, 1.0, 1.0), rel=0.02)
    # coefficient scales like a^((d-1)/gamma)
    fit2 = inverse_power_weyl_fit(Power(2.0, 1.0), 2, np.geomspace(1e3, 1e5, 12))
    assert fit2.coefficient == pytest.approx(2.0 * fit.coefficient, rel=0.02)


def test_inverse_power_counts_reindex_toeplitz_counting():
    gamma = 1.0
    for e in (1e3, 3e4):
        n_energy = rt.counting(Power(1.0, gamma), 2, ln_lam=-gamma * math.log(e))
        n_thresh = rt.counting(Power(1.0, gamma), 2, ln_lam=math.log(e**-gamma))
        assert n_energy == n_thresh
