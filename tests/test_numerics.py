import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from harmotop.harmonic_basis import angular_basis_matrix, basis_degrees, multiplicity, sphere_surface_area
from harmotop.numerics import bessel_zero_counts, gauss_jacobi01, gauss_legendre, symmetric_eigen


def test_gauss_legendre_order_one_is_midpoint():
    rule = gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes == pytest.approx([0.0])
    assert rule.weights == pytest.approx([2.0])


def test_gauss_legendre_two_point_nodes():
    # Solving the 2-point moment equations by hand gives nodes +-1/sqrt(3).
    rule = gauss_legendre(2, -1.0, 1.0)
    assert sorted(rule.nodes) == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)])
    assert rule.weights == pytest.approx([1.0, 1.0])


def test_gauss_legendre_polynomial_exactness():
    rule = gauss_legendre(16, 0.0, 1.0)
    assert float(np.dot(rule.weights, rule.nodes**9)) == pytest.approx(0.1, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2, 5, 16, 41])
def test_gauss_legendre_moments_and_mass(order):
    rule = gauss_legendre(order, 0.0, 1.0)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    for n in range(2 * order):
        moment = float(np.dot(rule.weights, rule.nodes**n))
        assert abs(moment - 1.0 / (n + 1)) < 1e-13
    assert np.all(rule.weights > 0.0)
    assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))


def _legendre_node_50_digits(n: int, i: int):
    """Node i (ascending) of the n-point rule and its weight, by Newton on the
    three-term recurrence at 50 digits from the start cos(pi (4m - 1)/(4n + 2))."""
    with mp.workdps(50):
        m = n - i
        x = mp.cos(mp.pi * (4 * m - 1) / (4 * n + 2))
        for _ in range(60):
            p_prev, p = mp.mpf(1), x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (p_prev - x * p) / (1 - x * x)
            step = p / dp
            x -= step
            if abs(step) < mp.mpf(10) ** -45:
                break
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", list(range(1, 41)) + [64, 76, 100, 136, 200, 300])
def test_gauss_legendre_matches_a_50_digit_rule(n):
    # measured worst over these n: nodes 1.1e-16 absolute, weights 3.6e-15 relative
    rule = gauss_legendre(n, -1.0, 1.0)
    sample = range(n) if n <= 100 else sorted({0, 1, n // 2, n - 1} | set(range(0, n, n // 12)))
    for i in sample:
        x, w = _legendre_node_50_digits(n, i)
        assert abs(rule.nodes[i] - x) <= 4e-16
        assert abs(rule.weights[i] / w - 1) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 25, 76, 77, 136])
def test_gauss_legendre_nodes_antisymmetric_and_weights_symmetric_bit_for_bit(n):
    # the antipodal fold of grids.weighted_gram pairs polar rows i and n-1-i
    rule = gauss_legendre(n, -1.0, 1.0)
    assert np.array_equal(rule.nodes[::-1], -rule.nodes)
    assert np.array_equal(rule.weights[::-1], rule.weights)
    assert np.all(np.diff(rule.nodes) > 0.0)
    if n % 2:
        middle = rule.nodes[n // 2]
        assert middle == 0.0 and math.copysign(1.0, middle) == 1.0


def test_gauss_legendre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 1.0, 1.0)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.25])
def test_gauss_jacobi_weighted_moments(gamma):
    rule = gauss_jacobi01(20, gamma)
    for j in range(12):
        # int_0^1 u^gamma u^j du = 1/(gamma + j + 1)
        moment = float(np.dot(rule.weights, rule.nodes**j))
        assert abs(moment - 1.0 / (gamma + j + 1)) < 1e-14


def gegenbauer_ratio(k, alpha, t):
    """C_k^alpha(t)/C_k^alpha(1) by the addition theorem of the degree-k angular basis, d = 2 alpha + 2.

    sum_l psi_{k,l}(xi) psi_{k,l}(eta) = m_k/|S^(d-1)| C_k^alpha(xi.eta)/C_k^alpha(1),
    read at xi = e_d and eta of polar cosine t; for d = 2 the ratio is T_k(t).
    """
    d = round(2.0 * alpha + 2.0)
    t = np.asarray(t, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    eta = np.stack([s, t], axis=1) if d == 2 else np.stack([s, np.zeros_like(t), t], axis=1)
    pole = np.zeros((1, d))
    pole[0, -1] = 1.0
    psi = angular_basis_matrix(d, k, np.vstack([pole, eta]))[basis_degrees(d, k) == k]
    return psi[:, 0] @ psi[:, 1:] * sphere_surface_area(d) / multiplicity(d, k)


def test_gegenbauer_small_degrees():
    assert gegenbauer_ratio(0, 0.5, [0.3]) == pytest.approx([1.0])
    assert gegenbauer_ratio(1, 0.5, [0.7]) == pytest.approx([0.7])
    assert gegenbauer_ratio(2, 0.5, [1.0]) == pytest.approx([1.0])  # Legendre P_2(1) = 1
    # a polar cosine rounded past 1, as x/|x| can give, is read at the pole
    assert gegenbauer_ratio(2, 0.5, [1.0 + 4e-16]) == pytest.approx([1.0])
    # d = 2: the Chebyshev T_k(t) = cos(k arccos t)
    t = np.linspace(-1.0, 1.0, 17)
    assert gegenbauer_ratio(5, 0.0, t) == pytest.approx(np.cos(5.0 * np.arccos(t)), abs=1e-13)


# Only d = 2 and d = 3 carry pointwise harmonics, so alpha is 0 or 1/2.
@pytest.mark.parametrize("k,alpha", [(3, 0.5), (12, 0.5), (40, 0.5), (200, 0.0)])
def test_gegenbauer_against_scipy(k, alpha):
    t = np.linspace(-1.0, 1.0, 17)
    if alpha == 0.0:  # C_k^0/C_k^0(1) is the limit T_k; scipy returns C_k^0 = 0
        ref = sp.eval_chebyt(k, t)
    else:
        ref = sp.eval_gegenbauer(k, alpha, t) / sp.eval_gegenbauer(k, alpha, 1.0)
    assert gegenbauer_ratio(k, alpha, t) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_bessel_first_zeros():
    # J_0 and J_1 change sign at j_(0,1) = 2.4048255577 and j_(1,1) = 3.8317059702
    counts = dict(bessel_zero_counts(np.array([2.4048255576, 2.4048255578, 3.8317059701, 3.8317059703])))
    assert counts[0].tolist() == [0, 1, 1, 1]
    assert counts[1].tolist() == [0, 0, 0, 1]


def test_bessel_zero_interlacing_and_monotonicity():
    x = np.linspace(0.05, 60.0, 2000)
    counts = dict(bessel_zero_counts(x))
    for k in range(len(counts) - 1):
        n, n_next = counts[k], counts[k + 1]
        assert set(np.diff(n).tolist()) <= {0, 1}, k  # zeros are further apart than the grid step
        assert np.all((n_next <= n) & (n <= n_next + 1)), k  # j_(k,m) < j_(k+1,m) < j_(k,m+1)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 60])
def test_bessel_zeros_against_scipy(k):
    # on a fine grid up to midway between the sixth and seventh zeros, n_k(x)
    # is the number of scipy zeros below x
    zeros = sp.jn_zeros(k, 40)
    x = np.linspace(0.01, 0.5 * (zeros[5] + zeros[6]), 1500)
    counts = dict(bessel_zero_counts(x))[k]
    assert counts.tolist() == np.searchsorted(zeros, x).tolist()
    assert counts[-1] == 6


def test_bessel_zeros_upto_groups():
    # n_k(x) from one sweep equals the number of scipy zeros of J_k below x
    x = np.array([0.5, 3.0, 9.7, 25.0, 41.3, 77.0])
    counts = dict(bessel_zero_counts(x))
    for k in range(41):
        ref = [int(np.sum(sp.jn_zeros(k, 40) < xi)) for xi in x]
        assert counts[k].tolist() == ref, k
    assert all(not n.any() for k, n in counts.items() if k >= 77)
    # and at x = j_(k,m) (1 -+ 1e-12), on either side of each of the first six zeros
    orders = [0, 1, 2, 5, 17, 60]
    zeros = np.array([sp.jn_zeros(k, 6) for k in orders])
    counts = dict(bessel_zero_counts(np.stack([zeros * (1.0 - 1e-12), zeros * (1.0 + 1e-12)])))
    for i, k in enumerate(orders):
        below, above = counts[k][:, i]
        assert below.tolist() == [0, 1, 2, 3, 4, 5] and above.tolist() == [1, 2, 3, 4, 5, 6], k


def test_bessel_zero_counts_at_half_integer_orders():
    # DLMF 10.49: J_(1/2)(x) = sqrt(2/(pi x)) sin x and J_(3/2)(x) = sqrt(2/(pi x)) (sin x/x - cos x),
    # so n_(1/2)(x) counts the multiples of pi below x and n_(3/2)(x) the positive roots of tan t = t
    from scipy.optimize import brentq

    pi_multiples = math.pi * np.arange(1, 21)
    tan_roots = np.array([brentq(lambda t: math.sin(t) - t * math.cos(t), m * math.pi, (m + 0.5) * math.pi,
                                 xtol=1e-15) for m in range(1, 21)])
    for j, zeros in ((0, pi_multiples), (1, tan_roots)):
        x = np.linspace(0.01, 0.5 * (zeros[-2] + zeros[-1]), 3001)
        assert dict(bessel_zero_counts(x, 0.5))[j].tolist() == np.searchsorted(zeros, x).tolist(), j
        # and on either side of each zero, at (1 -+ 1e-12) times it
        below, above = dict(bessel_zero_counts(np.stack([zeros * (1.0 - 1e-12), zeros * (1.0 + 1e-12)]), 0.5))[j]
        assert below.tolist() == list(range(20)) and above.tolist() == list(range(1, 21)), j


def test_symmetric_eigen_small_cases():
    assert symmetric_eigen(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])
    assert symmetric_eigen(np.diag([3.0, 1.0, 2.0])) == pytest.approx([1.0, 2.0, 3.0])
    # characteristic polynomial of [[0,1],[1,0]] by hand: lambda^2 - 1
    assert symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([-1.0, 1.0])


def test_symmetric_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_symmetric_eigen_rejects_non_finite_entries(bad):
    for cells in ([(1, 1)], [(0, 2), (2, 0)]):
        A = np.eye(3)
        for cell in cells:
            A[cell] = bad
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_eigen(A)


def test_symmetric_eigen_trace_and_similarity_invariance():
    rng = np.random.default_rng(11)
    for n in (5, 20, 50):
        X = rng.normal(size=(n, n))
        A = 0.5 * (X + X.T)
        vals = symmetric_eigen(A)
        scale = float(np.max(np.abs(A)))
        assert abs(vals.sum() - np.trace(A)) < 1e-10 * max(scale, 1.0) * n
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        vals_rot = symmetric_eigen(Q @ A @ Q.T)
        assert np.max(np.abs(vals - vals_rot)) < 1e-10 * max(scale, 1.0) * n
