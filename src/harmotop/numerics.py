"""Quadrature rules, special functions, and a dense symmetric eigensolver.

Everything here is pure and reentrant; there is no shared mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_jacobi01",
    "bessel_zero_counts",
    "symmetric_eigen",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights of a quadrature rule: sum w_i f(x_i) approximates the integral of f.

    For a plain Gauss-Legendre rule on (a, b) the weights sum to b - a and
    polynomials up to degree 2*order - 1 are integrated exactly.  Rules
    carrying a weight function (see :func:`gauss_jacobi01`) sum to the mass
    of that weight.
    """

    nodes: np.ndarray
    weights: np.ndarray


def gauss_legendre(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with `order` points on (a, b), exact for degree <= 2*order - 1.

    No eigensolve: Newton in theta on P_n(cos theta) = sum_k g_k g_(n-k)
    cos((n-2k) theta), g_k = C(2k, k)/4^k, a series with positive
    coefficients (Swarztrauber, SIAM J. Sci. Comput. 24 (2002) 945).  Three
    steps from Tricomi's start reach rounding (for n <= 2000 the largest
    third step is 2.4e-13, at n = 2); the weights are 2/(dP/dtheta)^2.
    theta = t + e with (n-2k) t exact, and cos(t + e) = cos t - e sin t, so
    the nodes are within 1.2e-16 and the weights within 6e-15 relative of a
    50-digit rule for n <= 1000.  Half the nodes are mirrored: on (-1, 1)
    the nodes are antisymmetric and the weights symmetric bit for bit, and
    the middle node of an odd rule is 0.0.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if not a < b:
        raise ValueError(f"empty interval: a={a} >= b={b}")
    n = order
    g = np.cumprod(np.concatenate([[1.0], np.arange(1, 2 * n, 2) / np.arange(2, 2 * n + 1, 2)]))
    j = np.arange(n, 0, -2)  # terms k and n - k paired; k = n/2 is the constant c0
    c = 2.0 * g[: j.size] * g[n : n - j.size : -1]
    c0 = g[n // 2] ** 2 if n % 2 == 0 else 0.0
    cj, cjj = c * j, c * j * j
    grid = 2.0 ** (52 - n.bit_length())  # t < 2 on this grid makes j t exact
    t = np.arccos((1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * np.arange(1, n // 2 + 1) - 1) / (4 * n + 2)))
    e = np.zeros_like(t)
    for _ in range(3):
        t_grid = np.round((t + e) * grid) / grid
        t, e = t_grid, e + (t - t_grid)
        cos_jt, sin_jt = np.cos(t[:, None] * j), np.sin(t[:, None] * j)
        # P and dP/dtheta at t + e, to first order in e
        e = e - (cos_jt @ c + c0 - e * (sin_jt @ cj)) / (-(sin_jt @ cj) - e * (cos_jt @ cjj))
    x = np.cos(t) - e * np.sin(t)
    w = 2.0 / ((sin_jt @ cj) + e * (cos_jt @ cjj)) ** 2
    # odd n: the middle node is 0, where |dP/dtheta| = n |P_(n-1)(0)| = n g_((n-1)/2)
    mid = [2.0 / (n * g[n // 2]) ** 2] if n % 2 else []
    half, centre = 0.5 * (b - a), 0.5 * (a + b)
    return QuadratureRule(
        nodes=centre + half * np.concatenate([-x, [0.0] * len(mid), x[::-1]]),
        weights=half * np.concatenate([w, mid, w[::-1]]),
    )


def gauss_jacobi01(order: int, gamma: float) -> QuadratureRule:
    """Gauss rule for the weight u^gamma on (0, 1): sum w_i f(u_i) = int_0^1 u^gamma f(u) du.

    Built by Golub-Welsch from the monic Jacobi recurrence coefficients for
    the weight (1+x)^gamma on (-1, 1), mapped to (0, 1).  Exact for
    polynomial f of degree <= 2*order - 1; the weights sum to 1/(gamma+1).
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if gamma <= -1.0:
        raise ValueError(f"weight exponent must be > -1, got {gamma}")
    # Monic Jacobi recurrence for the weight (1+x)^gamma on (-1, 1).
    i = np.arange(1, order, dtype=float)
    diag = np.empty(order)
    diag[0] = gamma / (gamma + 2.0)
    if order > 1:
        diag[1:] = gamma * gamma / ((2 * i + gamma) * (2 * i + gamma + 2))
        s = 2 * i + gamma
        b2 = 4 * i * i * (i + gamma) ** 2 / (s * s * (s * s - 1))
    T = np.diag(diag)
    if order > 1:
        off = np.sqrt(b2)
        T += np.diag(off, 1) + np.diag(off, -1)
    x, v = np.linalg.eigh(T)
    # Golub-Welsch weights carry the total mass 2^(gamma+1)/(gamma+1); the
    # map u = (1+x)/2 divides them by 2^(gamma+1), leaving v0^2/(gamma+1).
    w = v[0, :] ** 2 / (gamma + 1.0)
    u = 0.5 * (x + 1.0)
    return QuadratureRule(nodes=u, weights=w)


# ---------------------------------------------------------------------------
# Zeros of the Bessel functions J_k, counted without computing J_k itself.
# ---------------------------------------------------------------------------


def bessel_zero_counts(x, nu0: float = 0.0):
    """Yield (j, n_{nu0+j}(x)) for j = N-1, N-2, ..., 0, where n_nu(x) counts the zeros of J_nu in (0, x).

    x is a scalar or an array of positive arguments; the counts have its
    shape; nu0 >= 0.  For x > 0 the zeros of J_nu and J_{nu+1} interlace
    (DLMF 10.21(i)) and J_nu(x) has sign (-1)^{n_nu(x)}, so n_nu = n_{nu+1} + 1
    exactly where J_nu(x) and J_{nu+1}(x) differ in sign; and n_nu(x) = 0 for
    nu >= x.  One backward (Miller) sweep over the orders nu0 + j therefore
    counts every order at once.  It carries r_nu = J_nu(x)/J_{nu+1}(x) =
    2(nu+1)/x - 1/r_{nu+1}, the unnormalised sweep with its scale divided out
    at each step, so nothing overflows.  It starts from r = inf at j = N =
    x + 16 sqrt(x + 1) + 24 (largest x); the start's error has decayed below
    rounding long before the orders below x, where zeros occur.
    A count can be off by one only within a few ulp of a zero.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError("Bessel zero counts need finite arguments x > 0")
    x_max = float(np.max(x))
    top = int(x_max + 16.0 * math.sqrt(x_max + 1.0) + 24)
    ratio = np.full(x.shape, np.inf)
    count = np.zeros(x.shape, dtype=np.int64)
    for j in range(top - 1, -1, -1):
        ratio = 2.0 * (j + 1 + nu0) / x - 1.0 / ratio
        count = count + (ratio < 0.0)
        yield j, count


def symmetric_eigen(A: np.ndarray) -> np.ndarray:
    """All eigenvalues (ascending) of a real symmetric matrix.

    Rejects non-finite input and input that is not exactly equal to its
    transpose (a Galerkin section is symmetric by construction).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not math.isfinite(max(float(A.max()), -float(A.min()))):  # not finite if any entry is not
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(A)
