"""Spherical-harmonic combinatorics and the orthonormal harmonic basis of the unit ball.

Degree-k spherical harmonics on S^(d-1) have multiplicity m_k; the ball
carries the orthonormal basis sqrt(2k+d) |x|^k psi_{k,l}(x/|x|).  Pointwise
harmonics are implemented for d in {2, 3}; the combinatorial and radial
quantities work for every d >= 2.

Basis enumeration is degree-major with l ascending within a degree
(:func:`basis_degrees` gives each row's degree); all matrix layouts
downstream rely on this order.
"""
from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "multiplicity",
    "cumulative_multiplicity",
    "sphere_surface_area",
    "basis_degrees",
    "angular_basis_matrix",
]


def _check_dimension(d: int) -> None:
    if d < 2:
        raise ValueError(f"space dimension must be >= 2, got {d}")


def _degrees(d: int, k, least: int, what: str):
    """k checked against `least` and typed as `cumulative_multiplicity` describes."""
    _check_dimension(d)
    if isinstance(k, np.ndarray):
        low = k.min(initial=least)
        fits = math.factorial(d - 1) * max(1, _cumulative(d, int(k.max(initial=least)))) < 2**63
        k = k.astype(np.int64 if fits else object, copy=False)
    else:
        low = k = operator.index(k)
    if low < least:
        raise ValueError(f"{what}, got {low}")
    return k


def _cumulative(d: int, k):
    """M_k = (2k+d-1)(k+1)...(k+d-2)/(d-1)!, exact, elementwise; 0 at k = -1."""
    out = 2 * k + (d - 1)
    for j in range(1, d - 1):
        out = out * (k + j)
    out = out // math.factorial(d - 1)
    return np.maximum(out, 0) if isinstance(out, np.ndarray) else max(out, 0)


def multiplicity(d: int, k):
    """Dimension m_k = M_k - M_(k-1) of the degree-k harmonics on S^(d-1), exact (types as M_k)."""
    k = _degrees(d, k, 0, "degree must be nonnegative")
    return _cumulative(d, k) - _cumulative(d, k - 1)


def cumulative_multiplicity(d: int, k):
    """M_k = m_0+...+m_k for k >= -1, exact: a Python int for an int k; for an
    integer ndarray k, an int64 array while (d-1)! M_k < 2^63 at its largest
    degree, else an array of Python ints."""
    return _cumulative(d, _degrees(d, k, -1, "cumulative multiplicity needs k >= -1"))


def sphere_surface_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1): 2 pi^(d/2) / Gamma(d/2)."""
    _check_dimension(d)
    return 2.0 * math.pi ** (0.5 * d) / math.exp(math.lgamma(0.5 * d))


def basis_degrees(d: int, max_degree: int) -> np.ndarray:
    """The degree k of each basis row, degree-major: k repeated m_k times."""
    return np.repeat(np.arange(max_degree + 1), multiplicity(d, np.arange(max_degree + 1)))


# --- pointwise harmonics (d = 2, 3) ----------------------------------------


def _normalized_alp_table(K: int, u: np.ndarray) -> np.ndarray:
    """Geodesy (4pi) normalized associated Legendre values N[k, m, :] on u.

    One step per degree k fills every order m <= k: the diagonal from
    N[k-1, k-1], the first off-diagonal from it too, and the orders m < k-1
    by the three-term recurrence in k.
    """
    n = u.shape[0]
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    N = np.zeros((K + 1, K + 1, n))
    N[0, 0] = 1.0
    if K >= 1:
        N[1, 1] = math.sqrt(3.0) * s
        N[1, 0] = math.sqrt(3.0) * u
    for k in range(2, K + 1):
        N[k, k] = math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * s * N[k - 1, k - 1]
        N[k, k - 1] = math.sqrt(2.0 * k + 1.0) * u * N[k - 1, k - 1]
        m = np.arange(k - 1)
        a = np.sqrt((2.0 * k - 1.0) * (2.0 * k + 1.0) / ((k - m) * (k + m)))
        b = np.sqrt(
            (2.0 * k + 1.0) * (k + m - 1.0) * (k - m - 1.0)
            / ((2.0 * k - 3.0) * (k - m) * (k + m))
        )
        N[k, : k - 1] = a[:, None] * u * N[k - 1, : k - 1] - b[:, None] * N[k - 2, : k - 1]
    return N


def angular_basis_matrix(d: int, max_degree: int, dirs: np.ndarray) -> np.ndarray:
    """Orthonormal real spherical harmonics evaluated on unit vectors.

    Returns the (M_K, n) matrix whose rows follow :func:`basis_degrees`.
    Only d = 2 and d = 3 carry pointwise harmonics.
    """
    if d not in (2, 3):
        raise ValueError(f"pointwise harmonics are implemented for d in {{2, 3}}, got d={d}")
    dirs = np.asarray(dirs, dtype=float)
    # One trig table serves both dimensions: the rows 1, cos(j phi), sin(j phi)
    # for j <= K on the distinct azimuths, from one outer product.  Basis row
    # (k, m) is its order-m trig row (sin(|m| phi) for m < 0), spread to the
    # directions by a take, times the row's factor.
    phi, azimuth = np.unique(np.arctan2(dirs[:, 1], dirs[:, 0]), return_inverse=True)
    angles = np.arange(1, max_degree + 1)[:, None] * phi
    trig = np.vstack([np.ones_like(phi), np.cos(angles), np.sin(angles)])
    k = basis_degrees(d, max_degree)
    if d == 2:  # orders 0, 1, -1, 2, -2, ...: the rows 1, cos, sin, cos 2, sin 2, ...
        m = np.where(np.arange(k.size) % 2, k, -k)
        factor = np.where(k > 0, 1.0 / math.sqrt(math.pi), 1.0 / math.sqrt(2.0 * math.pi))[:, None]
    else:  # the Legendre recurrence runs once per distinct polar cosine (n_ang/2 + 1 on a tensor grid)
        u, polar = np.unique(dirs[:, 2], return_inverse=True)
        m = np.arange(k.size) - k * (k + 1)
        factor = np.take(_normalized_alp_table(max_degree, u)[k, np.abs(m)], polar, axis=1)
    out = np.take(trig[np.where(m < 0, max_degree - m, m)], azimuth, axis=1)
    out *= factor
    if d == 3:
        out *= 1.0 / math.sqrt(4.0 * math.pi)
    return out
