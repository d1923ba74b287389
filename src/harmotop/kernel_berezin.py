"""Truncated reproducing kernel of the harmonic subspace, its diagonal
density, and the Berezin transform.

All series are truncated at an explicit maximum degree; near the boundary
the geometric factor |x|^(2k) demands max_degree of order 1/(1-|x|).  At
fixed truncation every structural identity (reproducing property, trace
identity) is exact up to rounding, because the truncated kernel is itself
the kernel of an orthogonal projection.
"""
from __future__ import annotations

import numpy as np

from .grids import TruncationSpec
from .harmonic_basis import multiplicity, sphere_surface_area
from .symbols import RadialSymbol, symbol_on_grid

__all__ = [
    "density_radial",
    "berezin_transform",
]


def _degree_weights(d: int, max_degree: int) -> np.ndarray:
    k = np.arange(max_degree + 1)
    return (multiplicity(d, k) * (2 * k + d)).astype(float)


def _kernel_sum(d: int, max_degree: int, rho: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{k<=K} (2k+d) rho^k Z_k(t) elementwise, with Z_k the zonal sum.

    Z_k(t) = m_k/|S^(d-1)| P_k(t), where P_k = C_k^(a)/C_k^(a)(1) with
    a = d/2 - 1 (the Chebyshev T_k for d = 2) obeys the three-term recurrence
    (DLMF 18.9.1) P_k = 2(k+a-1)/(k+2a-1) t P_(k-1) - (k-1)/(k+2a-1) P_(k-2).
    The recurrence runs on Q_k = rho^k P_k, so every array has the length
    of t: O(len(t)) memory for any K.
    """
    alpha = 0.5 * d - 1.0
    coeff = _degree_weights(d, max_degree) / sphere_surface_area(d)
    t = np.clip(t, -1.0, 1.0)
    acc = np.full(t.shape, coeff[0])
    if max_degree == 0:
        return acc
    u, v = rho * t, rho * rho
    q_prev, q_cur = np.ones_like(u), u
    acc += coeff[1] * q_cur
    for k in range(2, max_degree + 1):
        denom = k + 2.0 * alpha - 1.0
        q_next = (2.0 * (k + alpha - 1.0) / denom) * u * q_cur
        q_next -= ((k - 1.0) / denom) * v * q_prev
        q_prev, q_cur = q_cur, q_next
        acc += coeff[k] * q_cur
    return acc


def density_radial(d: int, r, max_degree: int) -> np.ndarray:
    """Kernel diagonal sum_{k<=K} (2k+d) m_k r^(2k) / |S^(d-1)| at radii r."""
    r = np.asarray(r, dtype=float)
    if np.any(r >= 1.0) or np.any(r < 0.0):
        raise ValueError("radii must lie in [0, 1)")
    coeff = _degree_weights(d, max_degree) / sphere_surface_area(d)
    # Horner in r^2 keeps the evaluation O(K) per radius.
    q = r * r
    acc = np.full_like(r, coeff[-1])
    for c in coeff[-2::-1]:
        acc = acc * q + c
    return acc


def berezin_transform(
    V,
    d: int,
    x,
    max_degree: int,
    spec: TruncationSpec | None = None,
) -> float | np.ndarray:
    """Covariant symbol rho_K(x)^(-1) int R_K(x, y)^2 V(y) dy.

    `x` is one point (a float is returned) or an (n, d) array of points (an
    array of n values is returned); the grid and the symbol's node values,
    or the radial eigenvalues, are computed once for all points.  For radial
    V the angular integral collapses by zonal orthogonality and the
    transform is the rho-weighted average of the radial eigenvalues:
        sum_k (2k+d) m_k |x|^(2k) mu_k / sum_k (2k+d) m_k |x|^(2k).
    """
    points = np.asarray(x, dtype=float)
    stack = np.atleast_2d(points)
    radii = [float(np.linalg.norm(p)) for p in stack]
    if any(r >= 1.0 for r in radii):
        raise ValueError("point must lie inside the unit ball")
    if isinstance(V, RadialSymbol):
        weights = _degree_weights(d, max_degree)
        mus = V.mu(d, np.arange(max_degree + 1))

        def at(p: np.ndarray, rx: float) -> float:
            coeff = weights * rx ** (2 * np.arange(max_degree + 1))
            return float(np.dot(coeff, mus) / np.sum(coeff))

        values = [at(p, rx) for p, rx in zip(stack, radii)]
    else:
        if spec is None:
            spec = TruncationSpec.for_degree(max_degree)
        grid, vals = symbol_on_grid(V, d, spec)
        node_r = grid.radii
        safe_r = np.where(node_r > 0.0, node_r, 1.0)

        def at(p: np.ndarray, rx: float) -> float:
            # R_K(x, y_j) over all nodes from t = x^ . y^ and |x||y_j|.
            t = grid.points @ (p / rx) / safe_r if rx > 0.0 else np.ones(node_r.size)
            kernel_vals = _kernel_sum(d, max_degree, rx * node_r, t)
            return float(np.dot(grid.weights, kernel_vals**2 * vals))

        diagonal = density_radial(d, np.array(radii), max_degree)
        values = [at(p, rx) / rho for p, rx, rho in zip(stack, radii, diagonal.tolist())]
    return values[0] if points.ndim == 1 else np.array(values)
