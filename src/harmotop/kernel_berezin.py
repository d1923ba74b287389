"""Truncated reproducing kernel of the harmonic subspace, its diagonal
density, integrals against the induced measure, and the Berezin transform.

All series are truncated at an explicit maximum degree; near the boundary
the geometric factor |x|^(2k) demands max_degree of order 1/(1-|x|), see
:func:`suggested_max_degree`.  At fixed truncation every structural identity
(reproducing property, trace identity) is exact up to rounding, because the
truncated kernel is itself the kernel of an orthogonal projection.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureDivergenceError
from .grids import TruncationSpec
from .harmonic_basis import multiplicity, sphere_surface_area
from .symbols import RadialSymbol, TabulatedSymbol, symbol_on_grid

__all__ = [
    "boundary_distance",
    "suggested_max_degree",
    "density",
    "density_radial",
    "density_integral",
    "berezin_transform",
]


def boundary_distance(x) -> float:
    """dist(x, boundary) = 1 - |x| on the unit ball."""
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r >= 1.0:
        raise ValueError("point must lie inside the unit ball")
    return 1.0 - r


def suggested_max_degree(max_radius: float) -> int:
    """Truncation degree making the kernel tail negligible at radius max_radius."""
    if not 0.0 <= max_radius < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {max_radius}")
    return math.ceil(40.0 / (1.0 - max_radius))


def _degree_weights(d: int, max_degree: int) -> np.ndarray:
    return np.array([(2 * k + d) * multiplicity(d, k) for k in range(max_degree + 1)], dtype=float)


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


def density(d: int, x, max_degree: int) -> float:
    """Kernel diagonal at a point of the ball (positive, radial)."""
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r >= 1.0:
        raise ValueError("point must lie inside the unit ball")
    return float(density_radial(d, np.array([r]), max_degree)[0])


def _radial_density_integral(v: RadialSymbol, d: int, max_degree: int) -> float:
    """Exact 1-D reduction: int f rho_K dx = sum_{k<=K} m_k mu_k(f)."""
    k = np.arange(max_degree + 1)
    return float(np.dot(_degree_weights(d, max_degree) / (2 * k + d), v.mu(d, k)))  # weights/(2k+d) = m_k


def density_integral(V, d: int, max_degree: int, spec: TruncationSpec | None = None) -> float:
    """Integral of V against the truncated density rho_K dx.

    Radial symbols reduce to the exact one-dimensional moment sum.  A
    TabulatedSymbol integrates on its own grid (the default spec), for which
    no finer grid exists.  Any other symbol integrates on the tensor grid,
    with a refinement check that raises QuadratureDivergenceError when two
    refinements differ by more than 1e-6 relative.
    """
    if isinstance(V, RadialSymbol):
        return _radial_density_integral(V, d, max_degree)
    if spec is None:
        spec = V.spec if isinstance(V, TabulatedSymbol) else TruncationSpec.for_degree(max_degree)
    value = _tensor_density_integral(V, d, max_degree, spec)
    if isinstance(V, TabulatedSymbol):
        return value
    finer = TruncationSpec(max_degree, spec.n_r + 8, spec.n_ang + 4)
    refined = _tensor_density_integral(V, d, max_degree, finer)
    scale = max(abs(value), abs(refined), 1e-300)
    if abs(value - refined) > 1e-6 * scale:
        raise QuadratureDivergenceError(
            f"density integral refinements disagree: {value!r} vs {refined!r}"
        )
    return value


def _tensor_density_integral(V, d: int, max_degree: int, spec: TruncationSpec) -> float:
    grid, vals = symbol_on_grid(V, d, spec)
    rho = density_radial(d, grid.radii, max_degree)
    return float(np.dot(grid.weights, rho * vals))


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
            return float(np.dot(grid.weights, kernel_vals**2 * vals)) / density(d, p, max_degree)

    values = [at(p, rx) for p, rx in zip(stack, radii)]
    return values[0] if points.ndim == 1 else np.array(values)
