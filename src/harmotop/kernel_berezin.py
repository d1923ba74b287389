"""Diagonal density of the truncated reproducing kernel, and the Berezin transform.

All series are truncated at an explicit maximum degree; near the boundary
the geometric factor |x|^(2k) demands max_degree of order 1/(1-|x|).  The
truncated kernel R_K(x, y) = sum_i phi_i(x) phi_i(y) projects orthogonally,
so on the section's quadrature int R_K(x, y)^2 V(y) dy is exactly the
quadratic form phi(x)^T A phi(x) of the finite section A: no recurrence and
no kernel on the grid, memory of order M_K^2.
"""
from __future__ import annotations

import numpy as np

from .galerkin_toeplitz import assemble
from .grids import TruncationSpec
from .harmonic_basis import angular_basis_matrix, basis_degrees, multiplicity, sphere_surface_area
from .symbols import RadialSymbol

__all__ = [
    "density_radial",
    "berezin_transform",
]


def _degree_weights(d: int, max_degree: int) -> np.ndarray:
    k = np.arange(max_degree + 1)
    return (multiplicity(d, k) * (2 * k + d)).astype(float)


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
    array of n values is returned); the section, or the radial eigenvalues,
    are computed once for all points.  For radial V the angular integral
    collapses by zonal orthogonality and the transform is the rho-weighted
    average of the radial eigenvalues:
        sum_k (2k+d) m_k |x|^(2k) mu_k / sum_k (2k+d) m_k |x|^(2k).
    Any other V is phi(x)^T A phi(x) / rho_K(x) with A its section on `spec`
    (default: the grid of degree max_degree), which must reach max_degree.
    """
    points = np.asarray(x, dtype=float)
    stack = np.atleast_2d(points)
    radii = [float(np.linalg.norm(p)) for p in stack]
    if any(r >= 1.0 for r in radii):
        raise ValueError("point must lie inside the unit ball")
    if isinstance(V, RadialSymbol):
        weights = _degree_weights(d, max_degree)
        mus = V.mu(d, np.arange(max_degree + 1))

        def at(rx: float) -> float:
            coeff = weights * rx ** (2 * np.arange(max_degree + 1))
            return float(np.dot(coeff, mus) / np.sum(coeff))

        values = [at(rx) for rx in radii]
    else:
        if spec is None:
            spec = TruncationSpec.for_degree(max_degree)
        if max_degree > spec.max_degree:
            raise ValueError(f"Berezin degree {max_degree} exceeds the grid's degree {spec.max_degree}")
        k = basis_degrees(d, max_degree)
        section = assemble(V, d, spec)[: k.size, : k.size]
        r = np.array(radii)
        # the origin's zero row reads as the direction e_1; only degree 0 is nonzero there
        phi = angular_basis_matrix(d, max_degree, stack / np.where(r > 0.0, r, 1.0)[:, None])
        phi *= np.sqrt(2.0 * k + d)[:, None] * r[None, :] ** k[:, None]
        diagonal = density_radial(d, r, max_degree).tolist()
        # one contiguous row per point, so a stack gives each point's single-point bits
        values = [float(v @ section @ v) / rho for v, rho in zip(phi.T.copy(), diagonal)]
    return values[0] if points.ndim == 1 else np.array(values)
