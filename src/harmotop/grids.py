"""Tensor quadrature grids on the unit ball and basis evaluations on them.

The angular factor is spectrally exact: an equispaced Fourier grid in d = 2
(exact for trigonometric polynomials of degree < n_ang) and Gauss-Legendre
in the polar angle times an equispaced azimuthal grid in d = 3.  Products of
harmonics of degree <= max_degree are then integrated exactly as long as
n_ang >= 2*max_degree + 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonic_basis import angular_basis_matrix, basis_degrees, cumulative_multiplicity
from .numerics import gauss_legendre

__all__ = [
    "TruncationSpec",
    "BallGrid",
    "ball_grid",
    "harmonic_node_matrix",
    "weighted_gram",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Galerkin truncation: max degree plus radial/angular quadrature sizes."""

    max_degree: int
    n_r: int
    n_ang: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError(f"max degree must be nonnegative, got {self.max_degree}")
        if self.n_ang < 2 * self.max_degree + 2:
            raise ValueError(
                f"angular grid size {self.n_ang} below exactness threshold "
                f"{2 * self.max_degree + 2} for degree {self.max_degree}"
            )
        if self.n_r < self.max_degree + 8:
            raise ValueError(
                f"radial order {self.n_r} below required {self.max_degree + 8}"
            )

    @classmethod
    def for_degree(cls, max_degree: int) -> "TruncationSpec":
        return cls(max_degree=max_degree, n_r=max_degree + 16, n_ang=2 * max_degree + 4)

    def node_count(self, d: int) -> int:
        """Number of nodes of ball_grid(d, self) when the radial rule is not split."""
        if d == 2:
            return self.n_r * self.n_ang
        if d == 3:
            return self.n_r * self.n_ang * (self.n_ang // 2 + 1)
        raise ValueError(f"tensor grids are implemented for d in {{2, 3}}, got d={d}")


@dataclass(frozen=True)
class BallGrid:
    r_nodes: np.ndarray
    ang_dirs: np.ndarray      # (n_ang_total, d) unit vectors
    antipodes: np.ndarray     # index of -a for each direction a of the first half; empty if n_ang is odd
    points: np.ndarray        # (n_r * n_ang_total, d), radial-major
    weights: np.ndarray       # includes the r^(d-1) Jacobian

    @property
    def radii(self) -> np.ndarray:
        return np.repeat(self.r_nodes, self.ang_dirs.shape[0])


def ball_grid(d: int, spec: TruncationSpec, radial_breaks: tuple[float, ...] = ()) -> BallGrid:
    """Tensor grid on the ball; the radial rule splits at `radial_breaks` so
    that symbols with jumps or kinks at those radii integrate exactly."""
    if d == 2:
        theta = 2.0 * math.pi * np.arange(spec.n_ang) / spec.n_ang
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        ang_w = np.full(spec.n_ang, 2.0 * math.pi / spec.n_ang)
    elif d == 3:
        n_pol = spec.n_ang // 2 + 1
        polar = gauss_legendre(n_pol, -1.0, 1.0)
        u, wu = polar.nodes, polar.weights
        phi = 2.0 * math.pi * np.arange(spec.n_ang) / spec.n_ang
        U = np.repeat(u, spec.n_ang)
        PHI = np.tile(phi, n_pol)
        s = np.sqrt(1.0 - U * U)
        dirs = np.stack([s * np.cos(PHI), s * np.sin(PHI), U], axis=-1)
        ang_w = np.repeat(wu, spec.n_ang) * (2.0 * math.pi / spec.n_ang)
    else:
        raise ValueError(f"tensor grids are implemented for d in {{2, 3}}, got d={d}")
    # With n_ang even, direction (i, j) (polar row i, azimuth j; d = 2 has
    # one row) has its antipode at (n_rows-1-i, j + n_ang/2): the azimuth
    # turns by pi and the polar cosines are exactly antisymmetric,
    # u_(n-1-i) = -u_i.  In flat order the first half of the directions pairs
    # with the second half.  With n_ang odd no direction has its antipode.
    n_rows = dirs.shape[0] // spec.n_ang
    turned = (np.arange(spec.n_ang) + spec.n_ang // 2) % spec.n_ang
    flat = (n_rows - 1 - np.arange(n_rows))[:, None] * spec.n_ang + turned
    antipodes = flat.reshape(-1)[: dirs.shape[0] // 2] if spec.n_ang % 2 == 0 else np.arange(0)
    edges = [0.0] + sorted({b for b in radial_breaks if 0.0 < b < 1.0}) + [1.0]
    r_nodes = []
    r_weights = []
    for a, b in zip(edges, edges[1:]):
        rule = gauss_legendre(spec.n_r, a, b)
        r_nodes.append(rule.nodes)
        r_weights.append(rule.weights)
    r_nodes = np.concatenate(r_nodes)
    r_weights = np.concatenate(r_weights)
    pts = r_nodes[:, None, None] * dirs[None, :, :]
    w = (r_weights * r_nodes ** (d - 1))[:, None] * ang_w[None, :]
    return BallGrid(
        r_nodes=r_nodes,
        ang_dirs=dirs,
        antipodes=antipodes,
        points=pts.reshape(-1, d),
        weights=w.reshape(-1),
    )


def harmonic_node_matrix(d: int, max_degree: int, grid: BallGrid) -> np.ndarray:
    """Rows: orthonormal ball basis sqrt(2k+d) r^k psi_{k,l} at the grid nodes."""
    psi = angular_basis_matrix(d, max_degree, grid.ang_dirs)
    out = np.empty((psi.shape[0], grid.r_nodes.size, psi.shape[1]))
    r_pow = np.ones((grid.r_nodes.size, 1))
    starts = cumulative_multiplicity(d, np.arange(-1, max_degree + 1)).tolist()
    for k in range(max_degree + 1):
        if k > 0:
            r_pow = r_pow * grid.r_nodes[:, None]
        rows = slice(starts[k], starts[k + 1])
        out[rows] = math.sqrt(2.0 * k + d) * (r_pow * psi[rows, None, :])
    return out.reshape(psi.shape[0], -1)


def weighted_gram(d: int, max_degree: int, grid: BallGrid, node_weights: np.ndarray) -> np.ndarray:
    """Extension Gram sum_n w_n r_n^(k+k') psi_{k,l}(a_n) psi_{k',l'}(a_n).

    `node_weights` holds one weight per grid node (radial-major), usually the
    quadrature weights times the symbol values.  The factor r^(k+k') depends
    on s = k + k' only, so the radial sum runs first: the moments
    W_s(a) = sum_r r^s w(r, a) for s <= 2*max_degree take one small product.
    Since psi_{k,l}(-a) = (-1)^k psi_{k,l}(a), a direction a and its antipode
    enter every entry as W_s(a) + (-1)^s W_s(-a), so the moments are folded
    once over the pairs of `grid.antipodes` and the harmonics are evaluated
    on the first half of the directions only.  A grid with odd n_ang has no
    antipodal pairs; there the same loop runs over every direction with
    nothing folded in.  Each degree's block column is then one angular GEMM.
    The form is symmetric, so block column k' runs over the degrees k <= k'
    only (it weights those M_k' rows, the smaller side in d = 3): about
    M^2 n_ang/2 flops against 2 M^2 n_r n_ang for the dense node matrix, and
    no array exceeds M x n_ang/2 (M x n_ang when n_ang is odd).  The lower
    triangle, diagonal blocks included, is then copied from the upper one,
    so the result equals its transpose bit for bit.
    """
    pairs = grid.antipodes.size
    half = grid.ang_dirs.shape[0] - pairs
    psi = angular_basis_matrix(d, max_degree, grid.ang_dirs[:half])
    weights = np.asarray(node_weights, dtype=float).reshape(grid.r_nodes.size, -1)
    moments = (grid.r_nodes[None, :] ** np.arange(2 * max_degree + 1)[:, None]) @ weights
    folded = moments[:, :half].copy()
    folded[0::2, :pairs] += moments[0::2, grid.antipodes]
    folded[1::2, :pairs] -= moments[1::2, grid.antipodes]
    degs = basis_degrees(d, max_degree)
    sizes = np.bincount(degs).tolist()
    out = np.empty((psi.shape[0], psi.shape[0]))
    buf = np.empty_like(psi)
    start = 0
    for k, size in enumerate(sizes):
        cols, stop = slice(start, start + size), start + size
        weighted = buf[:stop]
        # the indices are in range by construction; "clip" lets take write
        # into `weighted` directly instead of through a temporary
        np.take(folded, k + degs[:stop], axis=0, out=weighted, mode="clip")
        weighted *= psi[:stop]
        out[:stop, cols] = weighted @ psi[cols].T
        start = stop
    # row by row: a whole-matrix copy would make an M x M temporary
    for i in range(1, out.shape[0]):
        out[i, :i] = out[:i, i]
    return out
