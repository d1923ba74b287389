"""Finite-section (Galerkin) compression of the Toeplitz operator for
general symbols in d = 2, 3: assembly, spectra (counts and Schatten norms are
`Spectrum` methods), norm-domination checks and Weyl-inequality verification.

The section is the compression to harmonic degrees <= max_degree.  For
nonnegative symbols its eigenvalues are monotone nondecreasing in the
truncation degree (min-max), so counting from sections yields certified
lower bounds for the full counting function.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .grids import TruncationSpec, weighted_gram
from .harmonic_basis import basis_degrees, cumulative_multiplicity
from .kernel_berezin import density_radial
from .numerics import symmetric_eigen
from .radial_toeplitz import Spectrum
from .symbols import symbol_on_grid

__all__ = [
    "assemble",
    "spectrum",
    "section_spectrum",
    "norm_domination_check",
    "weyl_check",
    "write_matrix_csv",
]


def assemble(V, d: int, spec: TruncationSpec) -> np.ndarray:
    """Section matrix with entries int_B V phi_i phi_j dx on degrees <= max_degree.

    Entries come from the tensor quadrature of the grid; the result is
    symmetrised by averaging.  Both triangles come from the same quadrature,
    so the asymmetry measures rounding only (in the diagonal Gram blocks and
    in the two-sided scaling); beyond 1e-8 relative it raises a warning.
    """
    if d not in (2, 3):
        raise ValueError(f"general-symbol assembly supports d in {{2, 3}}, got d={d}")
    grid, vals = symbol_on_grid(V, d, spec)
    norm = np.sqrt(2 * basis_degrees(d, spec.max_degree) + d)
    A = weighted_gram(d, spec.max_degree, grid, grid.weights * vals)
    A *= norm[:, None]
    A *= norm[None, :]
    out = A - A.T
    asym = float(out.max())  # A - A.T is antisymmetric, so its largest entry is its largest |entry|
    scale = max(float(A.max()), -float(A.min()), 1e-300)
    if asym > 1e-8 * scale:
        warnings.warn(
            f"assembly asymmetry {asym:.2e} exceeds 1e-8 relative; both triangles use the same "
            "quadrature, so this is rounding error in the Gram kernel",
            RuntimeWarning,
        )
    return np.multiply(np.add(A, A.T, out=out), 0.5, out=out)


def spectrum(V, d: int, spec: TruncationSpec) -> Spectrum:
    """Eigenvalues of the finite section, sorted by decreasing magnitude."""
    return section_spectrum(assemble(V, d, spec), d, spec.max_degree)


def section_spectrum(matrix: np.ndarray, d: int, max_degree: int) -> Spectrum:
    """Eigenvalues of an assembled section matrix, sorted by decreasing magnitude."""
    eigs = symmetric_eigen(matrix)
    order = np.argsort(-np.abs(eigs), kind="stable")
    return Spectrum(eigs[order], np.ones(eigs.size, dtype=np.int64), max_degree=max_degree, d=d, provenance="galerkin")


def norm_domination_check(V, d: int, spec: TruncationSpec, p: float, weak: bool = False):
    """Compare the section's Schatten norm against the symbol's integral norm.

    lhs: finite-section (weak) Schatten norm.  rhs: the L^p norm of V with
    respect to the truncated density measure rho_K dx (weak: the level-set
    quasinorm sup_t t rho_K(|V| > t)^(1/p), evaluated on the quadrature
    grid).  Returns (lhs, rhs, passed) with passed = lhs <= rhs*(1 + 1e-6).
    Requires V >= 0.
    """
    if weak:
        if p <= 1.0:
            raise ValueError(f"weak exponent must be > 1, got {p}")
    elif p < 1.0:
        raise ValueError(f"exponent must be >= 1, got {p}")
    grid, vals = symbol_on_grid(V, d, spec)
    if np.min(vals) < -1e-12:
        raise ValueError("norm domination check requires a nonnegative symbol")
    vals = np.maximum(vals, 0.0)
    rho = density_radial(d, grid.radii, spec.max_degree)
    sp = spectrum(V, d, spec)
    lhs = sp.schatten_weak(p) if weak else sp.schatten(p)
    if not weak:
        rhs = float(np.dot(grid.weights, rho * vals**p)) ** (1.0 / p)
    else:
        order = np.argsort(-vals, kind="stable")
        masses = np.cumsum((grid.weights * rho)[order])
        rhs = float(np.max(vals[order] * masses ** (1.0 / p)))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6)


def weyl_check(A: np.ndarray, B: np.ndarray, trials: int = 100, rng=None) -> bool:
    """Verify n_pm(s1+s2; A+B) <= n_pm(s1; A) + n_pm(s2; B) on an (s1, s2) sample.

    Uses a deterministic log-spaced grid plus `trials` random pairs drawn
    over the combined spectral range; returns False on any violation.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    ea = symmetric_eigen(A)
    eb = symmetric_eigen(B)
    es = symmetric_eigen(A + B)
    top = max(float(np.max(np.abs(ea))), float(np.max(np.abs(eb))), 1e-12)
    grid = np.geomspace(1e-4 * top, 1.5 * top, 10)
    pairs = [(s1, s2) for s1 in grid for s2 in grid]
    if trials > 0:
        rng = np.random.default_rng(rng if rng is not None else 0)
        lo, hi = math.log(1e-4 * top), math.log(1.5 * top)
        pairs.extend(
            (math.exp(a), math.exp(b)) for a, b in rng.uniform(lo, hi, size=(trials, 2))
        )
    for s1, s2 in pairs:
        for sign in (1, -1):
            if np.count_nonzero(sign * es > s1 + s2) > np.count_nonzero(sign * ea > s1) + np.count_nonzero(sign * eb > s2):
                return False
    return True


def write_matrix_csv(path, A: np.ndarray, d: int, max_degree: int) -> None:
    """Row-major CSV dump with the header `# harmotop matrix d=<d> K=<K> n=<M_K>`."""
    A = np.asarray(A, dtype=float)
    n = cumulative_multiplicity(d, max_degree)
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match M_K = {n}")
    row = ",".join(["%.17g"] * n) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# harmotop matrix d={d} K={max_degree} n={n}\n")
        fh.writelines(row % tuple(values.tolist()) for values in A)  # one row's text at a time
