"""Finite-section (Galerkin) compression of the Toeplitz operator for
general symbols in d = 2, 3: assembly, spectra (the total count and the
Schatten norms are `Spectrum` methods) and the matrix CSV dump.

The section is the compression to harmonic degrees <= max_degree.  For
nonnegative symbols its eigenvalues are monotone nondecreasing in the
truncation degree (min-max), so counting from exact sections yields lower
bounds for the full counting function.  The assembled section is exact
only when the tensor quadrature is: when the symbol's own angular and
radial content fits the grid's spare degrees, those beyond what the
products of two basis functions use (angular modes |m| <= 3 of V at d = 2
on the `TruncationSpec.for_degree` grid).  Otherwise the quadrature error
enters every eigenvalue, and a count is a lower bound only once that error
is bounded: for smooth Gaussian bumps at d = 2, K = 40 on the `for_degree`
grid one eigenvalue was off by 2.4% relative to a 3x grid.
"""
from __future__ import annotations

import numpy as np

from .grids import TruncationSpec, weighted_gram
from .harmonic_basis import basis_degrees, cumulative_multiplicity
from .numerics import symmetric_eigen
from .radial_toeplitz import Spectrum
from .symbols import symbol_on_grid

__all__ = [
    "assemble",
    "spectrum",
    "section_spectrum",
    "write_matrix_csv",
]


def assemble(V, d: int, spec: TruncationSpec) -> np.ndarray:
    """Section matrix with entries int_B V phi_i phi_j dx on degrees <= max_degree.

    Entries come from the tensor quadrature of the grid.  The Gram kernel is
    exactly symmetric and the normalisation sqrt(2k+d) sqrt(2k'+d) scales it
    by one symmetric outer product, so the section equals its transpose bit
    for bit.  A skewed kernel is not repaired here: `symmetric_eigen` refuses
    a matrix whose asymmetry exceeds 1e-10 relative.
    """
    if d not in (2, 3):
        raise ValueError(f"general-symbol assembly supports d in {{2, 3}}, got d={d}")
    grid, vals = symbol_on_grid(V, d, spec)
    norm = np.sqrt(2 * basis_degrees(d, spec.max_degree) + d)
    A = weighted_gram(d, spec.max_degree, grid, grid.weights * vals)
    A *= np.outer(norm, norm)
    return A


def spectrum(V, d: int, spec: TruncationSpec) -> Spectrum:
    """Eigenvalues of the finite section, sorted by decreasing magnitude."""
    return section_spectrum(assemble(V, d, spec))


def section_spectrum(matrix: np.ndarray) -> Spectrum:
    """Eigenvalues of an assembled section matrix, sorted by decreasing magnitude."""
    eigs = symmetric_eigen(matrix)
    order = np.argsort(-np.abs(eigs), kind="stable")
    return Spectrum(eigs[order], np.ones(eigs.size, dtype=np.int64))


def write_matrix_csv(path, rows, d: int, max_degree: int) -> None:
    """Row-major CSV dump with the header `# harmotop matrix d=<d> K=<K> n=<M_K>`.

    `rows` yields the M_K rows of M_K values each (a matrix yields its rows)
    and is read, formatted and written one row at a time; a row of another
    length, or another number of rows, raises ValueError.
    """
    n = cumulative_multiplicity(d, max_degree)
    row = ",".join(["%.17g"] * n) + "\n"
    count = 0
    with open(path, "w") as fh:
        fh.write(f"# harmotop matrix d={d} K={max_degree} n={n}\n")
        for count, values in enumerate(rows, 1):
            values = np.asarray(values, dtype=float)
            if count > n or values.shape != (n,):
                raise ValueError(f"row {count} of shape {values.shape} does not match M_K = {n}")
            fh.write(row % tuple(values.tolist()))
    if count != n:
        raise ValueError(f"{count} rows do not match M_K = {n}")
