"""Reduction of the Toeplitz operator to the boundary sphere.

On the ball the harmonic extension acts degree-wise as r^k and its Gram
operator is diagonal with eigenvalues 1/(2k+d).  Conjugating the V-weighted
extension Gram form by the inverse square root gives the Galerkin section of
the Toeplitz compression exactly (the unitary is the map boundary harmonic
-> normalised solid harmonic), so the section matrix is
`galerkin_toeplitz.assemble`.  The module checks the order of the reduced
operator as a pseudo-differential operator: its leading symbol on the
co-sphere is 2^-gamma Gamma(gamma+1) a0 |frequency|^-gamma for symbols with
power-type boundary decay.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import TailNotCertifiedError
from .radial_toeplitz import AsymptoticFit, _as_doubles, _power_law_fit, counting
from .symbols import Power

__all__ = [
    "extension_gram_eigenvalue",
    "dtn_eigenvalue",
    "principal_symbol_value",
    "symbol_order_check",
    "inverse_power_weyl_fit",
]

ORDER_CHECK_DEGREE = 10_000  # the k of symbol_order_check's extrapolation over k/2 and k


def extension_gram_eigenvalue(d: int, k: int) -> float:
    """<G psi_k, G psi_k> = int_0^1 r^(2k) r^(d-1) dr = 1/(2k+d)."""
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    return 1.0 / (2 * k + d)


def dtn_eigenvalue(d: int, k: int) -> float:
    """Dirichlet-to-Neumann eigenvalue: normal derivative of r^k at r = 1."""
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    return float(k)


def principal_symbol_value(v: Power) -> float:
    """Leading symbol amplitude 2^-gamma Gamma(gamma+1) a of the reduced operator."""
    return v.a * math.exp(-v.gamma * math.log(2.0) + math.lgamma(v.gamma + 1.0))


def symbol_order_check(v: Power, d: int) -> float:
    """Estimate lim k^gamma mu_k for the power symbol v by Richardson extrapolation.

    Two-point extrapolation over k/2 and k = ORDER_CHECK_DEGREE cancels the
    1/k term of the expansion; compare against :func:`principal_symbol_value`
    (the degree k plays the co-sphere frequency, with the O(1/k) mismatch
    absorbed by the extrapolation).  A k^gamma beyond the double range
    (gamma above 77.06) raises TailNotCertifiedError.
    """
    k = ORDER_CHECK_DEGREE
    try:
        scale = float(k) ** v.gamma
    except OverflowError:
        raise TailNotCertifiedError(f"k^gamma at k = {k} is beyond the double range (gamma = {v.gamma})") from None
    mu_half, mu_full = v.mu(d, np.array([k // 2, k]))
    return 2.0 * (scale * mu_full) - (k // 2) ** v.gamma * mu_half


def inverse_power_weyl_fit(v: Power, d: int, e_grid) -> AsymptoticFit:
    """Counting law of the inverse-power reduced operator of v against C E^(d-1).

    Counts the degrees with mu_k^(-1/gamma) < E (with multiplicities),
    which coincides with the Toeplitz counting function at lam = E^-gamma,
    and fits the power law with pinned exponent d-1 by regressing
    count^(1/(d-1)) on E.  The coefficient approaches the boundary counting
    constant.  A count that does not grow over the grid, or a coefficient
    that is not a positive finite double, raises TailNotCertifiedError.
    """
    e_arr = np.asarray(e_grid, dtype=float)
    if e_arr.size < 4:
        raise ValueError(f"need at least 4 grid points, got {e_arr.size}")
    if np.any(e_arr <= 1.0) or np.any(np.diff(e_arr) <= 0.0):
        raise ValueError("energy grid must be increasing and > 1")
    ln_lam = -v.gamma * np.log(e_arr)
    counts = counting(v, d, ln_lam=ln_lam)
    n = _as_doubles(counts, d, e_arr.tolist(), "E = {!r}")
    if np.any(n < 1.0):
        raise ValueError("counting vanished on part of the energy grid")
    return _power_law_fit(ln_lam, counts, n, np.log(e_arr), d - 1, e_arr)
