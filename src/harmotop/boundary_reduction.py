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

ORDER_CHECK_DEGREE = 10_000  # the degree k at which symbol_order_check evaluates mu_k's large-degree law


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
    return _exp_or_refuse(math.log(v.a) - v.gamma * math.log(2.0) + math.lgamma(v.gamma + 1.0), v)


def symbol_order_check(v: Power, d: int) -> float:
    """(w/2)^gamma mu_k / (1 + gamma(gamma^2-1)/(24 w^2)) at k = ORDER_CHECK_DEGREE,
    w = 2k+d+(gamma+1)/2, which tends to :func:`principal_symbol_value`.

    With x = 2k+d+1 = w - (gamma-1)/2 (the shift `Power.crossing_degree`
    inverts), mu_k = a Gamma(gamma+1) Gamma(x)/Gamma(x+gamma) and
    Gamma(x)/Gamma(x+gamma) = w^-gamma (1 + gamma(gamma^2-1)/(24 w^2) + O(w^-4)),
    with no w^-1 term (DLMF 5.11.13-15).  Formed in the log domain from `Power.log_mu`.
    """
    g, w = v.gamma, 2.0 * ORDER_CHECK_DEGREE + d + 0.5 * (v.gamma + 1.0)
    log_mu = float(v.log_mu(d, ORDER_CHECK_DEGREE)[1])
    return _exp_or_refuse(g * math.log(0.5 * w) + log_mu - math.log1p(g * (g * g - 1.0) / (24.0 * w * w)), v)


def _exp_or_refuse(log_value: float, v: Power) -> float:
    """exp(log_value), a value near the principal symbol of v; TailNotCertifiedError past the doubles."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise TailNotCertifiedError(f"2^-gamma Gamma(gamma+1) a overflows a double (gamma = {v.gamma})") from None


def inverse_power_weyl_fit(v: Power, d: int, e_grid) -> AsymptoticFit:
    """Counting law of the inverse-power reduced operator of v against C E^(d-1).

    Counts the degrees with mu_k^(-1/gamma) < E (with multiplicities),
    which coincides with the Toeplitz counting function at lam = E^-gamma,
    and fits count ~ C E^(d-1) by regressing count^(1/(d-1)) on E, which is
    `asymptotic_fit(v, d, ln_lam_grid=-gamma ln E, exponent=(d-1)/gamma)` to
    rounding.  C approaches the boundary counting constant.  A count that does
    not grow over the grid, or a C that is not a positive finite double, raises
    TailNotCertifiedError.
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
    return _power_law_fit(ln_lam, counts, n, np.log(e_arr), d - 1)
