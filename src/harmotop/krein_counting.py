"""Effective-Hamiltonian arithmetic for the perturbed soft Laplacian.

The counting functions of the perturbed operator near zero are sandwiched
between Toeplitz counting functions evaluated at shifted thresholds plus a
resolvent remainder.  The remainder is modelled through the spectrum of the
complementary restriction, which on the disk is the classical clamped
buckling spectrum {j_{k+1,m}^2} (multiplicity 1 for k = 0, 2 for k >= 1);
that identification is a working oracle confined to :func:`disk_counting`,
so the sandwich arithmetic itself never depends on it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import TailNotCertifiedError
from .numerics import bessel_zero_counts
from .radial_toeplitz import _refuse_flat, boundary_law_constant

__all__ = [
    "lam_power",
    "sandwich_minus",
    "counting_envelope",
    "disk_counting",
    "weyl_L_fit",
    "remainder_model",
]


def lam_power(ln_lam, e: float) -> list[float]:
    """lam**e at lam = exp(t) for each t in ln_lam: lam**e where lam is a
    positive double, exp(e t) where it underflows to 0, inf past the double
    range.  Python floats keep libm's rounding; numpy's SIMD exp and power
    do not promise it."""
    out = []
    for t in ln_lam:
        lam = math.exp(t)
        try:
            out.append(lam**e if lam > 0.0 else math.exp(e * t))
        except OverflowError:
            out.append(math.inf)
    return out


def sandwich_minus(*, ln_lam, eps, n_plus, remainder) -> tuple[list[int], list[int]]:
    """Lower and upper columns of n_plus(lam) <= N_minus <= n_plus((1-eps) lam)
    + remainder(eps) on a grid, one eps per row; n_plus maps a list of ln
    thresholds to counts (one call, at every ln lam and ln lam + log1p(-eps)),
    remainder an array of eps to counts (one call)."""
    ln_lam, eps = list(ln_lam), [float(e) for e in eps]
    bad = [e for e in eps if not 0.0 < e < 1.0]
    if bad:
        raise ValueError(f"eps must lie in (0, 1), got {bad[0]}")
    counts = [int(n) for n in n_plus(ln_lam + [t + math.log1p(-e) for t, e in zip(ln_lam, eps, strict=True)])]
    lower = counts[: len(ln_lam)]
    upper = [n + int(r) for n, r in zip(counts[len(ln_lam) :], remainder(np.array(eps)))]
    if any(lo > up for lo, up in zip(lower, upper)):
        raise ValueError("empty bound interval: a lower bound exceeds its upper bound")
    return lower, upper


def counting_envelope(d: int, gamma: float, a0: float, *, ln_lam) -> list[float]:
    """Envelope main term C lam^(-(d-1)/gamma) at every lam = exp(t), t in
    ln_lam, with C the boundary law constant.  A main term beyond the double
    range raises TailNotCertifiedError."""
    if d < 2:
        raise ValueError(f"space dimension must be >= 2, got {d}")
    coeff = boundary_law_constant(d, gamma, a0)
    main = [coeff * x for x in lam_power(ln_lam, -(d - 1) / gamma)]
    if not all(map(math.isfinite, main)):
        raise TailNotCertifiedError(f"envelope_main is beyond the double range at ln lambda = {float(min(ln_lam))!r}")
    return main


# --- disk buckling oracle ----------------------------------------------------

# A count sweeps sqrt(E) + 16 E^(1/4) + 24 Bessel orders: 1.05e5 at E = 1e10,
# a third of a second on a 2-core VM.  Larger energies are refused rather
# than left running for minutes.
_MAX_SWEEP_ENERGY = 1e10


def disk_counting(energy):
    """Number of disk buckling values strictly below `energy` (with multiplicity).

    The values are j_{k+1,m}^2 with multiplicity 1 for k = 0 and 2 for
    k >= 1, so the count is n_1 + 2 sum_{k>=2} n_k at sqrt(energy), where
    n_k counts the zeros of J_k below it: one Bessel sweep per call, for a
    scalar energy (returns an int) or an array of them (an int array).
    """
    e = np.asarray(energy, dtype=float)
    beyond = ~(e <= _MAX_SWEEP_ENERGY)
    if np.any(beyond):
        raise TailNotCertifiedError(
            f"buckling count at E={float(e[beyond].flat[0])!r}: the Bessel sweep is bounded to E <= {_MAX_SWEEP_ENERGY:g}"
        )
    # every count is 0 below j_{1,1}^2 = 14.68, so clamping at 1 keeps x > 0
    total = np.zeros(e.shape, dtype=np.int64)
    for k, n in bessel_zero_counts(np.sqrt(np.maximum(e, 1.0))):
        if k == 0:
            break
        total += n if k == 1 else 2 * n
    return int(total) if total.ndim == 0 else total


def weyl_L_fit(e_grid) -> tuple[float, float, np.ndarray]:
    """Fit of the disk buckling counting function to C E: (exponent,
    coefficient, counts), with the counts at every grid energy.

    The exponent comes from a free log-log fit; the coefficient from the
    deepest grid point.  The planar leading coefficient is area/(4 pi) = 1/4.
    Counts that are the same at every grid point raise TailNotCertifiedError.
    """
    e_arr = np.asarray(e_grid, dtype=float)
    if e_arr.size < 2 or np.any(np.diff(e_arr) <= 0.0):
        raise ValueError("energy grid must be increasing with >= 2 points")
    counts = disk_counting(e_arr)
    if np.any(counts < 1):
        raise ValueError("energy grid starts below the first buckling value")
    _refuse_flat(counts)
    exponent = float(np.polyfit(np.log(e_arr), np.log(counts), 1)[0])
    coefficient = float(counts[-1] / e_arr[-1])
    return exponent, coefficient, counts


def remainder_model(eps, v_sup: float, lam1: float, d: int):
    """Model for the resolvent remainder: counting of the complementary
    spectrum below lam1 + v_sup/eps.

    For d = 2 the disk buckling oracle is evaluated exactly; for d >= 3 a
    unit-constant E^(d/2) growth model stands in (a model, not a certified
    bound).  A scalar eps gives an int; an array of them gives one count per
    entry from a single oracle sweep (at d >= 3 an object array of Python
    ints, which may pass 2^63).  An energy beyond the oracle's bound, or a
    model count beyond the floating-point range, raises TailNotCertifiedError.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0):
        raise ValueError(f"eps must be positive, got {float(np.min(eps))}")
    if v_sup < 0.0 or lam1 <= 0.0:
        raise ValueError("need v_sup >= 0 and lam1 > 0")
    with np.errstate(over="ignore"):  # the oracle or the model check below refuses an infinite energy
        energy = lam1 + v_sup / eps
    if d == 2:
        return disk_counting(energy)
    with np.errstate(over="ignore"):
        model = energy ** (0.5 * d)
    beyond = ~np.isfinite(model)
    if np.any(beyond):
        raise TailNotCertifiedError(
            f"remainder model E^(d/2) is not finite at E={float(energy[beyond].flat[0])!r}, d={d}"
        )
    if model.ndim == 0:
        return int(model)
    return np.array([int(m) for m in model.flat], dtype=object).reshape(model.shape)
