"""Reference quantities that more than one test module compares against.

No command computes these; each is a closed form, an integral or a bound
from the paper that a test checks the package's results with.
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from harmotop import radial_toeplitz as rt
from harmotop.errors import TailNotCertifiedError
from harmotop.galerkin_toeplitz import spectrum
from harmotop.grids import TruncationSpec
from harmotop.harmonic_basis import cumulative_multiplicity, multiplicity, sphere_surface_area
from harmotop.kernel_berezin import _degree_weights, density_radial
from harmotop.symbols import RadialSymbol, TabulatedSymbol, symbol_on_grid


def step_constant(d: int, c: float) -> float:
    """Leading coefficient 2^(2-d)/((d-1)! |ln c|^(d-1)) of the step counting law."""
    return 2.0 ** (2 - d) / (math.factorial(d - 1) * abs(math.log(c)) ** (d - 1))


def power_constant(d: int, gamma: float, a: float) -> float:
    """Leading coefficient 2^(2-d)/(d-1)! (a Gamma(gamma+1))^((d-1)/gamma) of the power counting law."""
    if gamma <= 0.0 or a <= 0.0:
        raise ValueError("power constant needs gamma > 0 and a > 0")
    log_val = (
        (2 - d) * math.log(2.0)
        - math.lgamma(float(d))
        + (d - 1) / gamma * (math.log(a) + math.lgamma(gamma + 1.0))
    )
    return math.exp(log_val)


def envelope_kappa(d: int) -> float:
    """Remainder exponent of the counting envelopes: d/(d+2) for 2 <= d <= 4, (d-2)/(d-1) for d >= 4."""
    return d / (d + 2.0) if d <= 4 else (d - 2.0) / (d - 1.0)


def multiplicity_asymptotic_check(d: int, k_max: int) -> float:
    """max over k in [k_max/2, k_max] of |M_k (d-1)!/(2 k^(d-1)) - 1| * k.

    The growth law M_k = 2 k^(d-1)/(d-1)! (1 + O(1/k)) makes this quantity
    bounded; the caller asserts the bound.
    """
    fact = math.factorial(d - 1)
    return max(
        abs(cumulative_multiplicity(d, k) * fact / (2.0 * k ** (d - 1)) - 1.0) * k for k in range(k_max // 2, k_max + 1)
    )


def zonal_sum(d: int, k: int, t):
    """Rotation-invariant kernel sum_l psi_{k,l}(xi) psi_{k,l}(eta) at t = xi.eta.

    Equals m_k/|S^(d-1)| * C_k^(d/2-1)(t)/C_k^(d/2-1)(1) for d >= 3, and the
    Fourier kernel cos(k theta)/pi for d = 2 (1/(2 pi) at k = 0).
    """
    t_arr = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    if d == 2:
        out = np.full_like(t_arr, 1.0 / (2.0 * math.pi)) if k == 0 else np.cos(k * np.arccos(t_arr)) / math.pi
    else:
        alpha = 0.5 * d - 1.0
        ratio = sp.eval_gegenbauer(k, alpha, t_arr) / sp.eval_gegenbauer(k, alpha, 1.0)
        out = multiplicity(d, k) / sphere_surface_area(d) * ratio
    return float(out) if np.ndim(t) == 0 else out


class QuadratureDivergence(RuntimeError):
    """Two refinements of a tensor-grid integral disagreed beyond 1e-6 relative."""


def density_integral(V, d: int, max_degree: int, spec: TruncationSpec | None = None) -> float:
    """Integral of V against the truncated density rho_K dx.

    Radial symbols reduce to the exact one-dimensional moment sum
    sum_{k<=K} m_k mu_k.  A TabulatedSymbol integrates on its own grid (the
    default spec), for which no finer grid exists.  Any other symbol
    integrates on the tensor grid, with a refinement check that raises
    QuadratureDivergence when two refinements differ by more than 1e-6
    relative.
    """
    if isinstance(V, RadialSymbol):
        k = np.arange(max_degree + 1)
        return float(np.dot(_degree_weights(d, max_degree) / (2 * k + d), V.mu(d, k)))  # weights/(2k+d) = m_k
    if spec is None:
        spec = V.spec if isinstance(V, TabulatedSymbol) else TruncationSpec.for_degree(max_degree)
    value = _tensor_density_integral(V, d, max_degree, spec)
    if isinstance(V, TabulatedSymbol):
        return value
    refined = _tensor_density_integral(V, d, max_degree, TruncationSpec(max_degree, spec.n_r + 8, spec.n_ang + 4))
    if abs(value - refined) > 1e-6 * max(abs(value), abs(refined), 1e-300):
        raise QuadratureDivergence(f"density integral refinements disagree: {value!r} vs {refined!r}")
    return value


def _tensor_density_integral(V, d: int, max_degree: int, spec: TruncationSpec) -> float:
    grid, vals = symbol_on_grid(V, d, spec)
    return float(np.dot(grid.weights, density_radial(d, grid.radii, max_degree) * vals))


def norm_domination_check(V, d: int, spec: TruncationSpec, p: float, weak: bool = False):
    """Compare the section's Schatten norm against the symbol's integral norm.

    lhs: finite-section (weak) Schatten norm.  rhs: the L^p norm of V with
    respect to the truncated density measure rho_K dx (weak: the level-set
    quasinorm sup_t t rho_K(|V| > t)^(1/p), evaluated on the quadrature
    grid).  Returns (lhs, rhs, passed) with passed = lhs <= rhs*(1 + 1e-6).
    V must be nonnegative.
    """
    grid, vals = symbol_on_grid(V, d, spec)
    vals = np.maximum(vals, 0.0)
    rho = density_radial(d, grid.radii, spec.max_degree)
    section = spectrum(V, d, spec)
    lhs = section.schatten_weak(p) if weak else section.schatten(p)
    if not weak:
        rhs = float(np.dot(grid.weights, rho * vals**p)) ** (1.0 / p)
    else:
        order = np.argsort(-vals, kind="stable")
        masses = np.cumsum((grid.weights * rho)[order])
        rhs = float(np.max(vals[order] * masses ** (1.0 / p)))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6)


@dataclass(frozen=True)
class DecayCheck:
    sup_value: float
    argmax_j: int
    k_stop: int


def superpolynomial_decay_check(v: RadialSymbol, d: int, alpha: float, k_stop: int) -> DecayCheck:
    """sup over j of j^alpha s_j for a compactly supported radial symbol.

    The sup over the uncomputed tail is certified below the enumerated
    maximum; a profile that does not decay geometrically (support reaching
    the boundary) fails that certification and raises TailNotCertifiedError.
    """
    logs, counts, _ = rt._sorted_table(v, d, k_stop)
    # the first maximum; the sentinel -inf (count 0) answers an empty table
    cand = np.append(alpha * np.log(counts.astype(float)) + logs, -math.inf)
    at = int(np.argmax(cand))
    best_log, best_j = float(cand[at]), int(np.append(counts, 0)[at])
    if rt._weak_tail_sup_log(v.tails(d), d, k_stop, 1.0 / alpha) > best_log:
        raise TailNotCertifiedError("decay sup may live beyond the enumerated degrees")
    return DecayCheck(sup_value=math.exp(best_log), argmax_j=best_j, k_stop=k_stop)


def log_decay_at(v: RadialSymbol, d: int, alpha: float, j: int, k_stop: int) -> float:
    """ln (j^alpha s_j) for the expanded singular-value sequence, j within the degrees k <= k_stop."""
    logs, counts, _ = rt._sorted_table(v, d, k_stop)
    return alpha * math.log(j) + float(logs[np.searchsorted(counts, j)])  # first running count >= j


def sandwich_plus(*, ln_lam, eps, n_plus, remainder, offset: int = 0) -> tuple[list[int], list[int]]:
    """Lower and upper columns of n_plus((1+eps) lam) - remainder(eps) - offset
    <= N_plus <= n_plus(lam) - offset, clamped at 0, one eps per row; one
    n_plus call at every ln lam and ln lam + log1p(eps), one remainder call."""
    ln_lam, eps = list(ln_lam), [float(e) for e in eps]
    counts = [int(n) for n in n_plus(ln_lam + [t + math.log1p(e) for t, e in zip(ln_lam, eps, strict=True)])]
    rem = [int(r) for r in remainder(np.array(eps))]
    lower = [max(0, n - r - offset) for n, r in zip(counts[len(ln_lam) :], rem)]
    return lower, [max(0, n - offset) for n in counts[: len(ln_lam)]]
