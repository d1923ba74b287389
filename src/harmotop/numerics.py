"""Quadrature rules, special functions, and a dense symmetric eigensolver.

Everything here is pure and reentrant; no shared mutable state apart from a
read-only cache of Bessel zeros.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_jacobi01",
    "log_gamma",
    "beta",
    "gegenbauer",
    "bessel_j",
    "bessel_j_zero",
    "bessel_zeros_upto",
    "symmetric_eigen",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights of a quadrature rule on the open interval (a, b).

    For a plain Gauss-Legendre rule the weights sum to b - a and polynomials
    up to degree 2*order - 1 are integrated exactly.  Rules carrying a weight
    function (see :func:`gauss_jacobi01`) sum to the mass of that weight.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    a: float
    b: float

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_legendre(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with `order` points on (a, b).

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if not a < b:
        raise ValueError(f"empty interval: a={a} >= b={b}")
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return QuadratureRule(
        nodes=half * (x + 1.0) + a,
        weights=half * w,
        order=order,
        a=float(a),
        b=float(b),
    )


def gauss_jacobi01(order: int, gamma: float) -> QuadratureRule:
    """Gauss rule for the weight u^gamma on (0, 1): sum w_i f(u_i) = int_0^1 u^gamma f(u) du.

    Built by Golub-Welsch from the monic Jacobi recurrence coefficients for
    the weight (1+x)^gamma on (-1, 1), mapped to (0, 1).  Exact for
    polynomial f of degree <= 2*order - 1; the weights sum to 1/(gamma+1).
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    if gamma <= -1.0:
        raise ValueError(f"weight exponent must be > -1, got {gamma}")
    # Monic Jacobi recurrence for the weight (1+x)^gamma on (-1, 1).
    i = np.arange(1, order, dtype=float)
    diag = np.empty(order)
    diag[0] = gamma / (gamma + 2.0)
    if order > 1:
        diag[1:] = gamma * gamma / ((2 * i + gamma) * (2 * i + gamma + 2))
        s = 2 * i + gamma
        b2 = 4 * i * i * (i + gamma) ** 2 / (s * s * (s * s - 1))
    T = np.diag(diag)
    if order > 1:
        off = np.sqrt(b2)
        T += np.diag(off, 1) + np.diag(off, -1)
    x, v = np.linalg.eigh(T)
    # Golub-Welsch weights carry the total mass 2^(gamma+1)/(gamma+1); the
    # map u = (1+x)/2 divides them by 2^(gamma+1), leaving v0^2/(gamma+1).
    w = v[0, :] ** 2 / (gamma + 1.0)
    u = 0.5 * (x + 1.0)
    return QuadratureRule(nodes=u, weights=w, order=order, a=0.0, b=1.0)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(p: float, q: float) -> float:
    """Euler beta function B(p, q) = Gamma(p)Gamma(q)/Gamma(p+q), p, q > 0."""
    if p <= 0.0 or q <= 0.0:
        raise ValueError(f"beta requires positive arguments, got ({p}, {q})")
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def gegenbauer(k: int, alpha: float, t):
    """Gegenbauer polynomial C_k^(alpha)(t) on [-1, 1] by the three-term recurrence.

    Accepts scalar or ndarray t.  alpha=1/2 gives the Legendre polynomials.
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if alpha <= 0.0:
        raise ValueError(f"Gegenbauer parameter must be positive, got {alpha}")
    scalar = np.ndim(t) == 0
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.abs(t_arr) > 1.0 + 1e-12):
        raise ValueError("Gegenbauer argument outside [-1, 1]")
    c_prev = np.ones_like(t_arr)
    if k == 0:
        return float(c_prev) if scalar else c_prev
    c_cur = 2.0 * alpha * t_arr
    for n in range(2, k + 1):
        c_prev, c_cur = c_cur, (2.0 * t_arr * (n + alpha - 1.0) * c_cur - (n + 2.0 * alpha - 2.0) * c_prev) / n
    return float(c_cur) if scalar else c_cur


# ---------------------------------------------------------------------------
# Bessel functions of the first kind and their positive zeros.
# J_0, J_1: power series for x <= 12, Hankel asymptotic expansion beyond.
# Higher orders: backward (Miller) recurrence with the standard normalisation
# J_0 + 2 J_2 + 2 J_4 + ... = 1, stable for every (k, x).
# ---------------------------------------------------------------------------


def _j01_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = 0.25 * x * x
    j0 = np.ones_like(x)
    j1 = np.ones_like(x)
    t0 = np.ones_like(x)
    t1 = np.ones_like(x)
    for m in range(1, 44):
        t0 = t0 * (-q) / (m * m)
        t1 = t1 * (-q) / (m * (m + 1))
        j0 += t0
        j1 += t1
    return j0, 0.5 * x * j1


def _j01_asymptotic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = []
    for nu in (0, 1):
        mu = 4.0 * nu * nu
        inv8x = 1.0 / (8.0 * x)
        p = np.ones_like(x)
        q = np.zeros_like(x)
        term = np.ones_like(x)
        for m in range(1, 13):
            term = term * (mu - (2 * m - 1) ** 2) * inv8x / m
            if m % 2 == 1:
                q += term if (m % 4 == 1) else -term
            else:
                p += -term if (m % 4 == 2) else term
        chi = x - (0.5 * nu + 0.25) * math.pi
        out.append(np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi)))
    return out[0], out[1]


def _j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The truncated asymptotic expansion bottoms out near 5e-9 for x just
    # above the series range, so the intermediate window goes through the
    # normalised backward recurrence instead.
    x = np.asarray(x, dtype=float)
    small = x <= 12.0
    large = x > 30.0
    mid = ~small & ~large
    j0 = np.empty_like(x)
    j1 = np.empty_like(x)
    if np.any(small):
        a, b = _j01_series(x[small])
        j0[small], j1[small] = a, b
    if np.any(mid):
        j0[mid], j1[mid] = _miller_pair(1, x[mid])
    if np.any(large):
        a, b = _j01_asymptotic(x[large])
        j0[large], j1[large] = a, b
    return j0, j1


def bessel_j(k: int, x):
    """Bessel function J_k(x) for x >= 0, scalar or ndarray argument."""
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    if k <= 1:
        j0, j1 = _j01(np.where(xa == 0.0, 1.0, xa))
        res = np.where(xa == 0.0, 1.0 if k == 0 else 0.0, (j0 if k == 0 else j1))
        return float(res[0]) if scalar else res

    res = np.zeros_like(xa)
    pos = xa > 0.0
    if np.any(pos):
        res[pos] = _jk_pair(k, xa[pos])[1]
    return float(res[0]) if scalar else res


def _upward_pair(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j0, j1 = _j01(x)
    if k == 0:
        return -j1, j0
    prev, cur = j0, j1
    for n in range(1, k):
        prev, cur = cur, (2.0 * n / x) * cur - prev
    return prev, cur


def _jk_pair(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{k-1}(x), J_k(x)) for k >= 1, or (-J_1, J_0) for k = 0."""
    if k <= 1 or float(np.min(x)) >= k:
        # Oscillatory region: upward order recurrence from J_0, J_1 is
        # stable for all intermediate orders n < k <= x.
        return _upward_pair(k, x)
    return _miller_pair(k, x)


def _miller_pair(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{k-1}(x), J_k(x)) for k >= 1 from one normalised backward sweep."""
    xmax = float(np.max(x))
    start = int(max(k, xmax) + 16.0 * math.sqrt(max(k, xmax) + 1.0) + 24)
    if start % 2 == 1:
        start += 1
    bp = np.zeros_like(x)          # J~_{n+1}
    bc = np.full_like(x, 1e-30)    # J~_{n}
    norm = np.zeros_like(x)
    jk = np.zeros_like(x)
    jkm1 = np.zeros_like(x)
    for n in range(start, 0, -1):
        bm = (2.0 * n / x) * bc - bp
        bp, bc = bc, bm
        if n - 1 == k:
            jk = bc.copy()
        elif n - 1 == k - 1:
            jkm1 = bc.copy()
        if (n - 1) % 2 == 0:
            norm += bc if n - 1 == 0 else 2.0 * bc
        big = np.abs(bc) > 1e250
        if np.any(big):
            scale = np.where(big, 1e-250, 1.0)
            bp *= scale
            bc *= scale
            norm *= scale
            jk *= scale
            jkm1 *= scale
    return jkm1 / norm, jk / norm


def _bessel_zero_block(k: int, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Refine one zero of J_k inside each bracket: bisection, then Newton."""
    lo = lower.copy()
    hi = upper.copy()
    flo = bessel_j(k, lo)
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(k, mid)
        take_lo = np.sign(fm) == np.sign(flo)
        lo = np.where(take_lo, mid, lo)
        flo = np.where(take_lo, fm, flo)
        hi = np.where(take_lo, hi, mid)
    z = 0.5 * (lo + hi)
    for _ in range(3):
        prev, cur = _jk_pair(k, z)
        deriv = prev - (k / z) * cur
        step = np.where(deriv != 0.0, cur / np.where(deriv == 0.0, 1.0, deriv), 0.0)
        z_new = z - step
        z = np.where((z_new > lo) & (z_new < hi), z_new, z)
    return z


# Consecutive zeros of J_k are separated by at least j_{0,2}-j_{0,1} > 3.1
# (for k >= 1/2 the gaps even exceed pi), so a scan with step 1.5 brackets
# every zero exactly once.
_SCAN_STEP = 1.5

_zero_cache: dict[int, np.ndarray] = {}
_scan_reach: dict[int, float] = {}


def _scan_zeros(k: int, x_hi: float) -> np.ndarray:
    """All zeros of J_k in (0, x_hi], found by sign scan + refinement.

    Results are cached per order together with the scanned range, so growing
    requests only pay for the new interval.
    """
    lo_edge = max(float(k), 1e-8)
    if x_hi <= lo_edge:
        return np.empty(0)
    reach = _scan_reach.get(k, lo_edge)
    if x_hi <= reach:
        cached = _zero_cache.get(k, np.empty(0))
        return cached[cached <= x_hi]
    grid = np.arange(reach, x_hi + _SCAN_STEP, _SCAN_STEP)
    vals = bessel_j(k, grid)
    flip = np.sign(vals[:-1]) != np.sign(vals[1:])
    new = (
        _bessel_zero_block(k, grid[:-1][flip], grid[1:][flip])
        if np.any(flip)
        else np.empty(0)
    )
    merged = np.concatenate([_zero_cache.get(k, np.empty(0)), new])
    if merged.size > 1:  # guard against a zero sitting exactly on the seam
        merged = merged[np.concatenate(([True], np.diff(merged) > 1e-9))]
    _zero_cache[k] = merged
    _scan_reach[k] = float(grid[-1])
    return merged[merged <= x_hi]


def _zeros_of_order(k: int, count: int) -> np.ndarray:
    cached = _zero_cache.get(k)
    if cached is not None and len(cached) >= count:
        return cached[:count]
    # McMahon-style upper estimate for j_{k,count}, enlarged until the scan
    # actually yields enough sign changes.
    x_hi = (count + 0.5 * k + 0.25) * math.pi + 2.0
    zeros = _scan_zeros(k, x_hi)
    while len(zeros) < count:
        x_hi += (count - len(zeros) + 2) * math.pi
        zeros = _scan_zeros(k, x_hi)
    return zeros[:count]


def bessel_j_zero(k: int, m: int) -> float:
    """m-th positive zero j_{k,m} of J_k, accurate to better than 1e-10.

    Zeros are bracketed by a sign scan (step below half the minimal zero
    gap) and refined by bisection plus a safeguarded Newton polish.
    """
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    if m < 1:
        raise ValueError(f"zero index must be >= 1, got {m}")
    return float(_zeros_of_order(k, m)[m - 1])


def bessel_zeros_upto(x_max: float, first_order: int = 0) -> list[tuple[int, np.ndarray]]:
    """All zeros j_{k,m} <= x_max for k >= first_order, grouped by order.

    Orders are scanned upward until none of the zeros of J_k fall below
    x_max any more (j_{k,1} > k, so the scan terminates).
    """
    out: list[tuple[int, np.ndarray]] = []
    k = first_order
    while x_max > k:
        zeros = _scan_zeros(k, float(x_max))
        if len(zeros) == 0:
            break
        out.append((k, zeros))
        k += 1
    return out


def symmetric_eigen(A: np.ndarray, vectors: bool = False):
    """All eigenvalues (ascending) of a real symmetric matrix.

    With vectors=True also returns the orthonormal eigenvector matrix
    (columns).  Rejects non-finite input and input whose asymmetry exceeds
    1e-10 relative.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = float(np.max(np.abs(A)))
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if float(np.max(np.abs(A - A.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric to 1e-10 relative")
    sym = 0.5 * (A + A.T)
    if vectors:
        vals, vecs = np.linalg.eigh(sym)
        return vals, vecs
    return np.linalg.eigvalsh(sym)
