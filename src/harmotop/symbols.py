"""Symbol types: radial profiles on [0, 1) and general multipliers on the ball.

Radial variants (subclasses of RadialSymbol):
  Step(b, c)        v(r) = b on [0, c], 0 beyond (c in (0, 1))
  Power(a, gamma)   v(r) = a (1 - r)^gamma
  Sampled(r, v)     piecewise-linear through strictly increasing nodes in
                    [0, 1); constant continuation before the first node and
                    after the last one (so v(1-) is the last sample)
  SymbolSum(parts)  pointwise sum of radial symbols

For V(x) = v(|x|) the Toeplitz operator acts on the degree-k harmonics as
multiplication by mu_k = (2k+d) int_0^1 v(r) r^(2k+d-1) dr, so each variant
is described by its profile, its mu_k and a certified bound on |mu_k| (a
sum of TailTerms); SymbolSum composes the results of its parts.

A general symbol is any callable V(points) that maps an (n, d) array of
points of the open unit ball to n values; tabulated symbols carry their
values on one tensor quadrature grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TailNotCertifiedError
from .grids import BallGrid, TruncationSpec, ball_grid

__all__ = [
    "TailTerm",
    "RadialSymbol",
    "Step",
    "Power",
    "Sampled",
    "SymbolSum",
    "TabulatedSymbol",
    "symbol_on_grid",
]

_NEG_INF = float("-inf")


# --- signed log arithmetic ---------------------------------------------------


def _signed_log_add(terms):
    """sum_i s_i exp(l_i) as (sign, log abs) arrays over terms (s_i, l_i) of one
    shape, l_i = -inf where s_i = 0 (no terms give 0).  One pass with a
    running maximum `top`; acc holds the sum over exp(top)."""
    terms = iter(terms)
    s, top = next(terms, (0, _NEG_INF))
    acc = np.full(np.shape(top), s, dtype=float)
    for s, l in terms:
        new_top = np.maximum(top, l)
        ref = np.where(np.isfinite(new_top), new_top, 0.0)  # +-inf terms stay +-inf
        acc = acc * np.exp(top - ref) + s * np.exp(l - ref)
        top = new_top
    with np.errstate(divide="ignore"):
        log_abs = np.where(acc != 0.0, top + np.log(np.abs(acc)), _NEG_INF)
    return np.sign(acc).astype(np.int64), log_abs


# ln Gamma(x) - ln Gamma(x+g) from x = _STIRLING_FROM on (`Power.log_mu`): the
# difference of two Stirling series (DLMF 5.11.1), arranged so that no large
# terms cancel.  The plain lgamma difference loses about x ln(x) * 2^-52 to rounding (4e-13
# relative near x = 1000, 0.4 absolute near x = 1e14).  From x = 50 on, three
# Bernoulli terms leave a truncation error below (1/1680) x^-7 < 1e-15 in each
# series and far less in their difference, which is what enters.
_STIRLING_FROM = 50.0


def _stirling_series(x):
    """sum_(m=1..3) B_2m/(2m(2m-1)) x^(1-2m) for a float or an array x."""
    z = 1.0 / (x * x)
    return (1.0 / 12.0 + z * (-1.0 / 360.0 + z / 1260.0)) / x


# ln 2^-1075: a positive value at most 2^-1075 rounds to +0.0
_LOG_HALF_TINY = -1075.0 * math.log(2.0)


def _linear_product(step: int, shift: int, lo: int, hi: int) -> int:
    """prod (step j + shift) over lo <= j < hi, exact, by a product tree (halves
    multiplied together, so the large products pair numbers of like size)."""
    if hi - lo <= 32:
        return math.prod(range(step * lo + shift, step * hi + shift, step))
    mid = (lo + hi) // 2
    return _linear_product(step, shift, lo, mid) * _linear_product(step, shift, mid, hi)


def _prefix_products(a: float, g: float, at: list[int]) -> list[float]:
    """a prod_(j=1..i) j/(j+g) for each i of the increasing list `at`, each the
    correctly rounded quotient of two integers (g = p/q).  Each gap between
    two indices is one product tree; from the first index whose lgamma
    estimate (with a margin far above its rounding) lies below ln 2^-1075 on,
    the value is +0.0 without forming it, as the quotient would round to."""
    (num, den), (p, q) = a.as_integer_ratio(), g.as_integer_ratio()
    out, last = [], 0
    for i in at:
        logs = (math.log(a), math.lgamma(g + 1.0), math.lgamma(i + 1.0), -math.lgamma(i + 1.0 + g))
        if sum(logs) < _LOG_HALF_TINY - 1.0 - 1e-14 * sum(map(abs, logs)):
            break
        num *= _linear_product(q, 0, last + 1, i + 1)
        den *= _linear_product(q, p, last + 1, i + 1)
        out.append(num / den)
        last = i
    return out + [0.0] * (len(at) - len(out))


def _log_pow_diff(a, r_hi: float, r_lo: float):
    """log(r_hi^a - r_lo^a) for 0 <= r_lo < r_hi < 1, elementwise in a > 0."""
    hi = a * math.log(r_hi)
    if r_lo == 0.0:
        return hi
    return hi + np.log(-np.expm1(a * math.log1p((r_lo - r_hi) / r_hi)))


# --- radial symbols ----------------------------------------------------------


@dataclass(frozen=True)
class TailTerm:
    """The bound exp(log_c + k log_q) (2k+d)^-gamma over the degrees k, with
    log_q <= 0 and gamma >= 0, so nonincreasing; log_q = gamma = 0 is a floor,
    the limit v(1-) of a profile that does not vanish at the boundary.

    The terms of `RadialSymbol.tails` sum to a certified bound on |mu_k| at
    every degree.  Sum rule: each reader of that bound (its limit, its sup over
    a tail, its p-sum against the multiplicities, its weak sup) is a seminorm
    of the bound sequence, so it is at most the sum of its values on the
    terms (the triangle inequality; Minkowski's for the p-sum).
    """

    log_c: float
    log_q: float = 0.0
    gamma: float = 0.0

    def log_bound(self, d: int, k):
        """log of the bound at degree k, elementwise."""
        return self.log_c + k * self.log_q - self.gamma * np.log(2 * k + d)


class RadialSymbol:
    """Radial profile v on [0, 1), acting as the multiplier V(x) = v(|x|)."""

    #: |mu_k| is nonincreasing in k with a fixed sign, so counting may search
    #: for the crossing degree (estimated by `crossing_degree`).
    monotone = False

    def values(self, r) -> np.ndarray:
        """Evaluate the profile at radii r in [0, 1)."""
        raise NotImplementedError

    def sup(self) -> float:
        """An upper bound for sup |v| on [0, 1)."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior radii where the profile is not smooth (jumps and kinks).

        Quadrature rules split at these radii so that piecewise-polynomial
        profiles integrate exactly.
        """
        return ()

    def log_mu(self, d: int, k):
        """(sign, log |mu_k|), exact in the log domain, elementwise over integer degrees k."""
        raise NotImplementedError

    def mu(self, d: int, k) -> np.ndarray:
        """mu_k in closed form (a few ulp), elementwise over an integer ndarray k."""
        raise NotImplementedError

    def tails(self, d: int) -> list[TailTerm]:
        """Terms whose bounds sum to a certified bound on |mu_k| (see TailTerm)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Step(RadialSymbol):
    b: float
    c: float

    monotone = True

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"step radius must lie in (0, 1), got {self.c}")

    def values(self, r) -> np.ndarray:
        return np.where(np.asarray(r, dtype=float) <= self.c, self.b, 0.0)

    def sup(self) -> float:
        return abs(self.b)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.c,)

    def log_mu(self, d: int, k):
        """(sign b, ln|b| + (2k+d) ln c), elementwise."""
        k = np.asarray(k)
        if self.b == 0.0:
            return 0, np.full(k.shape, _NEG_INF)
        return (1 if self.b > 0 else -1), math.log(abs(self.b)) + (2 * k + d) * math.log(self.c)

    def crossing_degree(self, d: int, ln_lam) -> np.ndarray:
        """First degree with |mu_k| <= exp(ln_lam), elementwise, from
        (2k+d) ln c = ln lam - ln|b| (exact up to rounding)."""
        ln_lam = np.asarray(ln_lam, dtype=float)
        if self.b == 0.0:
            return np.zeros_like(ln_lam)
        return np.ceil(((ln_lam - math.log(abs(self.b))) / math.log(self.c) - d) / 2.0)

    def mu(self, d: int, k) -> np.ndarray:
        """b c^(2k+d): one libm power and one product."""
        return self.b * np.power(self.c, 2 * k + d)

    def tails(self, d: int) -> list[TailTerm]:
        if self.b == 0.0:
            return []
        return [TailTerm(math.log(abs(self.b)) + d * math.log(self.c), 2.0 * math.log(self.c))]


@dataclass(frozen=True)
class Power(RadialSymbol):
    a: float
    gamma: float

    monotone = True

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError(f"power amplitude must be positive, got {self.a}")
        if self.gamma <= 0.0:
            raise ValueError(f"decay rate must be positive, got {self.gamma}")

    def values(self, r) -> np.ndarray:
        return self.a * (1.0 - np.asarray(r, dtype=float)) ** self.gamma

    def sup(self) -> float:
        return self.a

    def log_mu(self, d: int, k):
        """(1, ln mu_k) with mu_k = a Gamma(gamma+1) Gamma(x)/Gamma(x+gamma), x = 2k+d+1.

        Below x = 50 the lgamma difference is exact to a few ulp; from there
        on the Stirling difference keeps the relative error near 1e-14 up to
        k = 1e15.  Past gamma = 1000 that fails: ln a + lgamma(gamma+1) and
        the ratio both lie near gamma ln gamma and cancel (4e-11 relative at
        gamma = 1e6), so TailNotCertifiedError is raised there.
        """
        g = self.gamma
        if g > 1000.0:
            raise TailNotCertifiedError(f"ln mu_k of a power symbol loses precision past gamma = 1000 (gamma = {g})")
        log_scale = math.log(self.a) + math.lgamma(g + 1.0)
        k = np.asarray(k)
        x = np.asarray(2 * k + (d + 1.0))  # 0-d for a scalar k, even beyond int64
        ratio = g - (x - 0.5) * np.log1p(g / x) - g * np.log(x + g) + (_stirling_series(x) - _stirling_series(x + g))
        out = np.asarray(log_scale + ratio)
        small = x < _STIRLING_FROM
        if small.any():  # the lgamma difference once per x = d+1, d+3, ... below 50, indexed by k
            xs = range(d + 1, int(x[small].max()) + 1, 2)
            out[small] = np.array([log_scale + math.lgamma(v) - math.lgamma(v + g) for v in xs])[k[small]]
        return 1, out

    def crossing_degree(self, d: int, ln_lam) -> np.ndarray:
        """Estimate of the first degree with mu_k <= exp(ln_lam), elementwise.

        Gamma(x)/Gamma(x+gamma) ~ (x + (gamma-1)/2)^-gamma inverts to
        x = exp((ln a + ln Gamma(gamma+1) - ln lam)/gamma) - (gamma-1)/2.
        """
        g = self.gamma
        with np.errstate(over="ignore"):
            x = np.exp((math.log(self.a) + math.lgamma(g + 1.0) - np.asarray(ln_lam, dtype=float)) / g)
        return np.ceil((x - (0.5 * (g - 1.0) + d + 1.0)) / 2.0)

    def mu(self, d: int, k) -> np.ndarray:
        """mu_k = a prod_(j=1..n) j/(j+gamma), n = 2k+d, exactly.  Up to
        n0 = max(50, 8 gamma) the product is formed in integers (gamma = p/q)
        and divided once, correctly rounded, at each distinct n asked for
        (`_prefix_products`).  Beyond, with x = n+1, t = gamma/x,
        mu_k = mu(n0) (x0/x)^gamma exp(E(x) - E(x0)), where E(x) =
        -(x+gamma-1/2)(log1p(t)-t) - (gamma-1/2)t + S(x) - S(x+gamma), log1p(t)-t
        is its alternating series (t <= 1/8: 19 terms) and S the four-term
        Stirling series; rounding x0/x costs about gamma/2 ulp."""
        g, n = self.gamma, 2 * k + d
        n0 = max(50, math.ceil(8.0 * g))
        at, where = np.unique(np.minimum(n, n0), return_inverse=True)
        exact = np.array(_prefix_products(self.a, g, at.tolist()), dtype=float)[where]
        x = np.append(n0, np.maximum(n, n0)) + 1.0  # x[0] = x0; the tail factor is 1 there
        t = g / x
        series = np.zeros_like(t)
        for m in range(20, 1, -1):
            series = series * t + (1.0 if m % 2 else -1.0) / m
        stirling = lambda z: _stirling_series(z) - 1.0 / (1680.0 * z**7)
        e = -(x + (g - 0.5)) * (t * t * series) - (g - 0.5) * t + (stirling(x) - stirling(x + g))
        return exact * ((x[0] / x[1:]) ** g * np.exp(e[1:] - e[0]))

    def tails(self, d: int) -> list[TailTerm]:
        # Gamma(x)/Gamma(x+gamma) <= x^-gamma (1 + 1/x) for x >= 1 gives the
        # certified constant 4/3 at x = 2k+d+1 >= 3.
        return [TailTerm(math.log(4.0 / 3.0) + math.log(self.a) + math.lgamma(self.gamma + 1.0), gamma=self.gamma)]


@dataclass(frozen=True)
class Sampled(RadialSymbol):
    r: tuple[float, ...]
    v: tuple[float, ...]

    def __init__(self, r, v):
        r = tuple(float(x) for x in r)
        v = tuple(float(x) for x in v)
        if len(r) != len(v) or len(r) < 2:
            raise ValueError("sampled profile needs matching r/v sequences of length >= 2")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("sample radii must be strictly increasing")
        if r[0] < 0.0 or r[-1] >= 1.0:
            raise ValueError("sample radii must lie in [0, 1)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)

    def values(self, r) -> np.ndarray:
        return np.interp(np.asarray(r, dtype=float), self.r, self.v)

    def sup(self) -> float:
        return max(abs(x) for x in self.v)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(r for r in self.r if 0.0 < r < 1.0)

    def log_mu(self, d: int, k):
        """(sign, log |mu_k|) by parts, n = 2k+d, s_j the slope of segment j:
        mu_k = v(1-) - sum_j s_j (r_(j+1)^(n+1) - r_j^(n+1)) / (n+1): one term
        per segment, so no two terms of a segment cancel (relative error near
        1e-15 up to k = 1e15)."""
        a = 2.0 * np.asarray(k, dtype=float) + (d + 1.0)  # n + 1
        log_a = np.log(a)
        v_last = self.v[-1]

        def terms():
            yield np.sign(v_last), np.full(a.shape, math.log(abs(v_last)) if v_last else _NEG_INF)
            for r0, r1, v0, v1 in zip(self.r, self.r[1:], self.v, self.v[1:]):
                if v1 != v0:
                    slope = (v1 - v0) / (r1 - r0)
                    yield -np.sign(slope), math.log(abs(slope)) + _log_pow_diff(a, r1, r0) - log_a

        return _signed_log_add(terms())

    def mu(self, d: int, k) -> np.ndarray:
        """The terms of `log_mu` in the linear domain, a = n+1: v(1-) - sum_j s_j
        r_(j+1)^a (1 - (r_j/r_(j+1))^a)/a, formed in long double (the bracket as
        -expm1(a log1p(...))), split into double pairs and summed by `math.fsum`."""
        a = (2 * k + (d + 1)).astype(np.longdouble)
        r, v = np.array(self.r, dtype=np.longdouble), np.array(self.v, dtype=np.longdouble)
        terms = [np.full(a.shape, v[-1])]
        for r0, r1, v0, v1 in zip(r, r[1:], v, v[1:]):
            if v1 != v0:
                fall = -np.expm1(a * np.log1p((r0 - r1) / r1)) if r0 > 0.0 else 1.0
                terms.append((v0 - v1) / (r1 - r0) * r1**a * fall / a)
        wide = np.column_stack(terms)
        hi = wide.astype(float)
        return np.array(list(map(math.fsum, np.hstack((hi, (wide - hi).astype(float))).tolist())), dtype=float)

    def tails(self, d: int) -> list[TailTerm]:
        """sup|v| r_last^(2k+d) for the profile inside the last node, and the floor |v(1-)|."""
        out = []
        sup_inner, v_last = self.sup(), self.v[-1]
        if sup_inner > 0.0:
            out.append(TailTerm(math.log(sup_inner) + d * math.log(self.r[-1]), 2.0 * math.log(self.r[-1])))
        if v_last != 0.0:
            out.append(TailTerm(math.log(abs(v_last))))
        return out


@dataclass(frozen=True)
class SymbolSum(RadialSymbol):
    parts: tuple[RadialSymbol, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("empty symbol sum")
        object.__setattr__(self, "parts", parts)

    def values(self, r) -> np.ndarray:
        return sum(p.values(r) for p in self.parts)

    def sup(self) -> float:
        return sum(p.sup() for p in self.parts)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted({b for p in self.parts for b in p.breakpoints()}))

    def log_mu(self, d: int, k):
        return _signed_log_add(p.log_mu(d, k) for p in self.parts)

    def mu(self, d: int, k) -> np.ndarray:
        return sum(p.mu(d, k) for p in self.parts)

    def tails(self, d: int) -> list[TailTerm]:
        return [t for p in self.parts for t in p.tails(d)]


# --- general symbols ---------------------------------------------------------


@dataclass(frozen=True)
class TabulatedSymbol:
    """Symbol given by its values on the tensor quadrature grid of `spec`.

    Wire format for externally supplied general symbols: the value array is
    radial-major (all angular nodes of the first radius first), must
    match the grid implied by (d, spec) exactly, and must be finite.
    """

    d: int
    spec: TruncationSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        expected = self.spec.node_count(self.d)
        if vals.shape != (expected,):
            raise ValueError(
                f"tabulated symbol carries {vals.shape} values; the grid has {expected} nodes"
            )
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(
                f"tabulated symbol has {bad.size} non-finite values, the first at index {bad[0]}"
            )


def symbol_on_grid(V, d: int, spec: TruncationSpec) -> tuple[BallGrid, np.ndarray]:
    """The tensor grid of (d, spec) and the values of V at its nodes.

    Radial profiles split the radial rule at their breakpoints; a
    TabulatedSymbol must have been sampled on exactly this grid; any other
    callable is evaluated on the (n, d) node array.
    """
    if isinstance(V, RadialSymbol):
        grid = ball_grid(d, spec, radial_breaks=V.breakpoints())
        return grid, V.values(grid.radii)
    grid = ball_grid(d, spec)
    if isinstance(V, TabulatedSymbol):
        if V.d != d or V.spec != spec:
            raise ValueError("tabulated symbol was sampled on a different grid")
        return grid, V.values
    if callable(V):
        return grid, np.asarray(V(grid.points), dtype=float)
    raise TypeError(f"cannot evaluate symbol of type {type(V).__name__} on a grid")
