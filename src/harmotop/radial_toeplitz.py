"""Exact spectral theory of the Toeplitz compression for radial symbols.

For V(x) = v(|x|) the operator acts on each degree-k harmonic subspace as
multiplication by

    mu_k(v) = (2k+d) * int_0^1 v(r) r^(2k+d-1) dr,

with multiplicity m_k.  Everything downstream (counting functions, Schatten
norms, asymptotic laws) reduces to arithmetic on the sequence mu_k, which is
carried out in the log domain so that thresholds down to exp(-200) are
compared exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TailNotCertifiedError
from .harmonic_basis import cumulative_multiplicity, multiplicity
from .symbols import RadialSymbol, _signed_log_add

__all__ = [
    "Spectrum",
    "radial_eigenvalue",
    "log_radial_eigenvalue",
    "radial_spectrum",
    "counting",
    "boundary_law_constant",
    "AsymptoticFit",
    "asymptotic_fit",
    "schatten_radial",
]

_NEG_INF = float("-inf")


# --- eigenvalues -------------------------------------------------------------


def log_radial_eigenvalue(v: RadialSymbol, d: int, k: int) -> tuple[int, float]:
    """(sign, log |mu_k(v)|), exact in the log domain for every variant."""
    return v.log_mu(d, k)


def radial_eigenvalue(v: RadialSymbol, d: int, k: int) -> float:
    """mu_k(v) = (2k+d) int_0^1 v(r) r^(2k+d-1) dr for one degree, by :meth:`RadialSymbol.mu`."""
    if d < 2:
        raise ValueError(f"space dimension must be >= 2, got {d}")
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    return float(v.mu(d, np.array([k]))[0])


# --- spectra -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues with multiplicities, sorted by decreasing magnitude; sums run in that order."""

    values: np.ndarray
    multiplicities: np.ndarray  # integers; Python ints where (d-1)! M_K leaves int64 (radial, d >= 21)

    @property
    def total_count(self) -> int:
        return int(self.multiplicities.sum())

    def schatten(self, p: float) -> float:
        if p < 1.0:
            raise ValueError(f"Schatten exponent must be >= 1, got {p}")
        # the largest |value| is factored out, so that no term m |value|^p
        # underflows before the root at large p (the norm tends to it)
        mags = np.abs(self.values)
        top = float(np.max(mags, initial=0.0)) or 1.0
        return top * float(np.cumsum(self.multiplicities * (mags / top) ** p)[-1]) ** (1.0 / p)

    def schatten_weak(self, p: float) -> float:
        if p <= 1.0:
            raise ValueError(f"weak Schatten exponent must be > 1, got {p}")
        return float(np.max(np.cumsum(self.multiplicities) ** (1.0 / p) * np.abs(self.values), initial=0.0))


def radial_spectrum(v: RadialSymbol, d: int, max_degree: int) -> Spectrum:
    """Exact-radial spectrum on degrees <= max_degree: (mu_k, m_k) pairs, |mu|-descending (ties by degree)."""
    if max_degree < 0:
        raise ValueError(f"degree must be nonnegative, got {max_degree}")
    k = np.arange(max_degree + 1)
    mus = v.mu(d, k)
    order = np.argsort(-np.abs(mus), kind="stable")
    return Spectrum(mus[order], multiplicity(d, k)[order])


# --- the degree table and certified tail bounds -------------------------------


def _degree_table(v: RadialSymbol, d: int, K: int):
    """(sign, log |mu_k|, m_k) as arrays over the degrees k <= K."""
    k = np.arange(K + 1)
    sign, logs = v.log_mu(d, k)
    return np.broadcast_to(sign, logs.shape), logs, multiplicity(d, k)


def _sorted_table(v: RadialSymbol, d: int, K: int, sign: int = 0):
    """log |mu_k| over the degrees k <= K where mu_k has the given sign (any
    nonzero one by default), |mu|-descending (ties in degree order), the
    running counts of eigenvalues along that order, and the degrees."""
    s, logs, m = _degree_table(v, d, K)
    keep = np.flatnonzero(s == sign if sign else s != 0)
    order = keep[np.argsort(-logs[keep], kind="stable")]
    return logs[order], np.cumsum(m[order]), order


# the least integer that float() rounds past DBL_MAX
_DOUBLE_LIMIT = 2**1024 - 2**970


def _as_doubles(counts, d: int, keys, label: str = "degree {}") -> np.ndarray:
    """Exact eigenvalue counts, one per key of `keys`, as doubles; a count
    past the double range raises TailNotCertifiedError naming its key."""
    try:
        return np.asarray(counts).astype(float)
    except OverflowError:
        key = next(key for key, n in zip(keys, counts) if n >= _DOUBLE_LIMIT)
        where = label.format(key)
        raise TailNotCertifiedError(f"the eigenvalue count at {where} is beyond the double range (d={d})") from None


def _table_ends(cap: int) -> list[int]:
    """Last degrees of the growing degree tables: 1024 times the powers of 4 below `cap`, then `cap`."""
    return [1024 * 4**i for i in range(cap.bit_length()) if 1024 * 4**i < cap] + [cap]


def _log_sum(logs):
    """log of the sum of exp(l) over `logs` (scalars or arrays of one shape),
    -inf for none: the sum rule of `TailTerm`."""
    return _signed_log_add((1, l) for l in logs)[1]


def _log_tail_sup(terms, d: int, k):
    """log of a certified bound for sup_{j > k} |mu_j|, elementwise in k; each
    term is nonincreasing, so its sup is its bound at k + 1."""
    return _log_sum(t.log_bound(d, k + 1) for t in terms)


# --- counting ----------------------------------------------------------------

# The crossing search examines degrees up to this cap and refuses a threshold
# that is still exceeded there.
_LAST_DEGREE = 2**49
# Other symbols are tabulated up to the first degree (at most this cap) with a certified tail.
_TABLE_CAP = 1_000_000


def counting(v: RadialSymbol, d: int, *, ln_lam, sign: int = 1):
    """Number of eigenvalues of the radial compression with sign*mu_k > lam.

    `ln_lam` is one log-threshold ln lam, giving an int, or a sequence of
    them, giving a list of ints.  Strict inequality (a threshold equal to an
    eigenvalue excludes it); all comparisons happen between log mu_k and
    ln lam, so thresholds below the double range (ln lam < -745) work too.
    For monotone profiles (`v.monotone`: Step, Power) the first
    non-exceeding degree of every threshold is found in a few vectorised
    passes and the count is the cumulative multiplicity below it; otherwise
    the degrees up to the first one whose certified tail bound lies below
    every threshold are tabulated, and each threshold is one binary search
    in the sorted table.
    Raises TailNotCertifiedError when no such cutoff can be certified.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    single = np.ndim(ln_lam) == 0
    ln_lams = np.asarray(ln_lam, dtype=float).reshape(-1)

    if v.monotone:
        counts = cumulative_multiplicity(d, _first_not_exceeding(v, d, ln_lams, sign) - 1)
    else:
        counts = _count_tabulated(v, d, ln_lams, sign)
    counts = counts.tolist()
    return counts[0] if single else counts


def _first_not_exceeding(v: RadialSymbol, d: int, ln_lam: np.ndarray, sign: int) -> np.ndarray:
    """First degree k with not (sign*mu_k > lam), per threshold, for monotone v.

    The estimate `v.crossing_degree` is accepted where the degree below it
    exceeds the threshold and it does not; the thresholds it misses gallop
    away from it to a bracket and bisect, all thresholds in one pass each.
    """
    def exceeds(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        s, log_abs = v.log_mu(d, k)
        return (s == sign) & (log_abs > t)

    n = ln_lam.size
    # fmax/fmin also send a NaN estimate (a NaN threshold) to degree 0
    k = np.fmin(np.fmax(v.crossing_degree(d, ln_lam), 0.0), _LAST_DEGREE).astype(np.int64)
    both = exceeds(np.concatenate((np.maximum(k - 1, 0), k)), np.concatenate((ln_lam, ln_lam)))
    up = both[n:]  # the guess is still exceeded: the crossing lies above it
    hit = ~up & (both[:n] | (k == 0))
    if hit.all():
        return k
    miss = np.flatnonzero(~hit)  # up, or the degree below is not exceeded either

    # Bracket lo < crossing <= hi, where degree lo is exceeded (or lo = -1)
    # and degree hi is not; steps double away from the guess.
    t, up = ln_lam[miss], up[miss]
    lo = np.where(up, k[miss], -1)
    hi = np.where(up, _LAST_DEGREE, k[miss] - 1)
    step = np.ones_like(lo)
    active = np.arange(miss.size)
    while active.size:
        u = up[active]
        p = np.where(
            u, np.minimum(lo[active] + step[active], _LAST_DEGREE), np.maximum(hi[active] - step[active], -1)
        )
        e = (p < 0) | exceeds(np.maximum(p, 0), t[active])
        if np.any(u & e & (p == _LAST_DEGREE)):
            raise TailNotCertifiedError(f"counting exceeds the degree cap {_LAST_DEGREE}")
        lo[active] = np.where(e, p, lo[active])
        hi[active] = np.where(e, hi[active], p)
        step[active] *= 2
        active = active[u == e]  # upward while exceeded, downward while not
    while True:
        active = np.flatnonzero(hi - lo > 1)
        if not active.size:
            break
        mid = (lo[active] + hi[active]) // 2
        e = exceeds(mid, t[active])
        lo[active] = np.where(e, mid, lo[active])
        hi[active] = np.where(e, hi[active], mid)
    k[miss] = hi
    return k


def _count_tabulated(v: RadialSymbol, d: int, ln_lam: np.ndarray, sign: int) -> np.ndarray:
    """Counts from the degree table up to the first certified degree of the lowest threshold."""
    terms = v.tails(d)
    lowest = ln_lam.min()
    # the limit of the bound: the terms that do not decay
    if _log_sum(t.log_c for t in terms if t.log_q == t.gamma == 0.0) > lowest:
        raise TailNotCertifiedError(
            "threshold lies below the certified bound on the boundary value of the symbol; "
            "the count cannot be certified there"
        )
    # The tail bound is nonincreasing in k: grow the block until its last
    # degree is certified (never, for a NaN threshold), then find the first.
    lo = 0
    for hi in _table_ends(_TABLE_CAP):
        if _log_tail_sup(terms, d, hi) <= lowest:
            break
        lo = hi + 1
    else:
        raise TailNotCertifiedError(f"tail above degree {_TABLE_CAP} cannot be certified below the threshold")
    k = np.arange(lo, hi + 1)
    logs, counts, _ = _sorted_table(v, d, int(k[np.argmax(_log_tail_sup(terms, d, k) <= lowest)]), sign)
    exceeding = np.searchsorted(-logs, -ln_lam)  # how many logs lie above each threshold
    return np.concatenate((np.zeros(1, counts.dtype), counts))[exceeding]


# --- asymptotic constants ----------------------------------------------------


def boundary_law_constant(d: int, gamma: float, a0: float) -> float:
    """Counting coefficient from the boundary reduction, for constant trace a0.

    omega_{d-1} (Gamma(gamma+1)^(1/gamma) / (4 pi))^(d-1) a0^((d-1)/gamma)
    times the sphere area |S^(d-1)|, with omega_n the volume of the unit
    ball in R^n.  By the Legendre duplication identity it equals the ball's
    power-law coefficient 2^(2-d)/(d-1)! (a0 Gamma(gamma+1))^((d-1)/gamma).
    """
    if gamma <= 0.0 or a0 <= 0.0:
        raise ValueError("boundary law constant needs gamma > 0 and a0 > 0")
    n = d - 1
    log_omega = 0.5 * n * math.log(math.pi) - math.lgamma(1.0 + 0.5 * n)
    log_area = math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)
    log_val = (
        log_omega
        + n * (math.lgamma(gamma + 1.0) / gamma - math.log(4.0 * math.pi))
        + n / gamma * math.log(a0)
        + log_area
    )
    return math.exp(log_val)


# --- asymptotic fits ----------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticFit:
    coefficient: float
    exponent: float
    residual_rms: float
    ln_lam: np.ndarray
    counts: list[int]  # exact, as `counting` returns them


def asymptotic_fit(
    v: RadialSymbol,
    d: int,
    *,
    ln_lam_grid,
    model: str = "power",
    exponent: float | None = None,
    sign: int = 1,
) -> AsymptoticFit:
    """Least-squares fit of the counting function against an asymptotic law.

    model="power":      n ~ C lam^(-e)       (fit of ln n against -ln lam)
    model="log-power":  n ~ C |ln lam|^e     (fit of ln n against ln |ln lam|)

    Passing `exponent` pins e > 0 and fits only the coefficient; for the
    log-power model the pinned fit is :func:`_power_law_fit`'s root
    regression on |ln lam|.  A coefficient that is not a positive finite
    double (e.g. a pinned exponent far from the data's) raises
    TailNotCertifiedError.
    """
    ln_lam = np.asarray(ln_lam_grid, dtype=float)
    if ln_lam.size < 4:
        raise ValueError(f"need at least 4 grid points, got {ln_lam.size}")
    if np.any(np.diff(ln_lam) >= 0.0):
        raise ValueError("threshold grid must be strictly decreasing")
    if model not in ("power", "log-power"):
        raise ValueError(f"unknown model {model!r}")
    if exponent is not None and not exponent > 0.0:
        raise ValueError(f"a pinned exponent must be positive, got {exponent!r}")

    counts = counting(v, d, sign=sign, ln_lam=ln_lam)
    n = _as_doubles(counts, d, ln_lam.tolist(), "ln lambda = {!r}")
    if np.any(n < 1.0):
        raise ValueError("counting vanished on part of the grid; deepen the thresholds")
    if model == "power":
        return _power_law_fit(ln_lam, counts, n, -ln_lam, exponent)
    big_l = -ln_lam
    if np.any(big_l <= 0.0):
        raise ValueError("log-power model needs thresholds below 1")
    return _power_law_fit(ln_lam, counts, n, np.log(big_l), exponent, big_l, "log-power")


def _refuse_flat(counts) -> None:
    """Refuse a fit over a grid where the count does not grow: its slope would be rounding noise.
    A count is monotone along its grid, so the ends decide."""
    if counts[0] == counts[-1]:
        raise TailNotCertifiedError(f"the count is {counts[0]} at every grid point; no law fits a count that does not grow")


def _power_law_fit(ln_lam, counts, n, ln_x, exponent, x=None, model="power") -> AsymptoticFit:
    """Least-squares fit of the counts `n` (doubles >= 1) to n ~ C x^e, given ln x.

    A free e regresses ln n on ln x.  A pinned e takes ln C as the mean of
    ln n - e ln x or, given x, regresses n^(1/e) linearly on x, which
    cancels an O(1) offset in x (the degree offset of a counting function)
    that otherwise biases the coefficient.  Counts that are the same at
    every grid point, or a coefficient that is not a positive finite
    double, raise TailNotCertifiedError.
    """
    _refuse_flat(counts)
    ln_n = np.log(n)
    if exponent is None:
        slope, intercept = np.polyfit(ln_x, ln_n, 1)
    elif x is None:
        slope = float(exponent)
        intercept = float(np.mean(ln_n - slope * ln_x))
    else:
        alpha, _beta = np.polyfit(x, n ** (1.0 / float(exponent)), 1)
        slope, intercept = float(exponent), None
    try:
        coefficient = float(alpha) ** slope if intercept is None else math.exp(intercept)
    except OverflowError:
        coefficient = math.inf
    if not 0.0 < coefficient < math.inf:
        raise TailNotCertifiedError(
            f"fit coefficient {coefficient!r} is not a positive finite double ({model} model, exponent {float(slope)!r})"
        )
    resid = ln_n - ((math.log(coefficient) if intercept is None else intercept) + slope * ln_x)
    return AsymptoticFit(
        coefficient=float(coefficient),
        exponent=float(slope),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        ln_lam=ln_lam,
        counts=counts,
    )


# --- Schatten norms ----------------------------------------------------------


def _tail_p_sum_log(terms, d: int, k, p: float):
    """log of a certified bound for sum_{j>k} m_j |mu_j|^p, elementwise in k."""
    # m_j <= 2 (j+d)^(d-2)/(d-2)!  (exact for d = 2, proven via Pascal splits).
    log_m_pref = math.log(2.0) - math.lgamma(float(d - 1))
    roots = []
    for t in terms:
        if t.log_q < 0.0:
            # (2j+d)^-gamma <= 1, and (j+d)^(d-2) q^(j/2) decreases beyond k_star
            log_q = p * t.log_q
            k_star = -2.0 * (d - 2) / log_q - d
            with np.errstate(over="ignore"):  # at a huge p the product goes to -inf: the term vanishes
                log_decay = (k + 1) * log_q
            log_geo = (
                log_m_pref
                + p * t.log_c
                + (d - 2) * np.log(k + 1 + d)
                + log_decay
                - math.log(-math.expm1(0.5 * log_q))
            )
            roots.append(np.where(k + 1 < k_star, math.inf, log_geo / p))  # grow k before certifying
        else:
            beta = d - 2 - p * t.gamma
            if beta >= -1.0:
                return math.inf  # not p-summable against m_j (a floor never is)
            log_pw = (
                log_m_pref
                + p * t.log_c
                - p * t.gamma * math.log(2.0)
                + (beta + 1.0) * np.log(k + d)
                - math.log(-beta - 1.0)
            )
            roots.append(log_pw / p)
    return p * _log_sum(roots)


# the strong norm stops where its certified tail is below this fraction of the partial sum
_REL_TOL = 1e-12
# the fraction the last table (the cap, or a k_stop) accepts
_LAST_TABLE_REL_TOL = 1e-9


def schatten_radial(v: RadialSymbol, d: int, p: float, weak: bool = False, k_stop: int | None = None) -> float:
    """Schatten norm (sum_k m_k |mu_k|^p)^(1/p), or the weak quasinorm.

    The tail beyond the cutoff degree is certified against the symbol's
    decay profile; TailNotCertifiedError signals a cutoff that cannot be
    certified (e.g. a boundary value that does not vanish, or an exponent
    for which the series diverges).  Without `k_stop` both grow their
    tables by `_table_ends`: the strong norm stops at the first degree
    k >= 8 (up to 400,000) whose tail is certified below _REL_TOL times the
    partial sum, the weak one at the first table (up to degree 40,000) whose
    sup bounds the tail's.  That sup is the whole sup: a rank past the
    table is at most M_J, J the last degree with an eigenvalue as large, so
    its term is at most the tail's bound, and below it the ranks are exact.
    The strong norm's last table (degree 400,000, or `k_stop`) is accepted
    with a certified tail of up to _LAST_TABLE_REL_TOL = 1e-9 of its sum,
    not _REL_TOL.
    """
    if weak:
        if p <= 1.0:
            raise ValueError(f"weak Schatten exponent must be > 1, got {p}")
    elif p < 1.0:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    terms = v.tails(d)
    cap = k_stop if k_stop is not None else 40_000 if weak else 400_000
    if weak:
        tail, refusal = _weak_tail_sup_log, f"weak-norm tail beyond degree {cap} may exceed the enumerated sup"
    else:
        tail, refusal = _tail_p_sum_log, f"p-th power tail beyond degree {cap} is not certified negligible"
    # each bound is nonincreasing in k: +inf at the last degree is +inf everywhere
    last_tail = tail(terms, d, cap, p)
    if last_tail == math.inf:
        raise TailNotCertifiedError(refusal)
    for K in _table_ends(cap) if k_stop is None else [k_stop]:
        if weak:  # sort by |mu| descending, take sup j^(1/p) s_j, certified past K
            if v.monotone and v.sup() > 0.0 and cumulative_multiplicity(d, K) >= _DOUBLE_LIMIT:
                # a nonzero monotone symbol's sorted order is degree order (a zero one counts
                # no eigenvalue): bisect for the first count past the doubles
                lo, hi = -1, K  # M_lo < _DOUBLE_LIMIT <= M_hi
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if cumulative_multiplicity(d, mid) >= _DOUBLE_LIMIT else (mid, hi)
                _as_doubles([cumulative_multiplicity(d, hi)], d, [hi])  # raises, naming degree hi
            logs, counts, degrees = _sorted_table(v, d, K)
            best_log = float(np.max(np.log(_as_doubles(counts, d, degrees)) / p + logs, initial=_NEG_INF))
            if tail(terms, d, K, p) <= best_log:
                return math.exp(best_log)
            continue
        _, logs, m = _degree_table(v, d, K)
        # partial sums in units of exp(p * top), top the largest log, so
        # that no term underflows before the root at large p
        top = float(np.max(logs))
        scale = abs(float(v.mu(d, logs.argmax(keepdims=True))[0]))  # exp(top) from the ulp-accurate linear mu
        top = top if top > _NEG_INF else 0.0
        with np.errstate(over="ignore"):  # p (logs - top) goes to -inf at a huge p: exp gives 0
            scaled = np.exp(p * (logs - top))
        partial = np.cumsum(_as_doubles(m, d, range(K + 1)) * scaled)
        if k_stop is None:
            log_floor = p * top + np.log(np.maximum(partial[8:], 1e-300)) + math.log(_REL_TOL)
            certified = tail(terms, d, np.arange(8, K + 1), p) <= log_floor
            if certified.any():
                return scale * float(partial[8 + certified.argmax()]) ** (1.0 / p)
    if weak or last_tail > p * top + math.log(max(float(partial[-1]), 1e-300)) + math.log(_LAST_TABLE_REL_TOL):
        raise TailNotCertifiedError(refusal)
    return scale * float(partial[-1]) ** (1.0 / p)


def _weak_tail_sup_log(terms, d: int, k_stop: int, p: float) -> float:
    """log of a certified bound for sup over degrees k > k_stop of M_k^(1/p) |mu_k|.

    Per term, f(k) = ln(M_k)/p + log_bound(k), with ln M_k = ln(2k+d-1) +
    sum_{j=1..d-2} ln(k+j) - ln (d-1)! taken at real k, is unimodal: every
    part of (2k+d) f'(k) decreases in k (pair j with d-1-j in the sum).  So
    its sup over the degrees past k_stop is f(m) or f(m+1), where m is the
    last degree at which f' > 0 (found by doubling, then halving the step),
    or k_stop+1 if f' <= 0 there.
    """
    j = np.arange(1, d - 1)
    sups = []
    for t in terms:
        if t.log_q == 0.0 and p * t.gamma <= d - 1:
            return math.inf  # M_k^(1/p) times the term does not decay (a floor never does)

        def f(k):  # raised by 1e-14 of its parts' sizes, past their rounding
            x = float(k)
            log_m = math.log(2.0 * x + d - 1) + float(np.log(x + j).sum())
            parts = (log_m / p, -math.lgamma(d) / p, t.log_c, x * t.log_q, -t.gamma * math.log(2.0 * x + d))
            return math.fsum(parts) + 1e-14 * math.fsum(map(abs, parts))

        def rises(k):  # f'(k) > 0
            x = float(k)
            return (2.0 / (2.0 * x + d - 1) + float((1.0 / (x + j)).sum())) / p + t.log_q > 2.0 * t.gamma / (2.0 * x + d)

        k, step = k_stop + 1, 1
        if rises(k):  # keep f rising at k and not at k + step, down to step 1
            while rises(k + step):
                step *= 2
            while step > 1:
                step //= 2
                k += step if rises(k + step) else 0
        sups.append(max(f(k), f(k + 1)))  # f rises up to degree k and falls from k + 1 on
    return float(_log_sum(sups))
