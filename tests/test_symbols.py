import math

import mpmath
import numpy as np
import pytest

from harmotop.symbols import (
    Power,
    Sampled,
    Step,
    SymbolSum,
    TailTerm,
    _prefix_products,
)


def test_step_validation():
    with pytest.raises(ValueError):
        Step(1.0, 0.0)
    with pytest.raises(ValueError):
        Step(1.0, 1.0)


def test_power_validation():
    with pytest.raises(ValueError):
        Power(-1.0, 1.0)
    with pytest.raises(ValueError):
        Power(1.0, 0.0)


def test_sampled_validation():
    with pytest.raises(ValueError):
        Sampled([0.0], [1.0])
    with pytest.raises(ValueError):
        Sampled([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Sampled([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SymbolSum([])


def test_radial_values():
    r = np.array([0.0, 0.3, 0.5, 0.7])
    assert Step(2.0, 0.5).values(r) == pytest.approx([2.0, 2.0, 2.0, 0.0])
    assert Power(1.0, 2.0).values(r) == pytest.approx((1.0 - r) ** 2)
    prof = Sampled([0.2, 0.6], [1.0, 0.0])
    # constant continuation on both sides of the sample range
    assert prof.values(np.array([0.0, 0.2, 0.4, 0.6, 0.9])) == pytest.approx(
        [1.0, 1.0, 0.5, 0.0, 0.0]
    )
    both = SymbolSum([Step(1.0, 0.5), Power(1.0, 1.0)])
    assert both.values(r) == pytest.approx([2.0, 1.7, 1.5, 0.3])


def test_breakpoints_and_boundary_data():
    assert Step(1.0, 0.5).breakpoints() == (0.5,)
    assert Power(1.0, 1.0).breakpoints() == ()
    assert Sampled([0.0, 0.3, 0.9], [1.0, 2.0, 0.5]).breakpoints() == (0.3, 0.9)
    s = SymbolSum([Step(1.0, 0.5), Sampled([0.0, 0.5, 0.7], [1.0, 1.0, 0.0])])
    assert s.breakpoints() == (0.5, 0.7)
    assert Step(1.0, 0.5).tails(2) == [TailTerm(2.0 * math.log(0.5), 2.0 * math.log(0.5))]
    assert Sampled([0.0, 0.9], [1.0, 0.3]).tails(2)[-1] == TailTerm(math.log(0.3))  # the floor v(1-)
    assert s.sup() == 2.0


# --- log mu_k over integer arrays ---------------------------------------------

_DEGREES = sorted({0, 1, 2, 5, 20, 22, 23, 24, 25, 30, 100, 499, 500, 10**4, 10**6} | {int(k) for k in np.geomspace(1, 1e15, 40)})


def _mp_log_mu_power(a, gamma, d, k):
    with mpmath.workdps(50):
        x = mpmath.mpf(2 * k + d + 1)
        g = mpmath.mpf(gamma)
        return mpmath.log(a) + mpmath.loggamma(g + 1) + mpmath.loggamma(x) - mpmath.loggamma(x + g)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("gamma", [0.5, 0.55, 1.0, 2.9, 40.0, 1000.0])
def test_power_log_mu_matches_mpmath(gamma, d):
    # The lgamma difference alone misses by 0.4 near k = 1e14 (cancellation).
    v = Power(1.0, gamma)
    sign, logs = v.log_mu(d, np.array(_DEGREES, dtype=np.int64))
    assert sign == 1 and logs.shape == (len(_DEGREES),)
    for k, array_log in zip(_DEGREES, logs):
        want = float(_mp_log_mu_power(1.0, gamma, d, k))
        scalar_sign, scalar_log = v.log_mu(d, k)
        assert scalar_sign == 1
        assert scalar_log == pytest.approx(want, rel=1e-13, abs=0.0), k
        assert array_log == pytest.approx(want, rel=1e-13, abs=0.0), k


@pytest.mark.parametrize("b, c", [(1.0, 0.5), (-2.5, 0.93), (0.3, 0.07), (0.0, 0.5)])
def test_step_log_mu_array_is_bit_identical_to_scalar(b, c):
    v = Step(b, c)
    ks = np.array(_DEGREES, dtype=np.int64)
    for d in (2, 3, 5):
        sign, logs = v.log_mu(d, ks)
        assert logs.shape == ks.shape
        for k, log_abs in zip(_DEGREES, logs.tolist()):
            assert (sign, log_abs) == v.log_mu(d, k)


@pytest.mark.parametrize("gamma", [0.5, 1.778, 40.0])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_power_log_mu_array_is_bit_identical_to_scalar_below_50(gamma, d):
    # every k with x = 2k+d+1 < 50 (the lgamma table), then the first beyond,
    # shuffled among Stirling degrees; those match the same degree on its own
    v = Power(1.3, gamma)
    low = list(range((50 - d) // 2 + 1))
    ks = low[::-1] + [10**6, 3, 10**12, 0] + low
    sign, logs = v.log_mu(d, np.array(ks, dtype=np.int64))
    assert sign == 1 and logs.shape == (len(ks),)
    for k, log_abs in zip(ks, logs.tolist()):
        if 2 * k + d + 1 < 50:
            assert (sign, log_abs) == v.log_mu(d, k), k
        else:
            assert log_abs == v.log_mu(d, np.array([k]))[1][0], k


def _sequential_prefix(a: float, g: float, at: list[int]) -> list[float]:
    """a prod_(j=1..i) j/(j+g) at each i of `at`: the running product in
    integers, one factor at a time, divided where an index asks for it."""
    (num, den), (p, q) = a.as_integer_ratio(), g.as_integer_ratio()
    out, asked = {0: a}, set(at)
    for j in range(1, max(at) + 1):
        num, den = num * q * j, den * (q * j + p)
        if j in asked:
            out[j] = num / den
    return [out[i] for i in at]


def _first_underflow(a: float, g: float, stop: int) -> int:
    """The first index whose sequential prefix product is +0.0 (stop if none below it)."""
    (num, den), (p, q) = a.as_integer_ratio(), g.as_integer_ratio()
    for j in range(1, stop):
        num, den = num * q * j, den * (q * j + p)
        if num / den == 0.0:
            return j
    return stop


@pytest.mark.parametrize("gamma", [100.0, 1000.0, 1000.3, 5000.0])
def test_power_prefix_products_equal_the_sequential_product(gamma):
    # the product trees and the underflow cut give the bits of the running
    # product, at n = 2k+d for the degrees 0, n0-1, n0, n0+1 and 10^6, next to
    # n0 (n0 - 1, n0, n0 + 1 for d = 2 and 3) and next to the first +0.0
    v, n0 = Power(1.3, gamma), max(50, math.ceil(8.0 * gamma))
    zero = _first_underflow(v.a, gamma, n0)
    ks = {}
    for d in (2, 3):
        ks[d] = [0, n0 - 1, n0, n0 + 1, 10**6, (n0 - 1 - d) // 2, (n0 - d) // 2, (n0 + 1 - d) // 2]
        ks[d] += [max(0, (zero - d) // 2 + s) for s in (-1, 0, 1)]
    ats = {d: sorted({min(2 * k + d, n0) for k in ks[d]} | {zero - 1, zero, min(zero + 1, n0)}) for d in ks}
    every = sorted(set(ats[2]) | set(ats[3]))
    want = dict(zip(every, _sequential_prefix(v.a, gamma, every)))
    for d, at in ats.items():
        assert [x.hex() for x in _prefix_products(v.a, gamma, at)] == [want[i].hex() for i in at]
        # mu is the prefix product itself up to n0 (its tail factor is 1 there)
        inside = [k for k in ks[d] if 2 * k + d <= n0]
        assert [m.hex() for m in v.mu(d, np.array(inside)).tolist()] == [want[2 * k + d].hex() for k in inside]


def test_crossing_degree_estimates():
    # Step: exact up to rounding; mu_k = 0.25^(k+1) in d = 2 crosses 1e-3 at k = 4.
    assert Step(1.0, 0.5).crossing_degree(2, [math.log(1e-3), 0.0]).tolist() == [4.0, -1.0]
    assert Step(0.0, 0.5).crossing_degree(3, [-5.0]).tolist() == [0.0]
    # Power: mu_k = 1/(2k+3) for a = gamma = 1 in d = 2 falls to 1e-4 at k = 4999.
    assert Power(1.0, 1.0).crossing_degree(2, [math.log(1e-4)]).tolist() == [4999.0]
    with np.errstate(over="raise"):
        assert Power(1.0, 0.5).crossing_degree(2, [-1e4]).tolist() == [math.inf]


def _mp_mu(v, d, k):
    """mu_k at the working precision: segment by segment for Sampled, without integrating by parts."""
    n = mpmath.mpf(2 * k + d)
    if isinstance(v, SymbolSum):
        return sum(_mp_mu(p, d, k) for p in v.parts)
    if isinstance(v, Step):
        return mpmath.mpf(v.b) * mpmath.mpf(v.c) ** n
    if isinstance(v, Power):
        g = mpmath.mpf(v.gamma)
        return v.a * mpmath.exp(mpmath.loggamma(g + 1) + mpmath.loggamma(n + 1) - mpmath.loggamma(n + 1 + g))
    r, f = [mpmath.mpf(x) for x in v.r], [mpmath.mpf(x) for x in v.v]
    total = f[0] * r[0] ** n + f[-1] * (1 - r[-1] ** n)  # the constant ends
    for r0, r1, f0, f1 in zip(r, r[1:], f, f[1:]):
        slope = (f1 - f0) / (r1 - r0)
        total += (f0 - slope * r0) * (r1**n - r0**n) + slope * n / (n + 1) * (r1 ** (n + 1) - r0 ** (n + 1))
    return total


_PROFILES = {
    "decreasing to 0": Sampled([0.0, 0.4, 0.8, 0.95], [1.0, 0.8, 0.2, 0.0]),
    "bump": Sampled([0.0, 0.2, 0.35, 0.499, 0.5], [1.2, 0.9, 1.1, 0.7, 0.0]),
    "r0 > 0": Sampled([0.2, 0.6], [1.0, 0.0]),
    "v(1-) != 0": Sampled([0.0, 0.5, 0.9], [1.0, 0.5, 0.3]),
    "sign change": Sampled([0.0, 0.3, 0.6, 0.9], [1.0, -0.5, 0.2, 0.0]),
    "all zero": Sampled([0.0, 0.5], [0.0, 0.0]),
    "sum with power": SymbolSum([Sampled([0.0, 0.4, 0.8, 0.95], [1.0, 0.8, 0.2, 0.0]), Power(1.0, 1.5)]),
    "sum with step": SymbolSum(
        [Sampled([0.0, 0.5, 0.9], [1.0, 0.5, 0.3]), Step(0.5, 0.3), Sampled([0.2, 0.6], [1.0, 0.0])]
    ),
}


def _assert_matches(sign, log_abs, mu, k):
    want_sign = int(mpmath.sign(mu))
    assert sign == want_sign, k
    if want_sign == 0:
        assert log_abs == -math.inf
    else:  # relative in log|mu_k|, and in mu_k itself where |log mu_k| < 1
        want_log = float(mpmath.log(abs(mu)))
        assert abs(log_abs - want_log) <= 1e-13 * max(1.0, abs(want_log)), k


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_sampled_and_sum_log_mu_match_mpmath(name):
    # Before integration by parts the two terms of each segment cancelled:
    # from k = 1e9 on, positive profiles came out with sign 0 or -1.
    v = _PROFILES[name]
    ks = np.array(_DEGREES, dtype=np.int64)
    for d in (2, 3):
        signs, logs = v.log_mu(d, ks)
        assert signs.shape == logs.shape == ks.shape
        with mpmath.workdps(80):
            for i, k in enumerate(_DEGREES + [10**20]):  # 1e20: a scalar degree beyond int64
                mu = _mp_mu(v, d, k)
                sign, log_abs = v.log_mu(d, k)
                assert np.shape(sign) == np.shape(log_abs) == ()  # a scalar degree gives 0-d values
                _assert_matches(sign, log_abs, mu, k)
                if i < ks.size:
                    _assert_matches(int(signs[i]), float(logs[i]), mu, k)


# log-spaced from 0 to 10^15
_CERTIFIED_DEGREES = sorted({0, 1, 2, 3} | {round(10.0**e) for e in np.linspace(0.5, 15.0, 30)})


@pytest.mark.parametrize("d", [2, 3, 5])
def test_tail_terms_sum_to_a_bound_on_mu(d):
    # against 50-digit mu_k; the allowance is four ulp of ln|mu_k|, for the
    # rounding of the doubles that a term stores (a Step's bound is mu_k itself)
    floored = Sampled([0.0, 0.5, 0.9], [1.0, 0.5, 0.3])
    symbols = [
        Step(1.0, 0.5),
        Step(-1.7, 0.93),
        *(Power(1.0, g) for g in (0.1, 0.5, 1.0, 1.778, 3.0, 40.0)),
        Sampled([0.0, 0.4, 0.8, 0.95], [1.0, 0.8, 0.2, 0.0]),
        floored,
        SymbolSum([Power(2.0, 0.5), Step(-0.5, 0.4), floored]),
    ]
    with mpmath.workdps(50):
        for v in symbols:
            terms = v.tails(d)
            for k in _CERTIFIED_DEGREES:
                bound = mpmath.fsum(
                    mpmath.exp(t.log_c + k * mpmath.mpf(t.log_q)) * mpmath.mpf(2 * k + d) ** -t.gamma for t in terms
                )
                log_mu = mpmath.log(abs(_mp_mu(v, d, k)))
                # Power keeps the slack of its constant 4/3 at every degree
                floor = math.log(4.0 / 3.0) if isinstance(v, Power) else 0.0
                assert mpmath.log(bound) - log_mu >= floor - 4 * 2.0**-52 * max(1, abs(log_mu)), (v, k)
