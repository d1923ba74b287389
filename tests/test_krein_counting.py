import math

import numpy as np
import pytest
import scipy.special as sp

from harmotop import radial_toeplitz as rt
from harmotop.errors import TailNotCertifiedError
from harmotop.krein_counting import (
    counting_envelope,
    disk_counting,
    lam_power,
    remainder_model,
    sandwich_minus,
    weyl_L_fit,
)
from harmotop.symbols import Power, Step
from reference import envelope_kappa, sandwich_plus


def nplus_power(ln_lam):
    return rt.counting(Power(1.0, 1.0), 2, ln_lam=ln_lam)


def no_remainder(eps):
    return [0] * len(eps)


def test_bound_interval_validation():
    # a lower bound above its upper bound on any row is refused
    swapped = lambda ts: [5] * (len(ts) // 2) + [2] * (len(ts) // 2)  # n at ln lam, then at the shifted ln lam
    with pytest.raises(ValueError, match="empty bound interval"):
        sandwich_minus(ln_lam=[-3.0, -2.0], eps=[0.5, 0.5], n_plus=swapped, remainder=no_remainder)
    flat = lambda ts: [2] * len(ts)
    assert sandwich_minus(ln_lam=[-3.0], eps=[0.5], n_plus=flat, remainder=no_remainder) == ([2], [2])


def test_sandwich_input_validation():
    for eps in (0.0, 1.0, 1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            sandwich_minus(ln_lam=[math.log(0.1)] * 2, eps=[0.5, eps], n_plus=nplus_power, remainder=no_remainder)
    with pytest.raises(ValueError):  # one eps per row
        sandwich_minus(ln_lam=[-3.0, -2.0], eps=[0.5], n_plus=nplus_power, remainder=no_remainder)
    with pytest.raises(TypeError):  # the thresholds are passed by name, as ln_lam
        sandwich_minus([math.log(0.1)], [0.5], nplus_power, no_remainder)


def test_sandwich_minus_collapses_without_remainder():
    lam = 1.03e-3  # generic threshold away from the eigenvalues 1/(2k+3)
    epss = [0.3, 0.1, 1e-3, 1e-7]
    lower, upper = sandwich_minus(ln_lam=[math.log(lam)] * 4, eps=epss, n_plus=nplus_power, remainder=no_remainder)
    assert lower == [nplus_power(math.log(lam))] * 4
    assert all(u >= l for l, u in zip(lower, upper))
    tight = sandwich_minus(ln_lam=[math.log(lam)], eps=[1e-9], n_plus=nplus_power, remainder=no_remainder)
    assert tight[0] == tight[1]  # interval collapses to [n(lam), n(lam-)]


def test_sandwich_minus_above_top_eigenvalue():
    lower, upper = sandwich_minus(
        ln_lam=[math.log(10.0)], eps=[0.5], n_plus=nplus_power, remainder=lambda e: [7] * len(e)
    )
    assert lower == [0] and upper == [7]


def test_sandwich_plus_forms():
    lam = 1.03e-3
    lower, upper = sandwich_plus(ln_lam=[math.log(lam)], eps=[0.25], n_plus=nplus_power, remainder=no_remainder)
    assert lower == [nplus_power(math.log(lam) + math.log1p(0.25))] == [nplus_power(math.log(1.25 * lam))]
    assert upper == [nplus_power(math.log(lam))]
    # lower bound is nondecreasing as eps decreases
    lowers, _ = sandwich_plus(
        ln_lam=[math.log(lam)] * 4, eps=[0.5, 0.25, 0.1, 0.01], n_plus=nplus_power, remainder=no_remainder
    )
    assert all(a <= b for a, b in zip(lowers, lowers[1:]))
    clamped = sandwich_plus(
        ln_lam=[math.log(10.0)], eps=[0.5], n_plus=nplus_power, remainder=lambda e: [100] * len(e), offset=5
    )
    assert clamped == ([0], [0])


def test_interval_well_formedness_on_grid():
    pairs = [(math.log(lam), float(eps)) for lam in np.geomspace(1e-5, 1e-2, 20) for eps in np.linspace(0.02, 0.9, 20)]
    ln_lam, epss = map(list, zip(*pairs))
    for sandwich in (sandwich_minus, sandwich_plus):
        lower, upper = sandwich(
            ln_lam=ln_lam, eps=epss, n_plus=nplus_power, remainder=lambda e: remainder_model(e, 1.0, 10.0, 2)
        )
        assert len(lower) == len(upper) == 400
        assert all(l <= u for l, u in zip(lower, upper))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("symbol", [Power(1.0, 1.0), Power(0.7, 2.5), Step(1.0, 0.5)], ids=repr)
@pytest.mark.parametrize("eps", ["default", 0.25])
@pytest.mark.parametrize("offset", [0, 3])
def test_grid_sandwich_matches_the_per_row_formulas(symbol, d, eps, offset):
    # each row of both grid sandwiches is the row formula with scalar counts
    rng = np.random.default_rng(20 + d + offset)
    ln_lam = np.sort(rng.uniform(-12.0, -1.0, 25)).tolist()
    theta = 2.0 * (d - 1) / (symbol.gamma * (d + 2)) if isinstance(symbol, Power) else 0.5
    epss = [min(0.5, math.exp(t) ** theta) for t in ln_lam] if eps == "default" else [eps] * len(ln_lam)
    n_plus = lambda t: rt.counting(symbol, d, ln_lam=t)
    remainder = lambda e: remainder_model(e, symbol.sup(), 10.0, d)
    minus = sandwich_minus(ln_lam=ln_lam, eps=epss, n_plus=n_plus, remainder=remainder)
    plus = sandwich_plus(ln_lam=ln_lam, eps=epss, n_plus=n_plus, remainder=remainder, offset=offset)
    for t, e, lo_m, up_m, lo_p, up_p in zip(ln_lam, epss, *minus, *plus, strict=True):
        r = remainder(e)
        assert (lo_m, up_m) == (n_plus(t), n_plus(t + math.log1p(-e)) + r)
        assert (lo_p, up_p) == (max(0, n_plus(t + math.log1p(e)) - r - offset), max(0, n_plus(t) - offset))


@pytest.mark.parametrize("sandwich", [sandwich_minus, sandwich_plus])
def test_sandwich_calls_n_plus_and_remainder_once(sandwich):
    ln_lam = np.linspace(-9.0, -3.0, 30).tolist()
    asked, rems = [], []

    def n_plus(ts):
        asked.append(list(ts))
        return nplus_power(ts)

    def remainder(e):
        rems.append(e.copy())
        return remainder_model(e, 1.0, 10.0, 2)

    sandwich(ln_lam=ln_lam, eps=[0.2] * 30, n_plus=n_plus, remainder=remainder)
    assert len(asked) == 1 and len(rems) == 1
    shift = math.log1p(-0.2 if sandwich is sandwich_minus else 0.2)
    assert asked[0] == ln_lam + [t + shift for t in ln_lam]
    assert rems[0].tolist() == [0.2] * 30


def test_lam_power_keeps_the_python_float_bits():
    ln_lam = [-1500.0, -800.0, -745.5, -700.0, -12.3, 0.0, 3.0, 700.0]
    for e in (0.5, 1.0 / 3.0, -1.0, -39.0, 5.0):
        got = lam_power(ln_lam, e)
        for t, x in zip(ln_lam, got, strict=True):
            lam = math.exp(t)
            if lam == 0.0:  # below the double range: formed from ln lam
                want = math.exp(e * t) if e * t < 709.0 else math.inf
            else:
                want = lam**e if e * t < 709.0 else math.inf
            assert x == want and type(x) is float, (t, e)
    assert lam_power([-1500.0], -1.0) == [math.inf]
    assert lam_power([-1500.0], 0.5) == [0.0]


def test_counting_envelope_kappa_dichotomy():
    assert envelope_kappa(3) == pytest.approx(3.0 / 5.0)
    assert envelope_kappa(4) == pytest.approx(2.0 / 3.0)
    assert envelope_kappa(5) == pytest.approx(3.0 / 4.0)
    d, gamma = 2, 1.0
    assert counting_envelope(d, gamma, 1.0, ln_lam=[math.log(1e-4)]) == [pytest.approx(1e4, rel=1e-10)]
    assert (d - 2) / gamma == pytest.approx(0.0)  # the error exponent on the inner side
    assert (d - 1) * envelope_kappa(d) / gamma == pytest.approx(0.5)  # and on the sandwich side


def test_counting_envelope_is_one_column_or_a_refusal():
    ln_lam = np.linspace(-9.0, -1.0, 9).tolist()
    coeff = rt.boundary_law_constant(3, 2.0, 1.5)
    assert counting_envelope(3, 2.0, 1.5, ln_lam=ln_lam) == [coeff * math.exp(t) ** -1.0 for t in ln_lam]
    # C lambda^(-39) at lambda = e^-30 is about e^1040
    with pytest.raises(TailNotCertifiedError, match=r"envelope_main is beyond the double range at ln lambda = -30.0"):
        counting_envelope(40, 1.0, 1.0, ln_lam=[-20.0, -30.0])
    with pytest.raises(TypeError):
        counting_envelope(2, 1.0, 1.0, ln_lam)


def test_buckling_disk_values_against_independent_oracle():
    # the count steps 0 -> 1 at j_{1,1}^2 (radial, simple) and 1 -> 3 at j_{2,1}^2 (double)
    j11 = float(sp.jn_zeros(1, 1)[0]) ** 2
    j21 = float(sp.jn_zeros(2, 1)[0]) ** 2
    assert j11 == pytest.approx(14.68197064, abs=1e-6)
    assert [disk_counting(e) for e in (j11 - 1e-8, j11 + 1e-8, j21 - 1e-8, j21 + 1e-8)] == [0, 1, 1, 3]


def _scipy_buckling_values(e_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Every j_{k,m}^2 < e_max for k >= 1, with multiplicity 1 for k = 1 and 2 above."""
    vals, mults = [], []
    k = 1
    while k * k < e_max:
        zeros = sp.jn_zeros(k, int(math.sqrt(e_max) / math.pi) + 2) ** 2
        zeros = zeros[zeros < e_max]
        vals.extend(zeros)
        mults.extend([1 if k == 1 else 2] * len(zeros))
        k += 1
    order = np.argsort(vals)
    return np.asarray(vals)[order], np.asarray(mults)[order]


def test_buckling_orders_interlace():
    # zeros of consecutive Bessel orders interlace, and the count steps by
    # the multiplicity at each of the first values, to 1e-8
    j2 = sp.jn_zeros(2, 3)
    j3 = sp.jn_zeros(3, 3)
    assert j2[0] < j3[0] < j2[1] < j3[1] < j2[2]
    vals, mults = _scipy_buckling_values(300.0)
    below = disk_counting(vals - 1e-8)
    above = disk_counting(vals + 1e-8)
    assert (above - below).tolist() == mults.tolist()
    assert below.tolist() == (np.cumsum(mults) - mults).tolist()


def test_disk_counting_matches_scipy_enumeration():
    vals, mults = _scipy_buckling_values(2e4)
    energies = np.random.default_rng(14).uniform(0.0, 2e4, 200)
    ref = [int(np.sum(mults[vals < e])) for e in energies]
    assert disk_counting(energies).tolist() == ref
    assert [disk_counting(float(e)) for e in energies] == ref
    assert isinstance(disk_counting(100.0), int)


def test_disk_counting_monotone_and_zero_below_first():
    assert disk_counting(10.0) == 0
    assert disk_counting(14.6) == 0
    counts = [disk_counting(e) for e in np.linspace(10.0, 300.0, 40)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_remainder_model():
    assert remainder_model(0.5, 1.0, 10.0, 2) == 0  # energy 12 below the first value
    # energy 110: enumerate j_(k,m)^2 <= 110 with multiplicities by scipy
    count = 0
    for order in range(1, 12):
        zeros = sp.jn_zeros(order, 8)
        mult = 1 if order == 1 else 2
        count += mult * int(np.sum(zeros**2 <= 110.0))
    assert remainder_model(0.01, 1.0, 10.0, 2) == count == 17
    vals = [remainder_model(e, 1.0, 10.0, 2) for e in (0.005, 0.01, 0.05, 0.2, 0.5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert remainder_model(0.1, 1.0, 10.0, 3) == int(20.0**1.5)


def test_weyl_L_fit_disk():
    grid = np.geomspace(2e3, 1e4, 8)
    exponent, coefficient, counts = weyl_L_fit(grid)
    assert exponent == pytest.approx(1.0, abs=0.05)
    assert coefficient == pytest.approx(0.25, rel=0.10)
    assert counts.tolist() == disk_counting(grid).tolist()
    assert coefficient == counts[-1] / grid[-1]


def test_optimized_eps_reproduces_remainder_exponent():
    d, gamma = 2, 1.0
    theta = 2.0 * (d - 1) / (gamma * (d + 2))
    target = -(d - 1) * envelope_kappa(d) / gamma
    lams = np.geomspace(1e-6, 1e-3, 13)
    ln_lam = np.log(lams).tolist()
    _, upper = sandwich_minus(
        ln_lam=ln_lam,
        eps=[float(lam**theta) for lam in lams],
        n_plus=nplus_power,
        remainder=lambda e: remainder_model(e, 1.0, 10.0, d),
    )
    excess = np.array(upper) - np.array(counting_envelope(d, gamma, 1.0, ln_lam=ln_lam))
    assert np.all(excess > 0.0)
    slope = float(np.polyfit(np.log(lams), np.log(excess), 1)[0])
    assert slope == pytest.approx(target, rel=0.15)
