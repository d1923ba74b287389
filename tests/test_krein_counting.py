import math

import numpy as np
import pytest
import scipy.special as sp

from harmotop import radial_toeplitz as rt
from harmotop.krein_counting import (
    BoundInterval,
    SandwichInput,
    counting_envelope,
    disk_counting,
    remainder_model,
    sandwich_minus,
    sandwich_plus,
    weyl_L_fit,
)
from harmotop.symbols import Power


def nplus_power(ln_lam: float) -> int:
    return rt.counting(Power(1.0, 1.0), 2, ln_lam=ln_lam)


def test_bound_interval_validation():
    with pytest.raises(ValueError):
        BoundInterval(lower=3, upper=2)
    assert BoundInterval(lower=2, upper=2).upper == 2


def test_sandwich_input_validation():
    with pytest.raises(ValueError):
        SandwichInput(ln_lam=math.log(0.1), eps=1.0, n_plus=nplus_power, remainder=lambda e: 0)
    with pytest.raises(ValueError):
        SandwichInput(ln_lam=math.log(0.1), eps=0.5, n_plus=nplus_power, remainder=lambda e: 0, offset=-1)
    with pytest.raises(TypeError):  # the threshold is passed by name, as ln_lam
        SandwichInput(0.1, 0.5, nplus_power, lambda e: 0)


def test_sandwich_minus_collapses_without_remainder():
    lam = 1.03e-3  # generic threshold away from the eigenvalues 1/(2k+3)
    for eps in (0.3, 0.1, 1e-3, 1e-7):
        box = sandwich_minus(SandwichInput(ln_lam=math.log(lam), eps=eps, n_plus=nplus_power, remainder=lambda e: 0))
        assert box.lower == nplus_power(math.log(lam))
        assert box.upper >= box.lower
    tight = sandwich_minus(SandwichInput(ln_lam=math.log(lam), eps=1e-9, n_plus=nplus_power, remainder=lambda e: 0))
    assert tight.upper == tight.lower  # interval collapses to [n(lam), n(lam-)]


def test_sandwich_minus_above_top_eigenvalue():
    box = sandwich_minus(
        SandwichInput(ln_lam=math.log(10.0), eps=0.5, n_plus=nplus_power, remainder=lambda e: 7)
    )
    assert box.lower == 0 and box.upper == 7


def test_sandwich_plus_forms():
    lam = 1.03e-3
    box = sandwich_plus(SandwichInput(ln_lam=math.log(lam), eps=0.25, n_plus=nplus_power, remainder=lambda e: 0))
    assert box.lower == nplus_power(math.log(lam) + math.log1p(0.25)) == nplus_power(math.log(1.25 * lam))
    assert box.upper == nplus_power(math.log(lam))
    # lower bound is nondecreasing as eps decreases
    lowers = [
        sandwich_plus(SandwichInput(ln_lam=math.log(lam), eps=e, n_plus=nplus_power, remainder=lambda e_: 0)).lower
        for e in (0.5, 0.25, 0.1, 0.01)
    ]
    assert all(a <= b for a, b in zip(lowers, lowers[1:]))
    clamped = sandwich_plus(
        SandwichInput(ln_lam=math.log(10.0), eps=0.5, n_plus=nplus_power, remainder=lambda e: 100, offset=5)
    )
    assert clamped.lower == 0 and clamped.upper == 0


def test_interval_well_formedness_on_grid():
    for lam in np.geomspace(1e-5, 1e-2, 20):
        for eps in np.linspace(0.02, 0.9, 20):
            inp = SandwichInput(
                ln_lam=math.log(lam),
                eps=float(eps),
                n_plus=nplus_power,
                remainder=lambda e: remainder_model(e, 1.0, 10.0, 2),
            )
            assert sandwich_minus(inp).lower <= sandwich_minus(inp).upper
            assert sandwich_plus(inp).lower <= sandwich_plus(inp).upper


def test_counting_envelope_kappa_dichotomy():
    ln_lam = math.log(1e-4)
    assert counting_envelope(3, 1.0, 1.0, ln_lam=ln_lam).kappa == pytest.approx(3.0 / 5.0)
    assert counting_envelope(4, 1.0, 1.0, ln_lam=ln_lam).kappa == pytest.approx(2.0 / 3.0)
    assert counting_envelope(5, 1.0, 1.0, ln_lam=ln_lam).kappa == pytest.approx(3.0 / 4.0)
    env = counting_envelope(2, 1.0, 1.0, ln_lam=ln_lam)
    assert env.main == pytest.approx(1e4, rel=1e-10)
    assert env.error_exponent_inner == pytest.approx(0.0)
    assert env.error_exponent_sandwich == pytest.approx(0.5)


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
    exponent, coefficient = weyl_L_fit(np.geomspace(2e3, 1e4, 8))
    assert exponent == pytest.approx(1.0, abs=0.05)
    assert coefficient == pytest.approx(0.25, rel=0.10)


def test_optimized_eps_reproduces_remainder_exponent():
    d, gamma = 2, 1.0
    theta = 2.0 * (d - 1) / (gamma * (d + 2))
    target = -(d - 1) * counting_envelope(d, gamma, 1.0, ln_lam=math.log(1e-4)).kappa / gamma
    lams = np.geomspace(1e-6, 1e-3, 13)
    excess = []
    for lam in lams:
        eps = float(lam**theta)
        inp = SandwichInput(
            ln_lam=math.log(lam),
            eps=eps,
            n_plus=nplus_power,
            remainder=lambda e: remainder_model(e, 1.0, 10.0, d),
        )
        upper = sandwich_minus(inp).upper
        excess.append(upper - counting_envelope(d, gamma, 1.0, ln_lam=math.log(lam)).main)
    excess = np.array(excess)
    assert np.all(excess > 0.0)
    slope = float(np.polyfit(np.log(lams), np.log(excess), 1)[0])
    assert slope == pytest.approx(target, rel=0.15)
