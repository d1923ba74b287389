"""Acceptance suite: one test per quantitative exit criterion.

Each test pins the tolerance it must meet, checks its runtime budget, and
prints a single pass line (run with `pytest tests/test_acceptance.py -s` to
see them).  Oracles are closed forms, structural identities, and scipy
cross-checks; no expected value is asserted without an independent source.
"""
import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from harmotop import boundary_reduction as br
from harmotop import galerkin_toeplitz as gt
from harmotop import krein_counting as kc
from harmotop import radial_toeplitz as rt
from harmotop.grids import TruncationSpec
from harmotop.harmonic_basis import cumulative_multiplicity, multiplicity
from harmotop.symbols import Power, Sampled, Step, SymbolSum
from reference import (
    density_integral,
    envelope_kappa,
    log_decay_at,
    multiplicity_asymptotic_check,
    norm_domination_check,
    power_constant,
    sandwich_plus,
    step_constant,
    superpolynomial_decay_check,
)


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"acceptance {name}: PASS ({elapsed:.2f}s / budget {seconds:.0f}s)")
    assert elapsed < seconds, f"{name} exceeded its runtime budget: {elapsed:.2f}s"


def test_c01_eigenvalue_quadrature_matches_closed_forms():
    # 50-digit references on the exact binary parameters: b c^n for the step
    # and a n!/((gamma+1)(gamma+2)...(gamma+n)) for the power profile, n = 2k+d.
    with budget("01 closed-form eigenvalue oracles", 1.0), mpmath.workdps(50):
        step_params = [(1.0, 0.5), (2.0, 0.9), (0.7, 0.3)]
        power_params = [(1.0, 1.0), (3.0, 0.5), (1.5, 2.25)]
        for d in (2, 3):
            for b, c in step_params:
                for k in range(31):
                    exact = mpmath.mpf(b) * mpmath.mpf(c) ** (2 * k + d)
                    got = rt.radial_eigenvalue(Step(b, c), d, k)
                    assert abs(got - exact) <= 8 * math.ulp(float(exact))
            for a, g in power_params:
                for k in range(31):
                    n = 2 * k + d
                    exact = mpmath.mpf(a) * mpmath.factorial(n) / mpmath.rf(mpmath.mpf(g) + 1, n)
                    got = rt.radial_eigenvalue(Power(a, g), d, k)
                    assert abs(got - exact) <= 8 * math.ulp(float(exact))


def test_c02_trace_identity():
    with budget("02 trace identity", 5.0):
        v = Step(1.0, 0.5)
        spectrum = rt.radial_spectrum(v, 2, 40)
        trace = float(np.cumsum(spectrum.multiplicities * spectrum.values)[-1])
        assert trace == pytest.approx(5.0 / 12.0, abs=1e-6)
        integral = density_integral(v, 2, 40)
        assert trace == pytest.approx(integral, rel=1e-8)


def test_c03_step_symbol_log_asymptotics():
    with budget("03 step-symbol log law", 1.0):
        for d in (2, 3):
            for c in (0.3, 0.5, 0.7):
                fit = rt.asymptotic_fit(
                    Step(1.0, c),
                    d,
                    model="log-power",
                    exponent=d - 1,
                    ln_lam_grid=np.linspace(-12.0, -60.0, 145),
                )
                target = step_constant(d, c)
                assert abs(fit.coefficient / target - 1.0) <= 0.02, (d, c, fit.coefficient)


def test_c04_power_symbol_asymptotics():
    with budget("04 power-symbol asymptotics", 10.0):
        for d in (2, 3):
            for g in (0.5, 1.0, 2.0):
                v = Power(1.0, g)
                target = power_constant(d, g, 1.0)
                # local power-law coefficient from exact counting at the
                # 1e-5 threshold scale (the n^(1/(d-1)) slope against
                # lambda^(-1/gamma) cancels the O(1) degree offset)
                lams = np.exp(np.linspace(math.log(1e-5), math.log(1e-5) - 1.2, 60))
                roots = np.array(
                    [rt.counting(v, d, ln_lam=math.log(l)) ** (1.0 / (d - 1)) for l in lams]
                )
                alpha = float(np.polyfit(lams ** (-1.0 / g), roots, 1)[0])
                estimate = alpha ** (d - 1)
                single_point = 1e-5 ** ((d - 1) / g) * rt.counting(v, d, ln_lam=math.log(1e-5))
                assert abs(estimate / target - 1.0) <= 0.01, (d, g, estimate, single_point)


def test_c05_boundary_constant_consistency():
    with budget("05 boundary/power constant identity", 0.1):
        for d in (2, 3, 4, 5):
            for g in (0.5, 1.0, 2.0):
                lhs = rt.boundary_law_constant(d, g, 1.0)
                rhs = power_constant(d, g, 1.0)
                assert abs(lhs / rhs - 1.0) <= 1e-12


def test_c06_boundary_reduction_equals_galerkin_section():
    # The boundary reduction turns T_V, for V ~ a(w) (1-|x|)^gamma, into an
    # operator with principal symbol ~ a(w) |xi|^-gamma on the sphere, so
    # N(lam) ~ C(d, gamma) <a^((d-1)/gamma)>_S lam^(-(d-1)/gamma).  A non-radial
    # case: V = (1-|x|) e^(x1) at d = 2 has gamma = 1, a = e^(cos theta) and
    # <a> = I_0(1) = 1.2661; the radial a = 1 symbol would give 1.  The two
    # section sizes agree on the count (measured 123 at both).
    with budget("06 non-radial counting law of the boundary reduction", 10.0):
        V = lambda p: (1.0 - np.linalg.norm(p, axis=1)) * np.exp(p[:, 0])
        lam = 0.01
        n_200, n_400 = (
            int(np.count_nonzero(gt.spectrum(V, 2, TruncationSpec.for_degree(K)).values > lam)) for K in (200, 400)
        )
        assert n_200 == n_400
        law = n_400 * lam / rt.boundary_law_constant(2, 1.0, 1.0)  # measured 1.23
        assert abs(law / sp.i0(1.0) - 1.0) <= 0.05
        assert abs(law - 1.0) > 0.05


def test_c07_principal_symbol_order():
    with budget("07 principal symbol order", 1.0):
        for d in (2, 3):
            for g, a in [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)]:
                estimate = br.symbol_order_check(Power(a, g), d)
                target = br.principal_symbol_value(Power(a, g))
                assert abs(estimate - target) <= 1e-3, (d, g, a, estimate)


def test_c08_schatten_norm_domination():
    with budget("08 Schatten norm domination", 20.0):
        spec = TruncationSpec.for_degree(12)
        # all four symbols vanish on the boundary (the compact setting of
        # the weak-norm bound; a nonzero boundary value makes both sides
        # infinite for the full operator and voids the truncated inequality)
        symbols = [
            Step(1.0, 0.5),
            Power(1.0, 1.0),
            Sampled([0.0, 0.3, 0.8], [0.5, 1.0, 0.0]),
            lambda p: (1.0 - (p**2).sum(axis=1)) * (1.0 + 0.5 * p[:, 0]),
        ]
        for V in symbols:
            for p in (1.0, 2.0, 3.0):
                lhs, rhs, ok = norm_domination_check(V, 2, spec, p)
                assert ok, (V, p, lhs, rhs)
                if p == 1.0:
                    assert lhs == pytest.approx(rhs, rel=1e-8)
            for p in (1.5, 2.0):
                lhs, rhs, ok = norm_domination_check(V, 2, spec, p, weak=True)
                assert ok, (V, p, lhs, rhs)


def test_c09_superpolynomial_decay():
    with budget("09 superpolynomial decay", 1.0):
        v = Step(1.0, 0.5)
        check = superpolynomial_decay_check(v, 2, 5.0, 6000)
        assert check.argmax_j <= 50
        log_tail = log_decay_at(v, 2, 5.0, 10**4, 6000)
        assert log_tail < math.log(1e-100)


def test_c10_compactly_supported_counting_limit():
    with budget("10 compactly supported symbol law", 2.0):
        bump = Sampled(
            [0.0, 0.2, 0.35, 0.499, 0.5], [1.2, 0.9, 1.1, 0.7, 0.0]
        )  # non-constant, positive on every inner ball, supported in [0, 1/2]
        for d in (2, 3):
            n = rt.counting(bump, d, ln_lam=-80.0)
            value = n / 80.0 ** (d - 1)
            target = step_constant(d, 0.5)
            assert abs(value / target - 1.0) <= 0.10, (d, value, target)


def test_c11_bump_perturbation_keeps_coefficient():
    with budget("11 bump-insensitive counting coefficient", 5.0):
        lam = 1e-5
        for d in (2, 3):
            target = power_constant(d, 1.0, 1.0)
            for sign in (0.5, -0.5):
                v = SymbolSum([Power(1.0, 1.0), Step(sign, 0.5)])
                coeff = lam ** (d - 1) * rt.counting(v, d, ln_lam=math.log(lam))
                assert abs(coeff / target - 1.0) <= 0.02, (d, sign, coeff)


def test_c12_weyl_inequalities_random_matrices():
    with budget("12 Weyl inequalities", 10.0):
        rng = np.random.default_rng(2024)

        def pairs():
            for _ in range(100):
                X = rng.normal(size=(30, 30))
                Y = rng.normal(size=(30, 30))
                yield 0.5 * (X + X.T), 0.5 * (Y + Y.T)
            spec = TruncationSpec.for_degree(8)  # then one pair of Toeplitz sections
            yield gt.assemble(Power(1.0, 1.0), 2, spec), gt.assemble(Step(0.5, 0.5), 2, spec)

        for A, B in pairs():
            ea = np.linalg.eigvalsh(A)
            eb = np.linalg.eigvalsh(B)
            es = np.linalg.eigvalsh(A + B)
            top = max(np.max(np.abs(ea)), np.max(np.abs(eb)))
            points = rng.uniform(0.0, 1.2 * top, size=(100, 2))
            for s1, s2 in points:
                for sign in (1, -1):
                    lhs = int(np.count_nonzero(sign * es > s1 + s2))
                    rhs = int(np.count_nonzero(sign * ea > s1)) + int(
                        np.count_nonzero(sign * eb > s2)
                    )
                    assert lhs <= rhs


def test_c13_essential_spectrum_filling():
    with budget("13 essential-spectrum filling", 60.0):
        V = lambda p: 0.5 * (1.0 + p[:, 0])
        eigs = gt.spectrum(V, 2, TruncationSpec.for_degree(40)).values  # a section's multiplicities are 1
        for target in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert np.min(np.abs(eigs - target)) < 0.02, target
        accum = Sampled([0.0, 0.5, 0.9], [1.0, 0.5, 0.3])
        assert abs(rt.radial_eigenvalue(accum, 2, 1000) - 0.3) <= 1e-3


def test_c14_sandwich_arithmetic():
    with budget("14 sandwich arithmetic", 5.0):
        n_plus = lambda ln_lam: rt.counting(Power(1.0, 1.0), 2, ln_lam=ln_lam)
        remainder = lambda e: kc.remainder_model(e, 1.0, 10.0, 2)
        no_remainder = lambda e: [0] * len(e)
        pairs = [(math.log(lam), float(eps)) for lam in np.geomspace(1e-5, 1e-2, 20) for eps in np.linspace(0.02, 0.9, 20)]
        ln_lam, epss = map(list, zip(*pairs))
        minus = kc.sandwich_minus(ln_lam=ln_lam, eps=epss, n_plus=n_plus, remainder=remainder)
        plus = sandwich_plus(ln_lam=ln_lam, eps=epss, n_plus=n_plus, remainder=remainder)
        for lower, upper in (minus, plus):
            assert len(lower) == 400 and all(lo <= up for lo, up in zip(lower, upper))
        lam0 = 1.03e-3
        collapsed = kc.sandwich_minus(ln_lam=[math.log(lam0)], eps=[1e-9], n_plus=n_plus, remainder=no_remainder)
        assert collapsed == ([n_plus(math.log(lam0))], [n_plus(math.log(lam0))])
        # optimal-eps choice reproduces the sandwich remainder exponent
        d, gamma = 2, 1.0
        theta = 2.0 * (d - 1) / (gamma * (d + 2))
        kappa = envelope_kappa(d)
        lams = np.geomspace(1e-6, 1e-3, 13)
        ln_lams = [math.log(lam) for lam in lams]
        _, upper = kc.sandwich_minus(
            ln_lam=ln_lams, eps=[float(lam**theta) for lam in lams], n_plus=n_plus, remainder=remainder
        )
        excess = np.array(upper) - np.array(kc.counting_envelope(d, gamma, 1.0, ln_lam=ln_lams))
        slope = float(np.polyfit(np.log(lams), np.log(excess), 1)[0])
        target = -(d - 1) * kappa / gamma
        assert abs(slope / target - 1.0) <= 0.15, slope


def test_c15_buckling_oracle_and_weyl_bound():
    with budget("15 buckling oracle and Weyl growth", 5.0):
        # the count steps 0 -> 1 at j_{1,1}^2 = 14.68197064 and 1 -> 3 at j_{2,1}^2
        j11 = float(sp.jn_zeros(1, 1)[0]) ** 2
        j21 = float(sp.jn_zeros(2, 1)[0]) ** 2
        assert abs(j11 - 14.68197064) <= 1e-6
        steps = kc.ball_counting(2, np.array([j11 - 1e-8, j11 + 1e-8, j21 - 1e-8, j21 + 1e-8]))
        assert steps.tolist() == [0, 1, 1, 3]
        exponent, coefficient, counts = kc.weyl_L_fit(2, np.geomspace(2e3, 1e4, 8))
        assert abs(exponent - 1.0) <= 0.05, exponent
        assert abs(coefficient - 0.25) <= 0.025, coefficient
        assert counts.tolist() == kc.ball_counting(2, np.geomspace(2e3, 1e4, 8)).tolist()


def test_c16_multiplicity_combinatorics():
    with budget("16 multiplicity combinatorics", 0.1):
        for d in range(2, 7):
            running = 0
            for k in range(201):
                running += multiplicity(d, k)
                assert cumulative_multiplicity(d, k) == running
        assert multiplicity_asymptotic_check(2, 200) == pytest.approx(0.5, rel=1e-12)
        assert multiplicity_asymptotic_check(3, 200) <= 2.02
        assert multiplicity_asymptotic_check(6, 200) <= 30.0


@pytest.mark.parametrize("d", [2, 3])
def test_c17_sharp_remainder_band(d):
    # R = n - C lam^(-(d-1)/gamma), with C = power_constant, is of the sharp
    # order lam^(-(d-2)/gamma).  Gamma(x)/Gamma(x+gamma) = (x + (gamma-1)/2)^(-gamma)
    # (1 + O(x^-2)) gives mu_k ~ A (2k+s)^(-gamma), A = a Gamma(gamma+1),
    # s = (2d+1+gamma)/2, so the crossing degree is nu = ceil((X-s)/2) with
    # X = (A/lam)^(1/gamma), n = M_(nu-1), and R lam^((d-2)/gamma) lies in
    # [-(gamma+7)/2, -(gamma+3)/2) at d = 2 and in A^(1/gamma) [-(gamma+7)/4,
    # -(gamma+3)/4) at d = 3.  The O(x^-2) term moves the crossing by O(1/nu)
    # degrees, so every row is allowed one band width over nu beyond the
    # band (the rows use at most 0.66 of that allowance); both ends must be
    # approached to 0.05, so the band is sharp.
    with budget(f"17 sharp remainder band, d={d}", 1.0):
        for gamma in (0.5, 1.0, 2.0):
            ln_lam = np.linspace(-4.0, -14.0 * gamma, 400)
            n = np.array(rt.counting(Power(1.0, gamma), d, ln_lam=ln_lam.tolist()), dtype=float)
            main = power_constant(d, gamma, 1.0) * np.exp(-(d - 1) / gamma * ln_lam)
            scaled = (n - main) * np.exp((d - 2) / gamma * ln_lam)
            A = math.gamma(gamma + 1.0)
            unit = 1.0 if d == 2 else A ** (1.0 / gamma) / 2.0
            lo, hi = -(gamma + 7.0) / 2.0 * unit, -(gamma + 3.0) / 2.0 * unit
            X = (A / np.exp(ln_lam)) ** (1.0 / gamma)
            nu = np.maximum(np.ceil((X - (2 * d + 1 + gamma) / 2.0) / 2.0), 1.0)
            allowance = (hi - lo) / nu
            assert np.all(scaled >= lo - allowance), (gamma, float(scaled.min()))
            assert np.all(scaled <= hi + allowance), (gamma, float(scaled.max()))
            assert scaled.min() <= lo + 0.05 and scaled.max() >= hi - 0.05, (gamma, scaled.min(), scaled.max())
