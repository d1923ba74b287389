import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from harmotop import radial_toeplitz
from harmotop.cli import main
from harmotop.errors import TailNotCertifiedError
from harmotop.harmonic_basis import cumulative_multiplicity, multiplicity
from harmotop.radial_toeplitz import (
    Spectrum,
    asymptotic_fit,
    boundary_law_constant,
    counting,
    log_radial_eigenvalue,
    radial_eigenvalue,
    radial_spectrum,
    _weak_tail_sup_log,
    schatten_radial,
)
from harmotop.symbols import Power, Sampled, Step, SymbolSum, TailTerm
from reference import log_decay_at, power_constant, step_constant, superpolynomial_decay_check

CONST_ONE = Sampled([0.0, 0.5], [1.0, 1.0])


def test_step_eigenvalue_closed_form():
    assert radial_eigenvalue(Step(1.0, 0.5), 2, 0) == 0.25
    assert radial_eigenvalue(Step(1.0, 0.5), 2, 1) == 0.0625
    assert radial_eigenvalue(Step(2.0, 0.9), 3, 10) == pytest.approx(2.0 * 0.9**23, rel=1e-15)


def test_power_eigenvalue_closed_form():
    assert radial_eigenvalue(Power(1.0, 1.0), 2, 0) == 1.0 / 3.0
    assert radial_eigenvalue(Power(1.0, 2.0), 2, 0) == 1.0 / 6.0
    # k^gamma mu_k -> a Gamma(gamma+1) 2^-gamma; for gamma=1: mu_k = 1/(2k+3)
    k = 10**6
    assert radial_eigenvalue(Power(1.0, 1.0), 2, k) == pytest.approx(1.0 / (2 * k + 3), rel=1e-15)


def test_constant_symbol_gives_unit_eigenvalues():
    for d in (2, 3, 5):
        for k in (0, 1, 7):
            assert radial_eigenvalue(CONST_ONE, d, k) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_quadrature_matches_closed_forms(d):
    # QUADPACK on (2k+d) int_0^1 v(r) r^(2k+d-1) dr; the power profile's
    # (1-r)^gamma enters as the algebraic endpoint weight of qawse.
    k = np.arange(0, 31, 3)
    for b, c in [(1.0, 0.5), (2.0, 0.9), (0.7, 0.3)]:
        quad = [n * b * integrate.quad(lambda r: r ** (n - 1), 0.0, c)[0] for n in 2 * k + d]
        assert Step(b, c).mu(d, k) == pytest.approx(quad, rel=1e-10)
    for a, g in [(1.0, 1.0), (3.0, 0.5), (1.5, 2.25)]:
        quad = [
            n * a * integrate.quad(lambda r: 1.0, 0.0, 1.0, weight="alg", wvar=(n - 1, g))[0]
            for n in 2 * k + d
        ]
        assert Power(a, g).mu(d, k) == pytest.approx(quad, rel=1e-10)


K_ULP = 10_000
DEGREES = np.arange(K_ULP + 1)
GOLDEN_PROFILE = Path(__file__).parent / "golden" / "profile.csv"


def _ulps(got, exact) -> float:
    """Largest error of the doubles `got` in units in the last place of the 50-digit `exact`."""
    return max(float(abs(x - e)) / math.ulp(float(e)) for x, e in zip(got, exact))


def _products(start, factor, n_max: int) -> list:
    """start * factor(1) * ... * factor(n) for n = 0..n_max, in the working precision."""
    out = [mpmath.mpf(start)]
    for n in range(1, n_max + 1):
        out.append(out[-1] * factor(n))
    return out


@pytest.mark.parametrize(
    "gamma, tol", [(0.5, 8), (0.55, 8), (1.0, 8), (2.0, 8), (2.9, 8), (3.0, 8), (10.0, 64), (40.0, 64)]
)
def test_power_mu_within_ulps_of_50_digits(gamma, tol):
    v = Power(1.5, gamma)
    far = np.array([10**5, 10**6, 10**7, 10**8, 10**9, 987_654_321])
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        exact = _products(1.5, lambda n: n / (n + g), 2 * K_ULP + 3)  # a n!/((g+1)...(g+n))
        for d in (2, 3):
            assert _ulps(v.mu(d, DEGREES), exact[d::2]) <= tol
            exact_far = [
                1.5 * mpmath.exp(mpmath.loggamma(n + 1) + mpmath.loggamma(g + 1) - mpmath.loggamma(n + 1 + g))
                for n in (2 * far + d).tolist()
            ]
            assert _ulps(v.mu(d, far), exact_far) <= tol


@pytest.mark.parametrize("b, c", [(1.0, 0.5), (2.0, 0.9), (-0.7, 0.3), (-1.3, 0.97)])
def test_step_mu_within_8_ulp_of_50_digits(b, c):
    with mpmath.workdps(50):
        exact = _products(b, lambda n: mpmath.mpf(c), 2 * K_ULP + 3)
        for d in (2, 3):
            assert _ulps(Step(b, c).mu(d, DEGREES), exact[d::2]) <= 8


def test_sampled_and_sum_mu_within_8_ulp_of_50_digits():
    rows = [line.split(",") for line in GOLDEN_PROFILE.read_text().splitlines() if not line.startswith("#")]
    r, v = [float(row[0]) for row in rows], [float(row[1]) for row in rows]
    total = SymbolSum([Power(1.0, 1.0), Step(0.5, 0.3)])
    with mpmath.workdps(50):
        # by parts: v(1-) - sum_j s_j (r_(j+1)^(n+1) - r_j^(n+1))/(n+1)
        slopes = [(mpmath.mpf(v1) - v0) / (mpmath.mpf(r1) - r0) for r0, r1, v0, v1 in zip(r, r[1:], v, v[1:])]
        powers = [_products(1, lambda n, x=mpmath.mpf(x): x, 2 * K_ULP + 4) for x in r]
        exact = [
            v[-1] - sum(s * (p1[n + 1] - p0[n + 1]) for s, p0, p1 in zip(slopes, powers, powers[1:])) / (n + 1)
            for n in range(2 * K_ULP + 4)
        ]
        power = _products(1, lambda n: mpmath.mpf(n) / (n + 1), 2 * K_ULP + 3)
        step = _products(0.5, lambda n: mpmath.mpf(0.3), 2 * K_ULP + 3)
        for d in (2, 3):
            assert _ulps(Sampled(r, v).mu(d, DEGREES), exact[d::2]) <= 8
            assert _ulps(total.mu(d, DEGREES), [p + s for p, s in zip(power[d::2], step[d::2])]) <= 8


def test_spectrum_at_a_steep_decay_rate_matches_50_digits(capsys):
    assert main(["spectrum", "--d", "2", "--symbol", "power:a=1,gamma=40", "--K", "300"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    values = [float(row[1]) for row in rows]
    assert [int(row[2]) for row in rows] == [1] + [2] * 300
    with mpmath.workdps(50):
        g = mpmath.mpf(40)
        exact = _products(1, lambda n: n / (n + g), 602)[2::2]
        # mu_k decreases in k, so the rows must come in degree order
        assert _ulps(values, exact) <= 64


def test_log_eigenvalue_matches_linear_evaluation():
    prof = Sampled([0.0, 0.2, 0.5, 0.8], [1.0, -0.4, 0.7, 0.2])
    total = SymbolSum([prof, Step(-0.3, 0.6), Power(1.0, 1.5)])
    for d in (2, 3):
        for k in (0, 1, 4, 9):
            sign, log_abs = log_radial_eigenvalue(total, d, k)
            direct = radial_eigenvalue(total, d, k)
            assert sign * math.exp(log_abs) == pytest.approx(direct, rel=1e-11)


def test_counting_step_values():
    v = Step(1.0, 0.5)
    # mu_0 = 1/4, mu_1 = 1/16, mu_2 = 1/64, mu_3 = 1/256 (d = 2)
    assert counting(v, 2, ln_lam=math.log(0.1)) == 1
    assert counting(v, 2, ln_lam=math.log(0.01)) == 5
    assert counting(v, 2, ln_lam=math.log(0.3)) == 0
    assert counting(v, 2, ln_lam=math.log(0.0625)) == 1  # strict inequality excludes mu_1
    assert counting(v, 2, ln_lam=math.log(1e-3), sign=-1) == 0
    with pytest.raises(TypeError):  # the threshold is passed by name, as ln_lam
        counting(v, 2, 0.1)


def test_counting_monotone_matches_enumeration():
    v = Step(1.0, 0.5)
    wrapped = SymbolSum([v])  # forces the enumeration path
    for lnl in (-5.0, -17.3, -42.0, -60.0):
        assert counting(v, 2, ln_lam=lnl) == counting(wrapped, 2, ln_lam=lnl)
        assert counting(v, 3, ln_lam=lnl) == counting(wrapped, 3, ln_lam=lnl)


def test_counting_equals_cumulative_multiplicity_of_crossing_degree():
    v = Power(1.0, 1.0)
    lam = 1e-4
    nu = int(np.argmax(v.mu(2, np.arange(10**4)) <= lam))  # mu_k decreases in k
    assert counting(v, 2, ln_lam=math.log(lam)) == cumulative_multiplicity(2, nu - 1)


def test_counting_deep_thresholds_exact_in_log_domain():
    v = Step(1.0, 0.5)
    for d in (2, 3):
        for lnl in (-120.0, -200.0):
            nu = math.floor((-lnl / math.log(2.0) - d) / 2.0) + 1
            assert counting(v, d, ln_lam=lnl) == cumulative_multiplicity(d, nu - 1)


@settings(max_examples=40, deadline=None)
@given(
    b=st.floats(min_value=0.1, max_value=5.0),
    c=st.floats(min_value=0.05, max_value=0.95),
    lnl=st.floats(min_value=-50.0, max_value=-0.5),
)
def test_counting_nonincreasing_in_threshold(b, c, lnl):
    v = Step(b, c)
    n_hi = counting(v, 2, ln_lam=lnl)
    n_lo = counting(v, 2, ln_lam=lnl - 1.0)
    assert n_lo >= n_hi


def test_counting_splits_by_sign():
    v = SymbolSum([Step(1.0, 0.3), Sampled([0.0, 0.4, 0.45, 0.8], [0.0, 0.0, -2.0, 0.0])])
    lam = 1e-6
    mus = [radial_eigenvalue(v, 2, k) for k in range(200)]
    n_plus_oracle = sum(multiplicity(2, k) for k, m in enumerate(mus) if m > lam)
    n_minus_oracle = sum(multiplicity(2, k) for k, m in enumerate(mus) if -m > lam)
    assert counting(v, 2, ln_lam=math.log(lam)) == n_plus_oracle
    assert counting(v, 2, ln_lam=math.log(lam), sign=-1) == n_minus_oracle
    assert n_minus_oracle > 0  # the configuration genuinely changes sign


def test_counting_refuses_uncertified_thresholds():
    leaky = Sampled([0.0, 0.9], [1.0, 0.3])  # boundary value 0.3
    with pytest.raises(TailNotCertifiedError):
        counting(leaky, 2, ln_lam=math.log(0.2))
    assert counting(leaky, 2, ln_lam=math.log(0.5)) >= 0  # above the boundary value it resolves


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("d", [2, 3])
def test_cancelling_floors_refuse_without_calling_the_count_infinite(d, sign):
    # the sum is zero beyond r = 0.9, so its counts are finite; its tail terms
    # are the parts' floors 0.3 and 0.3, which cannot show that they cancel
    v = SymbolSum([Sampled([0.0, 0.5, 0.9], [1.0, 0.5, 0.3]), Sampled([0.0, 0.9], [-1.0, -0.3])])
    with pytest.raises(TailNotCertifiedError) as exc:
        counting(v, d, ln_lam=-1.0, sign=sign)
    assert str(exc.value) == (
        "threshold lies below the certified bound on the boundary value of the symbol; "
        "the count cannot be certified there"
    )


def test_step_constant_values():
    assert step_constant(2, 0.5) == pytest.approx(1.0 / math.log(2.0), rel=1e-13)
    assert step_constant(2, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-13)
    # 2^(2-d)/((d-1)! |ln c|^(d-1)) at d=3, c=1/2
    assert step_constant(3, 0.5) == pytest.approx(0.5 / (2.0 * math.log(2.0) ** 2), rel=1e-13)


def test_power_constant_values_and_scaling():
    assert power_constant(2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert power_constant(3, 2.0, 1.0) == pytest.approx(0.5, rel=1e-13)
    for d, g in [(2, 0.5), (3, 1.0), (4, 2.0)]:
        ratio = power_constant(d, g, 2.0) / power_constant(d, g, 1.0)
        assert ratio == pytest.approx(2.0 ** ((d - 1) / g), rel=1e-12)


def test_boundary_law_constant_matches_power_constant():
    assert boundary_law_constant(2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    for d in (2, 3, 4, 5):
        for g in (0.5, 1.0, 2.0):
            assert boundary_law_constant(d, g, 1.3) == pytest.approx(
                power_constant(d, g, 1.3), rel=1e-12
            )
    assert boundary_law_constant(2, 1.0, 2.0) > boundary_law_constant(2, 1.0, 1.0)


def test_asymptotic_fit_validation():
    with pytest.raises(ValueError):
        asymptotic_fit(Step(1.0, 0.5), 2, ln_lam_grid=np.array([-4.0, -5.0, -6.0]))
    with pytest.raises(ValueError):
        asymptotic_fit(Step(1.0, 0.5), 2, ln_lam_grid=np.log([0.1, 0.2, 0.05, 0.01]))
    with pytest.raises(ValueError):
        asymptotic_fit(Step(1.0, 0.5), 2, ln_lam_grid=np.linspace(-4, -10, 5), model="cubic")
    for model in ("power", "log-power"):
        for exponent in (0.0, -1.0):
            with pytest.raises(ValueError, match="exponent"):
                asymptotic_fit(Step(1.0, 0.5), 2, ln_lam_grid=np.linspace(-4, -10, 5), model=model, exponent=exponent)


def test_asymptotic_fit_step_law():
    fit = asymptotic_fit(
        Step(1.0, 0.5), 2, model="log-power", exponent=1, ln_lam_grid=np.linspace(-12, -60, 97)
    )
    assert fit.coefficient == pytest.approx(1.0 / math.log(2.0), rel=0.02)


def test_asymptotic_fit_power_law():
    # lam * n_plus -> 1 for the unit linear-decay symbol in d = 2
    assert 1e-5 * counting(Power(1.0, 1.0), 2, ln_lam=math.log(1e-5)) == pytest.approx(1.0, rel=0.01)
    fit = asymptotic_fit(
        Power(3.0, 0.5), 3, model="power", ln_lam_grid=np.linspace(-4.0, -11.6, 12)
    )
    assert fit.exponent == pytest.approx(4.0, rel=0.02)


def test_schatten_radial_values():
    assert schatten_radial(Step(1.0, 0.5), 2, 1.0) == pytest.approx(5.0 / 12.0, rel=1e-9)
    assert schatten_radial(Step(1.0, 0.5), 2, 2.0, weak=True) == pytest.approx(0.25, rel=1e-12)
    assert schatten_radial(Step(0.0, 0.5), 2, 1.0) == 0.0


@pytest.mark.parametrize("p", [400.0, 600.0, 1e300])
def test_schatten_norms_at_large_p_match_mpmath(p, capsys):
    # every m |mu|^p underflows here, but the norm tends to the largest |mu|
    cases = (
        (Step(1.0, 0.5), lambda k: mpmath.mpf(4) ** -(k + 1)),  # d = 2: mu_k = c^(2k+2)
        (Power(1.0, 1.0), lambda k: 1 / mpmath.mpf(2 * k + 3)),  # d = 2: mu_k = 1/(2k+3)
    )
    with mpmath.workdps(50):
        for v, mu in cases:
            total = mpmath.fsum((1 if k == 0 else 2) * mu(k) ** p for k in range(60))
            expected = float(total ** (1 / mpmath.mpf(p)))
            assert schatten_radial(v, 2, p) == pytest.approx(expected, rel=1e-14, abs=0.0)
        values = np.array([0.9, -0.9 + 1e-3, 0.85, 1e-3, 0.0])
        mults = np.array([1, 3, 2, 7, 4])
        s = Spectrum(values, mults)
        total = mpmath.fsum(int(m) * abs(mpmath.mpf(float(e))) ** p for e, m in zip(values, mults))
        assert s.schatten(p) == pytest.approx(float(total ** (1 / mpmath.mpf(p))), rel=1e-15, abs=0.0)
    assert main(["schatten", "--d", "2", "--symbol", "step:b=1,c=0.5", "--p", repr(p)]) == 0
    assert float(capsys.readouterr().out.splitlines()[-1].split(",")[2]) == 0.25


@pytest.mark.parametrize("p", [600.0, 1e300])
def test_strong_norm_at_large_p_is_the_correctly_rounded_top_eigenvalue(p, capsys):
    # the scale is the linear mu at the top degree, not exp(ln mu_0), which was 7 ulp below 1/3
    assert schatten_radial(Power(1.0, 1.0), 2, p) == 1.0 / 3.0  # mu_0 = 1/(n+1), n = 2k+d
    assert schatten_radial(Power(1.0, 1.0), 3, p) == 0.25
    assert schatten_radial(Power(2.0, 2.0), 2, p) == 1.0 / 3.0  # 2 * (1/3) * (2/4)
    assert main(["schatten", "--d", "2", "--symbol", "power:a=1,gamma=1", "--p", repr(p)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[2] == "0.33333333333333331"


def test_strong_norm_accepts_its_last_table_within_the_named_tolerance(monkeypatch):
    # at p = 3 no table up to degree 400,000 certifies its tail below _REL_TOL; the
    # last one is accepted with a tail below _LAST_TABLE_REL_TOL of its sum
    exact = ((7 / mpmath.mpf(4)) * mpmath.zeta(3) - 2 - 1 / mpmath.mpf(27)) ** (1 / mpmath.mpf(3))
    value = schatten_radial(Power(1.0, 1.0), 2, 3.0)
    assert value == pytest.approx(float(exact), rel=radial_toeplitz._LAST_TABLE_REL_TOL / 3)
    monkeypatch.setattr(radial_toeplitz, "_LAST_TABLE_REL_TOL", radial_toeplitz._REL_TOL)
    with pytest.raises(TailNotCertifiedError, match="beyond degree 400000"):
        schatten_radial(Power(1.0, 1.0), 2, 3.0)


def test_schatten_radial_weak_matches_enumeration():
    # mu_k = 1/(2k+3) with multiplicities (1, 2, 2, ...): brute-force the sup
    mus = np.array([1.0 / (2 * k + 3) for k in range(200_000)])
    ranks = np.cumsum([1] + [2] * 199_999)
    oracle = float(np.max(ranks**0.5 * mus))
    assert schatten_radial(Power(1.0, 1.0), 2, 2.0, weak=True) == pytest.approx(oracle, rel=1e-9)


def test_schatten_radial_weak_tail_of_a_sum_is_the_sum_of_its_parts_tails():
    # the tail bound took the larger part's sup instead of the sum of the
    # parts' sups, and returned 1.62 at K = 0 and 2.2728 at K = 1
    both = SymbolSum((Step(1.0, 0.9), Step(1.0, 0.9)))
    for K in (0, 1):
        with pytest.raises(TailNotCertifiedError):
            schatten_radial(both, 2, 2.0, weak=True, k_stop=K)
    value = schatten_radial(both, 2, 2.0, weak=True, k_stop=2)
    assert value == schatten_radial(Step(2.0, 0.9), 2, 2.0, weak=True, k_stop=2) == 2.3766764040609316


def _random_radial_symbol(rng):
    """A Power, Step, Sampled profile (vanishing at its last node or not) or a two-part sum of them."""
    kind = rng.integers(4)
    if kind == 0:
        return Power(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 4.0)))
    if kind == 1:
        return Step(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.05, 0.95)))
    if kind == 2:
        r = np.sort(rng.choice(np.linspace(0.0, 0.98, 50), int(rng.integers(2, 6)), replace=False))
        v = rng.uniform(-1.0, 1.0, r.size)
        v[-1] *= rng.integers(2)
        return Sampled(r.tolist(), v.tolist())
    return SymbolSum((_random_radial_symbol(rng), _random_radial_symbol(rng)))


def test_weak_norm_at_its_first_certified_table_is_the_sup_of_the_full_table(monkeypatch):
    # a sup certified at the end K of the first table is the full sup: past K
    # no rank exceeds the count M_J at the last degree J holding as large an
    # eigenvalue, and below K the table's ranks are the true ones
    rng = np.random.default_rng(27)
    ends = []
    table = radial_toeplitz._sorted_table
    monkeypatch.setattr(radial_toeplitz, "_sorted_table", lambda v, d, K, *rest: ends.append(K) or table(v, d, K, *rest))
    certified = early = 0
    for _ in range(100):
        v, d, p = _random_radial_symbol(rng), int(rng.choice([2, 3, 5])), float(rng.uniform(1.05, 6.0))
        try:
            full = schatten_radial(v, d, p, weak=True, k_stop=40_000)
        except TailNotCertifiedError:
            continue
        ends.clear()
        value = schatten_radial(v, d, p, weak=True)
        assert value == full, (v, d, p, ends)
        certified += 1
        early += ends[-1] < 40_000
    assert certified >= 40 and early >= 40, (certified, early)


def _weak_tail_sup_by_full_scan(terms, d, k_stop, p, end):
    """sup over k_stop < k <= end of M_k^(1/p) times the summed bound, term by term, every degree exact."""
    k = np.arange(k_stop + 1, end + 1)
    m = np.log(cumulative_multiplicity(d, k).astype(float)) / p
    return math.log(sum(math.exp(float(np.max(m + t.log_bound(d, k)))) for t in terms))


@pytest.mark.parametrize("k_stop", [0, 10, 200])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_weak_tail_sup_in_closed_form_bounds_the_full_scan(d, k_stop):
    # p gamma = (d-1)(1 + eps) and a Step ratio near 1 put the peak degree
    # near 3e5 or beyond; every later degree only decreases, so a scan of
    # every degree to `end` gives the true sup, which the closed form bounds
    # from above and, for the cases of d <= 4 and k_stop = 10, within 1e-9
    p = 2.0
    far = 3e5 if d <= 4 else 3e4  # the exact scan of a larger d is slower
    eps = (d - 1) * d / (2.0 * far * (d - 1))
    power, step = TailTerm(0.3, gamma=(d - 1) * (1.0 + eps) / p), TailTerm(-0.2, 2.0 * math.log1p(-1.8e5 / far**2))
    # a Step ratio of 0.9 peaks within a few degrees of k_stop, or before it
    near = TailTerm(0.1, 2.0 * math.log(0.9))
    power_end, step_end = int(far), math.ceil((d - 1) * far**2 / (p * 3.6e5))
    for terms, end in (
        ([power], power_end),
        ([step], step_end),
        ([power, step], max(power_end, step_end)),
        ([near], k_stop + 1_000),
        ([near, power], power_end),
    ):
        bound = _weak_tail_sup_log(terms, d, k_stop, p)
        full = _weak_tail_sup_by_full_scan(terms, d, k_stop, p, end)
        assert full <= bound, (d, k_stop, terms)
        if d <= 4 and k_stop == 10 and near not in terms:
            assert bound <= full + 1e-9, (d, terms)


def test_schatten_radial_refuses_divergent_exponents():
    with pytest.raises(TailNotCertifiedError):
        schatten_radial(Power(1.0, 0.4), 2, 2.0)  # p*gamma = 0.8 < d-1
    with pytest.raises(ValueError):
        schatten_radial(Step(1.0, 0.5), 2, 0.5)
    with pytest.raises(ValueError):
        schatten_radial(Step(1.0, 0.5), 2, 1.0, weak=True)


def test_superpolynomial_decay():
    check = superpolynomial_decay_check(Step(1.0, 0.5), 2, 5.0, 6000)
    assert check.argmax_j <= 50
    assert check.sup_value > 0.0
    tail_log = log_decay_at(Step(1.0, 0.5), 2, 5.0, 10**4, 6000)
    assert tail_log < math.log(1e-100)
    bump = Sampled([0.0, 0.35, 0.7], [1.0, 0.6, 0.0])
    assert math.isfinite(superpolynomial_decay_check(bump, 3, 8.0, 4000).sup_value)
    with pytest.raises(TailNotCertifiedError):
        superpolynomial_decay_check(Power(1.0, 1.0), 2, 5.0, 100)


def test_eigenvalues_decrease_for_monotone_symbols():
    for d in (2, 3):
        for v in (Step(1.0, 0.5), Power(1.0, 1.0), Power(2.0, 0.5)):
            logs = [log_radial_eigenvalue(v, d, k)[1] for k in range(0, 1001, 25)]
            assert all(a > b for a, b in zip(logs, logs[1:]))


def test_boundary_value_limit_of_eigenvalues():
    accum = Sampled([0.0, 0.5, 0.9], [1.0, 0.5, 0.3])
    assert radial_eigenvalue(accum, 2, 1000) == pytest.approx(0.3, abs=1e-3)
    compact = Sampled([0.0, 0.4, 0.5], [1.0, 0.8, 0.0])
    assert abs(radial_eigenvalue(compact, 2, 1000)) < 1e-200


def test_bump_does_not_move_the_counting_constant():
    for d in (2, 3):
        base = counting(Power(1.0, 1.0), d, ln_lam=math.log(1e-5))
        for sgn in (0.5, -0.5):
            bumped = SymbolSum([Power(1.0, 1.0), Step(sgn, 0.5)])
            n = counting(bumped, d, ln_lam=math.log(1e-5))
            assert abs(n - base) <= 0.02 * base


def test_radial_spectrum_structure():
    spectrum = radial_spectrum(Step(1.0, 0.5), 2, 6)
    assert spectrum.total_count == cumulative_multiplicity(2, 6)
    mults = sorted(spectrum.multiplicities.tolist())
    assert mults == sorted(multiplicity(2, k) for k in range(7))
    eigs = np.repeat(spectrum.values, spectrum.multiplicities)
    assert np.all(np.diff(np.abs(eigs)) <= 1e-15)
    assert spectrum.multiplicities[spectrum.values > 0.01].sum() == 5



_TIED = st.sampled_from([-2.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5])  # ties in value and in |value|


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.one_of(_TIED, st.floats(min_value=-10.0, max_value=10.0)), st.integers(1, 60)),
        min_size=1,
        max_size=40,
    ),
    lam=st.one_of(st.sampled_from([0.3, 1.0, 2.5]), st.floats(min_value=1e-3, max_value=12.0)),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_spectrum_reductions_match_the_loops_over_pairs(pairs, lam, p):
    # the formulas of the (value, multiplicity) tuple the arrays replace
    pairs = sorted(pairs, key=lambda pair: -abs(pair[0]))
    s = Spectrum(np.array([e for e, _ in pairs]), np.array([m for _, m in pairs]))
    assert s.total_count == sum(m for _, m in pairs)
    for sign in (1, -1):
        assert s.multiplicities[sign * s.values > lam].sum() == sum(m for e, m in pairs if sign * e > lam)
    assert float(np.cumsum(s.multiplicities * s.values)[-1]) == float(sum(m * e for e, m in pairs))
    # the strong norm against 30 digits: the double loop underflows to 0
    # where every |e|^p does (|e| near 1e-158 at p = 2), the norm does not
    with mpmath.workdps(30):
        strong = float(mpmath.fsum(m * abs(mpmath.mpf(e)) ** p for e, m in pairs) ** (1 / mpmath.mpf(p)))
    assert s.schatten(p) == pytest.approx(strong, rel=1e-14, abs=0.0)
    if p > 1.0:
        best, count = 0.0, 0
        for e, m in pairs:
            count += m
            best = max(best, count ** (1.0 / p) * abs(e))
        assert s.schatten_weak(p) == pytest.approx(best, rel=1e-14, abs=0.0)
    assert np.repeat(s.values, s.multiplicities).tolist() == [e for e, m in pairs for _ in range(m)]

# --- counting over threshold grids ------------------------------------------------

_LAST_DEGREE = 2**49  # the largest degree counting examines: the last power of two below 1e15


def _mp_first_not_above(gamma, d, ln_lam):
    """First k with ln mu_k <= ln_lam for Power(1, gamma), by bisection at 50 digits."""
    with mpmath.workdps(50):
        g, target = mpmath.mpf(gamma), mpmath.mpf(ln_lam)

        def above(k):
            x = mpmath.mpf(2 * k + d + 1)
            return mpmath.loggamma(g + 1) + mpmath.loggamma(x) - mpmath.loggamma(x + g) > target

        lo, hi = -1, 1
        while above(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid):
                lo = mid
            else:
                hi = mid
        return hi


@pytest.mark.parametrize(
    "d, ln_lam", [(2, -8.0), (2, -10.0), (2, -12.0), (2, -14.0), (2, -20.0), (3, -14.0)]
)
def test_power_counting_matches_mpmath_bisection(d, ln_lam):
    nu = _mp_first_not_above(0.5, d, ln_lam)
    if nu > _LAST_DEGREE:  # ln_lam = -20 crosses near k = 9e16
        with pytest.raises(TailNotCertifiedError, match="degree cap"):
            counting(Power(1.0, 0.5), d, ln_lam=ln_lam)
        return
    n = counting(Power(1.0, 0.5), d, ln_lam=ln_lam)
    assert type(n) is int  # d = 3 counts pass 2^63
    assert n == cumulative_multiplicity(d, nu - 1)


_SCAN = np.arange(4001)
_NEGATIVE = Sampled([0.0, 0.4, 0.45, 0.8], [0.0, 0.0, -2.0, 0.0])
_FLOORED = Sampled([0.0, 0.5, 0.9], [1.0, 0.5, 0.3])  # v(1-) = 0.3


@pytest.mark.parametrize(
    "v, sign",
    [
        (Power(1.0, 1.0), 1),
        (Power(0.7, 0.55), 1),
        (Power(2.3, 2.9), 1),
        (Power(1.0, 1.0), -1),
        (Step(1.0, 0.5), 1),
        (Step(-1.7, 0.93), -1),
        (Step(-1.7, 0.93), 1),
        (Step(0.0, 0.5), 1),
        (Sampled([0.0, 0.4, 0.8, 0.95], [1.0, 0.8, 0.2, 0.0]), 1),
        (Sampled([0.0, 0.2, 0.35, 0.499, 0.5], [1.2, 0.9, 1.1, 0.7, 0.0]), 1),
        (_NEGATIVE, -1),
        (_FLOORED, 1),
        (Sampled([0.0, 0.5, 0.9], [-1.0, -0.5, -0.3]), -1),
        (SymbolSum([Step(1.0, 0.3), _NEGATIVE]), 1),
        (SymbolSum([Step(1.0, 0.3), _NEGATIVE]), -1),
        (SymbolSum([Power(1.0, 2.0), Step(-0.5, 0.4)]), 1),
        (SymbolSum([Power(1.0, 2.0), Step(-0.5, 0.4)]), -1),
    ],
)
def test_grid_counting_equals_scalar_counting(v, sign):
    rng = np.random.default_rng(11)
    for d in (2, 3):
        signs, logs = v.log_mu(d, _SCAN)
        m = np.array([multiplicity(d, k) for k in _SCAN.tolist()])
        deepest = logs[3000] if np.isfinite(logs[3000]) else -9.0
        floor = sum(math.exp(t.log_c) for t in v.tails(d) if t.log_q == t.gamma == 0.0)
        if floor:  # count above the certified limit |v(1-)|, where the count is finite
            deepest = max(deepest, math.log(floor) + 0.01)
        exact = logs[np.isfinite(logs) & (logs > deepest)][:60]
        # random thresholds, thresholds equal to an exact log mu_k and one ulp either side
        grid = np.concatenate(
            (
                rng.uniform(deepest, 1.0, 40),
                exact,
                np.nextafter(exact, -np.inf),
                np.nextafter(exact, np.inf),
            )
        )
        rng.shuffle(grid)
        counts = counting(v, d, sign=sign, ln_lam=grid)
        assert isinstance(counts, list) and len(counts) == grid.size
        assert counts == [counting(v, d, sign=sign, ln_lam=float(t)) for t in grid]
        # reference: sum of m_k over the degrees k <= 4000 with sign*mu_k > lam
        assert counts == [int(m[(signs == sign) & (logs > t)].sum()) for t in grid.tolist()]
    lams = np.exp(grid[grid > -700.0])
    ln_lams = [math.log(x) for x in lams]
    assert counting(v, 2, ln_lam=ln_lams, sign=sign) == [counting(v, 2, ln_lam=t, sign=sign) for t in ln_lams]


def test_counts_stay_exact_past_2_63():
    # d = 6: the table reaches k ~ 15,000, where M_k ~ 1e19 passes 2^63.
    v = Sampled([0.0, 0.5, 0.99], [1.0, 1.0, 0.0])
    signs, logs = v.log_mu(6, np.arange(20_001))
    exceeding = np.flatnonzero((signs == 1) & (logs > -300.0)).tolist()
    assert 10_000 < exceeding[-1] < 20_000
    n = counting(v, 6, ln_lam=-300.0)
    assert type(n) is int and n > 2**63
    assert n == sum(multiplicity(6, k) for k in exceeding)


def test_step_counting_of_zero_symbol_is_zero():
    with np.errstate(all="raise"):
        assert counting(Step(0.0, 0.4), 3, ln_lam=[-300.0, -5.0, 2.0]) == [0, 0, 0]
        assert counting(Step(0.0, 0.4), 3, ln_lam=-5.0) == 0


def test_counting_cap_raises_exactly_beyond_the_last_degree():
    # The search gives up iff the threshold is still exceeded at degree 2^49.
    for v, d in ((Step(1.0, 1.0 - 2.0**-52), 2), (Step(0.8, 0.5), 3)):
        at_cap = v.log_mu(d, _LAST_DEGREE)[1]
        assert counting(v, d, ln_lam=at_cap) == cumulative_multiplicity(d, _LAST_DEGREE - 1)
        with pytest.raises(TailNotCertifiedError, match="counting exceeds the degree cap 562949953421312"):
            counting(v, d, ln_lam=math.nextafter(at_cap, -math.inf))
        with pytest.raises(TailNotCertifiedError):
            counting(v, d, ln_lam=[at_cap + 1.0, math.nextafter(at_cap, -math.inf)])
    power_cap = Power(1.0, 0.5).log_mu(2, _LAST_DEGREE)[1]  # about -17.4
    assert counting(Power(1.0, 0.5), 2, ln_lam=power_cap + 0.5) > 0
    with pytest.raises(TailNotCertifiedError):
        counting(Power(1.0, 0.5), 2, ln_lam=power_cap - 0.5)


def _first_not_exceeding_scalar(v, d, ln_lam):
    """First degree k with log mu_k <= ln_lam, by scalar log_mu steps from the estimate."""
    k = max(int(v.crossing_degree(d, ln_lam)), 0)
    while v.log_mu(d, k)[1] > ln_lam:
        k += 1
    while k > 0 and not v.log_mu(d, k - 1)[1] > ln_lam:
        k -= 1
    return k


@pytest.mark.parametrize("d", [2, 3, 4, 6])
@pytest.mark.parametrize("v", [Step(1.0, 0.5), Step(0.7, 0.9), Power(1.0, 1.0), Power(2.0, 2.5)])
def test_monotone_grid_counts_are_exact_cumulative_multiplicities(v, d):
    # Step thresholds reach M_k > 2^63 at d = 6; Power ones stay below the degree cap
    ln_lam = np.concatenate((np.linspace(-60.0, 0.5, 40), [-400.0, -1e6])) if isinstance(v, Step) else np.linspace(-22.0, 0.5, 40)
    counts = counting(v, d, ln_lam=ln_lam)
    want = [cumulative_multiplicity(d, _first_not_exceeding_scalar(v, d, t) - 1) for t in ln_lam.tolist()]
    assert counts == want
    assert all(type(n) is int for n in counts)
    if d == 6 and isinstance(v, Step):
        assert max(counts) > 2**63  # the Python-int branch, next to small counts


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 40])
def test_multiplicity_arrays_equal_the_binomial_forms(d):
    # `switch` is the first degree whose product (d-1)! M_k leaves int64;
    # at d = 40 the divisor 39! alone does, so every array holds Python ints
    def leaves_int64(k):
        return math.factorial(d - 1) * max(1, cumulative_multiplicity(d, k)) >= 2**63

    lo, switch = -2, 2**62
    while switch - lo > 1:
        mid = (lo + switch) // 2
        lo, switch = (lo, mid) if leaves_int64(mid) else (mid, switch)
    small = [-1, 0, 1, 2, 7]
    for ks in ([small + [switch - 1], small + [switch]] if switch > 7 else [small]):
        cum = cumulative_multiplicity(d, np.array(ks))
        assert cum.dtype == (object if max(ks) >= switch else np.int64)
        assert cum.tolist() == [cumulative_multiplicity(d, k) for k in ks]
        assert multiplicity(d, np.array(ks[1:])).tolist() == [multiplicity(d, k) for k in ks[1:]]


def test_radial_spectrum_expands_with_python_int_multiplicities():
    # from d = 21 on, (d-1)! M_k leaves int64 and the multiplicities are Python ints
    s = radial_spectrum(Power(1.0, 1.0), 22, 3)
    assert s.multiplicities.dtype == object
    assert np.repeat(s.values, s.multiplicities.astype(np.int64)).size == s.total_count == cumulative_multiplicity(22, 3)


def test_count_near_the_degree_cap_is_exact_past_2_63():
    # d = 3, crossing between degrees K - 1 and K, just below 2^49: M_(K-1) = K^2 ~ 2^98.
    v, K = Step(1.0, 0.5), _LAST_DEGREE - 12345
    ln_lam = 0.5 * (v.log_mu(3, K - 1)[1] + v.log_mu(3, K)[1])
    n = counting(v, 3, ln_lam=ln_lam)
    assert type(n) is int and n == cumulative_multiplicity(3, K - 1) == K * K > 2**97
    assert counting(v, 3, ln_lam=[-3.0, ln_lam]) == [cumulative_multiplicity(3, 0), n]
    assert type(counting(v, 3, ln_lam=math.log(0.01))) is int
