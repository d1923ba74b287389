"""Galerkin sections against the same quadrature evaluated in 40-digit mpmath.

The reference takes the grid's double nodes, weights and symbol values as
exact and evaluates every basis function and every sum at 40 digits, so it
measures the rounding of the double assembly and eigensolve only, not the
quadrature error.  The angular harmonics come from explicit formulas
(cos/sin, and the Rodrigues form of the associated Legendre functions), not
from the package's recurrences.  Errors are in units of 2^-52: for entries
relative to max |A|, for eigenvalues relative to the eigenvalue's own ulp.

The bounds cover the rounding of the assembly, not the bits of one
Gauss-Legendre rule.  They come from a study of both cases in which every
radial weight was moved by a seeded random j ulp, j in {-2, ..., 2}, over
200 grids per case.  Worst errors found (unperturbed rule in brackets):

    case    entries      eigenvalues  S_2          weak S_2
    d2-K4   4.02 (2.85)  9.68 (3.79)  2.88 (1.28)  8.44 (3.02)
    d3-K3   2.83 (1.52)  9.82 (2.32)  3.25 (0.95)  5.94 (2.13)

Each bound is the next integer above the worst over both cases.  The weak
norm is the maximum of sqrt(j) |lambda_j|, so it inherits the eigenvalue
bound.
"""
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from harmotop.galerkin_toeplitz import assemble, section_spectrum
from harmotop.grids import TruncationSpec, ball_grid
from harmotop.numerics import symmetric_eigen
from harmotop.symbols import TabulatedSymbol

DPS = 40
# bounds in ulp; see the study in the module docstring
ENTRY_ULPS = 5
EIGENVALUE_ULPS = 10
SCHATTEN_ULPS = 4
WEAK_SCHATTEN_ULPS = EIGENVALUE_ULPS


def binary_fractions(n: int) -> np.ndarray:
    # the pattern of test_exact_outputs.py's general.json: exact in binary
    return np.array([0.25 + (i % 7) / 8.0 + (i % 3) / 16.0 for i in range(n)])


def _legendre_derivative(k: int, m: int) -> list[Fraction]:
    """Coefficients (ascending) of d^m/du^m P_k(u) by Rodrigues' formula."""
    coeffs = [Fraction(0)] * (2 * k + 1)
    for j in range(k + 1):
        coeffs[2 * j] = Fraction(math.comb(k, j) * (-1) ** (k - j))
    for _ in range(k + m):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:]
    scale = Fraction(1, 2**k * math.factorial(k))
    return [c * scale for c in coeffs]


def _angular_rows(d: int, K: int, dirs: np.ndarray) -> list[tuple[int, list]]:
    """(degree, values on dirs) of the orthonormal real harmonics, basis order."""
    if d == 2:
        theta = [mp.atan2(mp.mpf(y), mp.mpf(x)) for x, y in dirs]
        rows = [(0, [1 / mp.sqrt(2 * mp.pi)] * len(theta))]
        for k in range(1, K + 1):
            rows.append((k, [mp.cos(k * t) / mp.sqrt(mp.pi) for t in theta]))
            rows.append((k, [mp.sin(k * t) / mp.sqrt(mp.pi) for t in theta]))
        return rows
    u = [mp.mpf(z) for z in dirs[:, 2]]
    phi = [mp.atan2(mp.mpf(y), mp.mpf(x)) for x, y in dirs[:, :2]]
    rows = []
    for k in range(K + 1):
        for m in range(-k, k + 1):
            a = abs(m)
            poly = [mp.mpf(c.numerator) / c.denominator for c in _legendre_derivative(k, a)]
            norm = mp.sqrt((2 if a else 1) * (2 * k + 1) * mp.factorial(k - a) / mp.factorial(k + a) / (4 * mp.pi))
            values = []
            for uu, p in zip(u, phi):
                trig = mp.sin(a * p) if m < 0 else mp.cos(a * p)
                values.append(norm * (1 - uu * uu) ** (mp.mpf(a) / 2) * mp.polyval(poly[::-1], uu) * trig)
            rows.append((k, values))
    return rows


def reference_section(d: int, spec: TruncationSpec, values: np.ndarray) -> mp.matrix:
    """sum_n w_n V_n phi_i(x_n) phi_j(x_n) at 40 digits on the grid's double nodes."""
    grid = ball_grid(d, spec)
    K = spec.max_degree
    rows = _angular_rows(d, K, grid.ang_dirs)
    n_r, n_a = grid.r_nodes.size, grid.ang_dirs.shape[0]
    wv = [mp.mpf(float(w)) * mp.mpf(float(v)) for w, v in zip(grid.weights, values)]
    r = [mp.mpf(float(x)) for x in grid.r_nodes]
    moments = [
        [mp.fsum(wv[i * n_a + a] * r[i] ** s for i in range(n_r)) for a in range(n_a)]
        for s in range(2 * K + 1)
    ]
    A = mp.matrix(len(rows), len(rows))
    for i, (ki, pi) in enumerate(rows):
        for j in range(i, len(rows)):
            kj, pj = rows[j]
            s = mp.fsum(pi[a] * pj[a] * moments[ki + kj][a] for a in range(n_a))
            A[i, j] = A[j, i] = s * mp.sqrt((2 * ki + d) * (2 * kj + d))
    return A


def _ulp(x) -> mp.mpf:
    return mp.mpf(2) ** (mp.floor(mp.log(abs(x), 2)) - 52)


@pytest.fixture(scope="module", params=[(2, 4), (3, 3)], ids=["d2-K4", "d3-K3"])
def case(request):
    d, K = request.param
    spec = TruncationSpec.for_degree(K)
    values = binary_fractions(spec.node_count(d))
    with mp.workdps(DPS):
        ref = reference_section(d, spec, values)
        ref_eigs = sorted(mp.eigsy(ref, eigvals_only=True))
    A = assemble(TabulatedSymbol(d=d, spec=spec, values=values), d, spec)
    return d, K, A, ref, ref_eigs


def test_section_entries_match_the_40_digit_quadrature(case):
    _, _, A, ref, _ = case
    n = A.shape[0]
    with mp.workdps(DPS):
        scale = max(abs(ref[i, j]) for i in range(n) for j in range(n))
        err = max(abs(mp.mpf(float(A[i, j])) - ref[i, j]) for i in range(n) for j in range(n))
        assert err <= ENTRY_ULPS * scale * mp.mpf(2) ** -52


def test_section_eigenvalues_match_the_40_digit_quadrature(case):
    _, _, A, _, ref_eigs = case
    eigs = np.sort(symmetric_eigen(A))
    with mp.workdps(DPS):
        worst = max(abs(mp.mpf(float(e)) - r) / _ulp(r) for e, r in zip(eigs, ref_eigs))
    assert worst <= EIGENVALUE_ULPS


def test_schatten_norms_match_the_40_digit_quadrature(case):
    _, _, A, _, ref_eigs = case
    spec = section_spectrum(A)
    with mp.workdps(DPS):
        s = sorted((abs(e) for e in ref_eigs), reverse=True)
        strong = mp.sqrt(mp.fsum(x * x for x in s))
        weak = max(mp.sqrt(j + 1) * x for j, x in enumerate(s))
        assert abs(mp.mpf(spec.schatten(2.0)) - strong) <= SCHATTEN_ULPS * _ulp(strong)
        assert abs(mp.mpf(spec.schatten_weak(2.0)) - weak) <= WEAK_SCHATTEN_ULPS * _ulp(weak)
