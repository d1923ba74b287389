"""Independent oracles for the benchmark's outputs.

Nothing here imports `harmotop`.  The oracles are written from the
mathematics, in mpmath (50 digits) or with scipy, so they share no code path
with the timed program:

  * radial eigenvalues mu_k in closed form (power: Gamma ratio, step:
    b c^(2k+d)), and counting by a bisection over k on those values;
  * an independent Galerkin assembly (own grid, scipy spherical harmonics,
    scipy eigensolver) for tabulated general symbols, and exact rational
    mu_k with multiplicities for tabulated integer-gamma power profiles.

`check` first parses the program's output (PARSERS); output it cannot
parse counts as wrong.  The oracle computation follows (CHECKS); an
exception raised there is the oracle's, not the program's, and propagates.

A counting row whose threshold lies within TIE_MARGIN (in ln lambda) of an
eigenvalue cannot be decided in double precision.  Such a row is reported
as undecidable when the program's count lies between the counts at
ln lambda +- TIE_MARGIN, and as wrong when it lies outside them.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
import scipy.special

TIE_MARGIN = 1e-11
REL_TOL = 1e-9
mp = mpmath.mp
mp.dps = 50


# --- combinatorics -------------------------------------------------------------


def cum_mult(d: int, k: int) -> int:
    """Number of harmonic basis functions of degree <= k on the d-ball (0 for k = -1)."""
    if k < 0:
        return 0
    return math.comb(d + k - 1, d - 1) + (math.comb(d + k - 2, d - 1) if k >= 1 else 0)


def mult(d: int, k: int) -> int:
    return cum_mult(d, k) - cum_mult(d, k - 1)


# --- radial eigenvalues -------------------------------------------------------


class Radial:
    """Exact mu_k = (2k+d) int_0^1 v(r) r^(2k+d-1) dr for one profile, memoised."""

    def __init__(self, sym: dict, d: int):
        self.sym = sym
        self.d = d
        self._mu: dict[int, mpmath.mpf] = {}

    def mu(self, k: int):
        val = self._mu.get(k)
        if val is None:
            val = self._mu[k] = _mu(self.sym, 2 * k + self.d)
        return val

    def ln_mu(self, k: int):
        return mpmath.log(self.mu(k))

    def _approx_ln_mu(self, k: float) -> float:
        return _approx_ln(self.sym, 2.0 * k + self.d)

    def first_not_above(self, ln_lam: float, guess: int | None = None) -> int:
        """Smallest k with ln mu_k <= ln_lam; mu_k must decrease in k."""
        target = mpmath.mpf(ln_lam)

        def below(k: int) -> bool:
            return self.ln_mu(k) <= target

        g = max(0, guess if guess is not None else self._guess(ln_lam))
        if below(g):
            hi, step = g, 1
            lo = -1
            while hi > 0:
                cand = max(hi - step, 0)
                if not below(cand):
                    lo = cand
                    break
                hi, step = cand, step * 2
        else:
            lo, step = g, 1
            while True:
                hi = lo + step
                if below(hi):
                    break
                lo, step = hi, step * 2
                if hi > 10**17:
                    raise ArithmeticError("counting oracle found no cutoff below 1e17")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if below(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def _guess(self, ln_lam: float) -> int:
        f = self._approx_ln_mu
        if f(0) <= ln_lam:
            return 0
        lo, hi = 0.0, 1.0
        while f(hi) > ln_lam:
            lo, hi = hi, hi * 2.0
            if hi > 1e17:
                return int(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) > ln_lam:
                lo = mid
            else:
                hi = mid
        return int(hi)

    def count(self, ln_lam: float) -> int:
        """#{eigenvalues > exp(ln_lam)} with multiplicity."""
        return cum_mult(self.d, self.first_not_above(ln_lam) - 1)

    def classify_count(self, ln_lam: float, n_prog: int) -> str:
        exact = self.count(ln_lam)
        if n_prog == exact:
            return "right"
        fewer = self.count(ln_lam + TIE_MARGIN)
        more = self.count(ln_lam - TIE_MARGIN)
        if fewer != more and fewer <= n_prog <= more:
            return "undecidable"
        return "wrong"


def _mu(sym: dict, n: int):
    kind = sym["kind"]
    if kind == "power":
        a, g = mpmath.mpf(sym["a"]), mpmath.mpf(sym["gamma"])
        return a * mpmath.exp(mpmath.loggamma(g + 1) + mpmath.loggamma(n + 1) - mpmath.loggamma(n + 1 + g))
    if kind == "step":
        return mpmath.mpf(sym["b"]) * mpmath.mpf(sym["c"]) ** n
    raise ValueError(f"unknown profile {kind!r}")


def _approx_ln(sym: dict, n: float) -> float:
    """Float approximation of ln mu used only to seed the exact search."""
    kind = sym["kind"]
    if kind == "power":
        a, g = sym["a"], sym["gamma"]
        return math.log(a) + math.lgamma(g + 1.0) - g * math.log(n + 0.5 * (1.0 + g))
    return math.log(sym["b"]) + n * math.log(sym["c"])


# --- output parsing -----------------------------------------------------------


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


def csv_comments(text: str) -> list[str]:
    return [line[2:] for line in text.splitlines() if line.startswith("# ")]


def close(x: float, ref, rel: float = REL_TOL) -> bool:
    ref = float(ref)
    return abs(x - ref) <= rel * abs(ref)


class Verdict:
    """Row tallies of one checked invocation."""

    def __init__(self):
        self.right = 0
        self.wrong = 0
        self.undecidable = 0
        self.notes: list[str] = []

    def add(self, outcome: str, note: str = "") -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        if outcome == "wrong" and note and len(self.notes) < 3:
            self.notes.append(note)

    def add_count(self, rad: Radial, ln_lam: float, n: int, where: str) -> None:
        outcome = rad.classify_count(ln_lam, n)
        self.add(outcome, f"{where}: {n}, oracle {rad.count(ln_lam)}" if outcome == "wrong" else "")


# --- checks per invocation kind -----------------------------------------------


def check(spec: dict, text: str) -> Verdict:
    """Parse the output, then compare it with the oracle.

    Only a parse failure is charged to the program; an exception out of
    the comparison is an oracle failure and propagates to the caller.
    """
    try:
        out = PARSERS[spec["kind"]](text, spec)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        v = Verdict()
        v.add("wrong", f"unparseable output: {type(exc).__name__}: {exc}")
        return v
    return CHECKS[spec["kind"]](spec, out)


def parse_fit(text: str) -> tuple[float, float] | None:
    fit = [c for c in csv_comments(text) if c.startswith("fit ")]
    if not fit:
        return None
    fields = dict(item.split("=") for item in fit[0].split() if "=" in item)
    return float(fields["coefficient"]), float(fields["exponent"])


def check_counting(spec, rows):
    v = Verdict()
    rad = Radial(spec["symbol"], spec["d"])
    grid = np.linspace(*spec["grid"])
    if len(rows) != len(grid):
        v.add("wrong", f"{len(rows)} rows for {len(grid)} thresholds")
        return v
    for (ln_lam, n), want in zip(rows, grid):
        if ln_lam != want:
            v.add("wrong", f"threshold {ln_lam!r} is not the grid value {want!r}")
            continue
        v.add_count(rad, ln_lam, n, f"ln_lambda={ln_lam!r}")
    return v


def check_asymptotics(spec, out):
    v = Verdict()
    rows, fit = out
    rad = Radial(spec["symbol"], spec["d"])
    grid = np.sort(np.unique(np.linspace(*spec["grid"])))[::-1]
    if len(rows) != len(grid) or fit is None:
        v.add("wrong", "row count or fit line does not match the request")
        return v
    coef, expo = fit
    for (ln_lam, n, model), want in zip(rows, grid):
        expect = coef * math.exp(-expo * ln_lam) if spec["model"] == "power" else coef * (-ln_lam) ** expo
        if ln_lam != want or not close(model, expect, 1e-12):
            v.add("wrong", f"row at ln_lambda={ln_lam!r} is inconsistent with the request or the fit")
            continue
        v.add_count(rad, ln_lam, n, f"ln_lambda={ln_lam!r}")
    return v


def check_boundary_e(spec, rows):
    v = Verdict()
    sym = spec["symbol"]
    rad = Radial(sym, spec["d"])
    grid = np.linspace(*spec["grid"])
    if len(rows) != len(grid):
        v.add("wrong", "row count does not match the energy grid")
        return v
    # the count at E is the Toeplitz count at lambda = E^-gamma
    ln_grid = -sym["gamma"] * np.log(grid)
    for (e, count), want, ln_lam in zip(rows, grid, ln_grid):
        if e != want:
            v.add("wrong", f"energy {e!r} is not the grid value {want!r}")
            continue
        v.add_count(rad, float(ln_lam), count, f"E={e!r}")
    return v


def check_krein_lnlambda(spec, rows):
    """d = 3 only: the Dirichlet remainder is floor(E^(3/2)) there."""
    v = Verdict()
    d, sym = spec["d"], spec["symbol"]
    if d != 3:
        raise ValueError("the krein oracle covers d = 3 only")
    a, g = sym["a"], sym["gamma"]
    rad = Radial(sym, d)
    grid = np.linspace(*spec["grid"])
    if len(rows) != len(grid):
        v.add("wrong", "row count does not match the threshold grid")
        return v
    theta = 2.0 * (d - 1) / (g * (d + 2))
    lead = (
        mpmath.mpf(2) ** (2 - d)
        / mpmath.factorial(d - 1)
        * (mpmath.mpf(a) * mpmath.gamma(mpmath.mpf(g) + 1)) ** (mpmath.mpf(d - 1) / g)
    )
    for (lam, eps, lower, upper, env), want in zip(rows, grid):
        if lam != math.exp(want) or eps != min(0.5, lam**theta):
            v.add("wrong", f"lambda/eps columns at {want!r} do not match the request")
            continue
        energy = 10.0 + a / eps
        exact = mpmath.mpf(energy) ** (mpmath.mpf(d) / 2)
        rem = int(mpmath.floor(exact))
        rem_tie = abs(exact - mpmath.nint(exact)) < 1e-9 * exact
        lo = rad.classify_count(math.log(lam), lower)
        hi = rad.classify_count(math.log((1.0 - eps) * lam), upper - rem)
        env_ok = close(env, lead * mpmath.mpf(lam) ** (-mpmath.mpf(d - 1) / g))
        if "wrong" in (lo, hi) or not env_ok:
            v.add("wrong", f"ln_lambda={want:.6g}: lower={lower} upper={upper} envelope={env!r}")
        elif "undecidable" in (lo, hi) or rem_tie:
            v.add("undecidable")
        else:
            v.add("right")
    return v


# --- Galerkin -------------------------------------------------------------------


def tensor_grid(d: int, K: int):
    """Points and weights of the tensor rule (radial-major) for max degree K.

    Radial Gauss-Legendre with K+16 nodes on (0, 1); angular: 2K+4
    equispaced nodes (d=2), or Gauss-Legendre in cos(polar) with K+3 nodes
    times 2K+4 equispaced azimuths (d=3).
    """
    n_r, n_ang = K + 16, 2 * K + 4
    x, w = np.polynomial.legendre.leggauss(n_r)
    r, wr = 0.5 * (x + 1.0), 0.5 * w
    if d == 2:
        th = 2.0 * math.pi * np.arange(n_ang) / n_ang
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        wa = np.full(n_ang, 2.0 * math.pi / n_ang)
    else:
        u, wu = np.polynomial.legendre.leggauss(n_ang // 2 + 1)
        phi = 2.0 * math.pi * np.arange(n_ang) / n_ang
        uu, pp = np.repeat(u, n_ang), np.tile(phi, u.size)
        s = np.sqrt(1.0 - uu * uu)
        dirs = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=1)
        wa = np.repeat(wu, n_ang) * (2.0 * math.pi / n_ang)
    points = (r[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    weights = ((wr * r ** (d - 1))[:, None] * wa[None, :]).reshape(-1)
    return r, dirs, points, weights


def _angular_basis(d: int, K: int, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthonormal spherical harmonics (rows) and their degrees."""
    rows, degs = [], []
    if d == 2:
        th = np.arctan2(dirs[:, 1], dirs[:, 0])
        rows.append(np.full(th.size, 1.0 / math.sqrt(2.0 * math.pi)))
        degs.append(0)
        for k in range(1, K + 1):
            rows += [np.cos(k * th) / math.sqrt(math.pi), np.sin(k * th) / math.sqrt(math.pi)]
            degs += [k, k]
    else:
        polar = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
        azim = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
        for k in range(K + 1):
            for m in range(0, k + 1):
                y = scipy.special.sph_harm_y(k, m, polar, azim)
                if m == 0:
                    rows.append(y.real)
                    degs.append(k)
                else:
                    rows += [math.sqrt(2.0) * y.real, math.sqrt(2.0) * y.imag]
                    degs += [k, k]
    return np.vstack(rows), np.asarray(degs)


def galerkin_eigenvalues(d: int, K: int, values: np.ndarray) -> np.ndarray:
    """Eigenvalues of the section of the tabulated symbol, ascending."""
    r, dirs, _, weights = tensor_grid(d, K)
    ang, degs = _angular_basis(d, K, dirs)
    n_a = dirs.shape[0]
    wv = (weights * values).reshape(r.size, n_a)
    scale = np.sqrt(2.0 * degs + d)
    A = np.zeros((ang.shape[0], ang.shape[0]))
    for i in range(r.size):
        B = (scale * r[i] ** degs)[:, None] * ang
        A += (B * wv[i]) @ B.T
    return scipy.linalg.eigvalsh(0.5 * (A + A.T))


def exact_power_section(d: int, K: int, a: float, gamma: int) -> np.ndarray:
    """mu_k of a (1-r)^gamma for integer gamma, repeated m_k times, ascending."""
    vals = []
    for k in range(K + 1):
        n = 2 * k + d
        mu = Fraction(a) * math.factorial(gamma)
        for j in range(1, gamma + 1):
            mu /= n + j
        vals += [float(mu)] * mult(d, k)
    return np.sort(np.asarray(vals))


def _section_reference(spec) -> np.ndarray:
    if spec["symbol"] == "power":
        return exact_power_section(spec["d"], spec["K"], spec["a"], spec["gamma"])
    return galerkin_eigenvalues(spec["d"], spec["K"], np.asarray(spec["values"], dtype=float))


def parse_spectrum_general(text, spec):
    """(eigenvalues, multiplicity fields) and, with --matrix-output, (header, rows) of the matrix file."""
    rows = csv_rows(text)
    values = [float(row[1]) for row in rows]
    mults = [row[2] for row in rows]
    matrix = None
    if "matrix" in spec:
        with open(spec["matrix"]) as fh:
            header = fh.readline().strip()
            matrix = header, [np.array([float(x) for x in line.split(",")]) for line in fh if line.strip()]
    return values, mults, matrix


def check_spectrum_general(spec, out):
    v = Verdict()
    values, mults, matrix = out
    ref = _section_reference(spec)
    if len(values) != ref.size:
        v.add("wrong", f"{len(values)} rows for a section of size {ref.size}")
        return v
    got = np.array(values)
    tol = REL_TOL * float(np.max(np.abs(ref)))
    ordered = bool(np.all(np.abs(got[:-1]) >= np.abs(got[1:]) - tol))
    for g, e, m in zip(np.sort(got), ref, mults):
        ok = ordered and abs(g - e) <= tol and m == "1"
        v.add("right" if ok else "wrong", f"eigenvalue {g!r}, oracle {e!r}")
    if matrix is not None:
        _check_matrix(spec, *matrix, v)
    return v


def _check_matrix(spec, header: str, body: list, v: Verdict) -> None:
    d, K = spec["d"], spec["K"]
    n = cum_mult(d, K)
    if header != f"# harmotop matrix d={d} K={K} n={n}" or len(body) != n:
        v.add("wrong", f"matrix file header {header!r} / {len(body)} rows")
        return
    diag = []
    for k in range(K + 1):
        nk = 2 * k + d
        mu = Fraction(spec["a"]) * math.factorial(spec["gamma"])
        for j in range(1, spec["gamma"] + 1):
            mu /= nk + j
        diag += [float(mu)] * mult(d, k)
    tol = REL_TOL * max(diag)
    for i, row in enumerate(body):
        want = np.zeros(n)
        want[i] = diag[i]
        ok = row.size == n and float(np.max(np.abs(row - want))) <= tol
        v.add("right" if ok else "wrong", f"matrix row {i}")


def parse_schatten(text, spec):
    rows = csv_rows(text)
    return float(rows[0][2]) if len(rows) == 1 else None


def check_schatten_general(spec, got):
    v = Verdict()
    s = np.sort(np.abs(_section_reference(spec)))[::-1]
    p = spec["p"]
    if spec["weak"]:
        ref = float(np.max(np.arange(1, s.size + 1) ** (1.0 / p) * s))
    else:
        ref = float(np.sum(s**p) ** (1.0 / p))
    v.add("right" if got is not None and close(got, ref) else "wrong", f"value {got!r}, oracle {ref!r}")
    return v


def check_berezin_general(spec, rows):
    # Reached only when the invocation exits 0; the transform of a tabulated
    # symbol is then checked against the independent grid sum.
    v = Verdict()
    d, K = spec["d"], spec["K"]
    _, _, points, weights = tensor_grid(d, K)
    values = np.asarray(spec["values"], dtype=float)
    if len(rows) != len(spec["radii"]):
        v.add("wrong", "row count does not match the radii")
        return v
    radii = np.linalg.norm(points, axis=1)
    for (r_out, got), r in zip(rows, spec["radii"]):
        t = points[:, 0] / np.where(radii > 0, radii, 1.0) if r > 0 else np.ones(radii.size)
        kern = np.zeros(radii.size)
        for k in range(K + 1):
            zon = _zonal(d, k, np.clip(t, -1.0, 1.0))
            kern += (2 * k + d) * (r * radii) ** k * zon
        dens = sum((2 * k + d) * mult(d, k) * r ** (2 * k) for k in range(K + 1)) / _sphere_area(d)
        ref = float(np.dot(weights, kern**2 * values)) / dens
        v.add("right" if r_out == r and close(got, ref, 1e-8) else "wrong", f"radius {r}: {got!r}, oracle {ref!r}")
    return v


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def _zonal(d: int, k: int, t: np.ndarray) -> np.ndarray:
    if d == 2:
        return np.full_like(t, 1.0 / (2.0 * math.pi)) if k == 0 else np.cos(k * np.arccos(t)) / math.pi
    return (2 * k + 1) / (4.0 * math.pi) * scipy.special.eval_legendre(k, t)


def _table(*cols):
    """Parser of the CSV rows: column j of each row converted by cols[j] (None skips it)."""

    def parse(text, spec):
        return [tuple(f(row[j]) for j, f in enumerate(cols) if f is not None) for row in csv_rows(text)]

    return parse


PARSERS = {
    "counting": _table(None, float, int),
    "asymptotics": lambda text, spec: (_table(float, int, float)(text, spec), parse_fit(text)),
    "boundary-e": _table(float, int),
    "krein-lnlambda": _table(float, float, int, int, float),
    "spectrum-general": parse_spectrum_general,
    "schatten-general": parse_schatten,
    "berezin-general": _table(float, float),
}

CHECKS = {
    "counting": check_counting,
    "asymptotics": check_asymptotics,
    "boundary-e": check_boundary_e,
    "krein-lnlambda": check_krein_lnlambda,
    "spectrum-general": check_spectrum_general,
    "schatten-general": check_schatten_general,
    "berezin-general": check_berezin_general,
}
