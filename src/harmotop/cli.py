"""harmotop: command-line front end for the spectral laboratory.

    harmotop counting    --d 2 --symbol step:b=1,c=0.5 --lambda 1e-2
    harmotop asymptotics --d 2 --symbol power:a=1,gamma=1 --model power --lnlambda -12:-4
    harmotop spectrum    --d 2 --symbol power:a=1,gamma=1 --K 10

Symbol descriptors:
    step:b=<f>,c=<f>           power:a=<f>,gamma=<f>
    sampled:@<path.csv>        (two columns r,v)
    sum:[<desc>; <desc> ...]   general:@<path.json>

Every number in a descriptor or a sample file must be finite, and the d, K,
n_r and n_ang of a general:@ file must be JSON integers.

Outputs are deterministic for a fixed configuration.  Exit codes: 0
success, 2 malformed configuration or descriptor, 3 numerical certification
failure.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import boundary_reduction as br
from . import galerkin_toeplitz as gt
from . import kernel_berezin as kb
from . import krein_counting as kc
from . import radial_toeplitz as rt
from .errors import TailNotCertifiedError
from .grids import TruncationSpec
from .harmonic_basis import basis_degrees
from .symbols import Power, RadialSymbol, Sampled, Step, SymbolSum, TabulatedSymbol

FULL = ".17g"
LN_DBL_MAX = math.log(sys.float_info.max)  # exp overflows above it
# the most grid points or the highest degree an option may ask for: the
# counting table's cap, far below sizes that no machine can hold
SIZE_CAP = rt._TABLE_CAP
# the commands that run the section of a general:@ file; the others read mu_k only
SECTION_COMMANDS = ("spectrum", "berezin", "schatten")


class SymbolSyntaxError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"symbol descriptor error at position {pos}: {message}\n  {text}\n  {' ' * pos}^")
        self.pos, self.message = pos, message


def _parse_fields(text: str, body: str, offset: int, keys: tuple[str, ...]) -> dict[str, float]:
    out: dict[str, float] = {}
    pos = offset
    for item in body.split(","):
        if "=" not in item:
            raise SymbolSyntaxError(text, pos, f"expected <key>=<value>, got {item!r}")
        key, _, val = item.partition("=")
        if key not in keys:
            raise SymbolSyntaxError(text, pos, f"unknown field {key!r}; expected one of {keys}")
        try:
            out[key] = float(val)
        except ValueError:
            raise SymbolSyntaxError(text, pos + len(key) + 1, f"not a number: {val!r}") from None
        if not math.isfinite(out[key]):
            raise SymbolSyntaxError(text, pos + len(key) + 1, f"field {key!r} is not finite: {val!r}")
        pos += len(item) + 1
    missing = [k for k in keys if k not in out]
    if missing:
        raise SymbolSyntaxError(text, offset, f"missing fields: {missing}")
    return out


def _split_top_level(body: str) -> list[tuple[int, str]]:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ";" and depth == 0:
            parts.append((start, body[start:i]))
            start = i + 1
    parts.append((start, body[start:]))
    return parts


def parse_symbol(text: str):
    """Parse a symbol descriptor; raises SymbolSyntaxError with a position."""
    text = text.strip()
    head, sep, body = text.partition(":")
    if not sep:
        raise SymbolSyntaxError(text, len(text), "missing ':' after the symbol kind")
    offset = len(head) + 1
    if head == "step":
        f = _parse_fields(text, body, offset, ("b", "c"))
        try:
            return Step(f["b"], f["c"])
        except ValueError as exc:
            raise SymbolSyntaxError(text, offset, str(exc)) from None
    if head == "power":
        f = _parse_fields(text, body, offset, ("a", "gamma"))
        try:
            return Power(f["a"], f["gamma"])
        except ValueError as exc:
            raise SymbolSyntaxError(text, offset, str(exc)) from None
    if head == "sampled":
        if not body.startswith("@"):
            raise SymbolSyntaxError(text, offset, "expected sampled:@<path.csv>")
        path = Path(body[1:])
        r, v = [], []
        try:
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if line.strip() and not line.lstrip().startswith("#"):
                    try:  # exactly two fields, both finite numbers
                        x, y = map(float, line.split(","))
                        if not (math.isfinite(x) and math.isfinite(y)):
                            raise ValueError
                    except ValueError:
                        raise ValueError(f"line {n} is not a finite pair r,v: {line!r}") from None
                    r.append(x)
                    v.append(y)
            return Sampled(r, v)
        except ValueError as exc:
            raise SymbolSyntaxError(text, offset + 1, f"bad sample file {path}: {exc}") from None
    if head == "sum":
        if not (body.startswith("[") and body.endswith("]")):
            raise SymbolSyntaxError(text, offset, "expected sum:[<desc>; <desc> ...]")
        parts = []
        for rel, chunk in _split_top_level(body[1:-1]):
            rel += len(chunk) - len(chunk.lstrip())  # the summand's positions count from its first non-blank
            chunk = chunk.strip()
            if not chunk:
                raise SymbolSyntaxError(text, offset + 1 + rel, "empty summand")
            try:
                parts.append(parse_symbol(chunk))
            except SymbolSyntaxError as exc:
                raise SymbolSyntaxError(text, offset + 1 + rel + exc.pos, exc.message) from None
        if any(not isinstance(p, RadialSymbol) for p in parts):
            raise SymbolSyntaxError(text, offset, "sums may only combine radial symbols")
        return SymbolSum(parts)
    if head == "general":
        if not body.startswith("@"):
            raise SymbolSyntaxError(text, offset, "expected general:@<path.json>")
        import orjson  # only tabulated symbols need it; radial commands never load it

        path = Path(body[1:])
        try:
            payload = orjson.loads(path.read_bytes())
            grid = {key: payload[key] for key in ("d", "K", "n_r", "n_ang")}
            for key, value in grid.items():
                if type(value) is not int:  # not bool, float or text: int() would round 4.9 to 4
                    raise ValueError(f"field {key!r} must be a JSON integer, got {value!r}")
            spec = TruncationSpec(max_degree=grid["K"], n_r=grid["n_r"], n_ang=grid["n_ang"])
            return TabulatedSymbol(d=grid["d"], spec=spec, values=np.asarray(payload["values"], dtype=float))
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise SymbolSyntaxError(text, offset + 1, f"bad symbol file {path}: {exc}") from None
    raise SymbolSyntaxError(text, 0, f"unknown symbol kind {head!r}")


def _parse_range(text: str, name: str, want_count: bool = False) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"--{name} expects LO:HI[:N], got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
        # without N, one point per unit of |HI - LO|; a span past the cap (or
        # past the double range) makes SIZE_CAP + 1, refused below
        n = int(parts[2]) if len(parts) == 3 else max(4, round(min(abs(hi - lo), SIZE_CAP)) + 1)
    except ValueError:
        raise ValueError(f"--{name} expects finite numeric LO:HI[:N], got {text!r}") from None
    if n < 2:
        raise ValueError(f"--{name} needs at least 2 points, got {n}")
    if n > SIZE_CAP:
        raise ValueError(f"--{name} asks for more than {SIZE_CAP} points")
    if want_count and len(parts) != 3:
        raise ValueError(f"--{name} requires LO:HI:N")
    return np.linspace(lo, hi, n)


def _ln_lambda_grid(text: str) -> list[float]:
    """The --lnlambda grid; above ln(DBL_MAX) lambda is not a double (and every count is 0).
    A row's printed lambda is the double math.exp(ln lambda), 0 only where it underflows (below -745.13)."""
    grid = _parse_range(text, "lnlambda").tolist()
    if max(grid) > LN_DBL_MAX:
        raise ValueError(f"--lnlambda must stay at or below ln(DBL_MAX) = {LN_DBL_MAX!r}, got {max(grid)!r}")
    return grid


def _finite(text: str) -> float:
    """A finite real number, not nonzero text that underflows to 0.0 (argparse names the option on refusal)."""
    try:
        if math.isfinite(value := float(text)):
            if value or not any(c.isdecimal() and int(c) for c in text.lower().partition("e")[0]):
                return value
            raise argparse.ArgumentTypeError(f"{text!r} is not 0 but underflows to 0.0 (small thresholds: --lnlambda)")
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _degree(text: str) -> int:
    """A truncation degree, a decimal integer in [0, SIZE_CAP] (argparse names the option on refusal)."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    if int(text) > SIZE_CAP:
        raise argparse.ArgumentTypeError(f"expected a degree of at most {SIZE_CAP}, got {text!r}")
    return int(text)


def _dimension(text: str) -> int:
    """A space dimension, a decimal integer >= 2 (argparse names the option on refusal)."""
    if not (text.strip().isdecimal() and int(text) >= 2):
        raise argparse.ArgumentTypeError(f"expected an integer >= 2, got {text!r}")
    return int(text)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(prog="harmotop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_help=None):
        p.add_argument("--d", type=_dimension, default=2, help="space dimension >= 2 (default 2)")
        p.add_argument("--symbol", required=True, help="symbol descriptor")
        if degree_help:  # on the commands that read it, in its place in the JSON config
            p.add_argument("--K", type=_degree, default=None, help=degree_help)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("spectrum", help="eigenvalues with multiplicities")
    common(p, "truncation degree (default 12); a general:@ file fixes it")
    p.add_argument("--matrix-output", default=None, help="dump the section matrix as CSV")

    p = sub.add_parser("counting", help="eigenvalue counting function")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_finite, default=None)
    p.add_argument("--lnlambda", default=None, help="log-threshold grid LO:HI[:N]")
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")

    p = sub.add_parser("asymptotics", help="fit counting law coefficients")
    common(p)
    p.add_argument("--lnlambda", required=True, help="log-threshold grid LO:HI[:N]")
    p.add_argument("--model", choices=("power", "log-power"), required=True)
    p.add_argument("--exponent", type=_finite, default=None, help="pin the model exponent")
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")

    p = sub.add_parser("berezin", help="Berezin transform along a radius")
    common(p, "kernel truncation degree (default 12); a general:@ file fixes it")
    p.add_argument("--radii", default="0,0.25,0.5,0.75,0.9,0.95")

    p = sub.add_parser("schatten", help="Schatten norms")
    common(p)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--weak", action="store_true")

    p = sub.add_parser("boundary", help="boundary reduction diagnostics")
    common(p, "last degree of the table (default 12)")
    p.add_argument("--E", dest="e_grid", default=None, help="energy grid LO:HI:N for the inverse-power counting fit")

    p = sub.add_parser("krein", help="sandwich bounds for the perturbed counting functions")
    common(p)
    p.add_argument("--lnlambda", default=None, help="log-threshold grid LO:HI[:N]")
    p.add_argument("--E", dest="e_grid", default=None, help="energy grid LO:HI:N: the ball's buckling count, fit to C E^(d/2)")
    p.add_argument("--eps", type=_finite, default=None, help="fixed eps (default lambda^theta)")
    p.add_argument("--lam1", type=_finite, default=10.0)

    return parser


def _resolve(args):
    """The --symbol, the grid its section runs on and the degree K: the grid is
    None for a radial symbol (closed forms in mu_k), else a general:@ file's own
    TruncationSpec, which only the SECTION_COMMANDS take, at the file's d and K
    (a --d or --K naming another refuses it).  K is --K, else the file's K,
    else 12."""
    symbol = parse_symbol(args.symbol)
    k = getattr(args, "K", None)
    if isinstance(symbol, RadialSymbol):
        return symbol, None, 12 if k is None else k
    if args.command not in SECTION_COMMANDS:
        raise ValueError(f"{args.command} requires a radial symbol; use spectrum for general symbols")
    if symbol.d != args.d:
        raise ValueError(f"tabulated symbol was sampled for d = {symbol.d}, not --d {args.d}")
    if k not in (None, symbol.spec.max_degree):
        raise ValueError(
            f"tabulated symbol was sampled on a different grid: --K {k}, the file's K = {symbol.spec.max_degree}"
        )
    return symbol, symbol.spec, symbol.spec.max_degree


MU_FORMULA = "mu_k = (2k+d) * int_0^1 v(r) r^(2k+d-1) dr"
COUNTING_FORMULA = "n_plus(lambda) = #{eigenvalues > lambda} = M_(nu-1), nu = #{k : mu_k > lambda}"


def _cmd_spectrum(args):
    symbol, spec, k = _resolve(args)
    if spec is None:
        spectrum = rt.radial_spectrum(symbol, args.d, k)
        if args.matrix_output:  # the exact section diag(mu_k), degree-major (mu_k on its m_k rows), a row at a time
            diagonal = symbol.mu(args.d, np.arange(k + 1))[basis_degrees(args.d, k)]
            rows = (np.where(np.arange(diagonal.size) == i, mu, 0.0) for i, mu in enumerate(diagonal))
        route, eigenvalue = "exact-radial", f"eigenvalue: {MU_FORMULA}"
    else:
        rows = gt.assemble(symbol, args.d, spec)  # a matrix is the sequence of its rows
        spectrum = gt.section_spectrum(rows)
        route, eigenvalue = "galerkin", "eigenvalue: finite-section eigenvalues of the compression"
    if args.matrix_output:
        gt.write_matrix_csv(args.matrix_output, rows, args.d, k)
    table = {
        "index": range(spectrum.values.size),
        "eigenvalue": spectrum.values.tolist(),
        "multiplicity": spectrum.multiplicities.tolist(),
    }
    meta = {
        "comments": [f"provenance={route} max_degree={k} total={spectrum.total_count}", eigenvalue],
        "formulas": [MU_FORMULA],
    }
    return table, meta


def _cmd_counting(args):
    symbol, _, _ = _resolve(args)
    sign = 1 if args.sign == "plus" else -1
    if (args.lam is None) == (args.lnlambda is None):
        raise ValueError("provide exactly one of --lambda, --lnlambda")
    if args.lam is not None:
        if args.lam <= 0.0:
            raise ValueError(f"--lambda must be positive, got {args.lam}")
        lam_grid = [args.lam]
        ln_grid = [math.log(args.lam)]
    else:
        ln_grid = _ln_lambda_grid(args.lnlambda)
        lam_grid = [math.exp(t) for t in ln_grid]
    table = {"lambda": lam_grid, "ln_lambda": ln_grid, "n": rt.counting(symbol, args.d, sign=sign, ln_lam=ln_grid)}
    meta = {
        "comments": [f"n: {COUNTING_FORMULA} (sign={args.sign})"],
        "formulas": [COUNTING_FORMULA, MU_FORMULA],
    }
    return table, meta


def _cmd_asymptotics(args):
    symbol, _, _ = _resolve(args)
    sign = 1 if args.sign == "plus" else -1
    ln_grid = np.unique(_ln_lambda_grid(args.lnlambda))[::-1]  # descending, each point once
    fit = rt.asymptotic_fit(
        symbol, args.d, model=args.model, exponent=args.exponent, sign=sign, ln_lam_grid=ln_grid
    )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if args.model == "power":
            model_vals = fit.coefficient * np.exp(-fit.exponent * fit.ln_lam)
            law = "n ~ C * lambda^(-e)"
        else:
            model_vals = fit.coefficient * (-fit.ln_lam) ** fit.exponent
            law = "n ~ C * |ln lambda|^e"
    bad = ~((model_vals > 0.0) & (model_vals < math.inf))
    if bad.any():
        raise TailNotCertifiedError(
            f"model value {float(model_vals[bad][0])!r} at ln lambda = {float(fit.ln_lam[bad][0])!r} is not a positive finite double"
        )
    table = {"ln_lambda": fit.ln_lam.tolist(), "n": fit.counts, "model": model_vals.tolist()}
    meta = {
        "comments": [
            f"fit {law}: coefficient={fit.coefficient:{FULL}} exponent={fit.exponent:{FULL}} residual_rms={fit.residual_rms:{FULL}}",
        ],
        "formulas": [law, COUNTING_FORMULA],
        "fit": {
            "coefficient": fit.coefficient,
            "exponent": fit.exponent,
            "residual_rms": fit.residual_rms,
        },
    }
    return table, meta


def _cmd_berezin(args):
    symbol, spec, k = _resolve(args)
    try:
        radii = [float(x) for x in args.radii.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--radii expects a comma-separated list, got {args.radii!r}") from None
    if not radii or not all(map(math.isfinite, radii)):
        raise ValueError(f"--radii expects one or more finite radii, got {args.radii!r}")
    points = np.zeros((len(radii), args.d))
    points[:, 0] = radii
    table = {"radius": radii, "berezin": kb.berezin_transform(symbol, args.d, points, k, spec=spec).tolist()}
    meta = {
        "comments": ["berezin: B[V](x) = int R(x,y)^2 V(y) dy / R(x,x), kernel truncated at max_degree"],
        "formulas": ["B[V](x) = int R(x,y)^2 V(y) dy / R(x,x)"],
    }
    return table, meta


def _cmd_schatten(args):
    symbol, spec, _ = _resolve(args)
    if spec is None:
        value = rt.schatten_radial(symbol, args.d, args.p, weak=args.weak)
        route = "radial-series"
    else:
        spectrum = gt.spectrum(symbol, args.d, spec)
        value = spectrum.schatten_weak(args.p) if args.weak else spectrum.schatten(args.p)
        route = "galerkin"
    table = {"p": [args.p], "weak": [int(args.weak)], "value": [value], "route": [route]}
    law = "||T||_(p,w) = sup_j j^(1/p) s_j" if args.weak else "||T||_p = (sum_j s_j^p)^(1/p)"
    return table, {"comments": [f"value: {law}"], "formulas": [law]}


def _cmd_boundary(args):
    symbol, _, k = _resolve(args)
    if args.e_grid is not None:
        if not isinstance(symbol, Power):
            raise ValueError("--E requires a power-type symbol in the boundary command")
        e_grid = _parse_range(args.e_grid, "E", want_count=True)
        fit = br.inverse_power_weyl_fit(symbol, args.d, e_grid)
        meta = {
            "comments": [
                "count: degrees with mu_k^(-1/gamma) < E, multiplicities included",
                f"fit count ~ C E^(d-1): coefficient={fit.coefficient:{FULL}}",
            ],
            "formulas": ["count(E) ~ C E^(d-1)"],
            "fit": {"coefficient": fit.coefficient, "exponent": fit.exponent},
        }
        return {"E": e_grid.tolist(), "count": fit.counts}, meta
    degrees = range(k + 1)
    table = {
        "k": degrees,
        "gram_eigenvalue": [br.extension_gram_eigenvalue(args.d, k) for k in degrees],
        "dtn_eigenvalue": [br.dtn_eigenvalue(args.d, k) for k in degrees],
        "reduced_diagonal": symbol.mu(args.d, np.arange(len(degrees))).tolist(),
    }
    meta = {
        "comments": [
            "gram_eigenvalue: <G psi_k, G psi_k> = 1/(2k+d); dtn_eigenvalue: normal derivative order k",
        ],
        "formulas": ["J psi_k = psi_k/(2k+d)", "D psi_k = k psi_k"],
    }
    if isinstance(symbol, Power):
        est = br.symbol_order_check(symbol, args.d)
        target = br.principal_symbol_value(symbol)
        meta["comments"].append(
            f"principal symbol check: (w/2)^gamma mu_k / (1 + gamma(gamma^2-1)/(24 w^2)) = {est:{FULL}} "
            f"at k = {br.ORDER_CHECK_DEGREE}, w = 2k+d+(gamma+1)/2 (target 2^-gamma Gamma(gamma+1) a = {target:{FULL}})"
        )
        meta["fit"] = {"symbol_order_estimate": est, "principal_symbol": target}
    return table, meta


def _cmd_krein(args):
    symbol, _, _ = _resolve(args)
    if (args.lnlambda is None) == (args.e_grid is None):
        raise ValueError("provide exactly one of --lnlambda, --E")
    if args.e_grid is not None:
        e_grid = _parse_range(args.e_grid, "E", want_count=True).tolist()
        exponent, coefficient, counts = kc.weyl_L_fit(args.d, e_grid)
        meta = {
            "comments": [
                "count: buckling values of the unit ball below E (multiplicity m_k counted)",
                f"fit count ~ C E^(d/2): exponent={exponent:{FULL}} coefficient={coefficient:{FULL}}",
            ],
            "formulas": ["count(E) ~ C E^(d/2), values j_(k+d/2,m)^2"],
            "fit": {"exponent": exponent, "coefficient": coefficient},
        }
        return {"E": e_grid, "count": counts.tolist()}, meta
    ln_grid = _ln_lambda_grid(args.lnlambda)
    v_sup = symbol.sup()
    gamma = symbol.gamma if isinstance(symbol, Power) else None
    theta = 2.0 * (args.d - 1) / (gamma * (args.d + 2)) if gamma else 0.5
    epss = [args.eps] * len(ln_grid) if args.eps is not None else [min(0.5, x) for x in kc.lam_power(ln_grid, theta)]
    if args.eps is None and 0.0 in epss:  # a given eps is checked by the sandwich
        where = f"ln lambda = {ln_grid[epss.index(0.0)]!r}"
        raise TailNotCertifiedError(f"remainder below lam1 + sup V / eps: eps = lambda^{theta:g} = 0 at {where}; give --eps")
    lower, upper = kc.sandwich_minus(
        ln_lam=ln_grid, eps=epss, n_plus=lambda ts: rt.counting(symbol, args.d, ln_lam=ts),
        remainder=lambda e: kc.remainder_model(e, v_sup, args.lam1, args.d),
    )
    table = {"lambda": [math.exp(t) for t in ln_grid], "eps": epss, "lower": lower, "upper": upper}
    if gamma:
        table["envelope_main"] = kc.counting_envelope(args.d, gamma, symbol.a, ln_lam=ln_grid)
    meta = {
        "comments": [
            "bounds: n_plus(lambda) <= N_minus(lambda) <= n_plus((1-eps) lambda) + remainder(eps)",
            f"remainder: complementary-spectrum counting below lam1 + sup V / eps (lam1={args.lam1})",
        ],
        "formulas": ["n_plus(lambda) <= N_minus(lambda) <= n_plus((1-eps) lambda) + remainder(eps)"],
    }
    return table, meta


def _cell_format(column) -> str:
    """The %-format of a column: exact digits for ints (and bools), 17
    significant digits for floats, the text otherwise."""
    first = column[0]
    if isinstance(first, int):
        return "%d"
    return "%.17g" if isinstance(first, float) else "%s"


def emit(table, meta, args) -> None:
    """Write a columnar table (column name -> values of one type) as CSV or JSON."""
    names, columns = list(table), list(table.values())
    if args.format == "json":
        payload = {
            "config": {k: v for k, v in vars(args).items() if v is not None},
            "results": [dict(zip(names, row)) for row in zip(*columns)],
            "provenance": {"equations": meta.get("formulas", []), "comments": meta.get("comments", [])},
        }
        if "fit" in meta:
            payload["fit"] = meta["fit"]
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        lines = [f"# harmotop {args.command}"]
        lines += [f"# {c}" for c in meta.get("comments", [])]
        lines.append("# columns: " + ",".join(names))
        if len(columns[0]):  # one % for the table: the row template once per row, over the cells row by row
            body = "\n".join([",".join(map(_cell_format, columns))] * len(columns[0]))
            lines.append(body % tuple(itertools.chain.from_iterable(zip(*columns))))
        text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "counting": _cmd_counting,
    "asymptotics": _cmd_asymptotics,
    "berezin": _cmd_berezin,
    "schatten": _cmd_schatten,
    "boundary": _cmd_boundary,
    "krein": _cmd_krein,
}


_VALUE_FLAGS = ("--lnlambda", "--E", "--lambda", "--radii", "--eps", "--exponent")


def _glue_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-12:-4" for option names; fold them into
    # --flag=value form.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _glue_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    if argv and argv[0] in commands:  # one pass: the subcommand's parser reads the rest
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:  # no subcommand named: the full parser reports it
        args = parser.parse_args(argv)
    try:
        emit(*_COMMANDS[args.command](args), args)
    except TailNotCertifiedError as exc:
        print(f"harmotop: certification failure: {exc}", file=sys.stderr)
        return 3
    except (SymbolSyntaxError, ValueError, OSError, KeyError) as exc:
        print(f"harmotop: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
