"""harmotop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark builds the seeded
invocation list of the workload and its input files, runs the invocations
through `harmotop.cli.main` in a closed loop from one client for about S
seconds, measuring set-up in fresh interpreters between rounds, then checks
every output against the independent oracles (outside the timed region).

It prints one line per metric (`name value unit`), the list of failing
invocations, and as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics; with `--trace 1` a traced run reports the per-layer
metrics instead.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 16  # spread evenly over the measured loop
WORKER_TIMEOUT_S = 150.0

# (function, metrics) measured per function; "calls" and/or "self_s".
LAYER_FUNCTIONS = (
    ("cli.parse_symbol", ("self_s",)),
    ("cli.emit", ("self_s",)),
    ("radial_toeplitz.log_radial_eigenvalue", ("calls", "self_s")),
    ("radial_toeplitz.counting", ("calls", "self_s")),
    ("radial_toeplitz.radial_eigenvalue", ("calls", "self_s")),
    ("numerics.gauss_jacobi01", ("calls", "self_s")),
    ("numerics.symmetric_eigen", ("calls", "self_s")),
    ("harmonic_basis.multiplicity", ("calls",)),
    ("harmonic_basis.angular_basis_matrix", ("self_s",)),
    ("grids.ball_grid", ("self_s",)),
    ("grids.harmonic_node_matrix", ("self_s",)),
    ("galerkin_toeplitz.assemble", ("self_s",)),
    ("galerkin_toeplitz.write_matrix_csv", ("self_s",)),
    ("kernel_berezin.berezin_transform", ("calls", "self_s")),
    ("boundary_reduction.inverse_power_weyl_fit", ("self_s",)),
    ("krein_counting.sandwich_minus", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- processes -------------------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], stdin=None) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=_worker_env(),
        stdin=stdin,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.wait(timeout=WORKER_TIMEOUT_S)
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    finally:
        proc.stdout.close()
        if proc.stdin is not None:
            proc.stdin.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def setup_probe() -> float:
    proc, ready = _spawn(["--probe"])
    _finish(proc)
    return ready


def run_rounds(argvs: list, seconds: float, trace: bool, tmp: Path, probes: int) -> tuple[dict, list[float]]:
    """Run the invocations in rounds in one fresh client until `seconds` is used.

    Between rounds, while the client waits, takes `probes` set-up probes
    spread evenly over the run (any left over follow it), so that set-up is
    sampled at the same moments as the invocations.  Returns the client's
    result and the probe times.
    """
    job_path, result_path = tmp / "job.json", tmp / "result.json"
    job_path.write_text(json.dumps({"ops": argvs, "seconds": seconds, "trace": trace}))
    proc, _ = _spawn([str(job_path), str(result_path)], stdin=subprocess.PIPE)
    setup: list[float] = []
    t0 = time.perf_counter()
    for _ in proc.stdout:  # one `round` line per finished round
        if len(setup) < probes and time.perf_counter() - t0 >= len(setup) * seconds / probes:
            setup.append(setup_probe())
        proc.stdin.write("\n")
        proc.stdin.flush()
    _finish(proc)
    setup += [setup_probe() for _ in range(probes - len(setup))]
    return json.loads(result_path.read_text()), setup


# --- checking --------------------------------------------------------------------


def verify(ops: list[dict], result: dict):
    """Check each distinct output once; returns (executions with their failure reason, unverified).

    `oracles.check` charges output it cannot parse to the program; any
    exception out of it is the oracle's and leaves that output unverified.
    """
    import oracles

    verdicts = {}
    unverified = []
    for key, text in result["texts"].items():
        idx, _, digest = key.partition(":")
        try:
            verdict = oracles.check(ops[int(idx)]["check"], text)
        except Exception as exc:  # noqa: BLE001 - an oracle failure leaves the output unverified
            verdict = None
            unverified.append(f"op {idx}: oracle error {type(exc).__name__}: {exc}")
        verdicts[(int(idx), digest)] = verdict
    execs = []
    for rnd, recs in enumerate(result["rounds"]):
        for i, rec in enumerate(recs):
            verdict = verdicts.get((i, rec["digest"]))
            reason = None
            if rec["error"]:
                reason = f"raised {rec['error']}\n{rec['traceback'].rstrip()}"
            elif rec["rc"] != 0:
                reason = f"exit {rec['rc']}: {rec.get('stderr', '')}"
            elif verdict is not None and verdict.wrong:
                reason = f"{verdict.wrong} wrong rows, e.g. {'; '.join(verdict.notes)}"
            execs.append({"round": rnd, "op": i, "rec": rec, "verdict": verdict, "reason": reason})
    return execs, unverified


# --- metrics -----------------------------------------------------------------------


def _round_walls(execs: list[dict]) -> dict[int, float]:
    walls: dict[int, float] = {}
    for e in execs:
        walls[e["round"]] = walls.get(e["round"], 0.0) + e["rec"]["dt"]
    return walls


def end_to_end(execs: list[dict], result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    # A shared virtual machine can change speed by 1.6x for seconds at a
    # time, so the timings are best-of-run: each invocation's fastest
    # execution.  Summing those needs only each invocation, not a whole
    # round, to fall in a fast period.
    rounds = _round_walls(execs)
    best: dict[int, float] = {}
    for e in execs:
        best[e["op"]] = min(best.get(e["op"], math.inf), e["rec"]["dt"])
    lat = sorted(e["rec"]["dt"] for e in execs)
    ok = [e for e in execs if e["reason"] is None]
    checked = [e["verdict"] for e in execs if e["verdict"] is not None]
    right = sum(v.right for v in checked)
    wrong = sum(v.wrong for v in checked)
    undecidable = sum(v.undecidable for v in checked)
    good_rows = dict.fromkeys(rounds, 0)
    for e in ok:
        if e["verdict"] is not None:
            good_rows[e["round"]] += e["verdict"].right + e["verdict"].undecidable
    wall = sum(best.values())
    metrics = {
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(best.values()), "s"),
        "rows_per_s": (statistics.median(good_rows.values()) / wall, "1/s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        "ok_frac": (len(ok) / len(execs), "frac"),
        "right_row_frac": (right / (right + wrong) if right + wrong else 1.0, "frac"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = [
        f"rounds {len(rounds)}, invocations {len(execs)} ({len(best)} per round); "
        f"fastest round {min(rounds.values())!r} s, median round {statistics.median(rounds.values())!r} s",
        f"fail_frac {1.0 - len(ok) / len(execs)!r} ({len(execs) - len(ok)} of {len(execs)} invocations)",
        f"wrong_row_frac {wrong / (right + wrong) if right + wrong else 0.0!r} ({wrong} of {right + wrong} decided rows; {undecidable} rows undecidable)",
        f"op_p50_s over {len(best)} invocations (fastest execution of each); over all {len(lat)} executions {statistics.median(lat)!r} s",
    ]
    if len(lat) >= 100:
        info.append(f"op_p90_s {statistics.quantiles(lat, n=10)[-1]!r} s over {len(lat)} executions")
    else:
        info.append(f"op_p90_s not reported: {len(lat)} executions (< 100)")
    return metrics, info


def per_layer(execs: list[dict], result: dict) -> tuple[dict, list[str]]:
    tr = result["trace"]
    flags = result["traced"]
    n = sum(flags)
    traced = [e for e in execs if flags[e["round"]]]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tr["layer_calls"].get(layer, 0) / n, "count")
        metrics[f"{layer}.self_s"] = (tr["layer_self_s"].get(layer, 0.0) / n, "s")
    missing = []
    for fn, kinds in LAYER_FUNCTIONS:
        if fn not in tr["functions"]:
            missing.append(fn)
            continue
        for kind in kinds:
            metrics[f"{fn}.{kind}"] = (tr[kind].get(fn, 0) / n, UNITS[kind])
    extra = tr["extra"]
    rows = sum(e["rec"]["rows"] for e in traced) / n
    if "radial_toeplitz.log_radial_eigenvalue" in tr["functions"]:
        log_mu = tr["calls"].get("radial_toeplitz.log_radial_eigenvalue", 0) / n
        metrics["radial_toeplitz.log_mu_per_row"] = (log_mu / rows if rows else 0.0, "ratio")
    if "grids.harmonic_node_matrix" in tr["functions"]:
        metrics["grids.node_matrix_mb"] = (extra.get("grids.node_matrix_mb", 0.0), "MB")
    if "galerkin_toeplitz.assemble" in tr["functions"]:
        metrics["galerkin_toeplitz.assemble.gflop"] = (extra.get("galerkin_toeplitz.assemble.gflop", 0.0) / n, "GFLOP")
    walls = _round_walls(execs)
    traced_wall = statistics.median(w for r, w in walls.items() if flags[r])
    ref_wall = statistics.median(w for r, w in walls.items() if not flags[r])
    metrics["trace_overhead_frac"] = (traced_wall / ref_wall - 1.0, "frac")
    info = [
        f"rounds {len(flags)}: {n} traced, {len(flags) - n} untraced; per-layer values are per traced round",
        f"rows per traced round {rows!r}",
    ]
    if missing:
        info.append("missing (function no longer exists): " + ", ".join(missing))
    return metrics, info


# --- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "harmotop" / "cli.py").is_file():
        print(f"error: no harmotop sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root))
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        ops = workloads.WORKLOADS[args.workload](rng, tmp)
        argvs = [op["argv"] for op in ops]
        probes = 0 if args.trace else SETUP_PROBES
        result, setup = run_rounds(argvs, args.seconds, bool(args.trace), tmp, probes)
        execs, unverified = verify(ops, result)
        if args.trace:
            metrics, info = per_layer(execs, result)
        else:
            metrics, info = end_to_end(execs, result, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    failed = [e for e in execs if e["reason"] is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    seen = set()
    for e in failed:
        if e["op"] in seen:
            continue
        seen.add(e["op"])
        times = sum(1 for f in failed if f["op"] == e["op"])
        print(f"FAILED x{times}: harmotop {' '.join(ops[e['op']]['argv'])}\n    {e['reason']}")
    for line in unverified:
        print(f"UNVERIFIED: {line}")
    print(
        json.dumps(
            {
                "correct": not unverified,
                "attempted": len(execs),
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
