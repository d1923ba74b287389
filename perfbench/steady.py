"""Steadiness tooling for the benchmark.

    python3 perfbench/steady.py run --workload NAME --seeds 1-10 --out runs.jsonl [--trace 0|1]
    python3 perfbench/steady.py spread runs.jsonl [...]
    python3 perfbench/steady.py compare first.jsonl second.jsonl

`run` invokes perfbench/run.py once per seed (sequentially), for the
run_seconds of BENCHMARK.json, and appends one JSON line per run.  `spread`
prints, per workload and metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to a third of the metric's bound.  `compare` checks
two sets of runs of the same commit against BENCHMARK.json: each spread
within its bound, setup_s included, and the second median no worse than the
first by more than the bound.  It refuses sets taken with different run
lengths, and exits 1 when a check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def cmd_run(args) -> int:
    _, spec = _bench()
    seconds = spec["run_seconds"]
    with open(args.out, "a") as fh:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=args.workload, seed=seed, trace=args.trace, seconds=seconds)
            fh.write(json.dumps(result) + "\n")
            fh.flush()
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{args.workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {vals}", flush=True)
    return 0


def _load(paths) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def _stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def cmd_spread(args) -> int:
    metrics, _ = _bench()
    for workload, runs in _load(args.files).items():
        print(f"== {workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = _stats(vals)
            bound = metrics.get(name, {}).get("bound")
            mark = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            unit = runs[0]["metrics"][name]["unit"]
            third = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"  {name:44s} median {med:.6g} {unit} [{q1:.6g}, {q3:.6g}] spread {spread:.4f} (bound/3 {third}){mark}")
    return 0


def cmd_compare(args) -> int:
    _, spec = _bench()
    first, second = _load([args.first]), _load([args.second])
    lengths = {r["seconds"] for runs in (*first.values(), *second.values()) for r in runs}
    if len(lengths) != 1:
        print(f"error: the sets were taken with different run lengths {sorted(lengths)}", file=sys.stderr)
        return 1
    ok = True
    for workload in first:
        if workload not in second:
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in first[workload]]
            b = [r["metrics"][name]["value"] for r in second[workload]]
            ma, _, _, sa = _stats(a)
            mb, _, _, sb = _stats(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            good = sa <= bound and sb <= bound and worse <= bound
            ok &= good
            print(
                f"{workload:14s} {name:16s} first {ma:.6g} second {mb:.6g} change {change:+.4f} "
                f"spreads {sa:.4f}/{sb:.4f} bound {bound} {'ok' if good else 'FAIL'}"
            )
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = ap.parse_args(argv)
    return {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
