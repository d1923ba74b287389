"""Summarise benchmark runs as a BENCH_<pr>.json record.

    python3 tools/bench_summary.py parent=PARENT.jsonl change=CHANGE.jsonl [--out BENCH_N.json]

Each argument names one set of runs (for a hot-path change: its parent
commit and the change) and the JSONL file that `perfbench/steady.py run`
wrote for that set.  For every set and workload the record holds the number
of runs, their seeds, the run length in seconds, and, for every metric the
runs carry, its best, first quartile, median and third quartile.  The best
is the highest for a metric that BENCHMARK.json marks "better": "higher",
else the lowest.  Traced runs carry no end-to-end metrics and are skipped.
Without --out the record goes to stdout.

With both a `parent` and a `change` set the record also holds `pairs`: for
every workload in both and every metric, the i-th run of each set is one
pair (so the two `steady.py run` calls must alternate), with the pair count,
the change's wins and ties, both medians, the gap (how far the change's
median is better), the parent's Q3 - Q1, and `claim_holds`: at least ten
pairs, at least 9 of 10 of them won, and a gap above that spread.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _better() -> dict:
    """name -> "lower" or "higher" for each end-to-end metric of BENCHMARK.json."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _summary(values: list[float], better: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"best": max(values) if better == "higher" else min(values), "q1": q1, "median": median, "q3": q3}


def _untraced(lines: list[str]) -> dict[str, list[dict]]:
    """workload -> its untraced runs, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in lines:
        if line.strip():
            run = json.loads(line)
            if not run.get("trace"):
                runs.setdefault(run["workload"], []).append(run)
    return runs


def summarise(lines: list[str]) -> dict:
    """workload -> {runs, seeds, run_seconds, and one summary per metric} over untraced runs."""
    better = _better()
    out = {}
    for workload, rs in sorted(_untraced(lines).items()):
        seconds = sorted({r["seconds"] for r in rs})
        if len(seconds) != 1:
            raise ValueError(f"{workload}: runs of different lengths {seconds} in one set")
        names = list(rs[0]["metrics"])
        if any(list(r["metrics"]) != names for r in rs):
            raise ValueError(f"{workload}: runs with different metrics in one set")
        unknown = [m for m in names if m not in better]
        if unknown:
            raise ValueError(f"{workload}: {', '.join(unknown)} is not an end-to-end metric of BENCHMARK.json")
        out[workload] = {
            "runs": len(rs),
            "seeds": [r["seed"] for r in rs],
            "run_seconds": seconds[0],
            **{m: _summary([r["metrics"][m]["value"] for r in rs], better[m]) for m in names},
        }
    return out


def pair_up(parent_lines: list[str], change_lines: list[str]) -> dict:
    """workload -> metric -> the claim rule over the runs paired in file order."""
    better = _better()
    parent, change = _untraced(parent_lines), _untraced(change_lines)
    out = {}
    for workload in sorted(parent.keys() & change.keys()):
        ps, cs = parent[workload], change[workload]
        if len(ps) != len(cs):
            raise ValueError(f"{workload}: {len(ps)} parent runs and {len(cs)} change runs cannot be paired")
        out[workload] = {}
        for m in ps[0]["metrics"]:
            sign = 1.0 if better[m] == "higher" else -1.0  # sign * value grows as the metric gets better
            p = [r["metrics"][m]["value"] for r in ps]
            c = [r["metrics"][m]["value"] for r in cs]
            wins = sum(sign * (b - a) > 0.0 for a, b in zip(p, c))
            ties = sum(a == b for a, b in zip(p, c))
            q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else p * 3
            gap = sign * (statistics.median(c) - statistics.median(p))
            out[workload][m] = {
                "pairs": len(p),
                "wins": wins,
                "ties": ties,
                "parent_median": statistics.median(p),
                "change_median": statistics.median(c),
                "gap": gap,
                "parent_spread": q3 - q1,
                "claim_holds": len(p) >= 10 and 10 * wins >= 9 * len(p) and gap > q3 - q1,
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", metavar="NAME=RUNS.jsonl")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    record, lines = {}, {}
    for item in args.sets:
        name, sep, path = item.partition("=")
        if not sep or not name:
            ap.error(f"expected NAME=RUNS.jsonl, got {item!r}")
        lines[name] = Path(path).read_text().splitlines()
        record[name] = summarise(lines[name])
    if "parent" in lines and "change" in lines:
        record["pairs"] = pair_up(lines["parent"], lines["change"])
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
