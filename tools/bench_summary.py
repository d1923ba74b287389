"""Summarise benchmark runs as a BENCH_<pr>.json record.

    python3 tools/bench_summary.py parent=PARENT.jsonl change=CHANGE.jsonl [--out BENCH_N.json]

Each argument names one set of runs (for a hot-path change: its parent
commit and the change) and the JSONL file that `perfbench/steady.py run`
wrote for that set.  For every set and workload the record holds the number
of runs, their seeds, the run length in seconds, and the best (lowest),
first quartile, median and third quartile of `wall_s` and of `peak_rss_mb`.
Traced runs carry no end-to-end metrics and are skipped.  Without --out the
record goes to stdout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

METRICS = ("wall_s", "peak_rss_mb")


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"best": min(values), "q1": q1, "median": median, "q3": q3}


def summarise(lines: list[str]) -> dict:
    """workload -> {runs, seeds, run_seconds, wall_s, peak_rss_mb} over untraced runs."""
    runs: dict[str, list[dict]] = {}
    for line in lines:
        if line.strip():
            run = json.loads(line)
            if not run.get("trace"):
                runs.setdefault(run["workload"], []).append(run)
    out = {}
    for workload, rs in sorted(runs.items()):
        seconds = sorted({r["seconds"] for r in rs})
        if len(seconds) != 1:
            raise ValueError(f"{workload}: runs of different lengths {seconds} in one set")
        out[workload] = {
            "runs": len(rs),
            "seeds": [r["seed"] for r in rs],
            "run_seconds": seconds[0],
            **{m: _summary([r["metrics"][m]["value"] for r in rs]) for m in METRICS},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", metavar="NAME=RUNS.jsonl")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    record = {}
    for item in args.sets:
        name, sep, path = item.partition("=")
        if not sep or not name:
            ap.error(f"expected NAME=RUNS.jsonl, got {item!r}")
        record[name] = summarise(Path(path).read_text().splitlines())
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
