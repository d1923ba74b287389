"""Time two checkouts against each other, operation by operation, in one process.

    python3 tools/ab_ops.py WORKLOAD SEED ROOT_A ROOT_B [--reps N]

Loads `src/harmotop` of each checkout under its own package name
(`harmotop_a`, `harmotop_b`), builds the seeded invocation list of WORKLOAD
exactly as perfbench/run.py does (from ROOT_A's `perfbench/workloads.py`,
which is only imported, never written), and runs every invocation N times
on each side through `cli.main`, with stdout captured.  The two sides take
turns per operation, and the side that goes first alternates too.  It
prints one line per invocation (index, the best time of A and of B, B/A,
whether the two outputs are identical, and the arguments), then the totals
of the best times and the change of B against A.

Separately started runs drift by about +-10% on a small shared machine;
best-of-N of interleaved calls in one process is steady enough that an A/A
comparison (the same checkout twice) of a `radial-closed` round reads within
about +-1.3% at N = 20 to 40 (2-core VM).  It is a development aid: gains are
claimed from perfbench/run.py.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from op_digests import run  # noqa: E402


def load_cli(root: Path, name: str):
    """`cli` of the checkout at `root`, imported as the package `name`."""
    for loaded in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[loaded]  # a second call may name another checkout
    init = root / "src" / "harmotop" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def ab_ops(workload: str, seed: int, root_a: Path, root_b: Path, reps: int) -> list[str]:
    """Report lines: one per invocation, then the totals of the best times."""
    if reps < 1:
        raise SystemExit(f"--reps must be at least 1, got {reps}")
    bench = str(root_a / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    sides = (load_cli(root_a, "harmotop_a"), load_cli(root_b, "harmotop_b"))
    lines, totals = [], [0.0, 0.0]
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), Path(tmp))
        for i, op in enumerate(ops):
            best, texts = [float("inf")] * 2, [None, None]
            for rep in range(reps):
                for side in ((0, 1) if (i + rep) % 2 == 0 else (1, 0)):
                    t0 = time.perf_counter()
                    texts[side] = run(sides[side], op["argv"])[1]
                    best[side] = min(best[side], time.perf_counter() - t0)
            totals = [t + b for t, b in zip(totals, best)]
            same = "same" if texts[0] == texts[1] else "DIFFERS"
            argv = " ".join(op["argv"]).replace(tmp, "{tmp}")
            lines.append(f"{i}  {best[0]:.6f}  {best[1]:.6f}  {best[1] / best[0]:.3f}  {same}  {argv}")
    lines.append(f"total  {totals[0]:.6f}  {totals[1]:.6f}  {100.0 * (totals[1] / totals[0] - 1.0):+.2f}%")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("root_a", type=Path)
    ap.add_argument("root_b", type=Path)
    ap.add_argument("--reps", type=int, default=20, help="runs of each invocation on each side (best is kept)")
    args = ap.parse_args(argv)
    print("\n".join(ab_ops(args.workload, args.seed, args.root_a.resolve(), args.root_b.resolve(), args.reps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
