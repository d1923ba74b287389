"""Digest every output of one round of a benchmark workload.

    python3 tools/op_digests.py WORKLOAD SEED [--root CHECKOUT] [--against OTHER]

Builds the seeded invocation list of WORKLOAD exactly as perfbench/run.py
does (same generator seed, same input files), runs each invocation once
through `harmotop.cli.main`, and prints one line per invocation: its index,
exit code, the sha1 of its stdout, the sha1 of each file it writes
(`--matrix-output`, `--output`), and its arguments.  The directory of the
generated inputs is written as `{tmp}` in outputs and arguments before
hashing, so two checkouts give the same digests exactly when their outputs
are byte-identical.  --root picks the checkout whose `src/harmotop` and
`perfbench/workloads.py` are used (default: the one holding this tool).
With --against OTHER, the listing of the checkout OTHER is made by this tool
in a subprocess (so the two packages never share a process), and only the
lines that differ are printed, OTHER's as `- ...` and --root's as `+ ...`;
the exit code is 1 on any difference and 0 when the listings are equal.
perfbench/ is only imported, never written.  The other tools run commands
through this tool's `run`, and schatten_sweep.py diffs through its `report`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import random
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUT_FLAGS = ("--matrix-output", "--output")


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def run(cli, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `cli.main` call; argparse's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def report(lines: list[str], tool: str, args: list[str], against: Path | None) -> int:
    """Print `lines`, or with `against` only those that differ from the listing
    `tool args --root against` makes in a subprocess (so the two packages never
    share a process): the other's as `- ...`, ours as `+ ...`, exit code 1 on
    any difference and 0 when the listings are equal."""
    if against is None:
        print("\n".join(lines))
        return 0
    other = subprocess.run(
        [sys.executable, str(Path(tool).resolve()), *args, "--root", str(against.resolve())],
        stdout=subprocess.PIPE, text=True, check=True,  # the other checkout's errors reach stderr
    ).stdout.splitlines()
    differ = False
    for theirs, ours in itertools.zip_longest(other, lines):
        if theirs != ours:
            differ = True
            print("\n".join(f"{mark} {line}" for mark, line in (("-", theirs), ("+", ours)) if line is not None))
    return 1 if differ else 0


def digest_ops(workload: str, seed: int, root: Path) -> list[str]:
    """One line per invocation of the workload's round: index, rc, digests, argv."""
    for path in (str(root / "perfbench"), str(root / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from harmotop import cli

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), Path(tmp))
        for i, op in enumerate(ops):
            argv = op["argv"]
            rc, out, _ = run(cli, argv)
            fields = [str(i), f"rc={rc}", f"stdout={_sha1(out.replace(tmp, '{tmp}'))}"]
            for flag, value in zip(argv, argv[1:]):
                if flag in OUTPUT_FLAGS:
                    written = Path(value).read_text().replace(tmp, "{tmp}")
                    fields.append(f"{Path(value).name}={_sha1(written)}")
            fields.append(" ".join(argv).replace(tmp, "{tmp}"))
            lines.append("  ".join(fields))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--against", type=Path, default=None, help="print only the lines that differ from this checkout's")
    args = ap.parse_args(argv)
    lines = digest_ops(args.workload, args.seed, args.root.resolve())
    return report(lines, __file__, [args.workload, str(args.seed)], args.against)


if __name__ == "__main__":
    sys.exit(main())
