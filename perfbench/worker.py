"""One benchmark client: a fresh interpreter that runs CLI invocations in-process.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py JOB.json RESULT.json

The worker imports `harmotop.cli`, builds its parser and prints `ready`; the
parent times that as set-up.  With a job it then runs the job's invocations
through `harmotop.cli.main(argv)` in a closed loop: one round is the whole
list in order, and rounds repeat until the job's time is used.  After each
round but the last it prints `round` and waits for a line on stdin, so that
the parent can take set-up probes while no invocation runs.  Every
exception out of `cli.main` is caught and recorded, and the loop keeps
going.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harmotop import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

cli.build_parser()
print("ready", flush=True)


def run_op(argv: list[str]) -> tuple[dict, str]:
    out, err = io.StringIO(), io.StringIO()
    rec: dict = {"rc": None, "error": None}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rec["rc"] = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects a configuration with exit 2
        rec["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - every failure is recorded, the loop goes on
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["traceback"] = traceback.format_exc(limit=-3)
    rec["dt"] = time.perf_counter() - t0
    text = out.getvalue()
    rec["rows"] = sum(1 for line in text.splitlines() if line and not line.startswith("#"))
    rec["digest"] = hashlib.sha1(text.encode()).hexdigest()
    if rec["rc"] not in (0, None):
        rec["stderr"] = err.getvalue().strip()[-300:]
    return rec, text


def run_job(job: dict) -> dict:
    """Run rounds until job["seconds"] is used (at least one round).

    With job["trace"] untraced and traced rounds take turns, starting
    untraced, so the untraced rounds are the reference for the tracing
    overhead.
    """
    ops, trace = job["ops"], job["trace"]
    rounds: list[list[dict]] = []
    traced_flags: list[bool] = []
    texts: dict[str, str] = {}  # "<op>:<digest>" -> output
    tracer = Tracer() if trace else None
    t_start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            recs = []
            for i, argv in enumerate(ops):
                rec, text = run_op(argv)
                if rec["rc"] == 0:
                    texts.setdefault(f"{i}:{rec['digest']}", text)
                recs.append(rec)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(recs)
        traced_flags.append(traced)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / len(rounds) >= job["seconds"] and (not trace or any(traced_flags)):
            break
        # Between rounds the parent may take a set-up probe; wait for its go.
        print("round", flush=True)
        sys.stdin.readline()
    result = {
        "rounds": rounds,
        "traced": traced_flags,
        "texts": texts,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "layer_calls": dict(tracer.layer_calls),
            "layer_self_s": {layer: tracer.layer_self_s(layer) for layer in set(tracer.functions.values())},
            "extra": dict(tracer.extra),
            "functions": sorted(tracer.functions),
        }
    return result


if __name__ == "__main__":
    if sys.argv[1:] != ["--probe"]:
        job_path, result_path = sys.argv[1], sys.argv[2]
        result = run_job(json.loads(Path(job_path).read_text()))
        Path(result_path).write_text(json.dumps(result))
