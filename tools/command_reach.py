"""List the package code that no command reaches.

    python3 tools/command_reach.py

Runs every case of tests/test_exact_outputs.py (CSV and JSON) and one round
(seed 1) of each benchmark workload through `harmotop.cli.main`, with
`sys.settrace` recording the lines executed in `src/harmotop`.  Then it
prints two lists: the package functions that no command calls, and, for
each function that is called, the lines of it that never ran (a lambda's
or a generator expression's lines count as its enclosing function's).
Tests and library callers are not commands: code that only they reach is
listed.  Uses the standard library only; perfbench/ and tests/ are only
imported, never written.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import random
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "harmotop"


def _functions(path: Path):
    """[qualified name, first line, lines] of each def in a module; a
    lambda's or a comprehension's lines are its enclosing def's."""
    out = []

    def lines(code: types.CodeType) -> set[int]:
        return {line for _, _, line in code.co_lines() if line is not None}

    def walk(code: types.CodeType, owner: list | None, prefix: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body: its methods are listed
                    walk(const, None, f"{prefix}{const.co_name}.")
                elif const.co_name.startswith("<"):  # a lambda, a genexpr or a comprehension
                    if owner is not None:
                        owner[2] |= lines(const)
                    walk(const, owner, prefix)
                else:
                    name = prefix + const.co_name
                    # the def line runs at import, whether or not the function is called
                    entry = [name, const.co_firstlineno, lines(const) - {const.co_firstlineno}]
                    out.append(entry)
                    walk(const, entry, f"{name}.<locals>.")

    walk(compile(path.read_text(), str(path), "exec"), None, "")
    return out


def _run_commands(tracer) -> None:
    for path in (str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench"), str(ROOT / "tools")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import test_exact_outputs as exact
    import workloads
    from harmotop import cli
    from op_digests import run

    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        cli.build_parser.cache_clear()  # a parser built before the trace would not be built in it
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            for name in sorted(exact.CASES):
                for fmt in exact.FORMATS:
                    exact.run_case(exact.CASES[name], fmt, Path(tmp))
            for workload, build in sorted(workloads.WORKLOADS.items()):
                for op in build(random.Random(f"{workload}:1"), Path(tmp)):
                    run(cli, op["argv"])
        finally:
            sys.settrace(previous)


def command_reach() -> tuple[list[str], list[str]]:
    """The unreached functions, and the unreached lines of reached ones, as report lines."""
    prefix = str(PACKAGE)
    ran: set[tuple[str, int]] = set()  # (file, line)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
            return local
        return None

    _run_commands(tracer)
    unreached, partial = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for qualname, first, lines in _functions(path):
            name = f"{module}.{qualname}"
            if (str(path), first) not in ran:
                if not any(name.startswith(f"{out}.") for out in unreached):  # nested in one listed
                    unreached.append(name)
            elif missed := sorted(line for line in lines if (str(path), line) not in ran):
                partial.append(f"{name}: lines {', '.join(map(str, missed))}")
    return unreached, partial


def main() -> int:
    unreached, partial = command_reach()
    print(f"functions no command reaches ({len(unreached)}):")
    print("\n".join(f"  {name}" for name in unreached))
    print(f"lines no command reaches, in the functions that are reached ({len(partial)}):")
    print("\n".join(f"  {line}" for line in partial))
    return 0


if __name__ == "__main__":
    sys.exit(main())
