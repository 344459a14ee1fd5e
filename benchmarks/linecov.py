"""Which lines of ``src/repro`` a test run never executes.

A line collector, not a coverage tool: ``sys.settrace`` and
``threading.settrace`` record every line run in the test process, and
every line a code object of a ``src/repro`` module reports (``co_lines``)
counts as executable.  Worker processes and subprocess daemons inherit no
tracer, so the pool's worker loop and ``repro serve``'s command read as
unexecuted even where a test drives them.

Run from the repository root (the default pytest arguments are ``-q``)::

    PYTHONPATH=src python benchmarks/linecov.py [pytest args]

Prints one row per module — executable lines, unexecuted lines, their
share — then the total, and exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def executable(path: Path) -> set[int]:
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module entry
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run(argv: list[str]) -> int:
    import pytest

    seen: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def line(frame, event, _arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(str(SRC))
        return line if ours[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for name, lineno in seen:
        ran.setdefault(os.path.abspath(name), set()).add(lineno)
    total = missed = 0
    print(f"{'module':<40} {'lines':>6} {'unrun':>6} {'share':>6}")
    for path in sorted(SRC.rglob("*.py")):
        lines = executable(path)
        unrun = len(lines - ran.get(str(path), set()))
        total, missed = total + len(lines), missed + unrun
        share = unrun / len(lines) if lines else 0.0
        print(f"{path.relative_to(SRC).as_posix():<40} {len(lines):>6} {unrun:>6} {share:>6.1%}")
    print(f"{'total':<40} {total:>6} {missed:>6} {missed / total:>6.1%}")
    return int(status)


# Guarded: forkserver workers re-import the main module.
if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
