"""Run the tier-1 tests in-process under a line tracer restricted to
``src/adaridge``, print every executable line they never reach, and exit 1
if a test fails or any line goes unreached.

    python3 tools/line_coverage.py

A module's executable lines are those its compiled code objects map
instructions to (``co_lines``), so docstrings, comments and blank lines
never count.  The tracer is set before pytest imports the package, so
module-level lines count as run.  Forked pool workers are not traced;
every line they run also runs in process at one job.
"""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adaridge"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

TIER_1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Line numbers of ``path`` that some instruction of its code maps to."""

    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 (or None) marks instructions that belong to no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_tier_1() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for tier-1, and the lines run in each package
    file."""

    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set())
        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(TIER_1)
    finally:
        sys.settrace(None)
    return int(status), reached


def main() -> int:
    os.chdir(ROOT)
    status, reached = traced_tier_1()
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for lineno in sorted(executable_lines(path) - reached.get(str(path), set())):
            unreached += 1
            print(f"{path.relative_to(ROOT)}:{lineno}: {text[lineno - 1].strip()}")
    print(f"{unreached} unreached lines, pytest exit {status}")
    return 1 if status or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
