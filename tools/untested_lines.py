"""List the lines of ``src/bellfringe`` that a test run never executes.

Usage::

    python tools/untested_lines.py [PYTEST ARGS]

Runs pytest in this process, from the checkout holding this script, with
Tier-1's ``--continue-on-collection-errors`` and any further arguments
(by default the suite of ``pyproject.toml``'s ``testpaths``).  A
``sys.settrace`` hook records the lines run in frames of the checkout's
``src/bellfringe`` files; other frames are not traced line by line.  The
executable lines of a file are those its compiled code objects map an
instruction to (``co_lines``).  Every executable line that never ran is
printed as ``path:line: source``, after pytest's own report.

Code run in a child interpreter is not seen, so some lines are listed
whatever the tests do; README's Tests section names them.  Only the
standard library and pytest are used: coverage.py is not needed.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "bellfringe")


def executable_lines(path: str) -> set:
    """Line numbers of ``path`` that some instruction of its code belongs to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, 0: no source line
        todo += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sources = sorted(
        os.path.join(PACKAGE, name)
        for name in os.listdir(PACKAGE) if name.endswith(".py")
    )
    run = {path: set() for path in sources}
    ours = {}  # co_filename -> its lines in ``run``, or None outside the package

    def line(frame, event, arg):
        if event == "line":
            ours[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = run.get(os.path.realpath(name))
        return None if ours[name] is None else line

    os.chdir(ROOT)
    sys.settrace(call)  # this thread only: the suite starts no other
    try:
        code = pytest.main(["--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(code)
    untested = 0
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for number in sorted(executable_lines(path) - run[path]):
            print(f"{os.path.relpath(path, ROOT)}:{number}: {text[number - 1].strip()}")
            untested += 1
    print(f"{untested} executable lines of src/bellfringe never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
