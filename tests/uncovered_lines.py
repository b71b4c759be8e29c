"""List the lines of src/survquack/ that the test suite never runs.

Run from the repository root, with any extra pytest arguments:

    PYTHONPATH=src python tests/uncovered_lines.py [pytest args]

The suite runs in this process under a ``sys.settrace`` line tracer that
follows only frames whose code lives in src/survquack/. Each module's
executable lines are read from ``compile(...).co_lines()`` of the module
and every code object nested in it, and every executable line that never
ran is printed as ``file:line``. Code that runs only in worker processes
(``simulate`` with more than one worker) is not traced. The tracer makes
the suite about half again as slow. The exit status is pytest's.

Uses only the standard library besides pytest itself; the file name keeps
pytest from collecting it.
"""

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "survquack"


def executable_lines(path):
    """Line numbers that carry bytecode in the module at ``path``."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(pytest_args):
    """(pytest's exit status, {module path: lines run}) of one traced run."""
    import pytest

    ran = {}
    followed = {}  # code file name -> its set in ``ran``, or None if not in SRC

    def trace_lines(frame, event, arg):
        if event == "line":
            followed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in followed:
            path = Path(name).resolve()
            followed[name] = ran.setdefault(path, set()) if path.parent == SRC else None
        if followed[name] is None:
            return None
        followed[name].add(frame.f_lineno)
        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv):
    status, ran = run_traced(argv)
    for path in sorted(SRC.glob("*.py")):
        missing = executable_lines(path) - ran.get(path, set())
        for line in sorted(missing):
            print(f"{path.relative_to(ROOT)}:{line}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
