"""Library line coverage under the test suite, with the standard library only.

Runs pytest in this process under a ``sys.settrace`` hook that traces only
frames whose code lies in src/projdiff, then prints, per module, the
executable lines that never ran, as line ranges.  A line is executable
when the compiled module maps some bytecode to it (``co_lines`` of every
code object), so docstrings, comments and continuation lines of a
statement that compiles to one line are not listed.  Subprocesses (the
demo tests) are not traced.

    python3 tools/linecov.py [pytest arguments]

The arguments default to the tier-1 run, ``-q --continue-on-collection-errors``.
The exit status is pytest's when that is nonzero, else 1 when some module
lists a never-run line, else 0.  It takes about 1.5 times as long as the
suite.
"""

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "projdiff")


def executable_lines(path):
    """The line numbers some bytecode of the module at ``path`` maps to."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        # line 0 (or None) marks bytecode with no source line, such as a module's RESUME
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(numbers):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for k in sorted(numbers):
        if spans and k == spans[-1][1] + 1:
            spans[-1][1] = k
        else:
            spans.append([k, k])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    import pytest

    executed = {}                    # module path -> line numbers run
    paths = {}                       # co_filename -> module path, None outside the package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.abspath(name)
            paths[name] = path if path.startswith(PACKAGE + os.sep) else None
        if paths[name] is None:
            return None
        lines = executed.setdefault(paths[name], set())
        # the first line of a code object runs with the call, not as a line event
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    print("\nexecutable lines never run:")
    uncovered = False
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        missed = executable_lines(path) - executed.get(path, set())
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}: {ranges(missed)}" if missed else f"{rel}: none")
        uncovered |= bool(missed)
    return int(status) or int(uncovered)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
