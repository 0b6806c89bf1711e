"""Line coverage of src/framex under the tier-1 tests, without the coverage package.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

Runs the tests in this process under sys.settrace and threading.settrace,
recording the lines of src/framex/*.py that run.  A module's executable
lines are those its compiled code objects name (co_lines), nested code
included.  Prints every executable line that no test runs and ALLOWED
does not list; exits 1 if there is one, or if the tests fail.
"""

import os
import pathlib
import sys
import threading
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "framex"

# (module, stripped source line): why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs only when cli.py is executed as a script",
}


def executable(path: pathlib.Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return lines


def main(args) -> int:
    paths = sorted(SRC.glob("*.py"))
    hits = {str(path): set() for path in paths}
    by_code_file = {}  # a code object's file name, as imported, to its hits or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code_file:
            by_code_file[name] = hits.get(os.path.realpath(name))
        seen = by_code_file[name]
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in paths:
        source = path.read_text().splitlines()
        lines = executable(path)
        total += len(lines)
        for line in sorted(lines - hits[str(path)]):
            text = source[line - 1].strip()
            if (path.name, text) not in ALLOWED:
                missed += 1
                print(f"{path.name}:{line}: {text}")
    print(f"{missed} of {total} executable src/framex lines unreached (allowed: {len(ALLOWED)})")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
