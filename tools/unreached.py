"""List the statements of src/allpath/*.py that the test suite never runs.

    PYTHONPATH=src python tools/unreached.py [pytest arguments]

Runs pytest in this process with a line tracer (sys.settrace and
threading.settrace) limited to src/allpath/*.py.  A module's executable
lines are those its code objects map instructions to (co_lines()).  Each
executable line that did not run and is not in ALLOWED is printed as
path:line: source; an allowed one is printed with its reason, and an
ALLOWED entry that matches no unreached line is printed as stale.  The exit
status is 1 when a line outside ALLOWED is left, an ALLOWED entry is stale
or pytest fails, and 0 otherwise.  Stdlib only, so it needs nothing that
tier-1 does not.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "allpath")

# (file, stripped source line) -> why tier-1 cannot run it.  Keyed by text,
# not line number, so an edit elsewhere in the file does not move it.
ALLOWED = {
    ("balance.py", "except ImportError:  # pragma: no cover"):
        "python-twin fallback: runs only where the C kernel is not built",
    ("balance.py", "from . import _balance_py as _kernel"):
        "python-twin fallback: runs only where the C kernel is not built",
    ("balance.py", 'KERNEL = "python"'):
        "python-twin fallback: runs only where the C kernel is not built",
    ("simnet.py", "except ImportError:  # pragma: no cover"):
        "python-twin fallback: runs only where the C kernel is not built",
    ("simnet.py", "step = step_py"):
        "python-twin fallback: runs only where the C kernel is not built",
    ("simnet.py", 'KERNEL = "python"'):
        "python-twin fallback: runs only where the C kernel is not built",
    ("cli.py", "sys.exit(main())"):
        "runs only under python -m allpath.cli, in subprocesses the tracer does not follow",
}


def executable_lines(path):
    """Line numbers that the code objects compiled from path map to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    todo = [code]
    while todo:
        co = todo.pop()
        # line 0 is a module's RESUME prologue, no source line
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args):
    """Run pytest under the tracer: (exit code, {path: lines run})."""
    import pytest

    ran = {}  # path -> set of line numbers
    wanted = {}  # co_filename -> its path under PACKAGE, or None

    def local(frame, event, arg):
        if event == "line":
            ran[wanted[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        path = wanted.get(name, False)
        if path is False:
            real = os.path.realpath(name)
            path = wanted[name] = real if os.path.dirname(real) == PACKAGE else None
            if path is not None:
                ran.setdefault(path, set())
        return None if path is None else local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", *pytest_args])
        # CPython unsets a tracer that raised, e.g. RecursionError in a deep
        # call, and every line after that would read as unreached
        if sys.gettrace() is not global_:
            print("the tracer was switched off during the run", file=sys.stderr)
            code = code or 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def unreached(ran):
    """(path, line, stripped source, reason or None) of each executable line
    not run; the reason is its ALLOWED entry."""
    left = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            text = source[line - 1].strip()
            left.append((path, line, text, ALLOWED.get((name, text))))
    return left


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    code, ran = run_traced(argv)
    left = unreached(ran)
    for path, line, text, reason in left:
        print("%s:%d: %s%s" % (os.path.relpath(path, ROOT), line, text,
                               "" if reason is None else "  [allowed: %s]" % reason))
    bad = sum(reason is None for _, _, _, reason in left)
    # an entry that matches no unreached line is stale, e.g. left by a rename
    stale = set(ALLOWED) - {(os.path.basename(path), text) for path, _, text, _ in left}
    for name, text in sorted(stale):
        print("src/allpath/%s: %s  [stale ALLOWED entry: no unreached line]" % (name, text))
    print("%d unreached line(s) outside the allowlist, %d allowed, %d stale ALLOWED "
          "entries; pytest exit code %d" % (bad, len(left) - bad, len(stale), code))
    return 1 if bad or stale or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
