"""List the executable lines of src/volswitch that no test ran, with the standard library only.

    python3 scripts/unrun_lines.py                       # the whole suite
    python3 scripts/unrun_lines.py tests/test_cli.py -q  # any pytest arguments

Runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, passing the arguments through, and prints
``file:line  text`` for each executable line of ``src/volswitch`` that no
test ran, then a count on stderr. A line is executable when the compiled
module attributes an instruction to it (``co_lines``) other than a
function's entry. The package is imported from ``src/`` once tracing has
started, so its import-time lines count as run.

Forked workers are followed: a process forked while tracing keeps the
tracer and writes each line it runs for the first time to a file of its
own, at once, so the line counts even when the worker is killed or exits
through ``os._exit``. The files are merged after pytest returns. A
subprocess that execs a new program is not followed. The exit code is
pytest's.
"""

from __future__ import annotations

import dis
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "volswitch"
# instructions that mark a code object's entry, not a line of its body
ENTRY = {"RESUME", "RETURN_GENERATOR", "COPY_FREE_VARS", "MAKE_CELL"}


def executable_lines(path: Path) -> set:
    """Lines of ``path`` that some instruction other than an entry one belongs to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(i.positions.lineno for i in dis.get_instructions(code)
                     if i.opname not in ENTRY and i.positions.lineno is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv=None) -> int:
    import pytest

    sources = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in sources}
    spool = tempfile.TemporaryDirectory(prefix="unrun_lines-")
    out = None  # in a forked process, the descriptor of its own file in the spool

    def in_child():
        nonlocal out
        out = os.open(os.path.join(spool.name, str(os.getpid())), os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def local(frame, event, arg):
        if event == "line":
            name, lineno = frame.f_code.co_filename, frame.f_lineno
            if lineno not in ran[name]:
                ran[name].add(lineno)
                if out is not None:
                    os.write(out, f"{lineno} {name}\n".encode())
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(PACKAGE.parent))
    os.register_at_fork(after_in_child=in_child)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(sys.argv[1:] if argv is None else argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    with spool:
        for path in Path(spool.name).iterdir():
            for entry in path.read_text(encoding="utf-8").splitlines():
                lineno, name = entry.split(" ", 1)
                ran[name].add(int(lineno))
    missing = total = 0
    for name, path in sources.items():
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for lineno in sorted(lines - ran[name]):
            missing += 1
            print(f"{path.relative_to(ROOT)}:{lineno}  {text[lineno - 1].strip()}")
    print(f"{missing} of {total} executable lines in {PACKAGE.relative_to(ROOT)} were not run",
          file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
