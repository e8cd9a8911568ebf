"""scripts/unrun_lines.py lists the package lines that a pytest run did not run, forked workers included, and only those."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def line_of(module: str, text: str, after: str = "") -> int:
    """The number of the first line of ``module`` that reads ``text``, past the first that starts with ``after``."""
    lines = [line.strip() for line in (ROOT / "src" / "volswitch" / module).read_text(encoding="utf-8").splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith(after))
    return lines.index(text, start) + 1


def test_unrun_lines_follows_forked_workers_and_lists_only_what_no_test_ran():
    proc = subprocess.run(
        [sys.executable, "scripts/unrun_lines.py", "tests/test_readme.py", "tests/test_workers.py",
         "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = {line.split("  ", 1)[0] for line in proc.stdout.splitlines() if line.startswith("src/")}
    # the README example runs the estimation loop in this process; the worker
    # tests run workers._run's target in a forked worker, and fork_cpus in a
    # daemonic pool worker
    ran = [
        ("switching.py", line_of("switching.py", "observations = [float(y) for y in observations]")),
        ("workers.py", line_of("workers.py", "target(theirs, *args)", after="def _run(")),
        ("workers.py", line_of("workers.py", "return 1", after="def fork_cpus(")),
    ]
    for module, lineno in ran:
        assert f"src/volswitch/{module}:{lineno}" not in listed
    # neither file fits a GARCH
    unrun = line_of("calibrate.py", 'raise InvalidInputError("returns must be a non-empty 1-d array")')
    assert f"src/volswitch/calibrate.py:{unrun}" in listed
    assert "executable lines in src/volswitch were not run" in proc.stderr
