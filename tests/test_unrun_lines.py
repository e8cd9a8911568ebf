"""scripts/unrun_lines.py lists the package lines that a pytest run did not run, and only those."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def line_of(module: str, text: str, after: str = "") -> int:
    """The number of the first line of ``module`` that reads ``text``, past the first that starts with ``after``."""
    lines = [line.strip() for line in (ROOT / "src" / "volswitch" / module).read_text(encoding="utf-8").splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith(after))
    return lines.index(text, start) + 1


def test_unrun_lines_lists_what_the_readme_test_leaves_unrun():
    proc = subprocess.run(
        [sys.executable, "scripts/unrun_lines.py", "tests/test_readme.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = set(proc.stdout.splitlines())
    # the README example runs the estimation loop in this process, and no model calls the base class
    ran = line_of("switching.py", "observations = [float(y) for y in observations]")
    unrun = line_of("ssm.py", "raise NotImplementedError", after="def transition_batch(")
    assert not any(line.startswith(f"src/volswitch/switching.py:{ran}  ") for line in listed)
    assert f"src/volswitch/ssm.py:{unrun}  raise NotImplementedError" in listed
    assert "executable lines in src/volswitch were not run" in proc.stderr
