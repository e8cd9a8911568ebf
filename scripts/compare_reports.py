"""Compare the CSV reports of two runs, cell by cell.

For every CSV in either directory it prints whether the files are
byte-identical, the largest relative difference in a numeric cell (with
its row and column), and how many non-numeric cells differ.

Exits 1 when a CSV is in only one directory, when row counts differ, or
when any non-numeric cell (such as ``chosen``) differs; numeric drift
alone is printed and exits 0. A wrong argument count exits 2.

    python scripts/compare_reports.py reports/before reports/after
"""

import csv
import itertools
import math
import sys
from pathlib import Path


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def compare(old: Path, new: Path) -> tuple[str, bool]:
    """One line of findings for a pair of CSVs, and whether they differ beyond numeric drift."""
    if not (old.is_file() and new.is_file()):
        return f"only in {(old if old.is_file() else new).parent}", True
    if old.read_bytes() == new.read_bytes():
        return "byte-identical", False
    rows_old, rows_new = (list(csv.reader(p.read_text(encoding="utf-8").splitlines())) for p in (old, new))
    header = rows_old[0] if rows_old else []
    worst, where, text_diffs = 0.0, "", 0
    for i, (ra, rb) in enumerate(zip(rows_old, rows_new)):
        # a cell missing from one side counts as a non-numeric difference
        for j, (a, b) in enumerate(itertools.zip_longest(ra, rb)):
            x, y = _number(a), _number(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                text_diffs += a != b
            elif x != y and abs(x - y) / max(abs(x), abs(y)) > worst:
                worst = abs(x - y) / max(abs(x), abs(y))
                where = f" at row {i}, column {header[j] if j < len(header) else j}"
    same_rows = len(rows_old) == len(rows_new)
    rows = "" if same_rows else f"; rows {len(rows_old)} vs {len(rows_new)}"
    line = f"differs: max rel diff {worst:.3g}{where}; {text_diffs} non-numeric cells differ{rows}"
    return line, bool(text_diffs) or not same_rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = Path(args[0]), Path(args[1])
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    failed = False
    for name in names:
        line, differs = compare(old_dir / name, new_dir / name)
        print(f"{name}: {line}")
        failed |= differs
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
