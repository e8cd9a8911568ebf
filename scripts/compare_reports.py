"""Compare the CSV reports of two runs, cell by cell.

For every CSV in either directory it prints whether the files are
byte-identical, the largest relative difference in a numeric cell (with
its row and column), and how many non-numeric cells differ.

    python scripts/compare_reports.py reports/before reports/after
"""

import csv
import math
import sys
from pathlib import Path


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def compare(old: Path, new: Path) -> str:
    if not (old.is_file() and new.is_file()):
        return f"only in {(old if old.is_file() else new).parent}"
    if old.read_bytes() == new.read_bytes():
        return "byte-identical"
    rows_old, rows_new = (list(csv.reader(p.read_text(encoding="utf-8").splitlines())) for p in (old, new))
    header = rows_old[0] if rows_old else []
    worst, where, text_diffs = 0.0, "", 0
    for i, (ra, rb) in enumerate(zip(rows_old, rows_new)):
        for j, (a, b) in enumerate(zip(ra, rb)):
            x, y = _number(a), _number(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                text_diffs += a != b
            elif x != y and abs(x - y) / max(abs(x), abs(y)) > worst:
                worst = abs(x - y) / max(abs(x), abs(y))
                where = f" at row {i}, column {header[j] if j < len(header) else j}"
    rows = "" if len(rows_old) == len(rows_new) else f"; rows {len(rows_old)} vs {len(rows_new)}"
    return f"differs: max rel diff {worst:.3g}{where}; {text_diffs} non-numeric cells differ{rows}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = Path(args[0]), Path(args[1])
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    for name in names:
        print(f"{name}: {compare(old_dir / name, new_dir / name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
