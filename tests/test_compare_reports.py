import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = "t,chosen,phi\n0,EKF,1.5\n1,UKF,2.25\n"


def run(compare_reports, tmp_path, old_files, new_files):
    dirs = []
    for name, files in (("old", old_files), ("new", new_files)):
        d = tmp_path / name
        d.mkdir()
        for fname, text in files.items():
            (d / fname).write_text(text)
        dirs.append(str(d))
    return compare_reports.main(dirs)


def test_identical_reports_exit_zero(compare_reports, tmp_path, capsys):
    assert run(compare_reports, tmp_path, {"a.csv": BASE}, {"a.csv": BASE}) == 0
    assert "a.csv: byte-identical" in capsys.readouterr().out


def test_numeric_drift_alone_is_printed_and_exits_zero(compare_reports, tmp_path, capsys):
    drifted = BASE.replace("2.25", "2.2500000001")
    assert run(compare_reports, tmp_path, {"a.csv": BASE}, {"a.csv": drifted}) == 0
    out = capsys.readouterr().out
    assert "max rel diff 4.44e-11 at row 2, column phi" in out
    assert "0 non-numeric cells differ" in out


@pytest.mark.parametrize(
    "old, new",
    [
        ({"a.csv": BASE, "b.csv": BASE}, {"a.csv": BASE}),  # a CSV in one directory only
        ({"a.csv": BASE}, {"a.csv": BASE + "2,PF,3.0\n"}),  # row counts differ
        ({"a.csv": BASE}, {"a.csv": BASE.replace("UKF", "PF")}),  # a non-numeric cell differs
        ({"a.csv": BASE}, {"a.csv": BASE.replace("1,UKF,2.25", "1,UKF")}),  # a cell is missing
    ],
    ids=["only-in-one", "row-count", "non-numeric", "missing-cell"],
)
def test_structural_differences_exit_one(compare_reports, tmp_path, old, new):
    assert run(compare_reports, tmp_path, old, new) == 1


def test_wrong_argument_count_exits_two(compare_reports, capsys):
    assert compare_reports.main(["only-one"]) == 2
    assert "compare_reports.py" in capsys.readouterr().err
