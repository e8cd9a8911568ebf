"""scripts/make_sample_data.py reproduces the shipped data/ byte for byte.

Any drift in the CSV writers or the simulator changes a regenerated file.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def test_sample_data_regenerates_byte_for_byte(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_sample_data.py"), "--out-dir", str(tmp_path)],
        check=True, capture_output=True,
    )
    shipped = sorted(p.name for p in DATA.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
