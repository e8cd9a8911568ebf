"""The benchmark's traced boundaries still name functions of the package.

``perfbench/spans.py`` wraps each boundary at a module attribute looked up
by name, so a rename in the package would otherwise surface only when the
traced benchmark runs. The file needs only the standard library and is
loaded by path, unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_boundary_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the file executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    boundaries = [(target, attr) for target, attr, _ in spans.BOUNDARIES] + list(spans.STEP_BOUNDARIES)
    assert len(boundaries) > len(spans.STEP_BOUNDARIES)
    for target, attr in boundaries:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{target}.{attr} is not a callable"
