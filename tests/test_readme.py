"""The README's library example runs as written, from the modules it imports."""

import re
from pathlib import Path

from volswitch.bsgarch import ContractSpec
from volswitch.config import RunConfig
from volswitch.marketdata import generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_gives_one_record_per_observation():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    cfg = RunConfig()
    spec = cfg.model_spec(ContractSpec(strike=100.0, expiry_step=252))
    truth = generate_synthetic(spec, 8, 100.0, (cfg.v0, cfg.r0), seed=0)
    namespace = {"observations": truth.observations, "exogenous": truth.exogenous}
    exec(block, namespace)
    assert len(namespace["records"]) == len(truth.observations)
