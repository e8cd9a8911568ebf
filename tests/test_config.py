import re
from pathlib import Path

import numpy as np
import pytest

from volswitch.bsgarch import ContractSpec, GarchParams
from volswitch.config import _KEY_MAP, RunConfig, config_from_text, load_config, write_garch_fragment
from volswitch.exceptions import FormatError, InvalidInputError
from volswitch.filters import FilterId

SAMPLE = """
# model
garch.omega = 5e-6
garch.alpha = 0.07
garch.beta  = 0.88   # trailing comment
noise.q11 = 2e-10
noise.r = 0.04
v0 = 2e-4

filters.n-particles = 500      # hyphens normalize to underscores
filters.ess-threshold = 0.5
switch.independent-chains = yes
data.columns.quote_date = QUOTE_DT
data.columns.strike = STRIKE_PRC
"""


def test_parse_round_trip_of_known_keys():
    cfg = config_from_text(SAMPLE)
    assert cfg.garch_omega == 5e-6
    assert cfg.garch_alpha == 0.07
    assert cfg.garch_beta == 0.88
    assert cfg.q11 == 2e-10
    assert cfg.q22 == 1e-8  # untouched default
    assert cfg.noise_r == 0.04
    assert cfg.v0 == 2e-4
    assert cfg.pf_particles == 500
    assert cfg.ess_threshold == 0.5
    assert cfg.independent_chains is True
    assert cfg.columns == {"quote_date": "QUOTE_DT", "strike": "STRIKE_PRC"}


def test_unknown_key_fails_fast():
    with pytest.raises(InvalidInputError, match="unknown config key"):
        config_from_text("garch.omga = 1e-6")


def test_an_unknown_chain_column_is_rejected_at_its_line():
    # a misspelt name would be kept, and the loader would never read it
    expected = r"<config>:2: unknown chain column 'data.columns.implied_volatility'"
    with pytest.raises(InvalidInputError, match=expected):
        config_from_text("data.columns.implied_vol = IV\ndata.columns.implied_volatility = IV")
    assert config_from_text("data.columns.Implied-Vol = IV").columns == {"implied_vol": "IV"}


def test_malformed_lines_raise_with_location():
    with pytest.raises(FormatError, match="<config>:1"):
        config_from_text("garch.omega 1e-6")
    with pytest.raises(FormatError, match="empty key"):
        config_from_text(" = 3")
    with pytest.raises(FormatError, match="bad value"):
        config_from_text("garch.omega = sideways")
    with pytest.raises(FormatError, match="bad value"):
        config_from_text("switch.independent_chains = maybe")


def test_invalid_parameter_combinations_rejected():
    with pytest.raises(InvalidInputError):
        config_from_text("garch.alpha = 0.6\ngarch.beta = 0.5")  # persistence >= 1
    with pytest.raises(InvalidInputError):
        config_from_text("dt = 0")
    with pytest.raises(InvalidInputError):
        config_from_text("risk_transition = diagonal")


def test_measurement_variance_defaults_to_one_percent_of_strike():
    cfg = RunConfig()
    assert cfg.measurement_variance(100.0) == pytest.approx(1.0)
    assert cfg.measurement_variance(50.0) == pytest.approx(0.25)
    assert RunConfig(noise_r=0.09).measurement_variance(100.0) == 0.09


def test_model_spec_assembly():
    cfg = config_from_text("garch.omega = 4e-6\nnoise.q22 = 3e-8\nrisk_transition = literal")
    spec = cfg.model_spec(ContractSpec(strike=120.0, expiry_step=60))
    assert spec.garch.omega == 4e-6
    assert spec.risk_transition == "literal"
    np.testing.assert_allclose(spec.noise.q, np.diag([1e-10, 3e-8]))
    assert spec.noise.r == pytest.approx((0.01 * 120.0) ** 2)
    assert spec.annualization == pytest.approx(252.0)


def test_estimation_settings_translation():
    cfg = config_from_text(
        "filters.ess_threshold = 0.3\nfilters.ukf.alpha = 0.5\nswitch.independent_chains = true"
    )
    st = cfg.estimation_settings(mode="best", filters=(FilterId.EKF, FilterId.PF), seed=9)
    assert st.mode == "best"
    assert st.filters == (FilterId.EKF, FilterId.PF)
    assert st.seed == 9
    assert st.ess_threshold == 0.3
    assert st.sigma_params.alpha == 0.5
    np.testing.assert_array_equal(st.x0, [cfg.v0, cfg.r0])
    np.testing.assert_allclose(st.p0, np.diag([cfg.p0_v, cfg.p0_r]))


def test_zero_ess_threshold_means_resample_every_step():
    st = RunConfig().estimation_settings()
    assert st.ess_threshold is None


def test_load_config_missing_file_and_fragment_round_trip(tmp_path):
    with pytest.raises(FormatError):
        load_config(tmp_path / "absent.cfg")
    params = GarchParams(omega=3.217e-06, alpha=0.0912, beta=0.8633)
    frag = tmp_path / "fitted.cfg"
    write_garch_fragment(frag, params)
    cfg = load_config(frag)
    assert cfg.garch_params() == params


def test_a_utf8_bom_before_a_config_is_skipped(tmp_path):
    plain = tmp_path / "fitted.cfg"
    write_garch_fragment(plain, GarchParams(omega=3.217e-06, alpha=0.0912, beta=0.8633))
    with_bom = tmp_path / "bom.cfg"
    with_bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(with_bom) == load_config(plain)


# ---------------------------------------------------------------------------
# values that would fail only mid-run are rejected at load, with file and line


@pytest.mark.parametrize(
    "line",
    [
        "filters.n_particles = 1",
        "pcrlb.n_particles = 1",
        "filters.ess_threshold = 1.5",
        "filters.ess_threshold = -0.1",
        "filters.ukf.alpha = 0",
        "noise.q11 = -1e-10",
        "noise.q22 = 0",
        "noise.r = nan",
        "noise.r = inf",
        "risk_transition = diagonal",
        "dt = 0",
        "p0.v = -1e-8",
        "p0.v = inf",
        "p0.r = 0",
        "v0 = nan",
        "v0 = 0",
        "r0 = nan",
        "r0 = -inf",
        "filters.ukf.beta = nan",
        "filters.ukf.kappa = -3",
        "filters.ukf.kappa = -2",
        "filters.ukf.kappa = inf",
    ],
)
def test_invalid_value_is_rejected_at_its_line(line):
    key = line.split("=")[0].strip()
    text = f"# header\nv0 = 2e-4\n{line}\n"
    with pytest.raises(InvalidInputError, match=rf"^run\.cfg:3: '{re.escape(key)}' "):
        config_from_text(text, source="run.cfg")


def test_nonstationary_garch_is_rejected_at_its_last_line():
    text = "garch.alpha = 0.6\ngarch.beta = 0.5\nv0 = 2e-4\n"
    with pytest.raises(InvalidInputError, match=r"^run\.cfg:2: GARCH stationarity"):
        config_from_text(text, source="run.cfg")
    # order does not matter: the line reported is the last garch.* one
    text = "garch.beta = 0.5\n# comment\ngarch.alpha = 0.6\n"
    with pytest.raises(InvalidInputError, match=r"^run\.cfg:3: GARCH stationarity"):
        config_from_text(text, source="run.cfg")


def test_boundary_values_are_accepted():
    cfg = config_from_text(
        "filters.n_particles = 2\npcrlb.n_particles = 2\n"
        "filters.ess_threshold = 1\nfilters.ukf.alpha = 1e-6\nswitch.independent_chains = true\n"
        "v0 = 1e-12\nr0 = -0.05\np0.v = 1e-20\np0.r = 1e-20\n"
        "filters.ukf.beta = -1\nfilters.ukf.kappa = -1.99"
    )
    assert (cfg.pf_particles, cfg.pcrlb_particles, cfg.ess_threshold) == (2, 2, 1.0)
    assert (cfg.v0, cfg.r0, cfg.p0_v, cfg.p0_r) == (1e-12, -0.05, 1e-20, 1e-20)
    assert (cfg.ukf_beta, cfg.ukf_kappa) == (-1.0, -1.99)


def test_ess_threshold_without_independent_chains_is_rejected_at_its_line():
    # with shared chains the PF re-seeds every step, so the threshold is a no-op
    text = "v0 = 2e-4\nfilters.ess_threshold = 0.5\n"
    with pytest.raises(InvalidInputError, match=r"^run\.cfg:2: 'filters\.ess_threshold' needs"):
        config_from_text(text, source="run.cfg")
    with pytest.raises(InvalidInputError, match=r"^run\.cfg:2: "):
        config_from_text(text + "switch.independent_chains = false\n", source="run.cfg")
    # zero keeps every-step resampling and is allowed either way
    assert config_from_text("filters.ess_threshold = 0").ess_threshold == 0.0


def _readme_defaults():
    """{config key: default as written} from the README configuration table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        keys = []
        for part in cells[0].replace("`", "").split(", "):
            head, *tails = part.split("/")  # garch.omega/.alpha -> garch.omega, garch.alpha
            keys += [head] + [head.rsplit(".", 1)[0] + tail for tail in tails]
        values = re.split(r"\s*[/,]\s*", cells[1]) if len(keys) > 1 else [cells[1]]
        assert len(values) == len(keys), line
        rows.update(zip(keys, values))
    return rows


def test_readme_defaults_match_run_config():
    rows = _readme_defaults()
    assert set(rows) == set(_KEY_MAP)
    # defaults the table writes in words rather than as a config value
    phrases = {"(0.01 · strike)²": None, "1/252": 1.0 / 252.0, "off": 0.0}
    cfg = RunConfig()
    for key, text in rows.items():
        attr, conv = _KEY_MAP[key]
        value = phrases[text] if text in phrases else conv(text)
        assert value == getattr(cfg, attr), (key, text, getattr(cfg, attr))
