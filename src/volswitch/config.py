"""Flat key-value run configuration.

Files are plain ``key = value`` lines with ``#`` comments. Keys use dotted
sections (``garch.omega``, ``filters.ukf.alpha``); hyphens and underscores
are interchangeable. Unknown keys fail fast. ``data.columns.<name>`` maps
a vendor CSV header onto the canonical chain column ``<name>``, which must
be one of ``marketdata.CANONICAL_COLUMNS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bsgarch import RISK_TRANSITION_MODES, ContractSpec, GarchParams, ModelSpec, NoiseSpec
from .exceptions import FormatError, InvalidInputError
from .filters import FILTER_ORDER, SigmaPointParams
from .marketdata import CANONICAL_COLUMNS
from .switching import EstimationSettings


@dataclass
class RunConfig:
    garch_omega: float = 2e-6
    garch_alpha: float = 0.08
    garch_beta: float = 0.90
    calibrate_garch: bool = False
    q11: float = 1e-10
    q22: float = 1e-8
    noise_r: float | None = None  # None -> (0.01 * strike)^2
    risk_transition: str = "random-walk"
    dt: float = 1.0 / 252.0
    v0: float = 1e-4
    r0: float = 0.02
    p0_v: float = 1e-8
    p0_r: float = 1e-4
    pf_particles: int = 2000
    ukf_alpha: float = 1e-3
    ukf_beta: float = 2.0
    ukf_kappa: float = 0.0
    ess_threshold: float = 0.0  # 0 keeps every-step resampling
    pcrlb_particles: int = 1000
    independent_chains: bool = False
    columns: dict = field(default_factory=dict)

    def garch_params(self) -> GarchParams:
        return GarchParams(self.garch_omega, self.garch_alpha, self.garch_beta)

    def measurement_variance(self, strike: float) -> float:
        if self.noise_r is not None:
            return self.noise_r
        return (0.01 * strike) ** 2

    def model_spec(self, contract: ContractSpec) -> ModelSpec:
        noise = NoiseSpec(q=np.diag([self.q11, self.q22]), r=self.measurement_variance(contract.strike))
        return ModelSpec(
            garch=self.garch_params(),
            contract=contract,
            noise=noise,
            dt=self.dt,
            risk_transition=self.risk_transition,
        )

    def initial_belief(self):
        return np.array([self.v0, self.r0]), np.diag([self.p0_v, self.p0_r])

    def estimation_settings(self, mode="average", filters=FILTER_ORDER, seed=0):
        x0, p0 = self.initial_belief()
        return EstimationSettings(
            x0=x0,
            p0=p0,
            mode=mode,
            filters=tuple(filters),
            pf_particles=self.pf_particles,
            pcrlb_particles=self.pcrlb_particles,
            sigma_params=SigmaPointParams(self.ukf_alpha, self.ukf_beta, self.ukf_kappa),
            ess_threshold=self.ess_threshold if self.ess_threshold > 0.0 else None,
            independent_chains=self.independent_chains,
            seed=seed,
        )


def _as_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# canonical keys after normalization (hyphens -> underscores)
_KEY_MAP = {
    "garch.omega": ("garch_omega", float),
    "garch.alpha": ("garch_alpha", float),
    "garch.beta": ("garch_beta", float),
    "garch.calibrate": ("calibrate_garch", _as_bool),
    "noise.q11": ("q11", float),
    "noise.q22": ("q22", float),
    "noise.r": ("noise_r", float),
    "risk_transition": ("risk_transition", str),
    "dt": ("dt", float),
    "v0": ("v0", float),
    "r0": ("r0", float),
    "p0.v": ("p0_v", float),
    "p0.r": ("p0_r", float),
    "filters.n_particles": ("pf_particles", int),
    "filters.ukf.alpha": ("ukf_alpha", float),
    "filters.ukf.beta": ("ukf_beta", float),
    "filters.ukf.kappa": ("ukf_kappa", float),
    "filters.ess_threshold": ("ess_threshold", float),
    "pcrlb.n_particles": ("pcrlb_particles", int),
    "switch.independent_chains": ("independent_chains", _as_bool),
}

_COLUMNS_PREFIX = "data.columns."


def _finite(v) -> bool:
    return bool(np.isfinite(v))


def _positive(v) -> bool:
    return _finite(v) and v > 0.0


# checks on values read from a file, each reported at the line that set it
_CHECKS = (
    ("pf_particles", lambda v: v >= 2, "must be at least 2"),
    ("pcrlb_particles", lambda v: v >= 2, "must be at least 2"),
    ("ess_threshold", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("ukf_alpha", _positive, "must be positive"),
    ("ukf_beta", _finite, "must be finite"),
    # the sigma-point scale alpha^2 * (n + kappa) must be positive for the n = 2 states
    ("ukf_kappa", lambda v: _finite(v) and v > -2.0, "must be finite and greater than -2"),
    ("v0", _positive, "must be positive and finite"),
    ("r0", _finite, "must be finite"),
    ("p0_v", _positive, "must be positive and finite"),
    ("p0_r", _positive, "must be positive and finite"),
    ("q11", _positive, "must be positive and finite"),
    ("q22", _positive, "must be positive and finite"),
    ("noise_r", _positive, "must be positive and finite"),
    ("dt", _positive, "must be positive"),
    ("risk_transition", lambda v: v in RISK_TRANSITION_MODES, f"must be one of {RISK_TRANSITION_MODES}"),
)


def _normalize(key: str) -> str:
    return key.strip().lower().replace("-", "_")


def parse_pairs(text: str, source: str = "<config>"):
    """Yield (lineno, key, raw value) from key = value lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        if not key.strip():
            raise FormatError(f"{source}:{lineno}: empty key")
        yield lineno, key.strip(), value.strip()


def config_from_text(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    updates = {}
    where = {}  # attribute -> (line number, key as written)
    columns = {}
    for lineno, key, value in parse_pairs(text, source):
        norm = _normalize(key)
        if norm.startswith(_COLUMNS_PREFIX):
            name = norm[len(_COLUMNS_PREFIX):]
            if name not in CANONICAL_COLUMNS:
                raise InvalidInputError(f"{source}:{lineno}: unknown chain column {key!r}, not in {CANONICAL_COLUMNS}")
            columns[name] = value
            continue
        if norm not in _KEY_MAP:
            raise InvalidInputError(f"{source}:{lineno}: unknown config key {key!r}")
        attr, conv = _KEY_MAP[norm]
        try:
            updates[attr] = conv(value)
        except ValueError as e:
            raise FormatError(f"{source}:{lineno}: bad value for {key!r}: {e}") from e
        where[attr] = (lineno, key)
    if columns:
        updates["columns"] = columns
    cfg = replace(cfg, **updates)
    # surface invalid values immediately; the defaults all pass
    for attr, ok, what in _CHECKS:
        if attr in where and not ok(updates[attr]):
            lineno, key = where[attr]
            raise InvalidInputError(f"{source}:{lineno}: {key!r} {what}, got {updates[attr]!r}")
    try:
        cfg.garch_params()
    except InvalidInputError as e:
        # the defaults pass, so a file set at least one garch.* key; the
        # failing combination is reported at the last of them
        lineno = max(where[a][0] for a in where if a.startswith("garch_"))
        raise InvalidInputError(f"{source}:{lineno}: {e}") from e
    if cfg.ess_threshold > 0.0 and not cfg.independent_chains:
        # with shared chains the PF's cloud is re-seeded every step, so the
        # threshold could not change a result
        lineno, key = where["ess_threshold"]
        raise InvalidInputError(
            f"{source}:{lineno}: {key!r} needs 'switch.independent_chains' set to true"
        )
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read config {path}: {e}") from e
    return config_from_text(text, source=str(path))


def write_garch_fragment(path, params: GarchParams):
    """Write a calibrated-parameter fragment that load_config can ingest."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# calibrated GARCH(1,1) parameters (variance-targeting MLE)\n")
        fh.write(f"garch.omega = {params.omega!r}\n")
        fh.write(f"garch.alpha = {params.alpha!r}\n")
        fh.write(f"garch.beta = {params.beta!r}\n")
