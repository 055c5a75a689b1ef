"""Run configuration: JSON file with parameters, OCP table paths and solver
settings.  Relative paths resolve against the config file's directory; OCP
entries may be the literal string "synthetic" to use the built-in tables."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, ParameterError
from .observability import ObservabilityConfig
from .ocp import OcpSet, OcpTable, synthetic_ocp_set
from .params import CellParameters, DiscretizationConfig, DEFAULT_RATE_OVERRIDES
from .phase import PhaseConfig
from .simulate import SolverConfig

_SECTIONS = {"parameters", "rate_overrides", "ocp", "discretization",
             "solver", "phase", "observability", "initial_soc"}


@dataclass
class RunConfig:
    """Validated bundle of everything a CLI run needs."""

    params: CellParameters
    disc: DiscretizationConfig
    solver: SolverConfig
    phase: PhaseConfig
    observability: ObservabilityConfig
    ocp: OcpSet
    rate_overrides: dict = field(default_factory=lambda: dict(DEFAULT_RATE_OVERRIDES))
    initial_soc: float | None = None
    source: Path | None = None

    @classmethod
    def default(cls) -> "RunConfig":
        params = CellParameters()
        return cls(params=params,
                   disc=DiscretizationConfig(),
                   solver=SolverConfig(),
                   phase=PhaseConfig(),
                   observability=ObservabilityConfig(),
                   ocp=synthetic_ocp_set(params))

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        unknown = set(raw) - _SECTIONS
        if unknown:
            raise ConfigError(f"{path}: unknown config sections {sorted(unknown)}")
        try:
            params = _section(raw, "parameters", CellParameters)
            disc = _section(raw, "discretization", DiscretizationConfig)
            solver = _section(raw, "solver", SolverConfig)
            phase = _section(raw, "phase", PhaseConfig)
            obs = _section(raw, "observability", ObservabilityConfig)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        ocp = _load_ocp(raw.get("ocp", {}), params, path.parent)
        overrides = dict(DEFAULT_RATE_OVERRIDES)
        overrides.update(raw.get("rate_overrides", {}))
        return cls(params=params, disc=disc, solver=solver, phase=phase,
                   observability=obs, ocp=ocp, rate_overrides=overrides,
                   initial_soc=raw.get("initial_soc"), source=path)


def _section(raw: dict, name: str, cls):
    """The ``cls`` built from section ``name``; a key that is not one of
    its fields is rejected, naming the section and the key."""
    d = raw.get(name, {})
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ParameterError(f"section {name!r}: unknown keys {sorted(unknown)}")
    return cls(**d)


def _load_ocp(section: dict, params: CellParameters, base_dir: Path) -> OcpSet:
    defaults = synthetic_ocp_set(params)
    tables = {"neg": defaults.neg, "pos_ch": defaults.pos_ch,
              "pos_dis": defaults.pos_dis}
    meta = {"neg": ("neg", "shared"), "pos_ch": ("pos", "ch"),
            "pos_dis": ("pos", "dis")}
    for key, value in section.items():
        if key not in tables:
            raise ConfigError(f"unknown OCP table key {key!r}")
        if value == "synthetic":
            continue
        p = Path(value)
        if not p.is_absolute():
            p = base_dir / p
        if not p.exists():
            raise FileNotFoundError(f"OCP table not found: {p}")
        electrode, direction = meta[key]
        tables[key] = OcpTable.from_csv(p, electrode, direction)
    return OcpSet(neg=tables["neg"], pos_ch=tables["pos_ch"],
                  pos_dis=tables["pos_dis"])
