"""Run configuration: JSON file with parameters, OCP table paths and solver
settings.  Relative paths resolve against the config file's directory; OCP
entries may be the literal string "synthetic" to use the built-in tables."""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, ParameterError
from .observability import ObservabilityConfig
from .ocp import OcpSet, OcpTable, synthetic_ocp_set
from .params import CellParameters, DiscretizationConfig
from .phase import PhaseConfig
from .simulate import SolverConfig

_SECTIONS = {"parameters", "ocp", "discretization", "solver", "phase", "observability",
             "initial_soc"}


@dataclass
class RunConfig:
    """Validated bundle of everything a CLI run needs."""

    params: CellParameters
    disc: DiscretizationConfig
    solver: SolverConfig
    phase: PhaseConfig
    observability: ObservabilityConfig
    ocp: OcpSet
    initial_soc: float | None = None

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
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: a config is a JSON object of sections")
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
        soc = check_soc(raw.get("initial_soc"), f"{path}: initial_soc")
        ocp = _load_ocp(raw.get("ocp", {}), params, path.parent)
        return cls(params=params, disc=disc, solver=solver, phase=phase,
                   observability=obs, ocp=ocp, initial_soc=soc)


def check_soc(soc, name: str):
    """soc, if it is None (not given) or a number in [0, 1]; else a
    ConfigError that names where it came from (initial_soc or --soc)."""
    if soc is not None and not (_fits(soc, "float") and 0.0 <= soc <= 1.0):
        raise ConfigError(f"{name} must be a number in [0, 1], not {soc!r}")
    return soc


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field's annotation: an int field takes an
    int, a float field an int or a float, a bool field a bool and a str
    field a string, never a bool for a number; an optional field also takes
    null."""
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "str": str, "bool": bool}[kind])


def _section(raw: dict, name: str, cls):
    """The ``cls`` built from section ``name``; a key that is not one of
    its fields, or a value that does not fit the field's type (_fits), is
    rejected, naming the section and the key."""
    d = raw.get(name, {})
    if not isinstance(d, dict):
        raise ParameterError(f"section {name!r} must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(d) - set(types)
    if unknown:
        raise ParameterError(f"section {name!r}: unknown keys {sorted(unknown)}")
    for key, value in d.items():
        if not _fits(value, types[key]):
            raise ParameterError(f"section {name!r}: {key} must be {types[key]}, not {value!r}")
    return cls(**d)


def _load_ocp(section: dict, params: CellParameters, base_dir: Path) -> OcpSet:
    defaults = synthetic_ocp_set(params)
    tables = {"neg": defaults.neg, "pos_ch": defaults.pos_ch,
              "pos_dis": defaults.pos_dis}
    meta = {"neg": ("neg", "shared"), "pos_ch": ("pos", "ch"),
            "pos_dis": ("pos", "dis")}
    if not isinstance(section, dict):
        raise ConfigError("section 'ocp' must be a JSON object")
    for key, value in section.items():
        if key not in tables:
            raise ConfigError(f"unknown OCP table key {key!r}")
        if not isinstance(value, str):
            raise ConfigError(f"OCP table {key!r} must be a path string, not {value!r}")
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
