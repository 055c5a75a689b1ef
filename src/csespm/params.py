"""Cell parameters and discretization settings.

Sign convention used throughout the package: I > 0 is discharge. On
discharge lithium leaves the negative electrode and enters the positive
electrode.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

FARADAY = 96485.33212  # C/mol
GAS_CONSTANT = 8.314462618  # J/(mol K)

DIRECTIONS = ("ch", "dis")
ELECTRODES = ("neg", "pos")
# field names of the stoichiometric limits, looked up per (electrode, point,
# direction) without formatting a string on every call
_THETA_NAMES = {(e, point, d): f"theta_{e[0]}_{point}_{d}" for e in ELECTRODES
                for point in ("0", "100", "alpha", "beta") for d in DIRECTIONS}


@dataclass(frozen=True)
class CellParameters:
    """Physical, geometric and transport constants of the cell.

    Stoichiometric windows are direction specific (charge vs discharge)
    because the positive electrode uses distinct open-circuit curves for
    the two directions.
    """

    # particle geometry and solid transport
    R_s_n: float = 8.10e-7      # m
    R_s_p: float = 1.67e-8      # m
    D_s_n: float = 1.28e-15     # m^2/s
    D_s_p: float = 4.05e-18     # m^2/s
    eps_n: float = 0.655
    eps_p: float = 0.681
    k_n: float = 2.02e-12       # m^2.5/(mol^0.5 s)
    k_p: float = 9.50e-13
    A_cell: float = 2.125       # m^2
    R_l: float = 1.54e-3        # ohm

    # layer thicknesses; L_n balances the electrode charge windows given
    # the stoichiometric limits below (not an identified value)
    L_n: float = 6.08e-5        # m
    L_s: float = 2.5e-5         # m
    L_p: float = 7.5e-5         # m

    # saturation concentrations and electrolyte
    c_s_max_n: float = 30555.0  # mol/m^3
    c_s_max_p: float = 22806.0
    c_e0: float = 1200.0
    D_e: float = 2.6e-10
    eps_e_n: float = 0.33
    eps_e_s: float = 0.50
    eps_e_p: float = 0.40
    t_plus: float = 0.38
    brugg: float = 1.5
    nu: float = 1.0             # electrolyte-potential lumped coefficient

    T: float = 298.15           # K
    F: float = FARADAY
    R_gas: float = GAS_CONSTANT

    # stoichiometric windows, charge direction
    theta_p_100_ch: float = 0.065
    theta_p_0_ch: float = 0.910
    theta_n_100_ch: float = 0.832
    theta_n_0_ch: float = 0.011
    theta_p_alpha_ch: float = 0.220
    theta_p_beta_ch: float = 0.817

    # stoichiometric windows, discharge direction
    theta_p_100_dis: float = 0.066
    theta_p_0_dis: float = 0.925
    theta_n_100_dis: float = 0.831
    theta_n_0_dis: float = 0.009
    theta_p_alpha_dis: float = 0.196
    theta_p_beta_dis: float = 0.804

    def __post_init__(self):
        self.validate()

    def validate(self):
        positive = (
            "R_s_n", "R_s_p", "D_s_n", "D_s_p", "k_n", "k_p", "A_cell",
            "L_n", "L_s", "L_p", "c_s_max_n", "c_s_max_p", "c_e0", "D_e",
            "T", "F", "R_gas", "R_l",
        )
        for name in positive:
            if not 0.0 < getattr(self, name) < np.inf:
                raise ParameterError(f"{name} must be positive and finite")
        if not np.isfinite([self.brugg, self.nu]).all():
            raise ParameterError("brugg and nu must be finite")
        for name in ("eps_n", "eps_p", "eps_e_n", "eps_e_s", "eps_e_p", "t_plus"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1)")
        for d in DIRECTIONS:
            a = getattr(self, f"theta_p_alpha_{d}")
            b = getattr(self, f"theta_p_beta_{d}")
            p100 = getattr(self, f"theta_p_100_{d}")
            p0 = getattr(self, f"theta_p_0_{d}")
            n100 = getattr(self, f"theta_n_100_{d}")
            n0 = getattr(self, f"theta_n_0_{d}")
            if not 0.0 < a < b < 1.0:
                raise ParameterError(f"need 0 < theta_p_alpha_{d} < theta_p_beta_{d} < 1")
            if not (p100 < a and b < p0):
                raise ParameterError(f"two-phase plateau must lie inside the positive window ({d})")
            if not 0.0 <= n0 < n100 <= 1.0:
                raise ParameterError(f"need 0 <= theta_n_0_{d} < theta_n_100_{d} <= 1 ({d})")

    # --- derived quantities -------------------------------------------------

    def a_s(self, electrode: str) -> float:
        """Specific interfacial area 3*eps/R_s [1/m]."""
        if electrode == "neg":
            return 3.0 * self.eps_n / self.R_s_n
        if electrode == "pos":
            return 3.0 * self.eps_p / self.R_s_p
        raise ParameterError(f"unknown electrode {electrode!r}")

    def c_s_max(self, electrode: str) -> float:
        return self.c_s_max_n if electrode == "neg" else self.c_s_max_p

    def D_s(self, electrode: str) -> float:
        return self.D_s_n if electrode == "neg" else self.D_s_p

    def R_s(self, electrode: str) -> float:
        return self.R_s_n if electrode == "neg" else self.R_s_p

    def L(self, electrode: str) -> float:
        return self.L_n if electrode == "neg" else self.L_p

    def k(self, electrode: str) -> float:
        return self.k_n if electrode == "neg" else self.k_p

    def theta(self, electrode: str, point: str, direction: str) -> float:
        """Stoichiometric limit, point in {'0','100','alpha','beta'}."""
        return getattr(self, _THETA_NAMES.get((electrode, point, direction))
                       or f"theta_{electrode[0]}_{point}_{direction}")

    def c_alpha(self, direction: str) -> float:
        """Li-poor plateau edge concentration of the positive electrode."""
        return self.theta("pos", "alpha", direction) * self.c_s_max_p

    def c_beta(self, direction: str) -> float:
        """Li-rich plateau edge concentration of the positive electrode."""
        return self.theta("pos", "beta", direction) * self.c_s_max_p

    def capacity_coulombs(self, direction: str = "dis") -> float:
        """Charge swept by the positive electrode over its full window [C]."""
        dtheta = abs(self.theta("pos", "0", direction) - self.theta("pos", "100", direction))
        return self.F * self.A_cell * self.L_p * self.eps_p * self.c_s_max_p * dtheta

    def current_for_c_rate(self, c_rate: float) -> float:
        """Current magnitude [A] for a positive, finite C-rate, on the
        discharge window."""
        if not 0.0 < c_rate < np.inf:
            raise ParameterError(f"C-rate must be positive and finite, not {c_rate!r}")
        return c_rate * self.capacity_coulombs() / 3600.0

    def replace(self, **changes) -> "CellParameters":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class ParameterColumns:
    """The parameters of B members, each field read as a (B, 1) column, with
    the accessors of CellParameters: the array kernels read B members the
    way they read one, with the same arithmetic per member.  Columns,
    accessor results and member subsets are built once and kept."""

    def __init__(self, members):
        self.members = tuple(members)
        self._kept: dict = {}

    def __getattr__(self, name: str):
        if name.startswith("__") or name in ("members", "_kept"):
            raise AttributeError(name)
        col = np.array([getattr(p, name) for p in self.members])[:, None]
        setattr(self, name, col)
        return col

    def _keep(self, key, make):
        out = self._kept.get(key)
        if out is None:
            out = self._kept[key] = make()
        return out

    def take(self, idx) -> "ParameterColumns":
        idx = tuple(idx)
        return self._keep(idx, lambda: ParameterColumns(self.members[i] for i in idx))


def _kept_accessor(name):
    method = getattr(CellParameters, name)
    return lambda self, *args: self._keep((name,) + args, lambda: method(self, *args))


for _name in ("a_s", "c_s_max", "D_s", "R_s", "L", "k", "theta", "c_alpha", "c_beta"):
    setattr(ParameterColumns, _name, _kept_accessor(_name))


# identified parameters differ per C-rate; keys are c_rate labels as used
# in dataset files ("C/4", "C/2", "1C")
DEFAULT_RATE_OVERRIDES = {
    "C/4": {},
    "C/2": {"D_s_n": 1.00e-10, "D_s_p": 5.45e-18, "k_n": 2.56e-12, "k_p": 6.00e-13},
    "1C": {"D_s_n": 1.42e-15, "D_s_p": 2.74e-18, "k_n": 4.71e-12, "k_p": 1.45e-12},
}


def params_for_rate(base: CellParameters, label: str | None) -> CellParameters:
    """Apply the per-C-rate parameter overrides for a dataset label."""
    if label is None or label not in DEFAULT_RATE_OVERRIDES:
        return base
    return base.replace(**DEFAULT_RATE_OVERRIDES[label])


@dataclass(frozen=True)
class DiscretizationConfig:
    """Spatial discretization: N_r solid CVs per particle, N_e electrolyte
    CVs split equally over anode/separator/cathode, scheme 'fvm' or 'fdm'."""

    N_r: int = 4
    N_e: int = 6
    scheme: str = "fvm"

    def __post_init__(self):
        if self.N_r < 2:
            raise ParameterError("N_r must be >= 2")
        if self.N_e < 3 or self.N_e % 3 != 0:
            raise ParameterError("N_e must be a multiple of 3, at least 3")
        if self.scheme not in ("fvm", "fdm"):
            raise ParameterError("scheme must be 'fvm' or 'fdm'")

    def electrolyte_split(self) -> tuple[int, int, int]:
        n = self.N_e // 3
        return (n, n, n)
