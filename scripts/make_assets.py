#!/usr/bin/env python3
"""Regenerate the shipped assets: run config, OCP tables, load profiles.

Everything here is deterministic; rerunning reproduces the committed files.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from csespm.ocp import synthetic_negative_table, synthetic_positive_table  # noqa: E402
from csespm.params import CellParameters  # noqa: E402
from csespm.simulate import cc_profile, synthetic_dynamic_profile  # noqa: E402


def tables(params: CellParameters) -> dict:
    """Every shipped OCP table and load profile by file name."""
    files = {
        "ocp_neg.csv": synthetic_negative_table(),
        "ocp_pos_charge.csv": synthetic_positive_table(params, "ch"),
        "ocp_pos_discharge.csv": synthetic_positive_table(params, "dis"),
    }
    for c_rate, tag in ((0.25, "c4"), (0.5, "c2"), (1.0, "1c")):
        for direction in ("ch", "dis"):
            name = f"profile_{tag}_{'charge' if direction == 'ch' else 'discharge'}.csv"
            files[name] = cc_profile(params, c_rate, direction)
    files["profile_udds_synthetic.csv"] = synthetic_dynamic_profile(params)
    return files


def config(params: CellParameters) -> dict:
    """The shipped run config, as assets/config.json holds it."""
    return {
        "parameters": params.to_dict(),
        "ocp": {
            "neg": "ocp_neg.csv",
            "pos_ch": "ocp_pos_charge.csv",
            "pos_dis": "ocp_pos_discharge.csv",
        },
        "discretization": {"N_r": 4, "N_e": 6, "scheme": "fvm"},
        "solver": {"dt": 1.0, "event_tol": 1e-3,
                   "v_min": 2.0, "v_max": 3.65, "cutoffs_enabled": True},
        "phase": {"delta_init": 1e-3, "r_eps_rel": 1e-3, "shell_eps_rel": 1e-4,
                  "mass_tol": 1e-10},
        "observability": {"jacobian_step": 1e-6, "rank_tol": 1e-8, "stride_s": 30.0},
    }


def main():
    out = ROOT / "assets"
    out.mkdir(exist_ok=True)
    params = CellParameters()
    for name, table in tables(params).items():
        table.to_csv(out / name)
    (out / "config.json").write_text(json.dumps(config(params), indent=2) + "\n")
    print(f"assets written to {out}")


if __name__ == "__main__":
    main()
