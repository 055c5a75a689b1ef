import contextlib
import io
import json
import math
import signal
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csespm import cli
from csespm import identify as identify_module
from csespm.cli import main
from csespm.identify import make_synthetic_dataset
from csespm.observability import ObservabilityConfig
from csespm.params import CellParameters, DiscretizationConfig
from csespm.phase import PhaseConfig
from csespm.records import read_csv_columns
from csespm.simulate import SolverConfig, cc_profile, read_result_csv

ASSETS = Path(__file__).resolve().parents[1] / "assets"


@pytest.fixture(scope="module")
def short_profile(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("profiles") / "c1_short.csv"
    cc_profile(params, 1.0, "ch", duration=900.0).to_csv(path)
    return path


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ArgumentError" and record["exit_code"] == 2
    assert "frobnicate" in record["message"]


def test_missing_profile_gives_exit_3(tmp_path, capsys):
    rc = main(["simulate", "--profile", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "FileNotFoundError"


def test_bad_config_gives_exit_4(tmp_path, short_profile, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"parameters": {"eps_p": 2.0}}')
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--profile", str(short_profile),
               "--out", str(out)])
    assert rc == 4
    assert not out.exists()   # no partial outputs on config failure
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 4


@pytest.mark.parametrize("key, value", [("method", "rk4"), ("max_explicit_substeps", 64),
                                        ("mass_tol", 1e-10), ("record_every", 7)])
def test_removed_solver_setting_gives_exit_4(tmp_path, short_profile, capsys, key, value):
    """A config that still selects an explicit method, its substep cap or
    row thinning, or sets the event mass tolerance under solver instead of
    phase, is rejected, naming the key."""
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"solver": {"dt": 1.0, key: value}}))
    rc = main(["simulate", "--config", str(cfg), "--profile", str(short_profile),
               "--out", str(tmp_path / "out")])
    assert rc == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and record["exit_code"] == 4
    assert repr(key) in record["message"]


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation ran")


@pytest.mark.parametrize("config, extra, needle", [
    ({"solver": {"event_tol": 0.0}}, [], "event_tol"),
    ({"solver": {"event_tol": -1.0}}, [], "event_tol"),
    ({"solver": {"event_tol": float("nan")}}, [], "event_tol"),
    ({"solver": {"dt": float("nan")}}, [], "solver dt"),
    ({"solver": {"dt": float("inf")}}, [], "solver dt"),
    ({"observability": {"jacobian_step": 0.0}}, [], "jacobian_step"),
    ({"observability": {"rank_tol": -1e-8}}, [], "rank_tol"),
    ({"observability": {"stride_s": 0.0}}, [], "stride_s"),
    ({}, ["--stride", "0"], "stride_s"),
    ({"observability": {"i_ddot": 0.0}}, [], "'i_ddot'"),
    ({"observability": {"current_scale": 1.0}}, [], "'current_scale'"),
    ({"discretization": {"N_theta": 4}}, [], "'N_theta'"),
    ({"parameters": {"bogus": 1.0}}, [], "'bogus'"),
    ({"observability": {"i_dot": 0.0}}, [], "'i_dot'"),
    ({"observability": {"smooth_ocp": True}}, [], "'smooth_ocp'"),
    ({"rate_overrides": {"C/4": {}}}, [], "'rate_overrides'"),
    ({"discretization": {"N_r": 2.5}}, [], "N_r"),
    ({"solver": {"v_min": "x"}}, [], "v_min"),
    ({"solver": {"cutoffs_enabled": "no"}}, [], "cutoffs_enabled"),
    ({"observability": {"stride_s": True}}, [], "stride_s"),
    ({"initial_soc": "a"}, [], "initial_soc"),
    ({"initial_soc": 5.0}, [], "initial_soc"),
    ({"ocp": {"neg": 5}}, [], "'neg'"),
    ({"parameters": {"nu": float("nan")}}, [], "nu must be finite"),
    ({"parameters": {"R_l": float("inf")}}, [], "R_l must be positive and finite"),
    ({}, ["--soc", "5"], "--soc"),
    ({}, ["--soc", "nan"], "--soc"),
    ({}, ["--soc", "inf"], "--soc"),
    ({}, ["--soc", "-3"], "--soc")])
def test_bad_setting_gives_exit_4_before_simulating(tmp_path, short_profile, capsys,
                                                    monkeypatch, config, extra, needle):
    """A non-positive or non-finite solver or observability value (a zero
    event_tol hangs the event bisection, a NaN dt fails in the time loop, a
    zero jacobian_step gives an empty sweep), a removed setting or section,
    an unknown key of any section, a value of the wrong type, a non-finite
    parameter, an initial SOC outside [0, 1] (in the config or as --soc)
    and an OCP entry that is not a path are rejected, naming the setting,
    before any simulation runs."""
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["observe", "--config", str(cfg), "--profile", str(short_profile),
               "--nr", "2", "--out", str(out), *extra])
    assert rc == 4
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 4
    assert needle in record["message"]


@pytest.fixture(scope="module")
def short_dataset(tmp_path_factory, params):
    """A 60 s C/4 discharge sampled every 10 s."""
    path = tmp_path_factory.mktemp("data") / "ds.csv"
    make_synthetic_dataset(params, DiscretizationConfig(N_r=4, N_e=6), 0.25, "dis",
                           duration=60.0, dt=10.0).to_csv(path)
    return path


@pytest.mark.parametrize("argv, error, needle", [
    (["cycle", "--crate", "0", "--cycles", "1"], "ParameterError", "C-rate"),
    (["cycle", "--crate", "-1", "--cycles", "1"], "ParameterError", "C-rate"),
    (["cycle", "--crate", "nan", "--cycles", "1"], "ParameterError", "C-rate"),
    (["cycle", "--crate", "1", "--cycles", "0"], "ParameterError", "cycle"),
    (["identify", "--subset", "c2-1c", "--seed", "-1"], "ConfigError", "seed"),
    (["identify", "--subset", "c2-1c", "--decades", "400"], "ParameterError", "decades"),
    (["identify", "--subset", "c2-1c", "--decades", "308"], "ParameterError", "decades"),
    (["identify", "--subset", "c2-1c", "--decades", "307"], "ParameterError", "bounds"),
    (["identify", "--subset", "c2-1c", "--decades", "0"], "ParameterError", "decades"),
    (["identify", "--subset", "c4", "--decades", "inf"], "ParameterError", "decades"),
    (["cycle", "--crate", "1e-300", "--cycles", "1"], "ParameterError", "steps")])
def test_bad_flag_gives_exit_4(tmp_path, short_dataset, capsys, monkeypatch, argv, error,
                               needle):
    """A C-rate that is not positive and finite, fewer than one cycle, a
    negative seed, bound decades outside (0, 308), decades that underflow
    a log-scale lower bound to 0, and a C-rate so small that its profile
    takes over simulate.MAX_STEPS steps exit 4 with the JSON record, before
    any simulation runs."""
    monkeypatch.setattr(cli, "simulate", _no_simulation)
    monkeypatch.setattr(identify_module, "simulate", _no_simulation)
    monkeypatch.setattr(identify_module, "simulate_many", _no_simulation)
    if argv[0] == "identify":
        argv = argv + ["--data", str(short_dataset)]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == error and record["exit_code"] == 4
    assert needle in record["message"]


def test_out_of_memory_gives_exit_6(tmp_path, short_profile, capsys, monkeypatch):
    """A command that runs out of memory (say, observe --nr 100000000000)
    exits 6 with the JSON record, not a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "simulate", exhausted)
    rc = main(["simulate", "--profile", str(short_profile), "--out", str(tmp_path / "out")])
    assert rc == 6
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "MemoryError", "message": "Unable to allocate 745. GiB",
                      "exit_code": 6}


@pytest.mark.parametrize("current", ["1e20", "-1e20"])
def test_absurd_current_exits_6(tmp_path, capsys, current):
    """A current that drives the front onto its radial clip within the
    smallest front step ends the run with exit 6 and the JSON record; it
    used to halve and restart that step about a million times."""
    profile = tmp_path / "absurd.csv"
    profile.write_text(f"time_s,current_A\n0,{current}\n10,0\n")
    previous = signal.signal(signal.SIGALRM, lambda *args: pytest.fail("the step hangs"))
    signal.alarm(60)
    try:
        rc = main(["simulate", "--profile", str(profile), "--soc", "0.5",
                   "--out", str(tmp_path / "out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 6
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["exit_code"] == 6


def test_simulate_command(tmp_path, short_profile):
    out = tmp_path / "sim"
    rc = main(["simulate", "--profile", str(short_profile), "--out", str(out),
               "--no-cutoffs"])
    assert rc == 0
    data = read_result_csv(out / "result.csv")
    assert len(data["time_s"]) == 901
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    events = read_csv_columns(out / "events.csv", (
        "time_s", "kind", "r_p_pre_m", "r_p_post_m", "pre_mass_mol", "post_mass_mol",
        "mass_error_rel"), text=("kind",))
    assert events["kind"] == summary["events"] == ["enter_two_phase"]
    assert 0.0 < events["time_s"][0] < 900.0
    assert events["mass_error_rel"][0] == pytest.approx(
        abs(events["post_mass_mol"][0] / events["pre_mass_mol"][0] - 1.0), abs=1e-9)


def test_simulate_with_shipped_assets(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(ASSETS / "config.json"),
               "--profile", str(ASSETS / "profile_c4_charge.csv"),
               "--out", str(out)])
    assert rc == 0
    data = read_result_csv(out / "result.csv")
    # full C/4 charge: SOC_p ends near 1 and the run passes through two-phase
    assert data["soc_p"][-1] == pytest.approx(1.0, abs=0.02)
    assert "two_phase" in set(data["regime"])


def test_shipped_tables_match_their_generator(tmp_path, params):
    """Every committed OCP table and load profile equals what
    scripts/make_assets.py writes for it, to CSV rounding, and the committed
    run config equals its config(params)."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "make_assets", ASSETS.parent / "scripts" / "make_assets.py")
    make_assets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_assets)
    tables = make_assets.tables(params)
    assert sorted(tables) == sorted(p.name for p in ASSETS.glob("*.csv"))
    for name, table in tables.items():
        table.to_csv(tmp_path / name)
        header = tuple((ASSETS / name).read_text().splitlines()[0].split(","))
        want = read_csv_columns(tmp_path / name, header)
        got = read_csv_columns(ASSETS / name, header)
        for col in header:
            np.testing.assert_allclose(got[col], want[col], rtol=1e-9, atol=0,
                                       err_msg=f"{name}: {col}")
    assert json.loads((ASSETS / "config.json").read_text()) == make_assets.config(params)


def test_cycle_command(tmp_path):
    out = tmp_path / "cycle"
    rc = main(["cycle", "--crate", "1.0", "--cycles", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "mass_report.json").read_text())
    assert report["max_drift_rel"] < 1e-8
    assert len(report["per_cycle"]["mass_pos_mol"]) == 2


def test_observe_command(tmp_path, short_profile):
    out = tmp_path / "obs"
    rc = main(["observe", "--profile", str(short_profile), "--nr", "2",
               "--out", str(out), "--stride", "120"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("time_s,soc_p,regime,rank")
    rows = [ln.split(",") for ln in lines[1:]]
    # constant current: full rank at every point
    assert all(r[3] == r[4] for r in rows)


def test_observe_takes_the_config_initial_soc(tmp_path, short_profile):
    """observe starts from the config's initial_soc when --soc is not
    given, as simulate does."""
    cfg = tmp_path / "soc.json"
    cfg.write_text(json.dumps({"initial_soc": 0.5}))
    sweeps = []
    for extra in (["--config", str(cfg)], ["--soc", "0.5"], []):
        out = tmp_path / f"obs{len(sweeps)}"
        rc = main(["observe", "--profile", str(short_profile), "--nr", "2", "--stride", "120",
                   "--out", str(out), *extra])
        assert rc == 0
        sweeps.append((out / "sweep.csv").read_text())
    assert sweeps[0] == sweeps[1] != sweeps[2]


def test_observe_summary_counts_skipped_points(tmp_path, short_profile, monkeypatch):
    """observe writes summary.json with the sweep's point count, each skipped
    point's time and reason, and whether the rank is full everywhere."""
    from csespm import observability
    real = observability.electrode_c_e_avg
    monkeypatch.setattr(observability, "electrode_c_e_avg",
                        lambda params, c_e, *args: -1.0 if c_e[0] == params.c_e0
                        else real(params, c_e, *args))
    out = tmp_path / "obs"
    rc = main(["observe", "--profile", str(short_profile), "--nr", "2", "--stride", "120",
               "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "summary.json").read_text()) == {
        "points": 7, "full_rank_everywhere": True,
        "skipped": [{"time_s": 0.0, "reason": "non-positive electrolyte concentration -1"}]}
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 7


def test_identify_command(tmp_path, params):
    ds = make_synthetic_dataset(params, DiscretizationConfig(N_r=4, N_e=6),
                                0.25, "dis", duration=1200.0, dt=10.0)
    data_path = tmp_path / "ds.csv"
    ds.to_csv(data_path)
    out = tmp_path / "fit"
    rc = main(["identify", "--data", str(data_path), "--subset", "c2-1c",
               "--seed", "1", "--budget", "10", "--out", str(out)])
    assert rc == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["names"] == ["D_s_p", "D_s_n", "k_p", "k_n"]
    assert fit["n_evals"] == 10
    # PENALTY_RMSE returns by cause, at most one per evaluation of the one dataset
    assert all(type(n) is int and n > 0 for n in fit["penalties"].values())
    assert sum(fit["penalties"].values()) <= 10


def test_identify_command_reads_phase_section(tmp_path, params):
    """identify simulates its candidates under the config's phase section:
    the true parameters fit their own C/4 discharge, but not once a thicker
    seeded shell (delta_init 0.05) moves their two-phase entry."""
    from csespm.identify import PENALTY_RMSE
    ds = make_synthetic_dataset(params, DiscretizationConfig(N_r=4, N_e=6),
                                0.25, "dis", duration=3600.0, dt=10.0)
    ds.to_csv(tmp_path / "ds.csv")
    rmse = {}
    for name, section in (("default", {}), ("moved", {"delta_init": 0.05})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"phase": section}))
        out = tmp_path / f"fit_{name}"
        rc = main(["identify", "--config", str(cfg), "--data", str(tmp_path / "ds.csv"),
                   "--subset", "c2-1c", "--budget", "1", "--out", str(out)])
        assert rc == 0
        rmse[name] = json.loads((out / "fit.json").read_text())["rmse_V"]
    assert rmse["default"] < 1e-9
    assert 1e-9 < rmse["moved"] < PENALTY_RMSE


@pytest.mark.parametrize("section, needle", [
    ({"mass_tol": -1.0}, "mass_tol"), ({"mass_tol": 0.0}, "mass_tol"),
    ({"delta_init": 1.0}, "delta_init"), ({"r_eps_rel": 0.0}, "r_eps_rel"),
    ({"shell_eps_rel": 2e-3}, "shell_eps_rel"), ({"bogus": 1.0}, "bogus")])
def test_bad_phase_section_gives_exit_4(tmp_path, short_profile, capsys, section, needle):
    """A phase section that breaks the transition settings, or names an
    unknown key, is a config error, never a run that scores penalties."""
    cfg = tmp_path / "phase.json"
    cfg.write_text(json.dumps({"phase": section}))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--profile", str(short_profile),
               "--out", str(out)])
    assert rc == 4
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 4
    assert needle in record["message"]


def test_compare_scheme_command(tmp_path, short_profile):
    out = tmp_path / "cmp"
    rc = main(["compare-scheme", "--profile", str(short_profile), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "comparison.json").read_text())
    assert summary["mass_drift_rel"]["fdm"] > 10 * summary["mass_drift_rel"]["fvm"]
    assert (out / "cond_sweep_fvm.csv").exists()
    volts = read_csv_columns(out / "voltage_comparison.csv",
                             ("time_s", "voltage_fvm_V", "voltage_fdm_V"))
    assert np.array_equal(volts["time_s"], np.arange(901.0))
    assert np.all((volts["voltage_fvm_V"] > 2.0) & (volts["voltage_fvm_V"] < 3.65))
    dv = volts["voltage_fvm_V"] - volts["voltage_fdm_V"]
    assert 1e3 * np.sqrt(np.mean(dv**2)) == pytest.approx(summary["voltage_rms_diff_mV"],
                                                           rel=1e-6, abs=1e-6)


def test_compare_scheme_takes_the_initial_soc(tmp_path, short_profile, capsys):
    """compare-scheme starts from --soc, else the config's initial_soc, as
    simulate does, and rejects an SOC outside [0, 1] with exit 4."""
    cfg = tmp_path / "soc.json"
    cfg.write_text(json.dumps({"initial_soc": 0.5}))
    volts = []
    for extra in (["--config", str(cfg)], ["--soc", "0.5"], []):
        out = tmp_path / f"cmp{len(volts)}"
        rc = main(["compare-scheme", "--profile", str(short_profile), "--out", str(out),
                   *extra])
        assert rc == 0
        volts.append((out / "voltage_comparison.csv").read_text())
    assert volts[0] == volts[1] != volts[2]
    capsys.readouterr()
    out = tmp_path / "bad"
    rc = main(["compare-scheme", "--profile", str(short_profile), "--out", str(out),
               "--soc", "5"])
    assert rc == 4 and not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == 4 and "--soc" in record["message"]


@pytest.mark.parametrize("command", ["simulate", "observe"])
@pytest.mark.parametrize("body, needle", [
    ("time_s,current_A\n0,1.0\n10,abc\n", "line 3"),
    ("time_s,current_A\n", "no data rows"),
    ("time_s,current_A\n0,0\n10,0\n", "every current is zero"),
])
def test_bad_profile_gives_exit_4(tmp_path, capsys, command, body, needle):
    profile = tmp_path / "profile.csv"
    profile.write_text(body)
    argv = [command, "--profile", str(profile), "--out", str(tmp_path / "out")]
    if command == "observe":
        argv += ["--nr", "2"]
    rc = main(argv)
    assert rc == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and record["exit_code"] == 4
    assert str(profile) in record["message"] and needle in record["message"]


@pytest.mark.parametrize("body, needle", [
    ("time_s,current_A,voltage_V\n0,1.0,3.3\n10,abc,3.3\n", "line 3"),
    ("time_s,current_A,voltage_V\n0,1.0,3.3\n10,1.0\n", "line 3"),
    ("time_s,current_A,voltage_V\n", "no data rows"),
])
def test_bad_dataset_gives_exit_4(tmp_path, capsys, body, needle):
    data = tmp_path / "data.csv"
    data.write_text(body)
    rc = main(["identify", "--data", str(data), "--subset", "c2-1c", "--budget", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and record["exit_code"] == 4
    assert str(data) in record["message"] and needle in record["message"]


def test_simulate_summary_shows_counters(tmp_path, short_profile):
    out = tmp_path / "sim"
    assert main(["simulate", "--profile", str(short_profile), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counters"] == {"ocp_extrapolations": 0, "event_cap_hits": 0,
                                   "front_floor_accepts": 0, "bisection_probes": 10,
                                   "front_halvings": 0, "two_phase_substeps": 503}


@pytest.mark.parametrize("body, needle", [
    ("theta,volts\n0,3.6\n0.5,abc\n1,3.0\n", "line 3"),
    ("theta,volts\n0,3.6\n0.5\n1,3.0\n", "line 3"),
    ("theta,volts\n", "no data rows"),
])
def test_bad_ocp_table_gives_exit_4(tmp_path, short_profile, capsys, body, needle):
    table = tmp_path / "ocp_bad.csv"
    table.write_text(body)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ocp": {"pos_ch": "ocp_bad.csv"}}))
    rc = main(["simulate", "--config", str(cfg), "--profile", str(short_profile),
               "--out", str(tmp_path / "out")])
    assert rc == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and record["exit_code"] == 4
    assert str(table) in record["message"] and needle in record["message"]


def test_nan_dataset_voltage_gives_exit_4(tmp_path, params, capsys):
    ds = make_synthetic_dataset(params, DiscretizationConfig(N_r=4, N_e=6),
                                0.25, "dis", duration=600.0, dt=10.0)
    data = tmp_path / "ds.csv"
    ds.to_csv(data)
    lines = data.read_text().splitlines()
    time_s, current, _ = lines[5].split(",")
    lines[5] = f"{time_s},{current},nan"
    data.write_text("\n".join(lines) + "\n")
    rc = main(["identify", "--data", str(data), "--subset", "c2-1c", "--budget", "4",
               "--out", str(tmp_path / "fit")])
    assert rc == 4
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ParameterError" and "1.5-4.0 V" in record["message"]


# every key of every config section, a few unknown ones, and the values each
# may take: the pool holds no tiny positive number and no large count, which
# would ask for huge step counts or matrices
_FUZZ_KEYS = [(section, f.name) for section, cls in (
    ("parameters", CellParameters), ("discretization", DiscretizationConfig),
    ("solver", SolverConfig), ("phase", PhaseConfig), ("observability", ObservabilityConfig))
    for f in fields(cls)]
_FUZZ_KEYS += [("ocp", key) for key in ("neg", "pos_ch", "pos_dis")]
_FUZZ_KEYS += [("initial_soc", None), ("solver", "bogus"), ("bogus", None)]
_FUZZ_POOL = [-1, 0, 1, 2.5, 3, math.nan, math.inf, True, "x", None, [1, 2]]


@pytest.fixture(scope="module")
def fuzz_profile(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("fuzz") / "profile.csv"
    cc_profile(params, 1.0, "dis", duration=20.0).to_csv(path)
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_POOL)),
                min_size=1, max_size=4))
def test_config_fuzz_exits_with_a_record(fuzz_profile, entries):
    """`simulate` under a config with any keys set to any values of the pool
    ends with a documented exit code, never a traceback: every nonzero exit
    writes its JSON error record, and a zero exit a finite final voltage."""
    config: dict = {}
    for (section, key), value in entries:
        if key is None:
            config[section] = value
        elif isinstance(config.get(section), dict):
            config[section][key] = value
        else:
            config[section] = {key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["simulate", "--config", str(path), "--profile", str(fuzz_profile),
                       "--out", str(out)])
        assert rc in (0, 3, 4, 5, 6), config
        if rc:
            assert json.loads(err.getvalue().strip().splitlines()[-1])["exit_code"] == rc
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert math.isfinite(summary["final_voltage_V"]), config


# the required and the optional flags of each command and the values each
# may take; no pool value runs more than a few hundred steps or allocates
# more than a few MB (`cycle` runs at dt = 60 s, so 2 cycles at 1C are 240
# steps; the tiny C-rate is rejected before its step grid is built; no
# large N_r)
_SOCS = ["-3", "0", "0.5", "1", "5", "nan", "inf", "x"]
_FLAG_POOLS = {
    "simulate": ({}, {"--soc": _SOCS, "--no-cutoffs": [None]}),
    "cycle": ({"--crate": ["-1", "0", "1e-300", "1", "4", "nan", "inf", "x"],
               "--cycles": ["-1", "0", "1", "2", "1.5"]}, {"--enforce-cutoffs": [None]}),
    "observe": ({"--nr": ["-1", "1", "2", "3", "x"]},
                {"--scheme": ["fvm", "fdm", "fem"], "--soc": _SOCS,
                 "--stride": ["-1", "0", "5", "nan", "inf", "1e-300"]}),
    "identify": ({"--subset": ["c4", "c2-1c", "x"]},
                 {"--seed": ["-1", "0", "7", str(2**70)], "--budget": ["-1", "0", "1", "3"],
                  "--decades": ["-1", "0", "0.5", "20", "307", "308", "400", "nan",
                               "inf"]}),
    "compare-scheme": ({}, {"--soc": _SOCS, "--nr": ["-1", "1", "2", "3", "x"]}),
}


def _flag_argv(command: str, flags: dict) -> list:
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


_FLAG_ARGVS = st.one_of(*(
    st.fixed_dictionaries({f: st.sampled_from(v) for f, v in required.items()},
                          optional={f: st.sampled_from(v) for f, v in optional.items()})
    .map(lambda flags, command=command: _flag_argv(command, flags))
    for command, (required, optional) in _FLAG_POOLS.items()))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, fuzz_profile, short_dataset):
    """The inputs each command reads besides its flags."""
    config = tmp_path_factory.mktemp("fuzz_flags") / "dt60.json"
    config.write_text(json.dumps({"solver": {"dt": 60.0}}))
    return {"simulate": ["--profile", str(fuzz_profile)],
            "cycle": ["--config", str(config)],
            "observe": ["--profile", str(fuzz_profile)],
            "identify": ["--data", str(short_dataset)],
            "compare-scheme": ["--profile", str(fuzz_profile)]}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_FLAG_ARGVS)
def test_flag_fuzz_exits_with_a_record(fuzz_inputs, argv):
    """Each command with its required flags and any of its optional ones set
    to any value of their pools ends with a documented exit code, never a
    traceback, and every nonzero exit (a usage error too) writes its JSON
    error record."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = main(argv + fuzz_inputs[argv[0]] + ["--out", str(Path(tmp) / "out")])
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 2, 3, 4, 5, 6), argv
        if rc:
            assert json.loads(err.getvalue().strip().splitlines()[-1])["exit_code"] == rc
