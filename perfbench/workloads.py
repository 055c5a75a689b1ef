"""The four workloads: inputs made from the seed, one round of work, and the
checks on its outputs.

Every workload uses the FVM scheme with N_e = 6 and the parameters and OCP
tables of assets/config.json.  A round repeats the same operations on the
same inputs, so counts per round repeat exactly.  The checks compare against
quantities computed here (coulomb count, lithium content, Kalman rank, the
known true parameters) or against properties the method must have, never
against a stored copy of the program's output.
"""
from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np

FOUR_THIRDS_PI = 4.0 / 3.0 * math.pi


class Program:
    """The csespm modules, looked up at call time so that the traced run's
    wrappers are the ones called.  The package attribute csespm.simulate is
    the function simulate, so modules are reached through importlib."""

    def __init__(self):
        for name in ("simulate", "observability", "identify", "params",
                     "config", "systems"):
            setattr(self, name, importlib.import_module(f"csespm.{name}"))
        # count PENALTY_RMSE returns of the identification objective; one
        # comparison per evaluation, so it stays on in the untraced run
        self.penalties = 0
        self.voltage_rmse = rmse = self.identify.voltage_rmse
        penalty = self.identify.PENALTY_RMSE

        def counted(*args, **kwargs):
            out = rmse(*args, **kwargs)
            if out == penalty:
                self.penalties += 1
            return out

        self.identify.voltage_rmse = counted


# --- checks shared by the simulation workloads ----------------------------------

def coulomb_count(profile, times):
    """Integral of the zero-order-hold current from the start to each time."""
    cum = np.concatenate([[0.0], np.cumsum(np.diff(profile.times) * profile.currents[:-1])])
    return np.interp(times, profile.times, cum)


def shell_volumes(r_inner, R, n):
    """Volumes of n equal-width spherical shells between r_inner and R."""
    faces = r_inner[:, None] + (R - r_inner)[:, None] * np.linspace(0.0, 1.0, n + 1)
    return FOUR_THIRDS_PI * np.diff(faces**3, axis=1)


def electrode_lithium(res, p):
    """(positive, negative, electrolyte) lithium [mol] of every recorded state."""
    n_pos, n_neg = res.pos_c.shape[1], res.neg_c.shape[1]
    r_p = res.r_p * p.R_s_p
    two_phase = r_p > 0.0
    core = np.where(two_phase, FOUR_THIRDS_PI * r_p**3 * res.core_conc, 0.0)
    pos = (shell_volumes(r_p, np.full_like(r_p, p.R_s_p), n_pos) * res.pos_c).sum(axis=1) + core
    neg = (shell_volumes(np.zeros_like(r_p), np.full_like(r_p, p.R_s_n), n_neg)
           * res.neg_c).sum(axis=1)
    pos *= p.eps_p * p.A_cell * p.L_p / (FOUR_THIRDS_PI * p.R_s_p**3)
    neg *= p.eps_n * p.A_cell * p.L_n / (FOUR_THIRDS_PI * p.R_s_n**3)
    split = res.meta["split"]
    widths = np.repeat([p.L_n / split[0], p.L_s / split[1], p.L_p / split[2]], split)
    porosity = np.repeat([p.eps_e_n, p.eps_e_s, p.eps_e_p], split)
    elec = res.elec_c @ (p.A_cell * widths * porosity)
    return pos, neg, elec


def check_trajectory(res, profile, p, mass_tol):
    """Mass balance, transition audits, concentration bounds and completion."""
    bad = []
    if res.status != "completed" or abs(res.time[-1] - profile.times[-1]) > 1e-9:
        bad.append(f"run stopped at t={res.time[-1]:.1f}s with status {res.status}, "
                   f"profile ends at {profile.times[-1]:.1f}s")
    q = coulomb_count(profile, res.time) / p.F
    pos, neg, elec = electrode_lithium(res, p)
    sat_p = p.c_s_max_p * p.eps_p * p.A_cell * p.L_p
    sat_n = p.c_s_max_n * p.eps_n * p.A_cell * p.L_n
    worst = {"positive": np.max(np.abs(pos - pos[0] - q)) / sat_p,
             "negative": np.max(np.abs(neg - neg[0] + q)) / sat_n,
             "electrolyte": np.max(np.abs(elec - elec[0])) / elec[0]}
    for where, err in worst.items():
        if not err <= 1e-11:
            bad.append(f"{where} lithium off the coulomb count by {err:.3e} (> 1e-11)")
    for ev in res.events:
        if ev.kind == "sign_flip":
            continue
        err = abs(ev.post_mass - ev.pre_mass) / abs(ev.pre_mass)
        if not err <= mass_tol:
            bad.append(f"{ev.kind} at t={ev.time:.1f}s changed the particle lithium "
                       f"by {err:.3e} (> {mass_tol:g})")
    for where, c, cmax in (("positive", res.pos_c, p.c_s_max_p),
                           ("negative", res.neg_c, p.c_s_max_n)):
        if not (np.all(c >= 0.0) and np.all(c <= cmax)):
            bad.append(f"{where} concentration left [0, {cmax:g}]: "
                       f"{np.nanmin(c):.6g} .. {np.nanmax(c):.6g}")
    if not np.all(res.elec_c > 0.0):
        bad.append(f"electrolyte concentration reached {np.nanmin(res.elec_c):.6g}")
    return bad


# --- the workloads ----------------------------------------------------------------

class _Trajectory:
    """A workload whose round is one simulate call."""

    ops_per_round = 1

    def run_round(self):
        cfg = self.cfg
        return self.prog.simulate.simulate(self.profile, self.init, cfg.params, self.disc,
                                           self.solver, ocp=cfg.ocp, phase_cfg=cfg.phase)

    def failed(self, res):
        return 0


class CycleC4(_Trajectory):
    """One equal-Ah C/4 charge/discharge cycle from SOC 0, N_r = 4, dt = 1 s,
    cutoffs off: criterion 1's fixture with one cycle.  The inputs do not
    depend on the seed."""

    name = "cycle_c4"
    C_RATE = 0.25

    def __init__(self, prog, cfg, seed):
        self.prog, self.cfg = prog, cfg
        sim = prog.simulate
        self.disc = prog.params.DiscretizationConfig(N_r=4, N_e=6)
        self.solver = dataclasses.replace(cfg.solver, dt=1.0, cutoffs_enabled=False)
        self.profile = sim.cycle_profile(cfg.params, self.C_RATE, 1)
        self.init = sim.initial_state(cfg.params, self.disc, 0.0, "ch")
        self.sim_seconds_per_round = self.profile.duration

    def check(self, res):
        p = self.cfg.params
        bad = check_trajectory(res, self.profile, p, self.cfg.phase.mass_tol)
        half = 3600.0 / self.C_RATE
        end = min(int(np.searchsorted(res.time, 2.0 * half)), len(res.time) - 1)
        pos, neg, _ = electrode_lithium(res, p)
        sat_p = p.c_s_max_p * p.eps_p * p.A_cell * p.L_p
        sat_n = p.c_s_max_n * p.eps_n * p.A_cell * p.L_n
        ret = max(abs(pos[end] - pos[0]) / sat_p, abs(neg[end] - neg[0]) / sat_n)
        if not ret <= 1e-6:
            bad.append(f"bulk did not return over the cycle: {ret:.3e} (> 1e-6)")
        for k, (a, b) in enumerate(((0.0, half), (half, 2.0 * half))):
            kinds = [e.kind for e in res.events if a <= e.time < b]
            if kinds != ["enter_two_phase", "exit_two_phase"]:
                bad.append(f"half-cycle {k} events {kinds}, expected one plateau "
                           f"entry and one exit")
        return bad


def discharge_to_charge_reversals(currents):
    signs = np.sign(currents[currents != 0.0])
    return int(np.sum((signs[:-1] > 0.0) & (signs[1:] < 0.0)))


class DriveHold(_Trajectory):
    """A charge-sustaining synthetic drive cycle (10 s bursts with
    regeneration and rests, mean_c = 0) from SOC 0.5, N_r = 4, dt = 1 s,
    cutoffs on.

    Nearly all the time goes into the discharge-to-charge reversals inside
    two-phase: each costs about 1900 two-phase substeps, and a 1200 s
    profile holds 14 to 21 of them.  So that every seed asks for the same
    work, the seed's profile is the first of the stream
    synthetic_dynamic_profile(seed=SeedSequence([seed, j])), j = 0, 1, ...,
    with exactly REVERSALS such reversals.
    """

    name = "drive_hold"
    DURATION = 1200.0
    REVERSALS = 17

    def __init__(self, prog, cfg, seed):
        self.prog, self.cfg = prog, cfg
        sim = prog.simulate
        self.disc = prog.params.DiscretizationConfig(N_r=4, N_e=6)
        self.solver = dataclasses.replace(cfg.solver, dt=1.0, cutoffs_enabled=True)
        for j in range(10_000):
            self.profile_seed = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
            self.profile = sim.synthetic_dynamic_profile(
                cfg.params, duration=self.DURATION, seed=self.profile_seed, mean_c=0.0)
            if discharge_to_charge_reversals(self.profile.currents[:-1]) == self.REVERSALS:
                break
        else:
            raise RuntimeError(f"no profile with {self.REVERSALS} reversals for seed {seed}")
        self.init = sim.initial_state(cfg.params, self.disc, 0.5, "dis")
        self.sim_seconds_per_round = self.profile.duration

    def check(self, res):
        return check_trajectory(res, self.profile, self.cfg.params, self.cfg.phase.mass_tol)


class Observe1C:
    """The path of `csespm observe`: a 1C charge from SOC 0 at N_r = 3, then
    the observability sweep at the configured 30 s stride (121 points).
    One operation is one sweep point; a skipped point counts as failed.
    The inputs do not depend on the seed."""

    name = "observe_1c"
    N_R = 3
    COND_TOL = 0.02     # |log10 cond| difference allowed against the Kalman matrix

    def __init__(self, prog, cfg, seed):
        self.prog, self.cfg = prog, cfg
        sim = prog.simulate
        self.disc = prog.params.DiscretizationConfig(N_r=self.N_R, N_e=6)
        self.solver = dataclasses.replace(cfg.solver, cutoffs_enabled=False)
        self.profile = sim.cc_profile(cfg.params, 1.0, "ch")
        self.init = sim.initial_state(cfg.params, self.disc, 0.0, "ch")
        self.stride = cfg.observability.stride_s
        times = self.profile.times[0] + self.solver.dt * np.arange(
            int(round(self.profile.duration / self.solver.dt)) + 1)
        self.expected_times = self._stride_points(times)
        self.ops_per_round = len(self.expected_times)
        self.sim_seconds_per_round = self.profile.duration

    def _stride_points(self, times):
        picked, next_t = [], -math.inf
        for t in times:
            if t >= next_t:
                picked.append(float(t))
                next_t = t + self.stride
        return picked

    def run_round(self):
        cfg, prog = self.cfg, self.prog
        res = prog.simulate.simulate(self.profile, self.init, cfg.params, self.disc,
                                     self.solver, ocp=cfg.ocp, phase_cfg=cfg.phase)
        sw = prog.observability.sweep(res, cfg.params, cfg.observability, ocp=cfg.ocp,
                                      scheme="fvm")
        return res, sw

    def failed(self, out):
        return self.ops_per_round - len(out[1].points)

    def check(self, out):
        res, sw = out
        bad = []
        got = [pt.time for pt in sw.points]
        if got != self.expected_times:
            missing = sorted(set(self.expected_times) - set(got))
            bad.append(f"{len(missing)} stride points yielded no sweep point: {missing[:5]}")
        for pt in sw.points:
            if pt.rank > pt.full_rank_needed:
                bad.append(f"t={pt.time:.0f}s rank {pt.rank} > state dimension")
            if math.isfinite(pt.cond_scaled) != (pt.rank == pt.full_rank_needed):
                bad.append(f"t={pt.time:.0f}s cond {pt.cond_scaled} with rank "
                           f"{pt.rank}/{pt.full_rank_needed}")
        one_phase = [pt for pt in sw.points if pt.regime != "two_phase"]
        if not one_phase:
            bad.append("no one-phase sweep point to compare with the Kalman matrix")
        for pt in one_phase:
            rank, log_cond = self.kalman(res, int(np.searchsorted(res.time, pt.time)))
            if rank != pt.rank:
                bad.append(f"t={pt.time:.0f}s rank {pt.rank}, Kalman matrix rank {rank}")
            elif math.isfinite(log_cond) and not abs(log_cond - pt.log10_cond_scaled) <= self.COND_TOL:
                bad.append(f"t={pt.time:.0f}s log10 cond {pt.log10_cond_scaled:.4f}, "
                           f"Kalman matrix {log_cond:.4f}")
        return bad

    def kalman(self, res, i):
        """Rank and log10 cond of the scaled [C; CA; CA^2] of the one-phase
        linear pair at row i: A from build_one_phase_solid_system, C the
        central difference of the positive output map."""
        cfg, prog = self.cfg, self.prog
        p = cfg.params
        state = res.state_at(i)
        split = res.meta["split"]
        c_e_avg = float(np.mean(state.elec[split[0] + split[1]:]))
        _, h, x0, scales = prog.observability.positive_model(
            state, p, cfg.ocp, c_e_avg, cfg.observability, "fvm")
        A = prog.systems.build_one_phase_solid_system(p, "pos", self.N_R).A
        u = float(res.current[i])
        C = np.empty(len(x0))
        for j in range(len(x0)):
            d = 1e-5 * scales[j]
            xp, xm = x0.copy(), x0.copy()
            xp[j] += d
            xm[j] -= d
            C[j] = (h(xp, u) - h(xm, u)) / (2.0 * d)
        rows = [C]
        for _ in range(len(x0) - 1):
            rows.append(rows[-1] @ A)
        O = np.vstack(rows) * scales[None, :]
        s = np.linalg.svd(O, compute_uv=False)
        rank = int(np.sum(s > cfg.observability.rank_tol * s[0] * max(O.shape)))
        log_cond = math.log10(s[0] / s[-1]) if rank == len(x0) else math.inf
        return rank, log_cond


class IdentifyPso:
    """A particle-swarm fit of (D_s_p, k_p) to a synthetic C/4 discharge made
    with the true parameters, N_r = 4, dt = 10 s, from criterion 11's start
    point (D_s_p x 3, k_p / 4), swarm seed = the benchmark seed, budget 160
    evaluations.  One operation is one objective evaluation; a PENALTY_RMSE
    return counts as failed."""

    name = "identify_pso"
    BUDGET = 160
    RECOVERY_TOL = 0.20

    def __init__(self, prog, cfg, seed):
        self.prog, self.cfg, self.seed = prog, cfg, seed
        ident = prog.identify
        p = cfg.params
        self.disc = prog.params.DiscretizationConfig(N_r=4, N_e=6)
        self.solver = dataclasses.replace(cfg.solver, dt=10.0, cutoffs_enabled=False)
        self.dataset = ident.make_synthetic_dataset(
            p, self.disc, 0.25, "dis", duration=3600.0, dt=10.0, c_rate_label="C/4",
            solver=self.solver, ocp=cfg.ocp)
        self.subset = ident.ParameterSubset.preset("c2-1c", p, decades=1.0).subset(
            ("D_s_p", "k_p"))
        self.start = p.replace(D_s_p=p.D_s_p * 3.0, k_p=p.k_p / 4.0)
        self.ops_per_round = self.BUDGET
        self.sim_seconds_per_round = self.BUDGET * self.dataset.profile.duration

    def run_round(self):
        prog = self.prog
        prog.penalties = 0
        fit = prog.identify.identify([self.dataset], self.subset, self.start, self.disc,
                                     self.solver, seed=self.seed, budget=self.BUDGET,
                                     ocp=self.cfg.ocp)
        return fit, prog.penalties

    def failed(self, out):
        return out[1]

    def check(self, out):
        fit, _ = out
        p = self.cfg.params
        bad = []
        for name in ("D_s_p", "k_p"):
            err = abs(getattr(fit.best_params, name) / getattr(p, name) - 1.0)
            if not err <= self.RECOVERY_TOL:
                bad.append(f"{name} off the true value by {100 * err:.1f}% (> 20%)")
        again = self.prog.voltage_rmse(fit.best_params, self.dataset, self.disc,
                                       self.solver, self.cfg.ocp)
        if again != fit.best_rmse:
            bad.append(f"best point re-evaluates to {again!r}, fit says {fit.best_rmse!r}")
        best = [f for _, f in fit.trace]
        if any(b > a for a, b in zip(best, best[1:])):
            bad.append("best-so-far trace increases")
        if fit.n_evals != self.BUDGET:
            bad.append(f"{fit.n_evals} evaluations, budget {self.BUDGET}")
        return bad


WORKLOADS = {w.name: w for w in (CycleC4, DriveHold, Observe1C, IdentifyPso)}
