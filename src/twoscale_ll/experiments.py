"""Orchestrated experiments: the two-phase slow/fast picture (initial
layer, then adiabatic tracking of the moving equilibrium) across a ladder
of time-scale ratios, and macrospin hysteresis loops."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy  # scipy.integrate loads on first use, in run_hysteresis only

from .demag import DemagModel, TensorDemag, depolarization_tensor
from .dynamics import (
    RunRecord,
    SolverConfig,
    _check_span,
    _ll_torque3,
    _n_steps,
    integrate,
    relax_to_equilibrium,
    resolve_dt,
)
from .grid import DomainMask, EllipsoidSpec, Grid3, constant_field
from .linearization import sample_admissible_perturbation
from .schedule import FieldSchedule

# tau: d(t) within twice its late plateau, clear of that plateau's drift
_LAYER_EXIT_FACTOR = 2.0
# radians off the easy axis; small enough to move switching by under 1%
_FIELD_TILT = 3e-4
# one unmeasured sweep period brings the state onto the loop
_WARMUP_PERIODS = 1


@dataclass(frozen=True)
class AsymptoticsPlan:
    """Ladder study of the fast-response limit under a slow field."""

    eps_ladder: tuple[float, ...]
    sched: FieldSchedule
    alpha: float
    T: float
    perturbation: float = 0.2
    seed: int = 0
    dt_over_eps: float = 0.02       # dt = dt_over_eps * eps
    integrator: str = "projected-explicit"
    analytic_equilibrium: bool = True  # u(t) where exact; False relaxes
    relax_tol: float = 1e-8
    relax_max_T: float = 50.0
    samples_per_run: int = 150

    def __post_init__(self):
        if len(self.eps_ladder) == 0 or np.any(np.diff(self.eps_ladder) >= 0) \
                or self.eps_ladder[0] >= 1:
            raise ValueError("eps ladder must be non-empty, decreasing, < 1")
        if self.samples_per_run < 1:
            raise ValueError("samples_per_run must be >= 1")
        if not 0 < self.perturbation < 1:
            raise ValueError("perturbation must be in (0, 1)")
        if not self.relax_tol > 0:
            raise ValueError("relax_tol must be > 0")
        if not self.relax_max_T >= 0:
            raise ValueError(f"max_T must be >= 0, got {self.relax_max_T}")
        _check_span(self.T, self.sched)
        for e in self.eps_ladder:
            _rung(self, e)


def _rung(plan: AsymptoticsPlan, eps: float) -> tuple[SolverConfig, int]:
    """Solver config and step count of the eps rung; ValueError naming eps
    unless the config is valid and its step divides plan.T."""
    try:
        cfg = SolverConfig(epsilon=eps, alpha=plan.alpha, T=plan.T,
                           integrator=plan.integrator,
                           dt=plan.dt_over_eps * eps)
        return cfg, _n_steps(plan.T, cfg.dt)
    except ValueError as err:
        raise ValueError(f"eps = {eps}: {err}") from None


def detect_layer_exit(times: np.ndarray, d: np.ndarray,
                      threshold_factor: float) -> float:
    """First sampled time where d(t) falls within threshold_factor times
    the median of d over the final quarter of the run; last time if never."""
    times = np.asarray(times, dtype=float)
    d = np.asarray(d, dtype=float)
    if len(times) == 0:
        raise ValueError("empty record")
    t_end = times[-1]
    span = t_end - times[0]
    tail = d[times >= t_end - 0.25 * span]
    plateau = float(np.median(tail))
    hits = np.nonzero(d <= threshold_factor * plateau)[0]
    return float(times[hits[0]]) if len(hits) else float(t_end)


def run_asymptotics(plan: AsymptoticsPlan, g: Grid3, mask: DomainMask,
                    demag: DemagModel) -> dict:
    """Run the eps ladder and summarize layer exit and tracking error.

    Initial data is prepared by relaxing at the initial time and then
    applying one fixed admissible perturbation (shared across the ladder).
    Summary rows hold (eps, tau, tau/(eps ln(1/eps)), sup_{[tau,T]} d),
    whether the initial relaxation converged, and whether every reference
    solve for that eps converged (always true with the analytic reference).

    The reference is u(t) where that is the equilibrium exactly, on one
    cell with a tensor demag D = d I, unless plan.analytic_equilibrium is
    False; everywhere else it is relaxed from the previous one.

    On a grid of more than one cell, a projected-explicit rung whose step
    exceeds resolve_dt's default explicit step raises ValueError naming
    the rung, before any relaxation.
    """
    for eps in plan.eps_ladder:
        cfg, _ = _rung(plan, eps)
        if cfg.integrator == "projected-explicit" and not g.is_macrospin:
            limit = resolve_dt(replace(cfg, dt=None), g)
            # the tolerance of _n_steps: dt_over_eps = limit / eps gives
            # back a dt one ulp above the limit for some eps
            if cfg.dt > limit * (1.0 + 1e-9):
                raise ValueError(f"eps = {eps}: dt = {cfg.dt:g} exceeds the "
                                 f"stable explicit step {limit:g}")
    analytic = plan.analytic_equilibrium and g.is_macrospin \
        and np.array_equal(demag.D, demag.D[0][0] * np.eye(3))
    t0 = plan.sched.t_min

    def solve(t: float, guess: np.ndarray) -> tuple[np.ndarray, bool]:
        return relax_to_equilibrium(guess, t, plan.relax_tol,
                                    plan.relax_max_T, plan.alpha, g, mask,
                                    demag, plan.sched)

    m_eq0, converged = solve(
        t0, constant_field(g, plan.sched.direction.at(t0), mask))
    delta0 = sample_admissible_perturbation(
        m_eq0, plan.perturbation, plan.seed, g, mask)
    m0 = m_eq0 + delta0

    records: dict[float, RunRecord] = {}
    summary = []
    for eps in plan.eps_ladder:
        cfg, n_steps = _rung(plan, eps)
        sample_every = max(1, n_steps // plan.samples_per_run)
        ref_converged: list[bool] = []
        m_ref = m_eq0

        def ref(t: float) -> np.ndarray:
            nonlocal m_ref
            if analytic:
                return constant_field(g, plan.sched.direction.at(t), mask)
            m_ref, ok = solve(t, m_ref)
            ref_converged.append(ok)
            return m_ref

        rec, _ = integrate(m0, cfg, g, mask, demag, plan.sched,
                           sample_every=sample_every, reference=ref)
        records[eps] = rec
        tau = detect_layer_exit(rec.times, rec.dist_h2, _LAYER_EXIT_FACTOR)
        after = rec.times >= tau
        sup_d = float(np.max(rec.dist_h2[after]))
        summary.append({
            "eps": eps,
            "tau": tau,
            "tau_over_eps_log": tau / (eps * np.log(1.0 / eps)),
            "sup_dist_after_tau": sup_d,
            "initial_relax_converged": converged,
            "reference_converged": all(ref_converged),
        })
    return {"records": records, "summary": summary}


@dataclass(frozen=True)
class HysteresisPlan:
    """Triangular field sweep along the easy axis of an ellipsoid, in
    macrospin mode (tensor demag).

    The sweep must be adiabatic for the switching field to approach the
    static threshold: the dynamic overshoot past the fold scales like
    sqrt(eps * sweep_rate * ln(1/_FIELD_TILT) / alpha), so eps * lam_max /
    period controls the accuracy. The defaults keep the overshoot plus the
    tilt correction under a percent of the threshold.
    """

    ellipsoid: EllipsoidSpec
    lam_max: float
    period: float = 200.0
    epsilon: float = 1e-3
    alpha: float = 1.0
    dt: float = 0.05                # sampling interval of the recorded loop
    tensor_resolution: int = 32

    def __post_init__(self):
        if not 0 < self.lam_max < np.inf:
            raise ValueError("lam_max must be > 0 and finite")
        if not all(0 < x < np.inf for x in (self.period, self.epsilon,
                                            self.alpha, self.dt)):
            raise ValueError("period, epsilon, alpha and dt must be > 0 "
                             "and finite")
        if self.tensor_resolution < 16:
            raise ValueError("tensor_resolution must be >= 16")


def _triangular_knots(lam_max: float, period: float,
                      n_periods: int) -> tuple[np.ndarray, np.ndarray]:
    """Knot times and values of lambda(t), sweeping -lam_max -> +lam_max
    -> -lam_max once per period."""
    k = np.arange(2 * n_periods + 1)
    return 0.5 * period * k, np.where(k % 2, lam_max, -lam_max)


def run_hysteresis(plan: HysteresisPlan) -> dict:
    """Sweep the field and extract the loop, switching fields, and area.

    The field direction is tilted off the easy axis by _FIELD_TILT to
    break the exact symmetry that would otherwise pin the magnetization on
    the unstable branch forever. The macrospin ODE is integrated with an
    adaptive stiff solver (LSODA): steps are large on the adiabatic
    branches and refine automatically through the fast switching events,
    which a fixed step of order eps could not afford over a slow sweep.
    """
    D = depolarization_tensor(plan.ellipsoid, plan.tensor_resolution)
    evals, evecs = np.linalg.eigh(D)
    u = evecs[:, 0]                # easy axis: smallest depolarization
    d_axis = float(evals[0])
    d_transverse = float(evals[1])

    # tilt within the (u, second-axis) plane
    v = evecs[:, 1]
    u_field = u * np.cos(_FIELD_TILT) + v * np.sin(_FIELD_TILT)

    n_periods = _WARMUP_PERIODS + 1
    knots_t, knots_v = _triangular_knots(plan.lam_max, plan.period,
                                         n_periods)
    eps, alpha = plan.epsilon, plan.alpha
    # A tiny constant transverse field keeps the anti-aligned state from
    # being an exact (deterministically pinned) equilibrium; for degenerate
    # samples (sphere) this is the only symmetry breaking available.
    h_bias = 1e-6 * evecs[:, 2]

    # in floats, as the one-cell ll_rhs: -D m + lambda(t) u_field + h_bias
    D_rows, u_f, h_b = TensorDemag(D).rows, u_field.tolist(), h_bias.tolist()

    def rhs(t: float, m: np.ndarray) -> tuple[float, ...]:
        m = m.tolist()
        lam = float(np.interp(t, knots_t, knots_v))
        h = [-(d[0] * m[0] + d[1] * m[1] + d[2] * m[2]) + lam * u + b
             for d, u, b in zip(D_rows, u_f, h_b)]
        return _ll_torque3(m, h, alpha, eps)

    t_end = n_periods * plan.period
    t_eval = np.arange(0.0, t_end + 0.5 * plan.dt, plan.dt)
    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t_end), -u, method="LSODA", t_eval=t_eval,
        rtol=1e-9, atol=1e-12, max_step=plan.period / 16.0)
    if not sol.success:
        raise RuntimeError(f"hysteresis sweep failed: {sol.message}")
    m_path = sol.y.T
    m_path /= np.linalg.norm(m_path, axis=1, keepdims=True)

    m_dot_u = m_path @ u
    t_meas = _WARMUP_PERIODS * plan.period
    meas = sol.t >= t_meas - 1e-12
    lam = np.interp(sol.t, knots_t, knots_v)[meas]
    mu = m_dot_u[meas]
    times = sol.t[meas]

    half = plan.period / 2.0
    rising = ((times - t_meas) % plan.period) < half
    # the final sample wraps to phase 0; keep it off the rising branch
    rising &= times < times[-1] - 0.25 * plan.dt
    lam_sw_up = _switching_field(lam[rising], mu[rising])
    lam_sw_down = _switching_field(lam[~rising], mu[~rising])

    # signed loop area by the trapezoid rule around the closed sweep
    area = float(np.trapezoid(mu, lam)) * -1.0
    closure = abs(mu[0] - mu[-1])

    return {
        "lam": lam,
        "m_dot_u": mu,
        "D": D,
        "easy_axis": u,
        "d_axis": d_axis,
        "d_transverse": d_transverse,
        "switching_up": lam_sw_up,
        "switching_down": lam_sw_down,
        "switching_predicted": d_transverse - d_axis,
        "loop_area": area,
        "loop_closure": closure,
    }


def _switching_field(lam: np.ndarray, mu: np.ndarray) -> float:
    """Field value at the steepest change of m.u along one sweep branch."""
    if len(lam) < 3:
        raise ValueError("branch too short to locate switching")
    dmu = np.abs(np.diff(mu))
    i = int(np.argmax(dmu))
    return float(0.5 * (lam[i] + lam[i + 1]))
