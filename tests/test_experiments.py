"""Layer-exit detection, the ladder study driver, and hysteresis sweeps."""

import numpy as np
import pytest

from twoscale_ll import experiments
from twoscale_ll.demag import FftDemag, TensorDemag
from twoscale_ll.experiments import (
    AsymptoticsPlan,
    HysteresisPlan,
    detect_layer_exit,
    run_asymptotics,
    run_hysteresis,
)
from twoscale_ll.grid import (
    DomainMask,
    EllipsoidSpec,
    Grid3,
    ModeMismatchError,
)
from twoscale_ll.schedule import FieldSchedule, RotatingDirection


def test_detect_layer_exit_exponential():
    # d = e^{-t/eps} + plateau: exit when the decay meets 2x plateau,
    # tau = eps * ln(1/(2*0.01 - 0.01)) = eps * ln(100)
    eps = 0.05
    times = np.linspace(0.0, 2.0, 4001)
    d = np.exp(-times / eps) + 0.01
    tau = detect_layer_exit(times, d, threshold_factor=2.0)
    expected = eps * np.log(1.0 / 0.01)
    assert abs(tau - expected) <= 2.0 * (times[1] - times[0])


def test_detect_layer_exit_edge_cases():
    times = np.linspace(0.0, 1.0, 101)
    # constant signal: already inside the plateau band at the first sample
    const = np.full_like(times, 3.0)
    assert detect_layer_exit(times, const, 2.0) == 0.0
    # signal that never reaches the band: returns the final time
    decreasing = np.linspace(100.0, 90.0, 101)
    assert detect_layer_exit(times, decreasing, 0.0001) == 1.0
    with pytest.raises(ValueError):
        detect_layer_exit(np.array([]), np.array([]), 2.0)


def test_asymptotics_plan_validation():
    sched = FieldSchedule.constant(1.0, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        AsymptoticsPlan((0.1, 0.2), sched, alpha=1.0, T=1.0)  # not decreasing
    with pytest.raises(ValueError, match="non-empty"):
        AsymptoticsPlan((), sched, alpha=1.0, T=1.0)  # would run nothing
    with pytest.raises(ValueError):
        AsymptoticsPlan((0.1, -0.05), sched, alpha=1.0, T=1.0)
    # tau / (eps ln(1/eps)) is nan at eps = 1 and negative above
    for ladder in ((1.0,), (2.0, 0.1)):
        with pytest.raises(ValueError, match="< 1"):
            AsymptoticsPlan(ladder, sched, alpha=1.0, T=1.0)
    # dt = 0.02 * 0.03 does not divide T: refused before any rung runs
    with pytest.raises(ValueError, match="eps = 0.03: dt = .* T = 1.0"):
        AsymptoticsPlan((0.1, 0.03), sched, alpha=1.0, T=1.0)
    with pytest.raises(ValueError):
        AsymptoticsPlan((0.1,), sched, alpha=1.0, T=1.0, dt_over_eps=0.0)
    # each rung's SolverConfig is built, and so checked, at construction
    with pytest.raises(ValueError, match="eps = 0.1: unknown integrator"):
        AsymptoticsPlan((0.1,), sched, alpha=1.0, T=1.0, integrator="rk4")
    with pytest.raises(ValueError, match="eps = 0.1: .*alpha must be > 0"):
        AsymptoticsPlan((0.1,), sched, alpha=-1.0, T=1.0)
    with pytest.raises(ValueError, match="samples_per_run"):
        AsymptoticsPlan((0.1,), sched, alpha=1.0, T=1.0, samples_per_run=0)
    # refused before the initial relaxation, not after it
    for s in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="perturbation"):
            AsymptoticsPlan((0.1,), sched, alpha=1.0, T=1.0, perturbation=s)
    # tol 0 would run every solve to its budget and call it unconverged
    for tol in (0.0, -1e-8, np.nan):
        with pytest.raises(ValueError, match="relax_tol must be > 0"):
            AsymptoticsPlan((0.1,), sched, alpha=1.0, T=1.0, relax_tol=tol)
    for max_T in (-1.0, np.nan):
        with pytest.raises(ValueError, match="max_T must be >= 0"):
            AsymptoticsPlan((0.1,), sched, alpha=1.0, T=1.0,
                            relax_max_T=max_T)
    # a run past the schedule's end: refused before the relaxation
    short = FieldSchedule(np.array([[0.0, 5.0], [1.0, 5.0]]))
    with pytest.raises(ValueError, match="T = 2.0 .* ends at t = 1.0"):
        AsymptoticsPlan((0.1,), short, alpha=1.0, T=2.0)


def test_asymptotics_relaxes_the_reference_unless_u_is_exact(monkeypatch):
    # u(t) is the equilibrium exactly on one cell with D = d I; there the
    # default plan solves only for the initial state, elsewhere it relaxes
    # a reference at every sample
    calls = []
    relax = experiments.relax_to_equilibrium

    def spy(*args):
        calls.append(args[1])
        return relax(*args)
    monkeypatch.setattr(experiments, "relax_to_equilibrium", spy)
    sched = FieldSchedule.constant(1.0, (1.0, 0.0, 1.0))
    plan = AsymptoticsPlan((0.1,), sched, alpha=1.0, T=1e-3,
                           dt_over_eps=1e-4, samples_per_run=2)
    g1, g8 = Grid3(1, 1, 1), Grid3(8, 8, 8, 1 / 8, 1 / 8, 1 / 8)
    for g, demag, exact in (
            (g1, TensorDemag(np.eye(3) / 3.0), True),
            (g1, TensorDemag(np.diag([0.2, 0.3, 0.5])), False),
            (g8, FftDemag.for_grid(g8), False)):
        calls.clear()
        row, = run_asymptotics(plan, g, DomainMask.full(g), demag)["summary"]
        assert len(calls) == 1 if exact else len(calls) > 1
        assert row["reference_converged"]


def test_asymptotics_refuses_an_unstable_explicit_ladder(monkeypatch):
    # the plan's defaults, explicit at dt/eps = 0.02, take 2e-3 on 8^3 at
    # eps = 0.1, far above the default explicit step 5.2e-5 there; refused
    # before any relaxation
    calls = []
    monkeypatch.setattr(experiments, "relax_to_equilibrium",
                        lambda *args: calls.append(args))
    g = Grid3(8, 8, 8, 1 / 8, 1 / 8, 1 / 8)
    plan = AsymptoticsPlan((0.1, 0.05), FieldSchedule.constant(
        1.0, (0.0, 0.0, 1.0)), alpha=1.0, T=1.0)
    with pytest.raises(ValueError, match="eps = 0.1: dt = 0.002 exceeds"):
        run_asymptotics(plan, g, DomainMask.full(g), FftDemag.for_grid(g))
    assert calls == []


def test_asymptotics_refuses_a_demag_model_of_another_grid():
    # an FftDemag of a 4^3 box given with one cell: the first relaxation's
    # demag_field raises the documented error before D is read
    g = Grid3(1, 1, 1)
    plan = AsymptoticsPlan((0.1,), FieldSchedule.constant(
        1.0, (0.0, 0.0, 1.0)), alpha=1.0, T=1e-3, dt_over_eps=1e-2)
    with pytest.raises(ModeMismatchError, match="different grid"):
        run_asymptotics(plan, g, DomainMask.full(g),
                        FftDemag.for_grid(Grid3(4, 4, 4)))


def test_asymptotics_zero_perturbation_tracks_equilibrium():
    # starting exactly on the moving equilibrium, tracking error stays small
    g = Grid3(1, 1, 1)
    mask = DomainMask.full(g)
    demag = TensorDemag(np.eye(3) / 3.0)
    sched = FieldSchedule(
        np.array([[0.0, 5.0], [10.0, 5.0]]),
        RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5))
    plan = AsymptoticsPlan((0.05,), sched, alpha=1.0, T=1.0,
                           perturbation=1e-6, seed=1, dt_over_eps=0.02)
    out = run_asymptotics(plan, g, mask, demag)
    rec = out["records"][0.05]
    assert np.max(rec.dist_h2) < 0.05  # O(eps) adiabatic lag only


def test_asymptotics_ladder_shrinks_layer():
    g = Grid3(1, 1, 1)
    mask = DomainMask.full(g)
    demag = TensorDemag(np.eye(3) / 3.0)
    sched = FieldSchedule(
        np.array([[0.0, 5.0], [10.0, 5.0]]),
        RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5))
    plan = AsymptoticsPlan((0.1, 0.05), sched, alpha=1.0, T=1.0,
                           perturbation=0.2, seed=1)
    out = run_asymptotics(plan, g, mask, demag)
    taus = [row["tau"] for row in out["summary"]]
    assert taus[1] < taus[0]
    for row in out["summary"]:
        assert row["initial_relax_converged"]
        assert row["reference_converged"]  # analytic mode has no solves
        assert row["sup_dist_after_tau"] < 0.2


def test_asymptotics_reports_reference_convergence():
    # relaxation-tracked references: a one-step budget at an unreachable
    # tolerance must surface as reference_converged = False
    g = Grid3(1, 1, 1)
    mask = DomainMask.full(g)
    demag = TensorDemag(np.eye(3) / 3.0)
    sched = FieldSchedule(
        np.array([[0.0, 5.0], [10.0, 5.0]]),
        RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5))
    base = dict(eps_ladder=(0.1,), sched=sched, alpha=1.0, T=0.5,
                perturbation=0.2, seed=1, analytic_equilibrium=False,
                samples_per_run=10)
    starved = AsymptoticsPlan(**base, relax_max_T=0.05, relax_tol=1e-14)
    row, = run_asymptotics(starved, g, mask, demag)["summary"]
    assert row["reference_converged"] is False
    row, = run_asymptotics(AsymptoticsPlan(**base), g, mask, demag)["summary"]
    assert row["reference_converged"] is True


def test_asymptotics_on_ellipsoid_mask_converges():
    # a masked study relaxes like the box, with the cosine solve on the
    # body's bounding box from 0.05
    g = Grid3(12, 12, 12, 2.0 / 12, 1.6 / 12, 1.2 / 12)
    mask = DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 0.8, 0.6))
    plan = AsymptoticsPlan(
        (0.1,), FieldSchedule.constant(0.7, (1.0, 0.3, 0.2)), alpha=1.0,
        T=1e-3, dt_over_eps=1e-4, integrator="projected-explicit",
        analytic_equilibrium=False, relax_tol=1e-6, samples_per_run=2)
    row, = run_asymptotics(plan, g, mask, FftDemag.for_grid(g))["summary"]
    assert row["initial_relax_converged"] is True
    assert row["reference_converged"] is True


def test_hysteresis_plan_validation():
    e = EllipsoidSpec(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        HysteresisPlan(e, lam_max=0.0)
    for lam_max in (np.nan, np.inf):
        # an infinite sweep returned NaN switching fields and loop area
        with pytest.raises(ValueError, match="lam_max must be > 0 and "
                                             "finite"):
            HysteresisPlan(e, lam_max=lam_max)
    # dt = 0 divided by zero and epsilon = 0 never returned from LSODA
    for bad, message in (({"period": 0.0}, "must be > 0"),
                         ({"epsilon": 0.0}, "must be > 0"),
                         ({"alpha": 0.0}, "must be > 0"),
                         ({"dt": 0.0}, "must be > 0"),
                         ({"period": np.nan}, "must be > 0"),
                         ({"dt": np.nan}, "must be > 0"),
                         ({"period": np.inf}, "must be > 0 and finite"),
                         ({"epsilon": np.inf}, "must be > 0 and finite"),
                         ({"alpha": np.nan}, "must be > 0 and finite"),
                         ({"dt": np.inf}, "must be > 0 and finite"),
                         ({"tensor_resolution": 8}, "must be >= 16")):
        with pytest.raises(ValueError, match=message):
            HysteresisPlan(e, lam_max=0.6, **bad)


def test_hysteresis_refuses_a_branch_of_too_few_samples():
    # dt = 0.4 samples each half period of 0.5 at most twice
    plan = HysteresisPlan(EllipsoidSpec(2.0, 1.0, 1.0), lam_max=0.6,
                          period=1.0, dt=0.4, epsilon=0.01)
    with pytest.raises(ValueError, match="branch too short to locate "
                                         "switching"):
        run_hysteresis(plan)


def test_triangular_schedule_shape():
    from twoscale_ll.experiments import _triangular_knots
    times, values = _triangular_knots(0.6, 10.0, 2)
    assert times.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert values.tolist() == [-0.6, 0.6, -0.6, 0.6, -0.6]
    assert np.interp(2.5, times, values) == pytest.approx(0.0)


def test_hysteresis_prolate_switching_and_area():
    plan = HysteresisPlan(EllipsoidSpec(3.0, 1.0, 1.0), lam_max=0.6)
    out = run_hysteresis(plan)
    pred = out["switching_predicted"]
    assert pred > 0.2
    assert out["switching_up"] == pytest.approx(pred, rel=0.05)
    assert out["switching_down"] == pytest.approx(-pred, rel=0.05)
    assert out["loop_area"] == pytest.approx(4.0 * pred, rel=0.05)
    assert out["loop_area"] > 0.0
    assert out["loop_closure"] < 1e-6
    # saturated branches sit on the easy axis
    assert np.max(np.abs(np.abs(out["m_dot_u"])[np.abs(out["lam"]) > 0.5]
                         - 1.0)) < 1e-3


def test_hysteresis_sphere_degenerate_loop():
    # a sphere has no shape anisotropy: switching occurs at lambda ~ 0 and
    # the loop encloses (almost) no area
    plan = HysteresisPlan(EllipsoidSpec(1.0, 1.0, 1.0), lam_max=0.6)
    out = run_hysteresis(plan)
    assert abs(out["switching_predicted"]) < 0.02
    assert abs(out["switching_up"]) < 0.05
    assert abs(out["switching_down"]) < 0.05
    assert abs(out["loop_area"]) < 0.2
