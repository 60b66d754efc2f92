"""The study workloads of the benchmark.

Each workload is a class with three parts, all driven through the public
``twoscale_ll`` API:

* ``__init__(seed)`` builds the inputs (grid, mask, demag model, schedule,
  initial state or plan).  It is the timed set-up.
* ``study()`` runs the study call(s) and returns their results.  It is the
  timed time-to-solution.
* ``check(out)`` returns a list of failed output checks (empty when all
  hold).  The checks hold for any seed; on ``DEFAULT_SEED`` the headline
  observables are also compared with ``reference.json``.

``cell_steps`` is masked cells x outer integrator steps; relaxation inner
steps are deliberately not counted.  ``expected_layers`` lists the spans the
traced run must see called at least once on this workload.
"""

from __future__ import annotations

import json
import os

import numpy as np

from twoscale_ll import (
    AsymptoticsPlan,
    DomainMask,
    EllipsoidSpec,
    FftDemag,
    FieldSchedule,
    Grid3,
    HysteresisPlan,
    RotatingDirection,
    TensorDemag,
    run_asymptotics,
    run_hysteresis,
)

DEFAULT_SEED = 1
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Tolerances for the default-seed reference comparison.  They are loose
# enough for a different but correct operator or equilibrium solver (an
# equilibrium moved by ~4e-8, FFT/DCT roundoff in another order) and tight
# enough to catch a wrong answer.
REL_TOL = 1e-4
ABS_TOL = 1e-7

ROTATING = FieldSchedule(
    np.array([[0.0, 5.0], [10.0, 5.0]]),
    RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5))

# layers every workload calls
_COMMON = ("demag.demag_field", "schedule.eval_h_ext", "dynamics.step",
           "grid.normalize_pointwise", "dynamics.energy",
           "dynamics.equilibrium_residual")


def _working_set(demag: FftDemag) -> int:
    """Computed bytes live in one FFT demag call: the padded real buffer,
    three complex spectra (k.m, the coefficient, one component product)
    and eight vector fields on the grid."""
    npad = int(np.prod(demag.padded_shape))
    nspec = npad // demag.padded_shape[2] * (demag.padded_shape[2] // 2 + 1)
    cells = int(np.prod(demag.grid.shape))
    return 8 * npad + 3 * 16 * nspec + 8 * 3 * 8 * cells


def _box(n: int) -> tuple[Grid3, DomainMask]:
    g = Grid3(n, n, n, 1.0 / n, 1.0 / n, 1.0 / n)
    return g, DomainMask.full(g)


def _against_reference(w, out) -> list[str]:
    """On the default seed, headline observables vs reference.json."""
    if w.seed != DEFAULT_SEED:
        return []
    with open(REFERENCE_PATH) as f:
        ref = json.load(f)[w.name]
    obs = w.observables(out)
    failures = []
    for key, want in ref.items():
        got = np.asarray(obs[key], dtype=float)
        if got.shape != np.shape(want) or not np.allclose(
                got, want, rtol=REL_TOL, atol=ABS_TOL):
            failures.append(f"{key}: got {got.tolist()}, reference {want}")
    return failures


class Tracking16:
    """Grid half of the two-scale tracking study, cut down to one eps."""

    name = "tracking16"
    expected_layers = _COMMON + ("dynamics.relax_to_equilibrium",
                                 "grid.laplacian_neumann",
                                 "dynamics.parabolic_rhs_F")

    def __init__(self, seed: int):
        self.seed = seed
        self.g, self.mask = _box(16)
        self.demag = FftDemag.for_grid(self.g)
        self.plan = AsymptoticsPlan(
            (0.1,), ROTATING, alpha=1.0, T=2.0, perturbation=0.2, seed=seed,
            dt_over_eps=0.02, integrator="semi-implicit-spectral",
            analytic_equilibrium=False, relax_tol=1e-5, samples_per_run=10)
        eps = self.plan.eps_ladder[0]
        n_steps = int(round(self.plan.T / (self.plan.dt_over_eps * eps)))
        self.cell_steps = int(np.count_nonzero(self.mask.inside)) * n_steps
        self.working_set_bytes = _working_set(self.demag)

    def study(self):
        return run_asymptotics(self.plan, self.g, self.mask, self.demag)

    def observables(self, out) -> dict:
        row = out["summary"][0]
        rec = out["records"][0.1]
        return {"tau": row["tau"],
                "sup_dist_after_tau": row["sup_dist_after_tau"],
                "final_mean": rec.mean[-1].tolist(),
                "final_energy": float(rec.energy[-1])}

    def check(self, out) -> list[str]:
        failures = []
        if not all(r["initial_relax_converged"] for r in out["summary"]):
            failures.append("initial relaxation did not converge")
        return failures + _against_reference(self, out)


class Macrospin:
    """Hysteresis loop of a prolate ellipsoid, then the 4-eps macrospin
    ladder of the tracking study."""

    name = "macrospin"
    expected_layers = _COMMON + ("dynamics.relax_to_equilibrium",
                                 "dynamics.ll_rhs",
                                 "demag.demag_tensor_estimate",
                                 "experiments.solve_ivp")

    def __init__(self, seed: int):
        self.seed = seed
        self.hplan = HysteresisPlan(EllipsoidSpec(3.0, 1.0, 1.0), lam_max=0.6)
        self.g, self.mask = _box(1)
        self.demag = TensorDemag(np.eye(3) / 3.0)
        self.plan = AsymptoticsPlan((0.1, 0.05, 0.025, 0.0125), ROTATING,
                                    alpha=1.0, T=2.0, perturbation=0.2,
                                    seed=seed, dt_over_eps=0.02)
        # one cell; outer steps of the ladder (1000 + 2000 + 4000 + 8000)
        self.cell_steps = sum(
            int(round(self.plan.T / (self.plan.dt_over_eps * eps)))
            for eps in self.plan.eps_ladder)
        # the 128^3 padded demag call of the tensor estimate dominates
        res = self.hplan.tensor_resolution
        self.working_set_bytes = _working_set(
            FftDemag.for_grid(Grid3(res, res, res), pad_factor=4))

    def study(self):
        loop = run_hysteresis(self.hplan)
        ladder = run_asymptotics(self.plan, self.g, self.mask, self.demag)
        return loop, ladder

    def observables(self, out) -> dict:
        loop, ladder = out
        return {"switching_up": loop["switching_up"],
                "switching_down": loop["switching_down"],
                "tau": [r["tau"] for r in ladder["summary"]],
                "sup_dist_after_tau": [r["sup_dist_after_tau"]
                                       for r in ladder["summary"]]}

    def check(self, out) -> list[str]:
        loop, ladder = out
        failures = []
        pred = loop["switching_predicted"]
        if abs(loop["switching_up"] - pred) > 0.05 * pred:
            failures.append(f"switching field {loop['switching_up']:.4f} "
                            f"not within 5% of {pred:.4f}")
        if loop["loop_closure"] > 1e-3:
            failures.append(f"loop closure {loop['loop_closure']:.3e}")
        if not loop["loop_area"] > 0.0:
            failures.append(f"loop area {loop['loop_area']:.3e}")
        sup = np.array([r["sup_dist_after_tau"] for r in ladder["summary"]])
        if not np.all(sup[1:] / sup[:-1] <= 0.9):
            failures.append(f"ladder ratios {(sup[1:] / sup[:-1]).tolist()}")
        band = np.array([r["tau_over_eps_log"] for r in ladder["summary"]])
        if np.max(band) / np.min(band) > 3.0:
            failures.append(f"layer band {np.max(band) / np.min(band):.3f}")
        return failures + _against_reference(self, out)


WORKLOADS = {w.name: w for w in (Tracking16, Macrospin)}
