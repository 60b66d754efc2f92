"""Batch front-end: subcommand dispatch over a validated run config, with
CSV and SVG report emission.

Exit codes: 0 success, 1 usage or validation error, 2 numerical blow-up.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, parse_config
from .demag import FftDemag, TensorDemag, depolarization_tensor
from .dynamics import (
    BlowUpError,
    SolverConfig,
    integrate,
    relax_to_equilibrium,
)
from .experiments import (
    AsymptoticsPlan,
    HysteresisPlan,
    run_asymptotics,
    run_hysteresis,
)
from .grid import DomainMask, EllipsoidSpec, Grid3, _box_center, constant_field
from .linearization import dissipation_scan
from .reporting import (
    CSV_HEADER,
    record_to_csv,
    svg_line_chart,
    table_to_csv,
)
from .schedule import (
    BumpEnvelope,
    ConstantEnvelope,
    FieldSchedule,
    FixedDirection,
    RotatingDirection,
)


_UNIT_SPHERE = EllipsoidSpec(1.0, 1.0, 1.0)


def _ellipsoid(cfg: dict) -> EllipsoidSpec | None:
    """The configured sample: an ellipsoid, or None for shape = box."""
    d = cfg["domain"]
    if d["shape"] != "ellipsoid":
        return None
    return EllipsoidSpec(d["a"], d["b"], d["c"])


def _tensor_shape(cfg: dict) -> EllipsoidSpec:
    """The ellipsoid of the tensor rule; a box is taken as the unit sphere."""
    return _ellipsoid(cfg) or _UNIT_SPHERE


def _tensor(cfg: dict) -> np.ndarray:
    """Depolarization tensor of the sample, by the library's one rule."""
    return depolarization_tensor(_tensor_shape(cfg),
                                 cfg["experiment"]["tensor_resolution"])


def _build(cfg: dict):
    """(grid, mask, demag model, field schedule, solver) of the run."""
    gd, f, s = cfg["grid"], cfg["field"], cfg["solver"]
    g = Grid3(gd["nx"], gd["ny"], gd["nz"], gd["hx"], gd["hy"], gd["hz"])
    ell = _ellipsoid(cfg)
    mask = DomainMask.full(g) if ell is None else DomainMask.ellipsoid(g, ell)
    demag = TensorDemag(_tensor(cfg)) if g.is_macrospin \
        else FftDemag.for_grid(g)
    if f["rotate_to"] is not None:
        direction = RotatingDirection(np.asarray(f["direction"]),
                                      np.asarray(f["rotate_to"]), f["omega"])
    else:
        direction = FixedDirection(np.asarray(f["direction"]))
    if f["envelope"] == "bump":
        center = f["bump_center"] or _box_center(g)
        envelope = BumpEnvelope(center, f["bump_radius"])
    else:
        envelope = ConstantEnvelope()
    sched = FieldSchedule(np.asarray(f["knots"]), direction, envelope)
    eps = cfg["material"]["epsilon"]  # unset: 0.1 (hysteresis: the plan's)
    # the cosine-basis step where that basis holds, else the midpoint rule
    spectral = mask.is_full_box and not g.is_macrospin
    solver = SolverConfig(epsilon=0.1 if eps is None else eps,
                          alpha=cfg["material"]["alpha"], T=s["t_final"],
                          integrator="semi-implicit-spectral" if spectral
                          else "projected-explicit", dt=s["dt"])
    return g, mask, demag, sched, solver


def _write(path: str, text: str, quiet: bool) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.write(text)
    if not quiet:
        print(f"wrote {path}")


def cmd_relax(cfg: dict, out: str, seed: int, quiet: bool) -> int:
    g, mask, demag, sched, solver = _build(cfg)
    m0 = constant_field(g, sched.direction.at(sched.t_min), mask)
    m, converged = relax_to_equilibrium(
        m0, sched.t_min, cfg["experiment"]["relax_tol"],
        cfg["experiment"]["relax_max_t"], solver.alpha, g, mask, demag,
        sched)
    rec, _ = integrate(m, replace(solver, T=0.0), g, mask, demag, sched)
    _write(os.path.join(out, "relax.csv"), record_to_csv(rec), quiet)
    if not quiet:
        print(f"converged={converged} residual={rec.residual[0]:.3e}")
    if not converged:
        print("warning: relaxation did not converge", file=sys.stderr)
    return 0


def cmd_evolve(cfg: dict, out: str, seed: int, quiet: bool) -> int:
    g, mask, demag, sched, solver = _build(cfg)
    m0 = constant_field(g, sched.direction.at(sched.t_min), mask)
    rec, _ = integrate(m0, solver, g, mask, demag, sched,
                       sample_every=cfg["solver"]["sample_every"])
    _write(os.path.join(out, "evolve.csv"), record_to_csv(rec), quiet)
    return 0


def cmd_asymptotics(cfg: dict, out: str, seed: int, quiet: bool) -> int:
    g, mask, demag, sched, solver = _build(cfg)
    ladder = cfg["material"]["epsilon_ladder"]
    if ladder is None:
        ladder = tuple(solver.epsilon * 0.5**i for i in range(4))
    plan = AsymptoticsPlan(
        eps_ladder=tuple(ladder), sched=sched,
        alpha=solver.alpha, T=solver.T,
        perturbation=cfg["experiment"]["perturbation"],
        seed=seed,
        integrator=solver.integrator,
        relax_tol=cfg["experiment"]["relax_tol"],
        relax_max_T=cfg["experiment"]["relax_max_t"],
    )
    result = run_asymptotics(plan, g, mask, demag)
    for eps, rec in result["records"].items():
        _write(os.path.join(out, f"asymptotics_eps_{eps:g}.csv"),
               record_to_csv(rec), quiet)
    keys = ("eps", "tau", "tau_over_eps_log", "sup_dist_after_tau")
    _write(os.path.join(out, "asymptotics_summary.csv"), table_to_csv(
        {k: [r[k] for r in result["summary"]] for k in keys}), quiet)
    for r in result["summary"]:
        if not (r["initial_relax_converged"] and r["reference_converged"]):
            print(f"warning: eps = {r['eps']:g}: an equilibrium solve did "
                  f"not converge (initial: {r['initial_relax_converged']}, "
                  f"reference: {r['reference_converged']})", file=sys.stderr)
    return 0


def cmd_hysteresis(cfg: dict, out: str, seed: int, quiet: bool) -> int:
    # an unset key takes the plan's default, which makes the sweep adiabatic
    plan_keys = {"period": cfg["experiment"]["period"],
                 "epsilon": cfg["material"]["epsilon"],
                 "dt": cfg["solver"]["dt"]}
    plan = HysteresisPlan(
        ellipsoid=_tensor_shape(cfg),
        lam_max=cfg["experiment"]["lam_max"],
        alpha=cfg["material"]["alpha"],
        tensor_resolution=cfg["experiment"]["tensor_resolution"],
        **{k: v for k, v in plan_keys.items() if v is not None})
    result = run_hysteresis(plan)
    _write(os.path.join(out, "hysteresis_loop.csv"), table_to_csv({
        "lambda": result["lam"], "m_dot_u": result["m_dot_u"]}), quiet)
    keys = ("switching_up", "switching_down", "switching_predicted",
            "loop_area", "loop_closure")
    _write(os.path.join(out, "hysteresis_summary.csv"), table_to_csv(
        {k: [result[k]] for k in keys}), quiet)
    _write(os.path.join(out, "hysteresis_loop.svg"), svg_line_chart(
        [("loop", result["lam"], result["m_dot_u"])],
        x_label="lambda", y_label="m.u"), quiet)
    return 0


def cmd_dissipation_scan(cfg: dict, out: str, seed: int, quiet: bool) -> int:
    D = _tensor(cfg)
    evals, evecs = np.linalg.eigh(D)
    u = evecs[:, 0]
    g = Grid3(1, 1, 1)
    mask = DomainMask.full(g)
    result = dissipation_scan(
        D, u, cfg["experiment"]["lambda_grid"],
        cfg["material"]["alpha"], cfg["experiment"]["s"],
        cfg["experiment"]["n_samples"], g, mask, seed=seed)
    rows = result["rows"]
    _write(os.path.join(out, "dissipation_scan.csv"), table_to_csv({
        "lambda": [r["lam"] for r in rows],
        "sign": [r["sign"] for r in rows],
        "worst_ratio": [r["worst_ratio"] for r in rows],
        "c_lin": [r["c_lin"] for r in rows],
    }), quiet)
    if not quiet:
        print(f"plus branch uniformly negative from lambda = "
              f"{result['plus_branch_negative_from']}")
    return 0


def _read_record_csv(path: str) -> dict[str, np.ndarray]:
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path} is not a run-record CSV")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    names = CSV_HEADER.split(",")
    return {name: data[:, i] for i, name in enumerate(names)}


def cmd_plot(cfg: dict, out: str, seed: int, quiet: bool) -> int:
    records = {}
    for p in sorted(glob.glob(os.path.join(out, "*.csv"))):
        try:
            records[os.path.splitext(os.path.basename(p))[0]] = \
                _read_record_csv(p)
        except ValueError:
            continue
    if not records:
        raise ValueError(f"no run-record CSV in {out}")
    series_d = []
    for name, cols in records.items():
        if np.any(np.isfinite(cols["dist_h2"])):
            series_d.append((name, cols["t"], cols["dist_h2"]))
        _write(os.path.join(out, f"{name}_energy.svg"), svg_line_chart(
            [(name, cols["t"], cols["energy"])], x_label="t",
            y_label="energy"), quiet)
    if series_d:
        _write(os.path.join(out, "dist_h2.svg"), svg_line_chart(
            series_d, log_y=True, x_label="t", y_label="dist_h2"), quiet)
    return 0


_COMMANDS = {
    "relax": cmd_relax,
    "evolve": cmd_evolve,
    "asymptotics": cmd_asymptotics,
    "hysteresis": cmd_hysteresis,
    "dissipation-scan": cmd_dissipation_scan,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsll",
        description="Two-scale Landau-Lifshitz batch runner")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None,
                        help="path to the run config (INI-style)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse: 0 after --help, 2 on a usage error
        return 1 if e.code else 0

    try:
        if args.config is not None:
            with open(args.config) as f:
                cfg = parse_config(f.read())
        else:
            cfg = parse_config("")
        return _COMMANDS[args.command](cfg, args.out, args.seed, args.quiet)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BlowUpError as e:
        print(f"numerical blow-up: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
