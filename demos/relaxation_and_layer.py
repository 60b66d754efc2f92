"""Initial layer and adiabatic tracking across a ladder of eps.

A macrospin sphere follows a slowly rotating strong field. Started off the
moving equilibrium, the magnetization first collapses onto it in a fast
initial layer of width O(eps ln(1/eps)) and then tracks it with an O(eps)
adiabatic lag. Halving eps repeatedly shows both effects: the layer exit
time shrinks proportionally and the residual tracking error drops.

Writes per-eps distance curves to demos/out/layer_eps_*.csv and a combined
log-scale chart demos/out/layer_dist.svg.
"""

import os

import numpy as np

from twoscale_ll import (
    AsymptoticsPlan,
    DomainMask,
    FieldSchedule,
    Grid3,
    RotatingDirection,
    TensorDemag,
    run_asymptotics,
)
from twoscale_ll.reporting import record_to_csv, svg_line_chart, table_to_csv

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    g = Grid3(1, 1, 1)
    mask = DomainMask.full(g)
    demag = TensorDemag(np.eye(3) / 3.0)
    sched = FieldSchedule(
        np.array([[0.0, 5.0], [10.0, 5.0]]),
        RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5))

    plan = AsymptoticsPlan((0.1, 0.05, 0.025, 0.0125), sched, alpha=1.0,
                           T=2.0, perturbation=0.2, seed=1)
    result = run_asymptotics(plan, g, mask, demag)

    os.makedirs(OUT, exist_ok=True)
    series = []
    for eps, rec in result["records"].items():
        path = os.path.join(OUT, f"layer_eps_{eps:g}.csv")
        with open(path, "w") as f:
            f.write(record_to_csv(rec))
        series.append((f"eps={eps:g}", rec.times, rec.dist_h2))

    with open(os.path.join(OUT, "layer_dist.svg"), "w") as f:
        f.write(svg_line_chart(series, log_y=True, x_label="t",
                               y_label="distance to moving equilibrium"))

    print(f"{'eps':>8} {'tau':>8} {'tau/(eps ln 1/eps)':>20} "
          f"{'sup dist after tau':>20}")
    for row in result["summary"]:
        print(f"{row['eps']:>8g} {row['tau']:>8.4f} "
              f"{row['tau_over_eps_log']:>20.3f} "
              f"{row['sup_dist_after_tau']:>20.4e}")
    with open(os.path.join(OUT, "layer_summary.csv"), "w") as f:
        keys = ("eps", "tau", "tau_over_eps_log", "sup_dist_after_tau")
        f.write(table_to_csv(
            {k: [r[k] for r in result["summary"]] for k in keys}))
    print(f"\nwrote curves and summary under {OUT}/")


if __name__ == "__main__":
    main()
