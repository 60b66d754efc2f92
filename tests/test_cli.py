"""End-to-end command-line runs against temporary config files."""

import glob
import os

import numpy as np
import pytest

import twoscale_ll.cli as cli
from twoscale_ll import experiments
from twoscale_ll.config import parse_config
from twoscale_ll.dynamics import BlowUpError
from twoscale_ll.reporting import CSV_HEADER
from twoscale_ll.schedule import eval_h_ext

MACROSPIN_CFG = """
[material]
epsilon = 0.1
alpha = 1.0

[field]
knots = 0.0:0.7, 1000.0:0.7
direction = 0, 0, 1

[solver]
dt = 0.01
t_final = 0.5
sample_every = 10
"""


def _write_cfg(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("command, section, key, value", [
    # steps always renormalize; the old opt-out key is unknown
    ("evolve", "solver", "renormalize", "false"),
    # the domain picks the integrator
    ("evolve", "solver", "integrator", "projected-explicit"),
    # the layer-exit factor, field tilt and warm-up are module constants
    ("asymptotics", "experiment", "threshold_factor", "0"),
    ("hysteresis", "experiment", "field_tilt", "1.6"),
    ("hysteresis", "experiment", "warmup_periods", "-1"),
], ids=["solver.renormalize", "solver.integrator",
        "experiment.threshold_factor",
        "experiment.field_tilt", "experiment.warmup_periods"])
def test_renormalize_key_rejected(tmp_path, capsys, command, section, key,
                                  value):
    cfg = _write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n")
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert f"config error: unknown key {section}.{key}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["demag-selftest"], "invalid choice: 'demag-selftest'"),
    (["spectral-selftest"], "invalid choice: 'spectral-selftest'"),
    (["relax", "--seed", "x"], "invalid int value: 'x'"),
    (["relax", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["demag-selftest", "spectral-selftest", "seed-x", "bogus-flag"])
def test_usage_error_exit_one(capsys, argv, message):
    # exit code 2 is kept for a numerical blow-up
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert "dissipation-scan" in capsys.readouterr().out


def test_bad_config_exit_one_lists_errors(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "[grid]\nnx = 0\nhx = -2\n")
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "grid.nx" in err
    assert "grid.hx" in err


def test_nan_epsilon_exit_one_names_the_key(tmp_path, capsys):
    # NaN passes a "<= 0" check; read as a config error, it exits 1, not 2
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG.replace("epsilon = 0.1",
                                                     "epsilon = nan"))
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    assert "invalid value for material.epsilon: nan is not a finite " \
        "number" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_missing_config_exit_one(tmp_path, capsys):
    rc = cli.main(["evolve", "--config", str(tmp_path / "absent.ini"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_evolve_writes_record_csv(tmp_path):
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG)
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    body = (tmp_path / "evolve.csv").read_text()
    lines = body.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7  # t = 0 plus 50 steps sampled every 10
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.5)
    assert np.hypot(last[2], last[3]) <= 1.0 + 1e-12


def test_evolve_rejects_dt_that_does_not_divide_t_final(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG.replace("dt = 0.01",
                                                     "dt = 0.03"))
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    assert "dt = 0.03 does not divide T = 0.5" in capsys.readouterr().err


def test_relax_reports_convergence(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG)
    rc = cli.main(["relax", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "converged=True" in captured.out
    assert "warning" not in captured.err
    assert os.path.exists(tmp_path / "relax.csv")


@pytest.mark.parametrize("command", ["evolve"])
def test_no_config_asks_for_dt_on_one_cell(tmp_path, capsys, command):
    # the default grid is one cell and the default dt is unset
    rc = cli.main([command, "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    assert "one-cell grid" in capsys.readouterr().err


def test_relax_without_config_needs_no_dt(tmp_path, capsys):
    # the relaxation takes its first step from the domain, not solver.dt
    rc = cli.main(["relax", "--out", str(tmp_path)])
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out


# an 8^3 box of side 2 holding a 192-cell ellipsoid
ELLIPSOID_8_CFG = """
[grid]
nx = 8
ny = 8
nz = 8
hx = 0.25
hy = 0.25
hz = 0.25

[domain]
shape = ellipsoid
a = 1.0
b = 0.9
c = 0.8
"""


def test_relax_on_ellipsoid_with_the_default_integrator(tmp_path, capsys):
    # the domain, not the integrator, chooses the relaxation step: a masked
    # sample under the default semi-implicit-spectral integrator, no dt
    cfg = _write_cfg(tmp_path, ELLIPSOID_8_CFG)
    rc = cli.main(["relax", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out


def test_plot_builds_svg_from_records(tmp_path):
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG)
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 0
    rc = cli.main(["plot", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    svg = (tmp_path / "evolve_energy.svg").read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    # no reference trajectory was recorded, so no distance chart appears
    assert not os.path.exists(tmp_path / "dist_h2.svg")


def test_hysteresis_emits_loop_and_summary(tmp_path):
    cfg = _write_cfg(tmp_path, """
[domain]
shape = ellipsoid
a = 3.0
b = 1.0
c = 1.0

[experiment]
lam_max = 0.6
tensor_resolution = 24
period = 200.0

[material]
epsilon = 0.001
""")
    rc = cli.main(["hysteresis", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    summary = (tmp_path / "hysteresis_summary.csv").read_text().splitlines()
    assert summary[0] == ("switching_up,switching_down,switching_predicted,"
                          "loop_area,loop_closure")
    cols = dict(zip(summary[0].split(","),
                    [float(v) for v in summary[1].split(",")]))
    assert cols["loop_area"] > 0.0
    assert cols["switching_up"] == pytest.approx(
        cols["switching_predicted"], rel=0.1)
    assert (tmp_path / "hysteresis_loop.svg").read_text().startswith("<svg")


def test_hysteresis_without_config_is_adiabatic(tmp_path):
    # unset epsilon and period take HysteresisPlan's defaults: the sphere's
    # loop all but closes, at its predicted switching field 0
    rc = cli.main(["hysteresis", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    s = _summary(tmp_path, "hysteresis_summary.csv")
    assert s["switching_predicted"] == [0.0]
    assert abs(s["switching_up"][0]) < 0.05
    assert abs(s["switching_down"][0]) < 0.05
    assert s["loop_area"][0] < 0.1


def test_evolve_on_ellipsoid_steps_explicitly(tmp_path, monkeypatch):
    # the cosine basis holds on the full box only, so a mask takes the
    # midpoint rule
    configs = []
    run = cli.integrate

    def spy(m0, solver, *args, **kwargs):
        configs.append(solver)
        return run(m0, solver, *args, **kwargs)
    monkeypatch.setattr(cli, "integrate", spy)
    cfg = _write_cfg(tmp_path, ELLIPSOID_8_CFG
                     + "\n[solver]\ndt = 0.001\nt_final = 0.01\n")
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert [c.integrator for c in configs] == ["projected-explicit"]
    assert len((tmp_path / "evolve.csv").read_text().splitlines()) == 12


def test_asymptotics_on_ellipsoid_refuses_the_default_ladder(
        tmp_path, capsys, monkeypatch):
    # dt/eps = 0.02 is far above the explicit step the mask needs
    calls = []
    monkeypatch.setattr(experiments, "relax_to_equilibrium",
                        lambda *args: calls.append(args))
    cfg = _write_cfg(tmp_path, ELLIPSOID_8_CFG)
    rc = cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    assert "error: eps = 0.1: dt = 0.002 exceeds" in capsys.readouterr().err
    assert calls == []


def test_dissipation_scan_reports_threshold(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, """
[experiment]
lambda_grid = 0.0, 0.5, 1.0
n_samples = 4
s = 0.05
""")
    rc = cli.main(["dissipation-scan", "--config", cfg,
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "negative from lambda = 0.5" in capsys.readouterr().out


def test_blow_up_exit_two(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise BlowUpError(0.1)
    monkeypatch.setattr(cli, "integrate", boom)
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG)
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 2
    assert "blow-up" in capsys.readouterr().err


def _summary(tmp_path, name="asymptotics_summary.csv"):
    lines = (tmp_path / name).read_text().splitlines()
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {name: np.array(col) for name, col in zip(names, zip(*rows))}


def test_asymptotics_box_macrospin_writes_ladder(tmp_path, capsys):
    # default ladder: epsilon halved three times, analytic reference u(t)
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG)
    rc = cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert "warning" not in capsys.readouterr().err
    for eps in ("0.1", "0.05", "0.025", "0.0125"):
        lines = (tmp_path / f"asymptotics_eps_{eps}.csv").read_text()
        assert lines.splitlines()[0] == CSV_HEADER
    header = (tmp_path / "asymptotics_summary.csv").read_text().splitlines()[0]
    assert header == "eps,tau,tau_over_eps_log,sup_dist_after_tau"
    s = _summary(tmp_path)
    assert np.allclose(s["eps"], [0.1, 0.05, 0.025, 0.0125])
    assert np.all(np.diff(s["sup_dist_after_tau"]) < 0)


def test_asymptotics_on_a_grid_below_alpha_one(tmp_path):
    # the grid semi-implicit step at alpha = 0.5 and dt/eps = 0.02: the
    # unshifted step exits 0 with sup distances near 200
    cfg = _write_cfg(tmp_path, """
[grid]
nx = 8
ny = 8
nz = 8
hx = 0.125
hy = 0.125
hz = 0.125

[material]
alpha = 0.5
epsilon_ladder = 0.1, 0.05

[field]
knots = 0:5, 10:5
direction = 0, 0, 1
rotate_to = 1, 0, 0
omega = 0.5

[solver]
t_final = 1

[experiment]
relax_tol = 1e-6
""")
    rc = cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert np.all(_summary(tmp_path)["sup_dist_after_tau"] < 0.05)


ONE_CELL_ELLIPSOID_CFG = MACROSPIN_CFG.replace(
    "direction = 0, 0, 1", "direction = 1, 0, 1") + """
[domain]
shape = ellipsoid
a = 3.0
b = 1.0
c = 1.0

[experiment]
tensor_resolution = 16
"""


def test_asymptotics_ladder_without_epsilon(tmp_path):
    # an unset material.epsilon is 0.1 for the grid commands
    text = MACROSPIN_CFG.replace("epsilon = 0.1\n", "")
    assert parse_config(text)["material"]["epsilon"] is None
    cfg = _write_cfg(tmp_path, text)
    rc = cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert np.allclose(_summary(tmp_path)["eps"], [0.1, 0.05, 0.025, 0.0125])


def test_asymptotics_one_cell_ellipsoid_relaxes_reference(tmp_path):
    # u(t) is not the equilibrium of a prolate sample, so the tracker must
    # relax; measured against u(t) the distance would not fall with eps
    cfg = _write_cfg(tmp_path, ONE_CELL_ELLIPSOID_CFG)
    rc = cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    sup_d = _summary(tmp_path)["sup_dist_after_tau"]
    assert np.all(np.diff(sup_d) < 0)
    assert sup_d[-1] < 1e-8


def test_asymptotics_one_cell_sphere_takes_u(tmp_path, monkeypatch):
    # a sphere's tensor is d I, so u(t) is its exact reference: the run
    # solves only for the initial state and matches the box, whose tensor
    # rule takes the unit sphere
    calls = []
    relax = experiments.relax_to_equilibrium

    def spy(*args):
        calls.append(args[1])
        return relax(*args)
    monkeypatch.setattr(experiments, "relax_to_equilibrium", spy)
    sphere = ONE_CELL_ELLIPSOID_CFG.replace("a = 3.0", "a = 1.0")
    for name, text in (("sphere", sphere), ("box", MACROSPIN_CFG.replace(
            "direction = 0, 0, 1", "direction = 1, 0, 1"))):
        calls.clear()
        cfg = _write_cfg(tmp_path, text)
        assert cli.main(["asymptotics", "--config", cfg,
                         "--out", str(tmp_path / name), "--quiet"]) == 0
        assert len(calls) == 1
    sphere, box = _summary(tmp_path / "sphere"), _summary(tmp_path / "box")
    for key in box:
        assert np.allclose(sphere[key], box[key], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("command", ["relax", "asymptotics"])
def test_unconverged_solves_warn(tmp_path, capsys, command):
    # one relaxation step cannot reach 1e-14; the run still succeeds
    cfg = _write_cfg(tmp_path, ONE_CELL_ELLIPSOID_CFG
                     + "relax_tol = 1e-14\nrelax_max_t = 0.05\n")
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert "warning:" in capsys.readouterr().err


GRID_8_CFG = """
[grid]
nx = 8
ny = 8
nz = 8
hx = 0.125
hy = 0.125
hz = 0.125

[solver]
t_final = 0.1

[experiment]
relax_tol = 1e-6
"""


def test_asymptotics_on_a_grid(tmp_path, capsys, monkeypatch):
    # the box runs the cosine-basis step against a relaxed reference; one
    # cell runs the midpoint rule
    plans = []
    run = cli.run_asymptotics

    def spy(plan, g, mask, demag):
        plans.append(plan)
        return run(plan, g, mask, demag)
    monkeypatch.setattr(cli, "run_asymptotics", spy)
    cfg = _write_cfg(tmp_path, GRID_8_CFG)
    rc = cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert "warning" not in capsys.readouterr().err
    assert plans[0].integrator == "semi-implicit-spectral"
    s = _summary(tmp_path)
    assert np.allclose(s["eps"], [0.1, 0.05, 0.025, 0.0125])
    assert np.all(np.diff(s["sup_dist_after_tau"]) < 0)
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG)
    assert cli.main(["asymptotics", "--config", cfg, "--out",
                     str(tmp_path / "one_cell"), "--quiet"]) == 0
    assert plans[1].integrator == "projected-explicit"


def test_plot_without_records_exit_one(tmp_path, capsys):
    # a summary table is not a run record: nothing to draw is an error
    (tmp_path / "summary.csv").write_text("a,b\n1.0,2.0\n")
    for out in (tmp_path, tmp_path / "absent"):
        rc = cli.main(["plot", "--out", str(out), "--quiet"])
        assert rc == 1
        assert f"error: no run-record CSV in {out}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["summary.csv"]


def test_relax_then_plot_a_one_row_record(tmp_path):
    # a relaxation record has one sample: the energy chart spans one t
    assert cli.main(["relax", "--out", str(tmp_path), "--quiet"]) == 0
    assert cli.main(["plot", "--out", str(tmp_path), "--quiet"]) == 0
    svg = (tmp_path / "relax_energy.svg").read_text()
    assert svg.count("<polyline") == 1
    assert not (tmp_path / "dist_h2.svg").exists()


def test_asymptotics_reads_relax_keys(tmp_path, monkeypatch):
    plans = []

    def capture(plan, g, mask, demag):
        plans.append(plan)
        return {"records": {}, "summary": []}
    monkeypatch.setattr(cli, "run_asymptotics", capture)
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG
                     + "\n[experiment]\nrelax_tol = 1e-6\nrelax_max_t = 7.0\n")
    rc = cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 0
    assert plans[0].relax_tol == 1e-6
    assert plans[0].relax_max_T == 7.0


def test_evolve_rejects_sample_every_zero(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG.replace("sample_every = 10",
                                                     "sample_every = 0"))
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    assert "sample_every must be >= 1" in capsys.readouterr().err


def test_evolve_rejects_negative_bump_radius(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MACROSPIN_CFG.replace(
        "direction = 0, 0, 1",
        "direction = 0, 0, 1\nenvelope = bump\nbump_radius = -0.5"))
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    assert "bump radius must be > 0" in capsys.readouterr().err


def _experiment(extra):
    return MACROSPIN_CFG + f"\n[experiment]\n{extra}\n"


@pytest.mark.parametrize("command, text, message", [
    ("relax", _experiment("relax_max_t = -1"), "max_T must be >= 0"),
    ("asymptotics", _experiment("relax_max_t = -1"), "max_T must be >= 0"),
    ("dissipation-scan", _experiment("n_samples = 0"),
     "n_samples must be >= 1"),
    ("hysteresis", _experiment("period = 0"),
     "period, epsilon, alpha and dt must be > 0"),
    ("asymptotics", _experiment("perturbation = 1.5"),
     "perturbation must be in (0, 1)"),
    # refused before the relaxation, not once the run reaches t = 0.2
    ("asymptotics", MACROSPIN_CFG.replace("1000.0:0.7", "0.2:0.7"),
     "T = 0.5 from t = 0.0 outlives the schedule, which ends at t = 0.2"),
], ids=["relax", "asymptotics", "dissipation-scan", "hysteresis",
        "asymptotics-perturbation", "asymptotics-past-schedule"])
def test_unrunnable_config_exit_one(tmp_path, capsys, command, text,
                                    message):
    cfg = _write_cfg(tmp_path, text)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path),
                   "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_bump_defaults_to_the_box_center():
    # the ellipsoid mask is centered in the box; so is a bump without
    # bump_center, which therefore reaches the body
    cfg = parse_config(ELLIPSOID_8_CFG
                       + "\n[field]\nenvelope = bump\nbump_radius = 0.8\n")
    g, mask, _, sched, _ = cli._build(cfg)
    h = eval_h_ext(sched, 0.0, g, mask)
    assert np.max(np.linalg.norm(h[mask.inside], axis=-1)) > 0.9


def test_asymptotics_rotating_field_then_plot(tmp_path):
    # the paper's slowly rotating field, then the distance chart of the
    # four per-eps records (the summary CSV is not a record and is skipped)
    cfg = _write_cfg(tmp_path, """
[field]
knots = 0.0:5.0, 10.0:5.0
direction = 0, 0, 1
rotate_to = 1, 0, 0
omega = 0.5

[solver]
t_final = 0.5
""")
    assert cli.main(["asymptotics", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 0
    sup_d = _summary(tmp_path)["sup_dist_after_tau"]
    assert len(sup_d) == 4
    assert np.all(np.diff(sup_d) < 0)
    assert cli.main(["plot", "--out", str(tmp_path), "--quiet"]) == 0
    svg = (tmp_path / "dist_h2.svg").read_text()
    assert svg.count("<polyline") == 4


def test_demo_configs_parse_and_name_a_command():
    # demos/<command>/<name>.ini: the directory names the tsll subcommand
    demos = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
    paths = sorted(glob.glob(os.path.join(demos, "*", "*.ini")))
    assert paths
    for path in paths:
        with open(path) as f:
            parse_config(f.read())
        assert os.path.basename(os.path.dirname(path)) in cli._COMMANDS
