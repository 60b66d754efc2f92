"""Configuration parsing and validation."""

import pytest

from twoscale_ll.config import ConfigError, parse_config
from twoscale_ll.experiments import AsymptoticsPlan, HysteresisPlan

GOOD = """
[grid]
nx = 16
ny = 16
nz = 16
hx = 0.0625
hy = 0.0625
hz = 0.0625

[domain]
shape = ellipsoid
a = 1.0
b = 0.8
c = 0.6

[material]
alpha = 1.0
epsilon = 0.05
epsilon_ladder = 0.2, 0.1, 0.05

[field]
knots = 0.0:1.0, 2.0:3.0
direction = 0, 0, 1
envelope = constant

[solver]
t_final = 0.5
sample_every = 10

[experiment]
lam_max = 0.6
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg["grid"]["nx"] == 16
    assert cfg["grid"]["hx"] == 0.0625
    assert cfg["domain"]["shape"] == "ellipsoid"
    assert cfg["material"]["epsilon_ladder"] == (0.2, 0.1, 0.05)
    assert cfg["field"]["knots"] == ((0.0, 1.0), (2.0, 3.0))
    assert cfg["field"]["direction"] == (0.0, 0.0, 1.0)
    assert "integrator" not in cfg["solver"]  # the domain picks it
    # unset sections take schema defaults
    assert cfg["experiment"]["period"] is None
    assert cfg["solver"]["dt"] is None


def test_defaults_only():
    cfg = parse_config("")
    assert cfg["grid"]["nx"] == 1
    assert cfg["material"]["epsilon"] is None
    assert cfg["domain"]["shape"] == "box"


def test_study_defaults_are_the_plans():
    # one default per setting: tsll runs what a library caller gets
    cfg = parse_config("")
    assert cfg["experiment"]["perturbation"] == \
        AsymptoticsPlan.perturbation
    assert cfg["experiment"]["relax_tol"] == AsymptoticsPlan.relax_tol \
        == 1e-8
    assert cfg["experiment"]["relax_max_t"] == \
        AsymptoticsPlan.relax_max_T
    assert cfg["experiment"]["tensor_resolution"] == \
        HysteresisPlan.tensor_resolution


def test_multiple_errors_listed():
    bad = """
[grid]
nx = 0
hx = -1.0

[material]
epsilon = -0.5
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msgs = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 3
    assert "grid.nx" in msgs
    assert "grid.hx" in msgs
    assert "material.epsilon" in msgs


def test_unknown_section_and_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("[nonsense]\nfoo = 1\n")
    assert any("unknown section" in m for m in exc.value.errors)
    with pytest.raises(ConfigError) as exc:
        parse_config("[grid]\nfoo = 1\n")
    assert any("unknown key grid.foo" in m for m in exc.value.errors)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[grid]\nnx = 2\nnx = 3\n")
    assert any("duplicate" in m for m in exc.value.errors)


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("[grid]\nnx = lots\n")
    assert any("grid.nx" in m for m in exc.value.errors)
    with pytest.raises(ConfigError) as exc:
        parse_config("[field]\ndirection = 1, 2\n")
    assert any("field.direction" in m for m in exc.value.errors)


def test_ellipsoid_requires_axes_in_order():
    with pytest.raises(ConfigError) as exc:
        parse_config("[domain]\nshape = ellipsoid\n")
    assert any("required" in m for m in exc.value.errors)
    with pytest.raises(ConfigError):
        parse_config("[domain]\nshape = ellipsoid\na = 1\nb = 2\nc = 1\n")


def test_knot_times_must_increase():
    with pytest.raises(ConfigError) as exc:
        parse_config("[field]\nknots = 1.0:0.0, 0.5:1.0\n")
    assert any("increasing" in m for m in exc.value.errors)


def test_ladder_must_decrease():
    with pytest.raises(ConfigError):
        parse_config("[material]\nepsilon_ladder = 0.1, 0.2\n")


def test_relax_tol_must_be_positive():
    # no residual falls below a tolerance <= 0: the relaxation would use up
    # its budget and report converged = False
    for tol in ("0.0", "-1.0"):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[experiment]\nrelax_tol = {tol}\n")
        assert "experiment.relax_tol must be > 0" in exc.value.errors


def test_bump_envelope_requires_radius():
    with pytest.raises(ConfigError):
        parse_config("[field]\nenvelope = bump\n")
    cfg = parse_config("[field]\nenvelope = bump\nbump_radius = 0.4\n")
    assert cfg["field"]["bump_radius"] == 0.4


@pytest.mark.parametrize("text, message", [
    ("[solver]\ndt = 0\n", "solver.dt must be > 0"),
    ("[solver]\nt_final = -1\n", "solver.t_final must be >= 0"),
    ("[solver]\nintegrator = rk4\n", "unknown key solver.integrator"),
    ("[field]\nenvelope = gauss\n", "field.envelope must be constant or bump"),
    ("[domain]\nshape = cube\n", "domain.shape must be box or ellipsoid"),
    ("[grid]\nnx = 2\n[grid]\nny = 2\n", "duplicate section grid"),
    ("nx = 2\n", "syntax error:"),
    ("[field]\nknots = ,\n", "invalid value for field.knots: empty knot list"),
    ("[experiment]\ntensor_resolution = 8\n",
     "experiment.tensor_resolution must be >= 16"),
    # NaN passes every "<= 0" check; non-finite numbers are refused as read
    ("[material]\nepsilon = nan\n",
     "invalid value for material.epsilon: nan is not a finite number"),
    ("[solver]\ndt = nan\n",
     "invalid value for solver.dt: nan is not a finite number"),
    ("[experiment]\nrelax_tol = nan\n",
     "invalid value for experiment.relax_tol: nan is not a finite number"),
    ("[field]\nknots = 0:1, 1:nan\n",
     "invalid value for field.knots: nan is not a finite number"),
    ("[grid]\nhx = inf\n",
     "invalid value for grid.hx: inf is not a finite number"),
    ("[field]\ndirection = 0, -inf, 1\n",
     "invalid value for field.direction: -inf is not a finite number"),
    ("[material]\nepsilon_ladder = 0.1, 1e999\n",
     "invalid value for material.epsilon_ladder: 1e999 is not a finite"),
], ids=["dt", "t_final", "integrator", "envelope", "shape",
        "duplicate-section", "no-section", "empty-knots",
        "tensor-resolution", "nan-epsilon", "nan-dt", "nan-relax-tol",
        "nan-knot", "inf-hx", "inf-direction", "overflow-ladder"])
def test_each_error_branch_names_its_problem(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert len(exc.value.errors) == 1
    assert exc.value.errors[0].startswith(message)
