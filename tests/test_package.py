"""The package namespace."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import twoscale_ll


def test_every_library_exception_is_re_exported():
    # public calls raise these, so callers catch them from the package
    found = set()
    for info in pkgutil.iter_modules(twoscale_ll.__path__):
        mod = importlib.import_module(f"twoscale_ll.{info.name}")
        for name, obj in vars(mod).items():
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj.__module__ == mod.__name__):
                found.add(name)
                assert getattr(twoscale_ll, name, None) is obj, name
    assert {"BlowUpError", "ConfigError", "DegenerateCellError",
            "ModeMismatchError", "ShapeMismatchError"} <= found


def test_import_leaves_the_ode_solver_unloaded():
    # only the hysteresis sweep integrates an ODE, so only it pays for
    # loading scipy.integrate (and the optimize/sparse/linalg it pulls in)
    code = (
        "import json, sys\n"
        "import twoscale_ll, twoscale_ll.cli\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "plan = twoscale_ll.HysteresisPlan(twoscale_ll.EllipsoidSpec("
        "1.0, 1.0, 1.0), lam_max=0.6, period=20.0, epsilon=0.01, dt=0.5)\n"
        "out = twoscale_ll.run_hysteresis(plan)\n"
        "print(json.dumps([before, 'scipy.integrate' in sys.modules, "
        "len(out['lam']), out['loop_closure']]))\n")
    src = os.path.dirname(os.path.dirname(twoscale_ll.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    before, after, n, closure = json.loads(run.stdout.splitlines()[-1])
    assert before is False
    assert after is True
    assert n == 41 and closure < 1e-3
