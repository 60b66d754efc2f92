"""Span tracer for the traced benchmark run.

The program is not instrumented: the tracer wraps, from outside, the public
functions of ``grid``, ``demag``, ``schedule``, ``dynamics`` and
``experiments`` and the ``scipy.fft`` / ``scipy.integrate.solve_ivp`` entry
points those modules call.  Every module attribute bound to a wrapped
function is replaced, not only the one in the defining module, because most
calls go through names imported into another module (``dynamics`` calls
``demag_field`` through its own global, ``experiments`` calls
``relax_to_equilibrium`` through its own, and so on).

Spans are aggregated as they close: per name the call count, inclusive time
and self time (inclusive minus the time of wrapped child spans), plus the
ancestor-dependent counters the benchmark reports (steps inside a
relaxation, FFT time inside a demag call, DCT time inside a step).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import scipy.fft
import scipy.integrate

TRACED_MODULES = ("grid", "demag", "schedule", "dynamics", "experiments")

# Pointwise algebra helpers are inline arithmetic of their callers, not
# layers; wrapping them would only move time out of the callers' self time.
UNTRACED = {"grid.apply_mask", "grid.cross3", "grid.dot3"}

FFT_NAMES = ("rfftn", "irfftn", "dctn", "idctn")

RELAX = "dynamics.relax_to_equilibrium"
DEMAG = "demag.demag_field"
STEP = "dynamics.step"
SOLVE_IVP = "experiments.solve_ivp"

# Spans whose self time makes up trace.coverage: the layers of the per-layer
# metric list, plus the scipy transforms they call.
LISTED = (RELAX, DEMAG, "demag.demag_tensor_estimate",
          "grid.laplacian_neumann", STEP, "dynamics.parabolic_rhs_F",
          "dynamics.ll_rhs", "grid.normalize_pointwise",
          "schedule.eval_h_ext", "dynamics.energy",
          "dynamics.equilibrium_residual", SOLVE_IVP) \
    + tuple("scipy.fft." + n for n in FFT_NAMES)


class Tracer:
    """Wraps the layer functions of one process and aggregates their spans."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.relax_steps = 0
        self.relax_converged = 0
        self.fft_in_demag_s = 0.0
        self.fft_bytes_in_demag = 0
        self.dct_in_step_s = 0.0
        self.nfev = 0
        self._stack: list[list[float]] = []

    # -- installation -----------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap the layer functions wherever they are bound, for the rest of
        the process.

        extra_modules are further modules (e.g. the benchmark's own) whose
        imported names should also be replaced.
        """
        import twoscale_ll

        pkg = twoscale_ll.__name__
        targets = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    targets[id(fn)] = (fn, self._wrap(name, fn))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == pkg or n.startswith(pkg + ".")]
        modules += list(extra_modules)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        for n in FFT_NAMES:
            setattr(scipy.fft, n,
                    self._wrap("scipy.fft." + n, getattr(scipy.fft, n)))
        scipy.integrate.solve_ivp = self._wrap(SOLVE_IVP,
                                               scipy.integrate.solve_ivp)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        active = self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time covered by wrapped child spans
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self.calls[name] += 1
                self.incl[name] += dur
                self.self_time[name] += dur - frame[0]
            self._close(name, dur, args, result)
            return result

        return span

    def _close(self, name: str, dur: float, args, result) -> None:
        """Counters that depend on a span's ancestors or its result."""
        if name == STEP:
            if self.active[RELAX]:
                self.relax_steps += 1
        elif name == RELAX:
            self.relax_converged += bool(result[1])
        elif name in ("scipy.fft.rfftn", "scipy.fft.irfftn"):
            if self.active[DEMAG]:
                self.fft_in_demag_s += dur
                # computed from array sizes: transform input plus output
                self.fft_bytes_in_demag += args[0].nbytes + result.nbytes
        elif name in ("scipy.fft.dctn", "scipy.fft.idctn"):
            if self.active[STEP]:
                self.dct_in_step_s += dur
        elif name == SOLVE_IVP:
            self.nfev += int(result.nfev)

    # -- report -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of one traced study call lasting wall_s."""
        out: dict[str, float] = {}
        relax_calls = self.calls[RELAX]
        out[RELAX + ".calls"] = relax_calls
        out[RELAX + ".incl_s"] = self.incl[RELAX]
        out[RELAX + ".steps"] = self.relax_steps
        out[RELAX + ".converged_ratio"] = (
            self.relax_converged / relax_calls if relax_calls else 0.0)
        out[DEMAG + ".calls"] = self.calls[DEMAG]
        out[DEMAG + ".self_s"] = self.self_time[DEMAG]
        out[DEMAG + ".fft_s"] = self.fft_in_demag_s
        out[DEMAG + ".bytes_computed"] = self.fft_bytes_in_demag
        out["demag.demag_tensor_estimate.incl_s"] = \
            self.incl["demag.demag_tensor_estimate"]
        for name in ("grid.laplacian_neumann", STEP,
                     "dynamics.parabolic_rhs_F", "dynamics.ll_rhs",
                     "grid.normalize_pointwise", "schedule.eval_h_ext",
                     "dynamics.energy", "dynamics.equilibrium_residual",
                     SOLVE_IVP):
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_time[name]
        out[STEP + ".dct_s"] = self.dct_in_step_s
        out[SOLVE_IVP + ".nfev"] = self.nfev
        out["trace.coverage"] = sum(self.self_time[n] for n in LISTED) / wall_s
        return out
