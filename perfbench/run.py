"""Benchmark of the twoscale_ll studies: time to solution end to end, and
per-layer spans from a separate traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload macrospin --seed 1 --seconds 60 --trace 0

A workload runs in fresh single processes (perfbench/rep.py) with one
caller: a closed loop.  With ``--trace 0`` the run first starts a few
set-up-only processes, then one process that builds the inputs once and
repeats the study call untraced until ``--seconds`` are used; it reports the
end-to-end metrics as medians over those samples.  With ``--trace 1`` it
alternates untraced and traced single-study processes and reports the
per-layer metrics.  Human-readable lines and an environment
record come first; the last line of standard output is the JSON result.
Exits with code 2, printing no result, when there is no twoscale_ll source
tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REP = os.path.join(HERE, "rep.py")

WORKLOADS = ("tracking16", "macrospin")
# A run must end within 180 s even when one repetition is slow.
HARD_LIMIT_S = 170.0
# Set-up-only processes started before the repetitions; with the
# repetition process's own set-up they give the setup_s samples.
SETUP_PROBES = 5

# Pin every thread pool numpy/scipy may use; scipy.fft is single-threaded
# unless a caller passes workers=.  A fixed hash seed keeps dict and set
# layouts, and so the per-call cost of the Python layers, the same in every
# process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
PROCESS_ENV = dict(THREAD_ENV, PYTHONHASHSEED="0")

UNITS = {
    "wall_s": "s", "setup_s": "s", "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".steps", ".nfev")):
        return "count"
    if name.endswith(".bytes_computed"):
        return "B"
    if name.endswith((".converged_ratio", ".coverage")):
        return "ratio"
    return "s"


class Runner:
    """Starts the processes of one workload within one run's time."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.env = dict(os.environ, **PROCESS_ENV,
                        PYTHONPATH=os.pathsep.join((SRC, HERE)))

    def spawn(self, mode: str, deadline: float = 0.0) -> dict:
        """One rep.py process; returns its set-up time, its repetition
        records (each with "failed" set) and its duration.  A process that
        dies, times out or prints something unreadable adds one failed
        repetition after those it finished."""
        timeout = max(1.0, self.start + HARD_LIMIT_S - time.monotonic())
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, REP, self.workload, str(self.seed), mode,
             repr(deadline)],
            env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
            problem = (f"exit code {proc.returncode}: {err.strip()[-2000:]}"
                       if proc.returncode else None)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            problem = f"timed out after {timeout:.0f} s"
        rec = {"duration": time.monotonic() - t0, "reps": []}
        for line in out.splitlines():
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                problem = problem or f"unreadable line: {line[:200]}"
                continue
            if "setup_end" in event:
                rec.update(event, setup_s=event["setup_end"] - t0)
            else:
                event["failed"] = bool(event["error"] or event["failures"])
                rec["reps"].append(event)
        if problem or "setup_s" not in rec or \
                (mode != "setup" and not rec["reps"]):
            rec["reps"].append({"failed": True,
                                "error": problem or "no result printed"})
        return rec


def _read(path: str) -> str:
    with open(path) as f:
        return f.read().strip()


def environment(procs: list[dict]) -> dict:
    """Versions, CPU, caches and thread settings of this measurement."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            level, kind, size = (_read(os.path.join(base, idx, f))
                                 for f in ("level", "type", "size"))
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = size
    except OSError:
        pass
    ws = next((p["working_set_bytes"] for p in procs
               if "working_set_bytes" in p), None)
    l3 = caches.get("L3", "")
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "threads": THREAD_ENV,
        "pythonhashseed": PROCESS_ENV["PYTHONHASHSEED"],
        "working_set_mib_computed": round(ws / 2**20, 2) if ws else None,
        "working_set_fits_l3": bool(ws and l3_bytes and ws < l3_bytes),
        # All working sets fit in L3, so no memory-bandwidth or roofline
        # figure is derived from these timings.
        "bandwidth_or_roofline_claimed": False,
    }


def median(values: list[float]) -> float:
    """Median, NaN when every repetition failed before measuring."""
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(runner: Runner) -> tuple[dict, list[dict]]:
    """Set-up-only probes, then one process that repeats the study until
    the run's time is used; end-to-end metrics."""
    procs = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    procs.append(runner.spawn("run", runner.deadline))
    reps = [r for p in procs for r in p["reps"]]
    ok = [r for r in reps if "wall_s" in r]
    walls = [r["wall_s"] for r in ok]
    setups = [p["setup_s"] for p in procs if "setup_s" in p]
    cell_steps = procs[-1].get("cell_steps", 0)
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "cell_steps_per_s": median([cell_steps / w for w in walls]),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in ok),
                           default=float("nan")),
    }
    print(f"# samples: wall_s {[round(x, 4) for x in walls]}, "
          f"setup_s {[round(x, 4) for x in setups]}")
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, procs


def per_layer(runner: Runner) -> tuple[dict, list[dict]]:
    """Alternating untraced and traced single-study processes; per-layer
    metrics."""
    plain: list[dict] = []
    traced: list[dict] = []
    pairs: list[float] = []
    while not pairs or \
            time.monotonic() + statistics.median(pairs) <= runner.deadline:
        plain.append(runner.spawn("run"))
        traced.append(runner.spawn("trace"))
        pairs.append(plain[-1]["duration"] + traced[-1]["duration"])
    plain_wall = [r["wall_s"] for p in plain for r in p["reps"]
                  if "wall_s" in r]
    layered = [r for p in traced for r in p["reps"] if "layers" in r]
    metrics = {}
    if layered:
        for key in layered[0]["layers"]:
            metrics[key] = median([r["layers"][key] for r in layered])
        metrics["trace.wall_s"] = median([r["wall_s"] for r in layered])
        metrics["trace.overhead_s"] = \
            metrics["trace.wall_s"] - median(plain_wall)
    print(f"# samples: untraced {len(plain_wall)}, traced {len(layered)}")
    return {k: (v, layer_unit(k)) for k, v in metrics.items()}, \
        plain + traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "twoscale_ll", "__init__.py")):
        print(f"no twoscale_ll source tree under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    measure = per_layer if args.trace else end_to_end
    metrics, procs = measure(runner)
    reps = [r for p in procs for r in p["reps"]]
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        if r["failed"]:
            print(f"# failed repetition: {r.get('error') or r['failures']}",
                  file=sys.stderr)
    obs = next((r["observables"] for r in reps if "observables" in r), None)
    print("# environment: " + json.dumps(environment(procs)))
    print("# observables: " + json.dumps(obs))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {failed}/{len(reps)} "
          f"= {failed / len(reps):.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
