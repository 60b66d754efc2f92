"""Repetitions of one workload, in a fresh process.

Usage (started by run.py, with src/ and perfbench/ on PYTHONPATH):

    python3 perfbench/rep.py <workload> <seed> <mode> [<deadline>]

mode is ``setup`` (build the inputs and exit), ``run`` (untraced study calls
with their output checks) or ``trace`` (one study call under the span
tracer).  In ``run`` mode the process builds the inputs once and repeats the
study call until the next call, as long as the median call so far, would end
after ``deadline`` (a CLOCK_MONOTONIC time); it always makes one call.

The process prints one JSON line per event, flushed at once so that a parent
which has to kill it still reads every finished repetition:

* first, the CLOCK_MONOTONIC time at which set-up ended (the parent measures
  set-up from the moment it started this process), with the workload's
  cell x step count and computed working set;
* then one line per study call: its wall time, the peak RSS of the process
  so far, failed checks and any error.  A successful call also carries the
  headline observables, and a traced call its layer metrics.

A failing study is reported, not raised, so the parent can count it and go
on.
"""

import json
import resource
import statistics
import sys
import time
import traceback


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def repetition(w, tracer=None) -> dict:
    """One timed study call and its checks."""
    error = None
    t0 = time.perf_counter()
    try:
        result = w.study()
    except Exception:  # a failed run is counted by the parent, not fatal
        result = None
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    out = {}
    failures: list[str] = []
    if tracer is not None:
        # read before the checks below add calls of their own
        out["layers"] = tracer.layer_metrics(wall)
        missing = [n for n in w.expected_layers if tracer.calls[n] == 0]
        if missing:
            failures.append(f"layers predicted to be called recorded no "
                            f"calls: {missing}")
    if result is not None:
        failures += w.check(result)
        out["observables"] = w.observables(result)
    out.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failures=failures,
        error=error,
    )
    return out


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    deadline = float(argv[3]) if len(argv) > 3 else 0.0
    import workloads

    w = workloads.WORKLOADS[name](seed)
    emit({"setup_end": time.monotonic(), "cell_steps": w.cell_steps,
          "working_set_bytes": w.working_set_bytes})
    if mode == "setup":
        return 0
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install(extra_modules=[workloads])
        emit(repetition(w, tracer))
        return 0

    walls: list[float] = []
    while not walls or \
            time.monotonic() + statistics.median(walls) <= deadline:
        rec = repetition(w)
        walls.append(rec["wall_s"])
        emit(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
