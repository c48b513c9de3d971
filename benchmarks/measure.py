"""Timed calls of one workload, in a process of their own.

Run by `run.py` after set-up, so that the peak resident memory this process
and its pool workers reach is that of the timed calls alone:

    python3 benchmarks/measure.py '<json job>'

The job names the workload, the size, the seed, the input and work
directories, the run length and whether to trace. Calls repeat until the
run length is spent (at least once, and with tracing at least one untraced
and one traced call, alternating). The last line of standard output is a
JSON object with the per-call wall times, the per-layer metrics of traced
calls, the operation counts and the peak memory.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from common import use_checkout_kiloland


def _peak_rss_mib(lnd_workers: int) -> float:
    """High-water resident memory of this process plus its pool workers
    (each counted at the largest worker's high-water mark, copy-on-write
    pages shared with this process included)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if lnd_workers > 1 else 0
    return (own + lnd_workers * workers) / 1024.0


def measure(job: dict) -> dict:
    use_checkout_kiloland()
    import tracing
    import workloads

    w = workloads.WORKLOADS[job["workload"]]
    size = workloads.SIZES[job["size"]]
    inputs_dir = Path(job["inputs_dir"])
    out_dir = Path(job["out_dir"])
    tracer = tracing.Tracer(out_dir.parent / "spool") if job["trace"] else None

    if w.kind == "simulation":
        def call():
            workloads.run_simulation(w, inputs_dir, out_dir)
            return {}
    else:
        def call():
            return {"verdicts": workloads.prepare_and_verify(inputs_dir, out_dir, job["seed"], size)}

    reps = []
    errors = []
    min_calls = 2 if tracer else 1
    began = time.perf_counter()
    while len(reps) < min_calls or time.perf_counter() - began < job["seconds"]:
        shutil.rmtree(out_dir, ignore_errors=True)
        traced = tracer is not None and len(reps) % 2 == 1
        rep = {"traced": traced, "ok": False}
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            rep.update(call())
            t1 = time.perf_counter()
            rep["ok"] = True
        except Exception:
            errors.append(traceback.format_exc())
        finally:
            if traced:
                tracer.uninstall()
        by_pid = tracer.collect() if traced else None
        if rep["ok"]:
            rep["wall_s"] = t1 - t0
            if traced:
                rep["processes"] = len(by_pid)
                rep["layers"] = tracing.rep_metrics(by_pid, t0, t1)
        reps.append(rep)
    return {
        "reps": reps,
        "attempted": len(reps),
        "failed": sum(not r["ok"] for r in reps),
        "errors": errors,
        "peak_rss_mib": _peak_rss_mib(w.lnd_workers),
    }


if __name__ == "__main__":
    result = measure(json.loads(sys.argv[1]))
    for text in result["errors"]:
        print(text, file=sys.stderr)
    print(json.dumps(result))
