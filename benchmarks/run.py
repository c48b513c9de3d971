"""Run one workload of the kiloland benchmark and print its result.

    python3 benchmarks/run.py --workload daily_w1 --seed 1 --seconds 12 --trace 0

Run from any directory; the benchmark works on the checkout it sits in. It
makes the workload's inputs from the seed three times (the median is
`setup_s`), then times calls of the workload in a process of its own for
`--seconds` seconds (see measure.py), checks the outputs of the last call
(see checks.py), writes a record of the run under `.benchmarks/kiloland/`
and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With `--trace 0` the metrics are the end-to-end ones (`wall_s`, `sypd`,
`setup_s`, `peak_rss_mib`); with `--trace 1` the calls alternate untraced
and traced, and the metrics are the per-layer ones (see tracing.py).
Generated inputs and outputs live under `.bench_work/` and are removed at
the end. Without the checkout's `src/kiloland` the command exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

from common import HERE, WORK_DIR, MissingSources, use_checkout_kiloland

SETUPS = 3
MEASURE_TIMEOUT_S = 150

END_TO_END = {  # name: (unit, better, bound)
    "wall_s": ("s", "lower", 0.25),
    "sypd": ("yr/day", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
}

def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="reference",
                   help="input size; `small` is for the benchmark's own tests")
    return p.parse_args(argv)


def _measure(job: dict) -> dict:
    """Run measure.py on `job` in its own process group and wait for it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _checks(w, args, work, inputs, columns, measured) -> list:
    import checks
    import workloads

    ok = [r for r in measured["reps"] if r["ok"]]
    out_dir = work / "out"
    inputs_dir = work / "inputs"
    failures = []
    if w.kind == "simulation":
        failures += checks.check_sizes(out_dir)
        cfg = workloads.case_config(w, inputs_dir)
        failures += checks.check_reference(out_dir, columns, checks.reference_run(columns, cfg))
        if w.lnd_workers > 1:
            failures += checks.check_invariance(w, inputs_dir, out_dir, work / "serial")
        elif w.history_interval == "daily":
            failures += checks.check_restart_transparency(w, inputs_dir, out_dir, work / "resume")
    else:
        for rep in ok:
            failures += checks.check_verdicts(rep["verdicts"])
        failures += checks.check_daily_aggregates(inputs)
        failures += checks.check_pct_pft(out_dir / workloads.SURFACE_FILE)
        copy = work / "flipped.nc"
        name, index = checks.flip_bit(out_dir / workloads.DOMAIN_FILE, copy, args.seed)
        failures += checks.check_flip_detected(out_dir / workloads.DOMAIN_FILE, copy, name, index)
    if args.trace:
        failures += checks.check_trace(w, [r for r in ok if r["traced"]])
    return failures


def _metrics(w, args, setup_times, measured) -> dict:
    import tracing
    from kiloland import perf

    ok = [r for r in measured["reps"] if r["ok"]]
    untraced = [r["wall_s"] for r in ok if not r["traced"]]
    if not args.trace:
        wall = median(untraced)
        values = {
            "wall_s": wall,
            "sypd": perf.compute_sypd(wall, w.simulated_days),
            "setup_s": median(setup_times),
            "peak_rss_mib": measured["peak_rss_mib"],
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    else:
        traced = [r["layers"] for r in ok if r["traced"]]
        values = {name: median([m[name] for m in traced]) for name in traced[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - median(untraced)
        units = {name: spec[0] for name, spec in tracing.PER_LAYER.items()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    try:
        use_checkout_kiloland()
    except MissingSources as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    import checks
    import records
    import workloads

    args = parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    work = WORK_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for _ in range(SETUPS):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            t0 = time.perf_counter()
            inputs = workloads.make_inputs(work / "inputs", args.seed, size)
            setup_times.append(time.perf_counter() - t0)
        columns = checks.column_inputs(inputs, args.seed) if w.kind == "simulation" else None
        if w.kind == "simulation":
            inputs = None  # the measured process reads the files; free the arrays
        measured = _measure({
            "workload": w.name, "size": args.size, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "inputs_dir": str(work / "inputs"), "out_dir": str(work / "out"),
        })
        if measured["failed"] == measured["attempted"]:
            print("run.py: every timed call failed", file=sys.stderr)
            return 1
        failures = _checks(w, args, work, inputs, columns, measured)
        result = {
            "correct": not failures,
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": _metrics(w, args, setup_times, measured),
        }
        for line in failures:
            print(f"check failed: {line}", file=sys.stderr)
        records.write(args, result, failures, setup_times, measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
