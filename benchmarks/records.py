"""Run records, and a command that diffs two sets of them.

Every run of run.py writes one JSON record under `.benchmarks/kiloland/`
holding the machine (nproc, Python and numpy versions), the git SHA of the
checkout (`unknown` outside a git repository), the seed, the operation
counts, the check failures, every metric and the per-call times.

    python3 benchmarks/records.py A B

diffs two records, or two directories of records: for each workload, trace
mode and metric it prints the median over the records on each side and the
change of B against A.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

from common import RECORD_DIR, ROOT


def git_sha(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write(args, result, failures, setup_times, measured) -> Path:
    import numpy

    ok = [r for r in measured["reps"] if r["ok"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": failures,
        "metrics": result["metrics"],
        "setup_s_each": setup_times,
        "wall_s_each": [r["wall_s"] for r in ok if not r["traced"]],
        "traced_wall_s_each": [r["wall_s"] for r in ok if r["traced"]],
    }
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RECORD_DIR / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def load(path) -> list:
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def medians(records) -> dict:
    """(workload, trace, metric) -> (median value, unit, number of records)."""
    values = defaultdict(list)
    units = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            key = (rec["workload"], rec["trace"], name)
            values[key].append(m["value"])
            units[key] = m["unit"]
    return {k: (median(v), units[k], len(v)) for k, v in values.items()}


def diff(a_records, b_records) -> str:
    a, b = medians(a_records), medians(b_records)
    lines = [f"{'workload':<12} {'t':>1} {'metric':<30} {'A':>12} {'B':>12} {'B/A-1':>8}  unit"]
    for key in sorted(set(a) | set(b)):
        workload, trace, name = key
        va = a.get(key, (None,))[0]
        vb = b.get(key, (None,))[0]
        unit = (a.get(key) or b.get(key))[1]
        change = f"{vb / va - 1:+8.1%}" if va and vb is not None else f"{'-':>8}"
        fa = f"{va:12.4g}" if va is not None else f"{'-':>12}"
        fb = f"{vb:12.4g}" if vb is not None else f"{'-':>12}"
        lines.append(f"{workload:<12} {trace:>1} {name:<30} {fa} {fb} {change}  {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(diff(load(argv[0]), load(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
