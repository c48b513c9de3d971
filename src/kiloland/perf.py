"""Hierarchical region timing, scaling metrics, the strong/weak scaling
harness, and an analytic cost-model predictor.

Timers nest by region name; each worker owns a private tree and the trees
merge by path after a run (max/min/mean across workers; component wall
time is the max). Metrics follow the standard definitions: SYPD uses a
365-day year, strong-scaling efficiency is actual over ideal speedup, weak
efficiency is the baseline time over the scaled time, and bandwidth is
reported in binary units (MiB/s, GiB/s) from decimal-GB inputs.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

__all__ = [
    "Bandwidth",
    "CostModel",
    "MergedTimer",
    "ScalingRecord",
    "ScalingTable",
    "TimerTree",
    "bandwidth",
    "compute_sypd",
    "predict_times",
    "render_scaling_svg",
    "run_scaling_suite",
    "scaling_csv",
    "weak_efficiency",
]

SECONDS_PER_DAY = 86_400.0
DAYS_PER_YEAR = 365.0


class TimerTree:
    """One worker's nested wall-clock regions."""

    def __init__(self, name: str = "root"):
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.children: dict = {}

    def child(self, name: str) -> "TimerTree":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = TimerTree(name)
        return node

    def timed(self) -> "_Pass":
        """Time one pass through this node's own region (a context manager
        that yields the node)."""
        return _Pass(self)

    def region(self, name: str) -> "_Pass":
        return _Pass(self.child(name))

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        node = self.child(name)
        node.seconds += seconds
        node.count += count

    def total(self, path: str) -> float:
        node = self
        for part in path.split("/"):
            node = node.children[part]
        return node.seconds

    def validate(self) -> None:
        """Children must not out-sum their parent (within a millisecond)."""
        for node in self._walk():
            if node.children and node.seconds > 0:
                child_sum = sum(c.seconds for c in node.children.values())
                if child_sum > node.seconds + 0.001:
                    raise ValueError(
                        f"region {node.name}: children sum {child_sum:.6f}s exceeds "
                        f"parent {node.seconds:.6f}s"
                    )

    def _walk(self):
        yield self
        for c in self.children.values():
            yield from c._walk()

    def report(self, indent: int = 0) -> str:
        lines = [f"{'  ' * indent}{self.name}: {self.seconds:.4f}s x{self.count}"]
        for c in self.children.values():
            lines.append(c.report(indent + 1))
        return "\n".join(lines)


class _Pass:
    """One timed pass through a node: its seconds and count are added on
    exit, also when the body raises (the exception propagates)."""

    __slots__ = ("node", "t0")

    def __init__(self, node: TimerTree):
        self.node = node

    def __enter__(self) -> TimerTree:
        self.t0 = time.perf_counter()
        return self.node

    def __exit__(self, *exc) -> None:
        node = self.node
        node.seconds += time.perf_counter() - self.t0
        node.count += 1


@dataclass
class MergedTimer:
    name: str
    max_seconds: float
    min_seconds: float
    mean_seconds: float
    n_workers: int
    children: dict = field(default_factory=dict)


def merge_timers(trees: list, name: str = "root") -> MergedTimer:
    """Merge per-worker trees by region name; wall time is the max."""
    secs = [t.seconds for t in trees]
    merged = MergedTimer(
        name=name,
        max_seconds=max(secs),
        min_seconds=min(secs),
        mean_seconds=sum(secs) / len(secs),
        n_workers=len(trees),
    )
    names = []
    for t in trees:
        for n in t.children:
            if n not in names:
                names.append(n)
    for n in names:
        subtrees = [t.children[n] for t in trees if n in t.children]
        merged.children[n] = merge_timers(subtrees, name=n)
    return merged


# ---------------------------------------------------------------------------
# Metrics


def compute_sypd(wall_seconds: float, sim_days: float) -> float:
    """Simulated years per wall-clock day, on a 365-day year."""
    if wall_seconds <= 0:
        raise ValueError("wall_seconds must be positive")
    return (sim_days / DAYS_PER_YEAR) / (wall_seconds / SECONDS_PER_DAY)


@dataclass
class ScalingRecord:
    case: str
    component: str  # ATM, CPL or LND
    n_cores: int
    init_seconds: float
    run_seconds: float
    sim_days: float
    cells_per_core: float = 0.0
    label: str = "measured"

    @property
    def sypd(self) -> float:
        return compute_sypd(self.run_seconds, self.sim_days)


@dataclass
class ScalingTable:
    """Strong-scaling speedup, ideal speedup, and parallel efficiency."""

    records: list

    def __post_init__(self):
        base = self.records[0]
        cases = {r.component for r in self.records}
        if len(cases) != 1:
            raise ValueError("records must share one component")
        cores = [r.n_cores for r in self.records]
        if len(set(cores)) != len(cores):
            raise ValueError("duplicate core counts in scaling records")
        if any(r.run_seconds <= 0 for r in self.records):
            raise ValueError("run_seconds must be positive")
        self.speedup = [base.run_seconds / r.run_seconds for r in self.records]
        self.ideal = [r.n_cores / base.n_cores for r in self.records]
        self.efficiency = [s / i for s, i in zip(self.speedup, self.ideal)]


def weak_efficiency(records: list) -> list:
    """Scaled efficiency T_base / T_i for constant per-core workload, the
    first record being the baseline; cells per core may drift by 5%."""
    base = records[0]
    for r in records:
        if base.cells_per_core and r.cells_per_core:
            drift = abs(r.cells_per_core - base.cells_per_core) / base.cells_per_core
            if drift > 0.05:
                raise ValueError(
                    f"cells per core varies by {drift:.1%} (> 5%): "
                    "not a weak-scaling series"
                )
    return [base.run_seconds / r.run_seconds for r in records]


@dataclass
class Bandwidth:
    bytes: float
    seconds: float

    @property
    def mib_per_s(self) -> float:
        return self.bytes / self.seconds / 2**20

    @property
    def gib_per_s(self) -> float:
        return self.bytes / self.seconds / 2**30


def bandwidth(decimal_gb: float, seconds: float) -> Bandwidth:
    """Write rate from a decimal-GB volume (1 GB = 1e9 B), in binary units."""
    if decimal_gb <= 0 or seconds <= 0:
        raise ValueError("bandwidth needs positive volume and time")
    return Bandwidth(bytes=decimal_gb * 1e9, seconds=seconds)


# ---------------------------------------------------------------------------
# Cost-model predictor (labeled "model" in all outputs)


@dataclass
class CostModel:
    """T(P) = c_cell*N*steps/P + c_sync*steps*log2(max(P, 2)): compute and
    sync only, with no I/O term."""

    c_cell: float = 0.0  # seconds per cell-step
    c_sync: float = 0.0  # seconds per step per log2(P)

    def calibrated(self) -> bool:
        return self.c_cell > 0

    @staticmethod
    def _check(n_cells: int, n_steps: int, n_cores: int) -> None:
        if min(n_cells, n_steps, n_cores) < 1:
            raise ValueError(
                f"cells, steps and cores must be >= 1, not {n_cells}, {n_steps}, {n_cores}"
            )

    def calibrate(self, run_seconds: float, n_cells: int, n_steps: int, n_cores: int) -> None:
        self._check(n_cells, n_steps, n_cores)
        sync = self.c_sync * n_steps * math.log2(max(n_cores, 2))
        self.c_cell = max(run_seconds - sync, 0.0) * n_cores / (n_cells * n_steps)

    def predict(self, n_cells: int, n_steps: int, n_cores: int) -> float:
        self._check(n_cells, n_steps, n_cores)
        return (
            self.c_cell * n_cells * n_steps / n_cores
            + self.c_sync * n_steps * math.log2(max(n_cores, 2))
        )


def predict_times(model: CostModel, n_cells: int, n_steps: int, core_counts: list,
                  sim_days: float, case: str = "predicted") -> ScalingTable:
    if not model.calibrated():
        raise ValueError("cost model is not calibrated (run calibrate first)")
    records = [
        ScalingRecord(
            case=case,
            component="LND",
            n_cores=p,
            init_seconds=0.0,
            run_seconds=model.predict(n_cells, n_steps, p),
            sim_days=sim_days,
            cells_per_core=n_cells / p,
            label="model",
        )
        for p in core_counts
    ]
    return ScalingTable(records)


# ---------------------------------------------------------------------------
# CSV and SVG outputs

CSV_HEADER = "case,component,phase,cores,seconds,sypd,speedup,efficiency"


def scaling_csv(*tables: ScalingTable) -> str:
    """One header line, then the init and run rows of every table."""
    lines = [CSV_HEADER]
    for table in tables:
        for r, s, e in zip(table.records, table.speedup, table.efficiency):
            lines.append(
                f"{r.case},{r.component},init,{r.n_cores},{r.init_seconds:.6f},,,"
            )
            lines.append(
                f"{r.case},{r.component},run,{r.n_cores},{r.run_seconds:.6f},"
                f"{r.sypd:.4f},{s:.4f},{e:.4f}"
            )
    return "\n".join(lines) + "\n"


def render_scaling_svg(table: ScalingTable, title: str) -> str:
    """Bar chart of ideal vs measured speedup with efficiency labels."""
    n = len(table.records)
    width, height = 120 * n + 100, 360
    plot_h = 260.0
    max_val = max(max(table.ideal), max(table.speedup), 1.0)
    scale = plot_h / max_val
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="50" y1="{40 + plot_h}" x2="{width - 20}" y2="{40 + plot_h}" stroke="black"/>',
    ]
    for i, (rec, ideal, actual, eff) in enumerate(
        zip(table.records, table.ideal, table.speedup, table.efficiency)
    ):
        x0 = 70 + 120 * i
        hi, ha = ideal * scale, actual * scale
        parts.append(
            f'<rect x="{x0}" y="{40 + plot_h - hi:.1f}" width="40" height="{hi:.1f}" '
            'fill="steelblue"/>'
        )
        parts.append(
            f'<rect x="{x0 + 44}" y="{40 + plot_h - ha:.1f}" width="40" height="{ha:.1f}" '
            'fill="indianred"/>'
        )
        parts.append(
            f'<text x="{x0 + 42}" y="{30 + plot_h - max(hi, ha):.1f}" '
            f'text-anchor="middle" font-size="12">{eff * 100:.0f}%</text>'
        )
        parts.append(
            f'<text x="{x0 + 42}" y="{60 + plot_h:.1f}" text-anchor="middle" '
            f'font-size="12">{rec.n_cores} ({rec.label})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Measured scaling harness


def _check_same_outputs(ref_dir: str, run_dir: str, workers: int) -> None:
    """Raise AssertionError unless `run_dir` holds the `.nc` files of
    `ref_dir`, byte for byte."""
    from .compare import files_bit_identical

    names, got = (sorted(n for n in os.listdir(d) if n.endswith(".nc")) for d in (ref_dir, run_dir))
    what = f"scaling run with {workers} workers"
    if got != names:
        raise AssertionError(f"{what} wrote {got}, the reference {names}")
    for name in names:
        if not files_bit_identical(os.path.join(ref_dir, name), os.path.join(run_dir, name)):
            raise AssertionError(f"{what} diverged from the reference: {name}")


def run_scaling_suite(
    cfg,
    worker_counts: list,
    mode: str,
    out_dir: str,
    repeats: int = 1,
) -> dict:
    """Run a case across worker counts (strong: fixed case; weak: the case
    replicated `w` times for `w` workers, so each worker keeps the case's
    own cell count and `cells_per_core` is `n_land / w`).

    With `repeats` > 1 each point is measured several times and the run
    with the smallest land time is kept (the minimum is the least
    contention-disturbed estimate on shared machines). The repeats are
    interleaved across worker counts (1, 2, 1, 2, ... for counts [1, 2]),
    so a drift of the machine's speed during the suite hits every count
    alike. Emits per-component ScalingTables, a CSV, and an SVG speedup
    chart. In strong mode every run must write the first run's `.nc` files,
    byte for byte.
    """
    from . import simulation

    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    machine_cores = os.cpu_count() or 1
    over = [w for w in worker_counts if w > machine_cores]
    if over:
        raise ValueError(
            f"requested workers {over} exceed the machine's {machine_cores} cores "
            "in measured mode"
        )
    os.makedirs(out_dir, exist_ok=True)
    configs = {}
    for w in worker_counts:
        configs[w] = replace(cfg, lnd_workers=w)
        if mode == "weak":
            configs[w] = simulation.replicate_case(configs[w], w, out_dir)
    reference = None
    best = {}
    for rep in range(max(repeats, 1)):
        for w in worker_counts:
            run_dir = os.path.join(out_dir, f"{mode}_w{w}" + (f"_r{rep}" if rep else ""))
            result = simulation.run_case(configs[w], run_dir)
            if mode == "strong":
                if reference is None:
                    reference = result
                else:
                    _check_same_outputs(reference.out_dir, result.out_dir, w)
            if w not in best or (
                result.timers.total("lnd") < best[w].timers.total("lnd")
            ):
                best[w] = result
    rows = {
        comp: [
            ScalingRecord(
                case=configs[w].name,
                component=comp,
                n_cores=w,
                init_seconds=best[w].timers.total("init"),
                run_seconds=best[w].timers.total(region),
                sim_days=configs[w].n_days,
                cells_per_core=best[w].n_land / w,
            )
            for w in worker_counts
        ]
        for comp, region in (("ATM", "atm"), ("CPL", "cpl"), ("LND", "lnd"))
    }
    tables = {comp: ScalingTable(recs) for comp, recs in rows.items()}
    csv_path = os.path.join(out_dir, f"scaling_{mode}.csv")
    with open(csv_path, "w") as fh:
        fh.write(scaling_csv(*(tables[comp] for comp in ("ATM", "CPL", "LND"))))
    svg_path = os.path.join(out_dir, f"scaling_{mode}_lnd.svg")
    with open(svg_path, "w") as fh:
        fh.write(render_scaling_svg(tables["LND"], f"LND {mode} scaling"))
    return {"tables": tables, "csv": csv_path, "svg": svg_path}
