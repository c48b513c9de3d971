"""Span tracing of kiloland's public functions, installed from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, amount of work) and restores the
originals on `uninstall()`. Module-level functions are replaced in every
kiloland module that holds them, because `from .x import f` copies the
binding. Worker processes of the simulation's pool are forked while the
wrappers are installed; each worker segment writes its spans to a spool
directory, which the coordinator reads after the run.

A span's self time is its duration minus the time its child spans in the
same process cover. On the run's timeline, an instant where processes are
inside spans is split evenly among the innermost spans active in each
process, so the layer self times plus the time outside every span (the
simulation layer's own run time: coupler, segment loop, dispatch and
transfer to workers) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MIB = float(2**20)
LAYERS = ("forcing", "simulation", "cdf", "decomp", "domain", "surface", "projection", "compare")


def _stream_bytes(args, kwargs, stream):
    return stream.time.nbytes + sum(v.nbytes for v in stream.values.values())


def _cells(args, kwargs, result):
    return np.size(args[0]["swe"])


def _result_bytes(args, kwargs, result):
    return result.nbytes


def _written_bytes(args, kwargs, result):
    writer, name, values = args[0], args[1], args[3]
    return np.size(values) * writer.model.var(name).nc_type.size


def _stats_bytes(args, kwargs, stats):
    return stats.bytes_written


def _compared_bytes(args, kwargs, report):
    return sum(os.path.getsize(p) for p in args[:2] if isinstance(p, str))


# (module, attribute, span name, amount of work done by one call)
TRACED = (
    ("kiloland.forcing", "ForcingStream.open", "forcing.open", _stream_bytes),
    ("kiloland.forcing", "ForcingStream.fields_at", "forcing.fields_at", None),
    ("kiloland.forcing", "synth_forcing", "forcing.synth", None),
    ("kiloland.forcing", "downscale_month", "forcing.downscale", None),
    ("kiloland.forcing", "write_forcing_month", "forcing.write_month", None),
    ("kiloland.simulation", "step_cells", "simulation.step_cells", _cells),
    ("kiloland.cdf", "CdfFile.__init__", "cdf.parse", None),
    ("kiloland.cdf", "CdfFile.read_slab", "cdf.read", _result_bytes),
    ("kiloland.cdf", "CdfWriter.__init__", "cdf.create", None),
    ("kiloland.cdf", "CdfWriter.write_elements", "cdf.write", _written_bytes),
    ("kiloland.cdf", "CdfWriter.close", "cdf.close", None),
    ("kiloland.decomp", "rearrange_write", "decomp.rearrange_write", _stats_bytes),
    ("kiloland.decomp", "IoDecomp.gather", "decomp.gather", None),
    ("kiloland.domain", "synth_mask", "domain.synth_mask", None),
    ("kiloland.domain", "build_domain", "domain.build", None),
    ("kiloland.domain", "read_domain", "domain.read", None),
    ("kiloland.domain", "write_domain", "domain.write", None),
    ("kiloland.surface", "synth_coarse_source", "surface.synth", None),
    ("kiloland.surface", "build_surface", "surface.build", None),
    ("kiloland.surface", "read_surface", "surface.read", None),
    ("kiloland.surface", "write_surface", "surface.write", None),
    ("kiloland.projection", "lcc_forward", "projection.lcc_forward", None),
    ("kiloland.projection", "lcc_inverse", "projection.lcc_inverse", None),
    ("kiloland.compare", "compare_files", "compare.compare_files", _compared_bytes),
)

# The function each pool worker runs per segment; wrapped (without a span
# of its own) so that a worker ships its spans back through the spool.
WORKER_ENTRY = ("kiloland.simulation", "_run_worker_segment")

PER_LAYER = {  # name: (unit, better); README.md says what each measures
    "forcing.open_s": ("s", "lower"),
    "forcing.open_calls": ("count", "lower"),
    "forcing.read_mib": ("MiB", "lower"),
    "forcing.fields_at_us": ("us/call", "lower"),
    "forcing.synth_s": ("s", "lower"),
    "forcing.downscale_s": ("s", "lower"),
    "simulation.step_cells_ns": ("ns/cell-step", "lower"),
    "simulation.run_self_s": ("s", "lower"),
    "cdf.read_mib_s": ("MiB/s", "higher"),
    "cdf.read_calls": ("count", "lower"),
    "cdf.write_mib_s": ("MiB/s", "higher"),
    "cdf.write_calls": ("count", "lower"),
    "cdf.write_mib": ("MiB", "lower"),
    "decomp.rearrange_write_mib_s": ("MiB/s", "higher"),
    "decomp.gather_s": ("s", "lower"),
    "domain.read_s": ("s", "lower"),
    "surface.read_s": ("s", "lower"),
    "domain.write_s": ("s", "lower"),
    "surface.build_s": ("s", "lower"),
    "projection.lcc_inverse_s": ("s", "lower"),
    "compare.mib_s": ("MiB/s", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans = []  # (name, start, end, amount)
        self._saved = []  # (owner, attribute name, original value)
        self._segments = 0

    # -- installing ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spans = []
        kiloland_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "kiloland"]
        for module_name, attr, span, amount in TRACED:
            owner, name = _resolve(module_name, attr)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                self._replace(owner, name, classmethod(self._wrap(raw.__func__, span, amount)))
            elif isinstance(owner, type):
                self._replace(owner, name, self._wrap(raw, span, amount))
            else:
                wrapper = self._wrap(raw, span, amount)
                for module in kiloland_modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, key, wrapper)
        owner, name = _resolve(*WORKER_ENTRY)
        self._replace(owner, name, self._wrap_worker_entry(getattr(owner, name)))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    def _replace(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, span, amount):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span, start, clock(), 0))
                raise
            end = clock()
            spans.append((span, start, end, amount(args, kwargs, result) if amount else 0))
            return result

        return traced

    def _wrap_worker_entry(self, fn):
        tracer = self

        @functools.wraps(fn)
        def worker_segment(task):
            if os.getpid() == tracer.pid:
                return fn(task)
            # A forked worker starts with a copy of the coordinator's spans.
            tracer.spans.clear()
            try:
                return fn(task)
            finally:
                tracer._segments += 1
                path = tracer.spool_dir / f"{os.getpid()}-{tracer._segments}.json"
                path.write_text(json.dumps(tracer.spans))

        return worker_segment

    # -- collecting ------------------------------------------------------

    def collect(self) -> dict:
        """pid -> spans, the coordinator's and every spooled worker's;
        empties the spool."""
        by_pid = {self.pid: list(self.spans)}
        for path in sorted(self.spool_dir.glob("*.json")):
            pid = int(path.name.split("-")[0])
            by_pid.setdefault(pid, []).extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()
        self.spans.clear()
        return by_pid


def self_segments(spans):
    """Split one process's nested spans into disjoint (start, end, name)
    pieces, each owned by the innermost span active over it."""
    out = []
    stack = []  # (name, end)
    cursor = 0.0
    for name, start, end, _ in sorted(spans, key=lambda s: (s[1], -s[2])):
        while stack and stack[-1][1] <= start:
            top, top_end = stack.pop()
            out.append((cursor, top_end, top))
            cursor = top_end
        if stack:
            out.append((cursor, start, stack[-1][0]))
        stack.append((name, end))
        cursor = start
    while stack:
        top, top_end = stack.pop()
        out.append((cursor, top_end, top))
        cursor = top_end
    return [s for s in out if s[1] > s[0]]


def attribute(by_pid: dict, t0: float, t1: float):
    """Self time per span name on the timeline [t0, t1], and the time no
    process spent inside any span."""
    events = []
    for spans in by_pid.values():
        for start, end, name in self_segments(spans):
            start, end = max(start, t0), min(end, t1)
            if end > start:
                events.append((start, 1, name))
                events.append((end, -1, name))
    events.sort(key=lambda e: (e[0], e[1]))
    self_s = defaultdict(float)
    active = Counter()
    n_active = 0
    covered = 0.0
    last = t0
    for when, delta, name in events:
        if n_active and when > last:
            share = (when - last) / n_active
            for key, n in active.items():
                if n:
                    self_s[key] += share * n
            covered += when - last
        last = when
        active[name] += delta
        n_active += delta
    return dict(self_s), (t1 - t0) - covered


def rep_metrics(by_pid: dict, t0: float, t1: float) -> dict:
    """Per-layer metrics of one traced call spanning [t0, t1]."""
    busy = defaultdict(float)
    calls = Counter()
    amount = defaultdict(float)
    for spans in by_pid.values():
        for name, start, end, work in spans:
            busy[name] += end - start
            calls[name] += 1
            amount[name] += work

    def rate(name, scale):
        return amount[name] * scale / busy[name] if busy[name] > 0 else 0.0

    self_s, run_self = attribute(by_pid, t0, t1)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, secs in self_s.items():
        layer_self[name.split(".")[0]] += secs
    m = {
        "forcing.open_s": busy["forcing.open"],
        "forcing.open_calls": calls["forcing.open"],
        "forcing.read_mib": amount["forcing.open"] / MIB,
        "forcing.fields_at_us": (
            busy["forcing.fields_at"] / calls["forcing.fields_at"] * 1e6
            if calls["forcing.fields_at"] else 0.0
        ),
        "forcing.synth_s": busy["forcing.synth"],
        "forcing.downscale_s": busy["forcing.downscale"],
        "simulation.step_cells_ns": (
            busy["simulation.step_cells"] / amount["simulation.step_cells"] * 1e9
            if amount["simulation.step_cells"] else 0.0
        ),
        "simulation.run_self_s": run_self,
        "cdf.read_mib_s": rate("cdf.read", 1 / MIB),
        "cdf.read_calls": calls["cdf.read"],
        "cdf.write_mib_s": rate("cdf.write", 1 / MIB),
        "cdf.write_calls": calls["cdf.write"],
        "cdf.write_mib": amount["cdf.write"] / MIB,
        "decomp.rearrange_write_mib_s": rate("decomp.rearrange_write", 1 / MIB),
        "decomp.gather_s": busy["decomp.gather"],
        "domain.read_s": busy["domain.read"],
        "surface.read_s": busy["surface.read"],
        "domain.write_s": busy["domain.write"],
        "surface.build_s": busy["surface.build"],
        "projection.lcc_inverse_s": busy["projection.lcc_inverse"],
        "compare.mib_s": rate("compare.compare_files", 1 / MIB),
    }
    m.update({f"{layer}.self_s": secs for layer, secs in layer_self.items()})
    m["trace.wall_s"] = t1 - t0
    return m
