"""Simulation driver: a data atmosphere replaying forcing files with
timestep interpolation, a one-way coupler, and a land component stepping an
independent-column toy model, with time-averaged history output, restart
write/resume, and gridcell-parallel execution.

Every cell evolves independently (no lateral coupling), so results are
bit-identical for any worker count and partition scheme; replicated
domains are served from their base forcing/surface files through the
copy->source mapping, which makes a replicated run's output exactly k
copies of the base output. Output files carry no wall-clock metadata, so
equal runs produce byte-equal files.

Each land rank owns its state, history sums and coupler bundle for the
whole run, and only `_run_worker_segment` writes them, in place. Set-up
builds them once, at the rank's own size, where the rank keeps them: a
single rank steps in the coordinator, in private memory; with more ranks,
each rank's arrays are one anonymous shared mapping and one forked process
per rank steps it for the whole run, so a segment sends a worker only its
step range, and the coordinator writes history and restarts from the
shared arrays.
Set-up scans the forcing files once (`forcing_files`), and hour 0 of a run
is their first record; each segment opens one windowed stream per rank on
that scan. An exception in a worker is raised again in the caller with its
type and message; a worker that dies raises `ChildProcessError` (an
`OSError`: CLI exit code 3). Every worker is terminated and joined before
the run returns or raises.

The land physics is a deliberately small five-pool column model (snow,
soil water, soil temperature, leaf and soil carbon) chosen to be linear in
the carbon pools and conservative in water, so the computational claims
(independence, replication, restart transparency) are exactly testable.
It is a structural stand-in, not land-model science.
"""

from __future__ import annotations

import datetime
import hashlib
import mmap
import multiprocessing
import os
import re
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from . import cdf, write_provenance
from .decomp import (
    DEFAULT_BLOCK_SIZE, DEFAULT_BUFFER_LIMIT, IOSTATS_HEADER, SCHEMES, make_plan, partition,
    rearrange_write,
)
from .domain import read_domain, read_domain_header, replicate, write_domain
from .forcing import STEP_HOURS, ForcingFiles, ForcingStream, VARIABLES, forcing_files
from .perf import TimerTree, merge_timers

__all__ = [
    "CaseConfig",
    "FORCING_INPUTS",
    "HIST_VARS",
    "RunResult",
    "STATE_VARS",
    "SpinupReport",
    "ToyParams",
    "init_state",
    "leaf_fixed_point",
    "replicate_case",
    "resume_case",
    "run_case",
    "run_constant_forcing",
    "spinup_check",
    "step_cells",
]

STATE_VARS = ("swe", "soil_water", "soil_temp", "c_leaf", "c_soil")
HIST_VARS = ("FSNO", "H2OSOI", "TLAI", "TSOI", "QRUNOFF", "GPP")
FREEZE_K = 273.15


@dataclass(frozen=True)
class ToyParams:
    melt_factor: float = 0.2  # mm per K per hour
    w_cap: float = 200.0  # mm
    et_coeff: float = 1e-3  # mm m^2 / (W h)
    temp_tau: float = 48.0  # hours
    gpp_coeff: float = 5e-4  # gC m^2 / (W h)
    alloc: float = 0.5
    k_leaf: float = 1e-4  # per hour
    k_soil: float = 1e-5  # per hour
    lai_per_c: float = 0.02  # m^2 per gC
    snow_cover_scale: float = 10.0  # mm
    rain_snow_threshold: float = FREEZE_K

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not v > 0:
                raise ValueError(f"ToyParams.{name} must be positive")


# The forcing variables `step_cells` reads; the others reach only the
# coupler restart.
FORCING_INPUTS = ("TBOT", "PRECT", "FSDS")


class _NaNForcing(ValueError):
    """NaN forcing at the cells `args[0]` lists (at most five are named)."""

    def __str__(self):
        return f"NaN forcing at cells {self.args[0][:5].tolist()}"


def step_cells(state: dict, forcing: dict, p: ToyParams, dt: float):
    """Advance every cell one step; returns (new state, diagnostics).

    Pure element-wise update: fluxes are computed from the state at step
    start, evapotranspiration is capped by available water, and soil-water
    overflow leaves as runoff, so per cell and step
    precip*dt == d(swe) + d(soil_water) + et + runoff exactly.
    Diagnostics are rows (len(HIST_VARS), n) in HIST_VARS order; the new
    soil_water and soil_temp are views of their rows.

    Each element goes through the float64 operations of the formula in the
    comment above each block, in the order written. Every intermediate is
    computed once, into an array this call allocated (`out=`), never into
    an input: the forcing arrays may be the stream's read-only cache.
    Scalar or 0-d inputs broadcast against the others.
    """
    tbot = forcing["TBOT"]
    prect = forcing["PRECT"]  # mm/h
    fsds = forcing["FSDS"]
    # minimum propagates NaN, so one reduction per input finds any; the
    # ufunc's own reduce skips np.min's Python-level wrapper.
    if any(np.size(x) and np.isnan(np.minimum.reduce(x, axis=None)) for x in (tbot, prect, fsds)):
        bad = np.flatnonzero(np.isnan(np.asarray(tbot) + np.asarray(prect) + np.asarray(fsds)))
        raise _NaNForcing(bad)
    swe, water, temp, c_leaf, c_soil = (state[k] for k in STATE_VARS)
    inputs = (tbot, prect, fsds, swe, water, temp, c_leaf, c_soil)
    shape = getattr(tbot, "shape", None)
    if shape is None or any(getattr(x, "shape", None) != shape for x in inputs):
        shape = np.broadcast_shapes(*(np.shape(x) for x in inputs))
    diag = np.empty((len(HIST_VARS),) + shape)
    fsno, h2osoi, tlai, tsoi, qrunoff, gpp = (diag[i, ...] for i in range(len(HIST_VARS)))

    # snow = precip where tbot < threshold, else 0; rain = precip - snow
    precip = np.multiply(prect, dt, out=np.empty(shape))
    snow = np.where(tbot < p.rain_snow_threshold, precip, 0.0)
    rain = np.subtract(precip, snow, out=precip)
    # melt = min(swe + snow, melt_factor * max(tbot - FREEZE_K, 0) * dt)
    swe_snow = np.add(swe, snow, out=snow)
    melt = np.subtract(tbot, FREEZE_K, out=np.empty(shape))
    np.maximum(melt, 0.0, out=melt)
    np.multiply(p.melt_factor, melt, out=melt)
    np.multiply(melt, dt, out=melt)
    np.minimum(swe_snow, melt, out=melt)
    # et = min(et_coeff * fsds * wet * dt, soil_water + rain + melt)
    wet = np.divide(water, p.w_cap, out=np.empty(shape))
    et = np.multiply(p.et_coeff, fsds, out=np.empty(shape))
    np.multiply(et, wet, out=et)
    np.multiply(et, dt, out=et)
    avail = np.add(water, rain, out=rain)
    np.add(avail, melt, out=avail)
    np.minimum(et, avail, out=et)
    # filled = soil_water + rain + melt - et; runoff = max(filled - w_cap, 0)
    filled = np.subtract(avail, et, out=avail)
    runoff = np.subtract(filled, p.w_cap, out=et)
    np.maximum(runoff, 0.0, out=runoff)
    # gpp = gpp_coeff * fsds * wet
    np.multiply(p.gpp_coeff, fsds, out=gpp)
    np.multiply(gpp, wet, out=gpp)

    # swe' = swe + snow - melt; soil_water' = filled - runoff
    new_swe = np.subtract(swe_snow, melt, out=swe_snow)
    np.subtract(filled, runoff, out=h2osoi)
    # soil_temp' = soil_temp + (tbot - soil_temp) * (dt / temp_tau)
    np.subtract(tbot, temp, out=tsoi)
    np.multiply(tsoi, dt / p.temp_tau, out=tsoi)
    np.add(temp, tsoi, out=tsoi)
    # c_leaf' = c_leaf + (alloc * gpp - k_leaf * c_leaf) * dt
    leaf_loss = np.multiply(p.k_leaf, c_leaf, out=melt)
    new_leaf = np.multiply(p.alloc, gpp, out=filled)
    np.subtract(new_leaf, leaf_loss, out=new_leaf)
    np.multiply(new_leaf, dt, out=new_leaf)
    np.add(c_leaf, new_leaf, out=new_leaf)
    # c_soil' = c_soil
    #     + ((1 - alloc) * gpp + k_leaf * c_leaf * 0.5 - k_soil * c_soil) * dt
    new_soil = np.multiply(1.0 - p.alloc, gpp, out=wet)
    np.add(new_soil, np.multiply(leaf_loss, 0.5, out=leaf_loss), out=new_soil)
    np.subtract(new_soil, np.multiply(p.k_soil, c_soil, out=leaf_loss), out=new_soil)
    np.multiply(new_soil, dt, out=new_soil)
    np.add(c_soil, new_soil, out=new_soil)

    # FSNO = swe' / (swe' + snow_cover_scale); TLAI = lai_per_c * c_leaf';
    # QRUNOFF = runoff / dt
    np.add(new_swe, p.snow_cover_scale, out=fsno)
    np.divide(new_swe, fsno, out=fsno)
    np.multiply(p.lai_per_c, new_leaf, out=tlai)
    np.divide(runoff, dt, out=qrunoff)
    new = {"swe": new_swe, "soil_water": h2osoi, "soil_temp": tsoi, "c_leaf": new_leaf,
           "c_soil": new_soil}
    return new, diag


def init_state(surface_cols: dict, p: ToyParams, month_lai: np.ndarray) -> dict:
    """Initial per-cell state from surface properties.

    Leaf carbon seeds from the start month's PFT-weighted LAI (`month_lai`,
    that month's (pft, gridcell) slice of MONTHLY_LAI), soil water from the
    saturated-area fraction, soil carbon from mean clay content.

    The sums over PFTs and soil layers run on cell-major (Fortran-ordered)
    copies, so each cell's terms add in numpy's pairwise order whatever
    the layout of the inputs.
    """
    lai = np.asfortranarray(month_lai * surface_cols["PCT_PFT"] / 100.0).sum(axis=0)
    n = lai.shape[0]
    return {
        "swe": np.zeros(n),
        "soil_water": p.w_cap * np.clip(surface_cols["FMAX"], 0.05, 0.95),
        "soil_temp": np.full(n, 275.0),
        "c_leaf": lai / p.lai_per_c,
        "c_soil": 10.0 * np.asfortranarray(surface_cols["PCT_CLAY"]).mean(axis=0),
    }


# ---------------------------------------------------------------------------
# Case configuration (flat key = value text with section prefixes)


@dataclass
class CaseConfig:
    name: str = "case"
    compset: str = "I1850-toy"
    domain: str = "domain.nc"
    forcing_dir: str = "forcing"
    surface: str = "surface.nc"
    start: str = "2014-01-01"
    n_days: int = 5
    dt_hours: int = 1
    history_interval: str = "end_of_run"  # end_of_run | daily | hourly | none
    restart_interval: str = "end_of_run"  # end_of_run | none | every:<n>d
    seed: int = 7
    lnd_workers: int = 1
    partition_scheme: str = "round_robin"
    block_size: int = DEFAULT_BLOCK_SIZE
    n_aggregators: int = 1
    buffer_limit: int = DEFAULT_BUFFER_LIMIT
    params: ToyParams = field(default_factory=ToyParams)

    def __post_init__(self):
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if self.dt_hours < 1 or 24 % self.dt_hours != 0:
            raise ValueError("dt_hours must divide 24")
        for kind in ("history", "restart"):
            _event_steps(0, self.steps_per_day, getattr(self, f"{kind}_interval"), kind)
        datetime.date.fromisoformat(self.start)
        if self.lnd_workers < 1:
            raise ValueError("lnd_workers must be >= 1")
        if self.partition_scheme not in SCHEMES:
            raise ValueError(
                f"unknown partition_scheme {self.partition_scheme!r} (choose from {SCHEMES})"
            )
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    @property
    def steps_per_day(self) -> int:
        return 24 // self.dt_hours

    def fingerprint(self) -> str:
        """Digest of the model-relevant configuration (execution layout --
        workers, partitioning, aggregation -- deliberately excluded)."""
        p = self.params
        payload = (
            self.compset,
            self.start,
            self.dt_hours,
            self.seed,
            tuple(getattr(p, f) for f in p.__dataclass_fields__),
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]

    _KEYMAP = {
        "case.name": "name",
        "case.compset": "compset",
        "case.domain": "domain",
        "case.forcing_dir": "forcing_dir",
        "case.surface": "surface",
        "case.start": "start",
        "case.n_days": "n_days",
        "case.dt_hours": "dt_hours",
        "case.history_interval": "history_interval",
        "case.restart_interval": "restart_interval",
        "case.seed": "seed",
        "lnd.n_workers": "lnd_workers",
        "lnd.partition": "partition_scheme",
        "lnd.block_size": "block_size",
        "io.n_aggregators": "n_aggregators",
        "io.buffer_limit": "buffer_limit",
    }
    _INT_FIELDS = {k for k, t in __annotations__.items() if t == "int"}

    @classmethod
    def from_file(cls, path: str) -> "CaseConfig":
        kwargs = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in cls._KEYMAP:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                name = cls._KEYMAP[key]
                if name in cls._INT_FIELDS:
                    try:
                        value = int(value)
                    except ValueError:
                        raise ValueError(
                            f"{path}:{lineno}: {key} must be an integer, not {value!r}"
                        ) from None
                try:
                    cls(**{name: value})  # every check in __post_init__ takes one value
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {key}: {e}") from None
                kwargs[name] = value
        cfg = cls(**kwargs)
        base = os.path.dirname(os.path.abspath(path))
        for attr in ("domain", "forcing_dir", "surface"):
            p = getattr(cfg, attr)
            if not os.path.isabs(p):
                setattr(cfg, attr, os.path.join(base, p))
        return cfg

    def to_file(self, path: str) -> None:
        lines = [f"{k} = {getattr(self, attr)}" for k, attr in self._KEYMAP.items()]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def replicate_case(cfg: CaseConfig, k: int, out_dir: str) -> CaseConfig:
    """Write a k-fold replicated domain next to the outputs and point a
    derived config at it; forcing and surface stay on the base files."""
    if k == 1:
        return cfg
    d = read_domain(cfg.domain)
    big = replicate(d, k)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{cfg.name}_x{k}.domain.nc")
    write_domain(big, path)
    return replace(cfg, name=f"{cfg.name}_x{k}", domain=path)


# ---------------------------------------------------------------------------
# Worker execution


@dataclass
class _Rank:
    """One land rank's share of the run."""

    cells: np.ndarray  # global ids: a view of the decomposition's cell list
    columns: np.ndarray | None  # forcing file columns; None reads them as stored
    state: dict
    sums: np.ndarray  # (len(HIST_VARS), n) history accumulators
    bundle: dict  # last coupler fields; zeros on a fresh run
    timers: TimerTree


def _new_rank(r: int, cells: np.ndarray, n_cols: int, shared: bool) -> _Rank:
    """Rank r with zeroed state, sums and bundle at its own size: rows of
    one private array, or of one anonymous shared mapping when `shared`.
    Its cell c reads column c % n_cols of the forcing files."""
    rows = len(STATE_VARS) + len(HIST_VARS) + len(VARIABLES)
    block = (_shared if shared else np.zeros)(rows * len(cells)).reshape(rows, len(cells))
    state, sums, bundle = np.split(block, [len(STATE_VARS), len(STATE_VARS) + len(HIST_VARS)])
    columns = cells % n_cols
    return _Rank(
        cells=cells,
        # n_cols strictly increasing columns of [0, n_cols) are every file
        # column in order, which the rank reads as stored.
        columns=None if columns.size == n_cols and (columns[1:] > columns[:-1]).all() else columns,
        state=dict(zip(STATE_VARS, state)),
        sums=sums,
        bundle=dict(zip(VARIABLES, bundle)),
        timers=TimerTree(f"rank{r}"),
    )


@dataclass
class _WorkerTask:
    step_lo: int
    step_hi: int
    dt_hours: float
    params: ToyParams
    forcing: ForcingFiles
    rank: _Rank


class _Coupler:
    """Coupler delivery: unit conversion for the land component, made on
    the fresh dict `fields_at` returns. Its arrays may be the stream's
    read-only cache, so PRECT is replaced, never divided in place.

    Precipitation records are mm per 3-hour bin; the land model consumes a
    rate in mm/h. The stream serves one read-only array for every step of
    a PRECT bin, so the rate is computed once per bin: while the input is
    that same read-only object, the previous rate (itself read-only) is
    delivered again.
    """

    def __init__(self):
        self._prect = self._rate = None

    def __call__(self, fields: dict) -> dict:
        prect = fields["PRECT"]
        if prect is not self._prect or prect.flags.writeable:
            self._prect, self._rate = prect, prect / STEP_HOURS
            self._rate.flags.writeable = False
        fields["PRECT"] = self._rate
        return fields


def _run_worker_segment(task: _WorkerTask) -> _Rank:
    """Step one rank through [step_lo, step_hi) and return it. This is the
    only code that writes a rank's arrays: the history sums accumulate in
    place, and the last step's state and coupler bundle are copied into the
    rank's own arrays, so they stay the same objects for the whole run."""
    rank = task.rank
    atm, cpl, lnd = (rank.timers.child(region) for region in ("atm", "cpl", "lnd"))
    window = (task.step_lo * task.dt_hours, (task.step_hi - 1) * task.dt_hours)
    with atm.timed():
        # Only the segment's last step feeds the coupler restart (cpl.r), so
        # the other variables are read only for the window's end.
        stream = ForcingStream.open(task.forcing, window, FORCING_INPUTS, columns=rank.columns)
    couple = _Coupler()
    state, sums = rank.state, rank.sums
    for step in range(task.step_lo, task.step_hi):
        with atm.timed():
            fields = stream.fields_at(step * task.dt_hours)
        with cpl.timed():
            bundle = couple(fields)
        with lnd.timed():
            try:
                state, diag = step_cells(state, bundle, task.params, task.dt_hours)
            except _NaNForcing as e:
                # step_cells names positions in the rank; the run names gridcells.
                raise _NaNForcing(rank.cells[e.args[0]]) from None
            sums += diag
    for own, last in ((rank.state, state), (rank.bundle, bundle)):
        for k, v in own.items():
            v[...] = last[k]
    return rank


def _shared(size: int) -> np.ndarray:
    """`size` float64 zeros in one anonymous shared mapping, which processes
    forked after this call read and write in place."""
    return np.frombuffer(mmap.mmap(-1, max(8 * size, 1)), np.float64, size)


def _serve_rank(conn, rank: _Rank, dt_hours: float, params: ToyParams, forcing: ForcingFiles):
    """A rank worker's loop. For each (lo, hi) the coordinator sends, step
    the rank through `_run_worker_segment`, which writes the rank's shared
    arrays in place, and reply None, or (exception, its traceback) if one
    was raised. On None, reply with the rank's timers and return."""
    while (segment := conn.recv()) is not None:
        try:
            _run_worker_segment(_WorkerTask(*segment, dt_hours, params, forcing, rank))
            reply = None
        except Exception as e:
            reply = (e, "".join(traceback.format_exception(e)))
        conn.send(reply)
    conn.send(rank.timers)


class _RemoteTraceback(Exception):
    """A rank worker's traceback, chained as the cause of its exception."""


class _RankWorkers:
    """The run's land ranks, stepped segment by segment.

    Only `_run_worker_segment` writes a rank's arrays, in place, so the
    coordinator reads, resets and writes them between segments wherever
    they live. A single rank steps in the coordinator and keeps its arrays
    in private memory (shared memory measured slower on one worker). With
    more ranks, set-up has already built each rank's state, history sums
    and coupler bundle in one shared mapping (`_new_rank`), so this only
    forks one process per rank, alive for the whole run: the coordinator
    sends it only a segment's (lo, hi), and no rank is pickled. A worker's
    exception is raised again here with its type and message; a worker that
    dies raises `ChildProcessError` naming the rank and its exit code."""

    def __init__(self, ranks: list, dt_hours: float, params: ToyParams, forcing: ForcingFiles):
        self.ranks, self.procs, self.conns = ranks, [], []
        self.segment_args = (dt_hours, params, forcing)
        if len(ranks) == 1:
            return
        ctx = multiprocessing.get_context("fork")
        try:
            for rank in ranks:
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_serve_rank, args=(child, rank, *self.segment_args))
                proc.start()
                child.close()
                self.procs.append(proc)
                self.conns.append(conn)
        except BaseException:
            self.close()
            raise

    def _ask(self, message) -> list:
        """Send `message` to every worker and return their replies in rank order."""
        for r, conn in enumerate(self.conns):
            try:
                conn.send(message)
            except OSError:
                self._died(r)
        replies = []
        for r, conn in enumerate(self.conns):
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self._died(r)
            if isinstance(reply, tuple):
                exc, text = reply
                raise exc from _RemoteTraceback(text)
            replies.append(reply)
        return replies

    def _died(self, r: int):
        proc = self.procs[r]
        proc.join()
        raise ChildProcessError(f"land rank {r} worker exited with code {proc.exitcode}")

    def run_segment(self, lo: int, hi: int):
        if self.procs:
            self._ask((lo, hi))
        else:
            _run_worker_segment(_WorkerTask(lo, hi, *self.segment_args, self.ranks[0]))

    def finish(self):
        """Take back each rank's timers; the workers then exit."""
        for rank, timers in zip(self.ranks, self._ask(None)):
            rank.timers = timers
        for proc in self.procs:
            proc.join()

    def close(self):
        """Terminate any worker still running and join them all."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()
        self.procs, self.conns = [], []


@dataclass
class RunResult:
    out_dir: str
    n_land: int
    history_paths: list
    restart_dates: list
    rpointer_path: str
    timers: TimerTree

    @property
    def latest_restart(self) -> dict:
        return _read_rpointer(self.rpointer_path)


def _read_rpointer(path: str) -> dict:
    """The `key = value` entries of a restart pointer file."""
    with open(path) as fh:
        return dict(line.strip().split(" = ", 1) for line in fh if " = " in line)


def _event_steps(total_steps, steps_per_day, interval, kind):
    """Steps ending a `kind` interval; `CaseConfig` validates through it."""
    if interval == "none":
        return set()
    if interval == "end_of_run":
        return {total_steps}
    if kind == "history" and interval == "daily":
        return set(range(steps_per_day, total_steps + 1, steps_per_day))
    if kind == "history" and interval == "hourly":
        return set(range(1, total_steps + 1))
    m = re.fullmatch(r"every:(\d+)d", interval)
    if kind == "restart" and m and int(m.group(1)) >= 1:
        per = int(m.group(1)) * steps_per_day
        return set(range(per, total_steps + 1, per))
    raise ValueError(f"bad {kind}_interval {interval!r}")


def _date_tag(start: str, hours: float) -> str:
    d0 = datetime.date.fromisoformat(start)
    days, rem = divmod(int(round(hours)), 24)
    return f"{d0 + datetime.timedelta(days=days):%Y-%m-%d}-{rem * 3600:05d}"


def _check_columns(n_land: int, n_copies: int, n_cols: int, what: str) -> None:
    """A data file holds one column per cell, or one per cell of the
    replica's base; either way, cell c reads its column c % n_cols."""
    if n_land not in (n_cols, n_cols * n_copies):
        raise ValueError(
            f"{what} covers {n_cols} cells but the domain has {n_land} "
            f"({n_copies} copies): domain mismatch"
        )


def _read_init_surface(f: cdf.CdfFile, month: int) -> tuple:
    """What `init_state` reads of a surface file, as stored: PCT_CLAY, FMAX
    and PCT_PFT, and one month's (pft, gridcell) MONTHLY_LAI as one slab."""
    _, n_pft, n = f.shape("MONTHLY_LAI")
    cols = {name: f.read(name) for name in ("PCT_CLAY", "FMAX", "PCT_PFT")}
    return cols, f.read_slab("MONTHLY_LAI", (month - 1, 0, 0), (1, n_pft, n))[0]


class _Run:
    """One simulation run (fresh or resumed)."""

    def __init__(self, cfg: CaseConfig, out_dir: str):
        self.cfg = cfg
        self.out_dir = str(out_dir)
        self.timers = TimerTree("run")
        self.write_stats = []
        self.history_paths = []
        self.restart_dates = []

    # -- initialization ------------------------------------------------------

    def setup(self, resume_entries=None, extra_days=None):
        cfg = self.cfg
        os.makedirs(self.out_dir, exist_ok=True)
        with self.timers.region("init"):
            # The run needs only the domain's header, none of its variables.
            self.n_land, self.id_space, self.n_copies = read_domain_header(cfg.domain)
            self.forcing = forcing_files(cfg.forcing_dir)
            # Hour 0 of the run is the first forcing record.
            if datetime.date.fromisoformat(cfg.start) != self.forcing.first_day:
                raise ValueError(
                    f"case start {cfg.start} is not {self.forcing.first_day}, the first day"
                    f" of the first forcing file"
                )
            self.decomp = partition(
                self.n_land, cfg.lnd_workers, cfg.partition_scheme, cfg.block_size
            )
            # Every output variable is one value per gridcell, so the
            # decomposition and one aggregator plan serve every write.
            self.plan = make_plan(self.n_land, cfg.n_aggregators, cfg.buffer_limit)
            self.plan.validate(self.n_land)
            # A resumed run reads no surface data, but still checks its cells.
            with cdf.read_file(cfg.surface) as f:
                n_cols = f.model.dim("gridcell").length
                _check_columns(self.n_land, self.n_copies, n_cols, "surface")
                if resume_entries is None:
                    self._fresh_state(f, n_cols)
                else:
                    self._load_restart(resume_entries, extra_days)
            # Forcing must cover the whole run.
            t_end = self.forcing.time[-1] + STEP_HOURS
            end_hours = self.total_steps * cfg.dt_hours
            if end_hours > t_end:
                raise ValueError(
                    f"forcing coverage gap: run needs {end_hours}h, files end at {t_end}h"
                )

    def _build_ranks(self):
        """Build each rank's arrays once, at its own size, where the rank
        keeps them for the whole run."""
        n_cols = self.forcing.n_cols
        _check_columns(self.n_land, self.n_copies, n_cols, "forcing")
        lists = self.decomp.local_lists
        self.ranks = [_new_rank(r, cells, n_cols, len(lists) > 1) for r, cells in enumerate(lists)]

    def _deal(self, v: np.ndarray, outs: list, n_cols: int):
        """Copy each rank's share of `v`, an array of `n_cols` data columns,
        into that rank's array in `outs`: cell c takes v[c % n_cols]."""
        for rank, out in zip(self.ranks, outs, strict=True):
            out[...] = v[rank.cells if n_cols == self.n_land else rank.cells % n_cols]

    def _land_restart(self) -> list:
        """elm.r's variables, each with its per-rank arrays: the state, then
        the history sums."""
        return [(k, [r.state[k] for r in self.ranks]) for k in STATE_VARS] + [
            (f"hsum_{v}", [r.sums[i] for r in self.ranks]) for i, v in enumerate(HIST_VARS)
        ]

    def _fresh_state(self, surface: cdf.CdfFile, n_cols: int):
        """Start the run at step 0 from the surface file's initial state."""
        cfg = self.cfg
        month = datetime.date.fromisoformat(cfg.start).month
        surf_cols, month_lai = _read_init_surface(surface, month)
        init = init_state(surf_cols, cfg.params, month_lai)
        # The ranks' long-lived arrays are allocated while set-up's largest
        # transients (the surface columns) are alive, so glibc places them
        # above those in the heap. Allocated first, they let the heap top be
        # trimmed and regrown at every segment of repeated 1-worker runs: on
        # 2 vCPUs, a 10-day run of 23,803 cells with daily history took 9
        # times the minor page faults and 23% longer.
        self._build_ranks()
        # A cell's initial state depends only on its own surface column, so
        # the file's columns are initialised once and each rank takes its
        # cells' columns; its sums and bundle start at zero.
        for k, v in init.items():
            self._deal(v, [r.state[k] for r in self.ranks], n_cols)
        self.start_step, self.count, self.window_start_hours = 0, 0, 0.0
        self.total_steps = cfg.n_days * cfg.steps_per_day

    def _load_restart(self, entries, extra_days):
        """Continue the run from the bundle for `extra_days` (None: the
        case's `n_days`); a missing field or a bad checksum is a CdfError."""
        cfg = self.cfg
        rdir = entries["dir"]
        self._build_ranks()
        try:
            with cdf.read_file(os.path.join(rdir, entries["elm_r"])) as f:
                a = f.model.gattrs
                if a["fingerprint"] != cfg.fingerprint():
                    raise ValueError("restart bundle comes from a different parameter set")
                if int(a["n_land"]) != self.n_land:
                    raise ValueError("restart bundle does not match the domain")
                # One variable at a time, straight into the ranks' arrays.
                for name, outs in self._land_restart():
                    self._deal(f.read_verified(name), outs, self.n_land)
                self.count = int(a["hist_count"])
            with cdf.read_file(os.path.join(rdir, entries["datm_r"])) as f:
                self.start_step = int(f.read("next_step"))
            with cdf.read_file(os.path.join(rdir, entries["rh0"])) as f:
                self.window_start_hours = float(f.read("window_start_hours"))
            with cdf.read_file(os.path.join(rdir, entries["cpl_r"])) as f:
                for k in VARIABLES:
                    self._deal(f.read(f"x2l_{k}"), [r.bundle[k] for r in self.ranks], self.n_land)
        except KeyError as e:
            raise cdf.CdfError(f"restart bundle in {rdir} lacks {e}") from None
        done_days = self.start_step // cfg.steps_per_day
        days = extra_days if extra_days is not None else cfg.n_days
        self.total_steps = (done_days + days) * cfg.steps_per_day

    # -- main loop -----------------------------------------------------------

    def execute(self):
        cfg = self.cfg
        hist_events = _event_steps(
            self.total_steps, cfg.steps_per_day, cfg.history_interval, "history"
        )
        rest_events = _event_steps(
            self.total_steps, cfg.steps_per_day, cfg.restart_interval, "restart"
        )
        boundaries = sorted(
            {self.start_step, self.total_steps}
            | {s for s in hist_events | rest_events if s > self.start_step}
        )
        # A zero-step resume runs one empty segment, which rewrites the
        # bundle (and any history still accumulating) identically.
        segments = list(zip(boundaries[:-1], boundaries[1:])) or [(self.total_steps,) * 2]
        workers = _RankWorkers(self.ranks, cfg.dt_hours, cfg.params, self.forcing)
        try:
            for lo, hi in segments:
                if hi > lo:
                    workers.run_segment(lo, hi)
                    self.count += hi - lo
                if hi in hist_events and self.count > 0:
                    self._flush_history(hi, reset=cfg.history_interval != "end_of_run")
                if hi in rest_events:
                    self._write_restart(hi)
            workers.finish()
        finally:
            workers.close()
        merged = merge_timers([r.timers for r in self.ranks]).children
        for region in ("atm", "cpl", "lnd"):
            node = merged.get(region)
            self.timers.add(region, node.max_seconds if node else 0.0)
        self._write_iostats()
        self._write_provenance()
        return RunResult(
            out_dir=self.out_dir,
            n_land=self.n_land,
            history_paths=self.history_paths,
            restart_dates=self.restart_dates,
            rpointer_path=os.path.join(self.out_dir, f"rpointer.{cfg.name}"),
            timers=self.timers,
        )

    # -- output --------------------------------------------------------------

    def _file_gattrs(self, step):
        cfg = self.cfg
        return {
            "case": cfg.name,
            "compset": cfg.compset,
            "fingerprint": cfg.fingerprint(),
            "start": cfg.start,
            "dt_hours": cfg.dt_hours,
            "n_land": self.n_land,
            "id_space": self.id_space,
            "n_copies": self.n_copies,
            "sim_hours": float(step * cfg.dt_hours),
        }

    def _write(self, kind, step, dims, variables, checksums=(), **gattrs):
        """Write `<case>.<kind>.<date>.nc` inside the `io` region and return
        its name. Each variable is (name, nc_type, dims, attrs, data): a list
        of per-rank arrays goes through the aggregated write (as record 0 of
        a `time` variable), any other data is written whole. The writer
        gives each variable named in `checksums` a `checksum` attribute: the
        CRC-32 of its big-endian bytes, folded in as they are written."""
        cfg = self.cfg
        name = f"{cfg.name}.{kind}.{_date_tag(cfg.start, step * cfg.dt_hours)}.nc"
        model = cdf.CdfModel(
            variant=cdf.CDF5,
            dims=dims,
            gattrs={**self._file_gattrs(step), **gattrs},
            vars=[cdf.Var(v, t, d, a) for v, t, d, a, _ in variables],
        )
        with self.timers.region("io"):
            with open(os.path.join(self.out_dir, name), "wb") as fh:
                w = cdf.CdfWriter(fh, model, numrecs=int(any(d.unlimited for d in dims)),
                                  checksums=checksums)
                for v, _, vdims, _, data in variables:
                    if isinstance(data, list):
                        record = 0 if vdims[0] == "time" else None
                        self.write_stats.append(
                            rearrange_write(data, self.decomp, self.plan, w, v, record=record)
                        )
                    else:
                        w.write_full(v, data)
                w.close()
        return name

    def _flush_history(self, step, reset: bool):
        cfg = self.cfg
        units = {
            "FSNO": "1", "H2OSOI": "mm", "TLAI": "m^2/m^2",
            "TSOI": "K", "QRUNOFF": "mm/h", "GPP": "gC/m^2/h",
        }
        hours = step * float(cfg.dt_hours)
        variables = [
            ("time", cdf.NcType.FLOAT64, ("time",), {"units": "hours since start"},
             np.array([hours])),
        ] + [
            (name, cdf.NcType.FLOAT32, ("time", "gridcell"),
             {"units": units[name], "cell_method": "time mean"},
             [(r.sums[i] / self.count).astype(np.float32) for r in self.ranks])
            for i, name in enumerate(HIST_VARS)
        ]
        dims = [cdf.Dim("time", 0, unlimited=True), cdf.Dim("gridcell", self.n_land)]
        name = self._write(
            "elm.h0", step, dims, variables,
            window_start_hours=self.window_start_hours, averaging_steps=self.count,
        )
        self.history_paths.append(os.path.join(self.out_dir, name))
        if reset:
            for r in self.ranks:
                r.sums[:] = 0.0
            self.count = 0
            self.window_start_hours = hours

    def _write_restart(self, step):
        cfg = self.cfg
        f8, i8 = cdf.NcType.FLOAT64, cdf.NcType.INT64
        gridcell = [cdf.Dim("gridcell", self.n_land)]
        # Land restart: full-precision state plus history accumulators, each
        # with a checksum of its global array.
        land = self._land_restart()
        names = {
            "elm_r": self._write("elm.r", step, gridcell, [
                (k, f8, ("gridcell",), {}, ranks) for k, ranks in land
            ], checksums=[k for k, _ in land], hist_count=self.count),
            # Coupler restart: last exchanged fields (land-facing units).
            "cpl_r": self._write("cpl.r", step, gridcell, [
                (f"x2l_{k}", f8, ("gridcell",),
                 {"units": "mm/h" if k == "PRECT" else VARIABLES[k].units},
                 [r.bundle[k] for r in self.ranks])
                for k in VARIABLES
            ]),
            # Data-atmosphere restart: stream position.
            "datm_r": self._write("datm.r", step, [], [
                ("next_step", i8, (), {}, np.int64(step)),
                ("t_hours", f8, (), {}, np.float64(step * cfg.dt_hours)),
            ]),
            # Auxiliary restart-history pointer.
            "rh0": self._write("elm.rh0", step, [], [
                ("window_start_hours", f8, (), {}, np.float64(self.window_start_hours)),
                ("hist_count", i8, (), {}, np.int64(self.count)),
            ], history_interval=cfg.history_interval),
        }
        tag = _date_tag(cfg.start, step * cfg.dt_hours)
        with open(os.path.join(self.out_dir, f"rpointer.{cfg.name}"), "w") as fh:
            for key, value in names.items():
                fh.write(f"{key} = {value}\n")
            fh.write(f"date = {tag}\n")
        self.restart_dates.append(tag)

    def _write_iostats(self):
        path = os.path.join(self.out_dir, f"{self.cfg.name}.iostats.csv")
        with open(path, "w") as fh:
            fh.write(IOSTATS_HEADER + "\n")
            for stats in self.write_stats:
                fh.write(stats.csv_row(self.cfg.name) + "\n")

    def _write_provenance(self):
        cfg = self.cfg
        config = {k: getattr(cfg, a) for k, a in cfg._KEYMAP.items()}
        # Inputs by base name, so equal runs from copies of them hash alike.
        for key in ("case.domain", "case.forcing_dir", "case.surface"):
            config[key] = os.path.basename(os.path.normpath(config[key]))
        write_provenance(self.out_dir, cfg.name, config, cfg.seed, cfg.fingerprint())


def _simulate(cfg: CaseConfig, out_dir: str, resume_entries=None, extra_days=None) -> RunResult:
    """Set up and execute one run inside the root `run` timer region."""
    run = _Run(cfg, out_dir)
    with run.timers.timed():
        run.setup(resume_entries=resume_entries, extra_days=extra_days)
        return run.execute()


def run_case(cfg: CaseConfig, out_dir: str) -> RunResult:
    """Run a case from its start date for cfg.n_days; see module docs."""
    return _simulate(cfg, out_dir)


def resume_case(cfg: CaseConfig, out_dir: str, extra_days: int, restart_dir: str | None = None) -> RunResult:
    """Continue a case from its latest restart bundle for `extra_days`.

    State, history accumulators, and the forcing stream position resume
    exactly, so a split run is bit-identical to an uninterrupted one.
    """
    if extra_days < 0:
        raise ValueError(f"extra_days must be >= 0, not {extra_days}")
    rdir = restart_dir or out_dir
    rpointer = os.path.join(rdir, f"rpointer.{cfg.name}")
    if not os.path.exists(rpointer):
        raise FileNotFoundError(f"no restart pointer at {rpointer}")
    entries = _read_rpointer(rpointer)
    entries["dir"] = rdir
    return _simulate(cfg, out_dir, resume_entries=entries, extra_days=extra_days)


# ---------------------------------------------------------------------------
# Spin-up utilities


def run_constant_forcing(state: dict, fields: dict, p: ToyParams, dt: float, n_steps: int,
                         record_every: int = 0):
    """March one or more cells under constant forcing; optionally record
    pool trajectories every `record_every` steps."""
    forcing = {k: np.asarray(v, dtype=np.float64) for k, v in fields.items()}
    state = {k: np.asarray(v, dtype=np.float64) for k, v in state.items()}
    track = {"c_leaf": [], "c_soil": []} if record_every else None
    for s in range(n_steps):
        state, _ = step_cells(state, forcing, p, dt)
        if record_every and (s + 1) % record_every == 0:
            track["c_leaf"].append(np.array(state["c_leaf"]))
            track["c_soil"].append(np.array(state["c_soil"]))
    return (state, track) if record_every else state


def leaf_fixed_point(fsds: float, soil_wetness: float, p: ToyParams) -> float:
    """Closed-form leaf-carbon equilibrium under constant forcing:
    c* = alloc * gpp / k_leaf with gpp = gpp_coeff * FSDS * wetness."""
    return p.alloc * p.gpp_coeff * fsds * soil_wetness / p.k_leaf


@dataclass
class SpinupReport:
    rel_change: dict  # pool -> per-cycle-boundary relative change
    converged: dict  # pool -> bool at the tolerance


def spinup_check(pool_series: dict, tol: float = 0.01) -> SpinupReport:
    """Year-over-year relative change of pool means across repeated-forcing
    cycles; needs at least two cycles."""
    rel = {}
    conv = {}
    for pool, series in pool_series.items():
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 1 or series.size < 2:
            raise ValueError("spinup_check needs >= 2 repeated-forcing cycles")
        denom = np.maximum(np.abs(series[1:]), 1e-30)
        rel[pool] = np.abs(np.diff(series)) / denom
        conv[pool] = bool(rel[pool][-1] <= tol)
    return SpinupReport(rel_change=rel, converged=conv)
