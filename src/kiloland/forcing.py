"""Atmospheric forcing: temporal downscaling of daily fields to 3-hourly
records, land compaction, monthly file layout, and timestep interpolation
for the data-atmosphere component.

The standard variable set is fixed at seven fields with per-variable
downscaling modes: air temperature and surface pressure are downscaled
additively (sub-daily anomalies around the daily value), radiation,
humidity and wind multiplicatively (scaled profile with the daily mean
preserved), and precipitation sum-preservingly (the daily total is
distributed over the eight 3-hour bins and served with nearest-record
interpolation so no water is smeared across bins).

The synthetic generator quantizes additive-mode fields onto a dyadic grid
(2^-10 K for temperature, 2^-16 Pa-steps scaled for pressure) so that the
downscaled values, and their daily means, are exact in both double and
single precision.
"""

from __future__ import annotations

import calendar
import datetime
import glob
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import cdf
from .domain import DomainSpec, compact

__all__ = [
    "ForcingFiles",
    "ForcingMonth",
    "ForcingStream",
    "ForcingVariableSpec",
    "STEPS_PER_DAY",
    "STEP_HOURS",
    "VARIABLES",
    "downscale_day",
    "downscale_month",
    "forcing_filename",
    "forcing_files",
    "gen_forcing_files",
    "month_start",
    "read_forcing_month",
    "synth_forcing",
    "write_forcing_month",
]

STEPS_PER_DAY = 8
STEP_HOURS = 3.0
# Bound on one row chunk that a column-subset read decodes from.
COLUMN_CHUNK_BYTES = 64 * 2**20

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
SUM_PRESERVING = "sum_preserving"
LINEAR = "linear"
NEAREST = "nearest"


@dataclass(frozen=True)
class ForcingVariableSpec:
    name: str
    units: str
    downscale_mode: str
    interp_mode: str


VARIABLES = {
    "TBOT": ForcingVariableSpec("TBOT", "K", ADDITIVE, LINEAR),
    "PRECT": ForcingVariableSpec("PRECT", "mm/3h", SUM_PRESERVING, NEAREST),
    "FSDS": ForcingVariableSpec("FSDS", "W/m^2", MULTIPLICATIVE, LINEAR),
    "FLDS": ForcingVariableSpec("FLDS", "W/m^2", MULTIPLICATIVE, LINEAR),
    "QBOT": ForcingVariableSpec("QBOT", "kg/kg", MULTIPLICATIVE, LINEAR),
    "WIND": ForcingVariableSpec("WIND", "m/s", MULTIPLICATIVE, LINEAR),
    "PSRF": ForcingVariableSpec("PSRF", "Pa", ADDITIVE, LINEAR),
}


def days_in_month(year: int, month: int) -> int:
    return calendar.monthrange(year, month)[1]


def downscale_day(daily, shape, mode: str) -> np.ndarray:
    """Spread daily values over 8 sub-daily steps.

    additive:        out_i = daily + (shape_i - mean(shape))
    multiplicative:  out_i = daily * shape_i / mean(shape)   (uniform if 0)
    sum_preserving:  out_i = daily * shape_i / sum(shape)    (uniform if 0)

    `daily` may carry any leading shape; `shape` broadcasts against
    (..., 8). The mode-appropriate daily aggregate of the output matches
    the input (exactly for additive inputs on a dyadic grid, within a few
    ulp otherwise).
    """
    daily = np.asarray(daily, dtype=np.float64)
    shape = np.asarray(shape, dtype=np.float64)
    if shape.shape[-1] != STEPS_PER_DAY:
        raise ValueError(f"shape profile must have {STEPS_PER_DAY} steps")
    return _spread(daily[..., None], shape, mode)


def _spread(d, shape, mode: str) -> np.ndarray:
    """The downscaling formulas on float64 operands that broadcast against
    each other, with the 8 steps of `shape` along the last axis."""
    if np.any(np.isnan(d)) or np.any(np.isnan(shape)):
        raise ValueError("NaN in downscaling input")
    if mode == ADDITIVE:
        return d + (shape - shape.mean(axis=-1, keepdims=True))
    if mode in (MULTIPLICATIVE, SUM_PRESERVING):
        if np.any(shape < 0):
            raise ValueError(f"{mode} profiles must be nonnegative")
        agg = shape.mean(axis=-1, keepdims=True) if mode == MULTIPLICATIVE else shape.sum(
            axis=-1, keepdims=True
        )
        uniform = d if mode == MULTIPLICATIVE else d / STEPS_PER_DAY
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = d * shape / agg
        return np.where(agg == 0, uniform, scaled)
    raise ValueError(f"unknown downscale mode {mode!r}")


def _spread_day(out, d, shape, mode: str, product) -> None:
    """`_spread` for one checked day, written into `out` (8, n): daily
    values `d` (n,), profile `shape` (8, 1), float64 work buffer `product`
    (8, n). Each formula runs in float64 and is rounded once on the store;
    the day's scalar aggregate picks the uniform branch."""
    if mode == ADDITIVE:
        np.add(d, shape - shape.mean(axis=0, keepdims=True), out=out)
        return
    if mode == MULTIPLICATIVE:
        agg, uniform = shape.mean(axis=0, keepdims=True), 1
    else:
        agg, uniform = shape.sum(axis=0, keepdims=True), STEPS_PER_DAY
    if agg.item() == 0:  # every step gets the daily mean, or 1/8 of the total
        np.divide(d, uniform, out=out)
    else:
        np.multiply(d, shape, out=product)
        np.divide(product, agg, out=out)


@dataclass
class ForcingMonth:
    year: int
    month: int
    n_steps: int
    values: dict  # var -> (n_steps, n_land) float32
    time_axis: np.ndarray  # hours since the period start, record starts

    def __post_init__(self):
        if self.n_steps not in (224, 232, 240, 248):
            raise ValueError(f"invalid step count {self.n_steps} for a month")


def downscale_month(
    daily_fields: dict,
    profiles: dict,
    d: DomainSpec,
    year: int,
    month: int,
    offset_hours: float = 0.0,
) -> ForcingMonth:
    """Downscale a month of daily 2D fields to 3-hourly, land-compacted
    records, shaped by each variable's (n_days, 8) sub-daily `profiles`.
    `offset_hours` positions the month inside its period.

    Each daily field is compacted to its land cells first and checked once,
    then downscaled one day at a time: day k's float64 formula is written
    straight into records [8k, 8k + 8) of a preallocated C-contiguous
    float32 (n_steps, n_land) array. The arithmetic per element is that of
    `downscale_day` on the whole grid.
    """
    n_days = days_in_month(year, month)
    nj, ni = d.grid.n_rows, d.grid.n_cols
    values = {}
    product = np.empty((STEPS_PER_DAY, d.n_land))  # daily * profile, reused
    for name, spec in VARIABLES.items():
        if name not in daily_fields:
            raise ValueError(f"missing daily field {name}")
        daily = np.asarray(daily_fields[name], dtype=np.float64)
        if daily.shape != (n_days, nj, ni):
            raise ValueError(
                f"{name}: daily field shape {daily.shape} != ({n_days}, {nj}, {ni})"
            )
        prof = np.asarray(profiles[name], dtype=np.float64)
        if prof.shape != (n_days, STEPS_PER_DAY):
            raise ValueError(f"{name}: profile shape {prof.shape} != ({n_days}, 8)")
        land = compact(daily, d)  # (n_days, n_land)
        mode = spec.downscale_mode
        # min propagates NaN: one pass each, with no mask.
        if np.isnan(prof.min()) or (land.size and np.isnan(land.min())):
            raise ValueError("NaN in downscaling input")
        if mode != ADDITIVE and prof.min() < 0:
            raise ValueError(f"{mode} profiles must be nonnegative")
        out = np.empty((n_days * STEPS_PER_DAY, d.n_land), dtype=np.float32)
        for day in range(n_days):
            rows = out[day * STEPS_PER_DAY : (day + 1) * STEPS_PER_DAY]
            _spread_day(rows, land[day], prof[day][:, None], mode, product)
        values[name] = out
    time_axis = offset_hours + np.arange(n_days * STEPS_PER_DAY) * STEP_HOURS
    return ForcingMonth(year, month, n_days * STEPS_PER_DAY, values, time_axis)


# ---------------------------------------------------------------------------
# Synthetic generator (stand-in for real daily data and sub-daily profiles).

# Fixed diurnal shortwave shape: night steps are exactly zero, peak at the
# early-afternoon step.
_FSDS_BASE = np.array([0.0, 0.0, 0.10, 0.60, 1.00, 0.85, 0.30, 0.0])
_TBOT_DIURNAL = np.array([-1.2, -1.5, -0.8, 0.3, 1.2, 1.5, 0.9, -0.4])


def _quantize(x, frac_bits: int) -> np.ndarray:
    scale = 2.0**frac_bits
    return np.round(np.asarray(x) * scale) / scale


def synth_forcing(seed: int, d: DomainSpec, months: list) -> list:
    """Deterministic synthetic daily fields + profiles for (year, month)
    pairs: one (year, month, daily, profiles) per pair, `profiles` mapping
    each variable to its (n_days, 8) sub-daily shape. Same seed gives
    bit-identical output.

    Ranges are physically plausible: TBOT 230-310 K, FSDS >= 0 with night
    zeros and an early-afternoon peak, PRECT >= 0. Additive-mode fields are
    dyadically quantized so downscaling preserves daily means exactly.
    """
    nj, ni = d.grid.n_rows, d.grid.n_cols
    out = []
    for year, month in months:
        rng = np.random.default_rng([seed, year, month])
        n_days = days_in_month(year, month)
        row_frac = np.linspace(0.0, 1.0, nj)[:, None]
        cell_t = 8.0 * np.sin(np.pi * row_frac) + rng.normal(0, 3, (nj, ni))
        season = 12.0 * np.sin(2 * np.pi * (month - 4) / 12.0)
        day_t = rng.normal(0, 2.5, (n_days, 1, 1))
        tbot = np.clip(272.0 + season + cell_t + day_t, 231.0, 309.0)
        psrf = np.clip(
            101_325.0 + rng.normal(0, 300, (nj, ni)) + rng.normal(0, 80, (n_days, 1, 1)),
            95_000.0,
            105_000.0,
        )
        fsds = np.clip(
            170.0 + 90.0 * np.sin(2 * np.pi * (month - 3) / 12.0)
            + rng.normal(0, 25, (n_days, nj, ni)),
            5.0,
            360.0,
        )
        flds = np.clip(280.0 + 0.8 * (tbot - 272.0) + rng.normal(0, 15, (n_days, nj, ni)), 120.0, 480.0)
        qbot = np.clip(0.005 + 0.002 * rng.standard_normal((n_days, nj, ni)), 1e-4, 0.02)
        wind = np.clip(4.0 + 2.0 * rng.standard_normal((n_days, nj, ni)), 0.2, 25.0)
        prect = rng.gamma(0.6, 3.0, (n_days, nj, ni))
        daily = {
            "TBOT": np.broadcast_to(_quantize(tbot, 10), (n_days, nj, ni)).copy(),
            "PSRF": np.broadcast_to(_quantize(psrf, 4), (n_days, nj, ni)).copy(),
            "FSDS": fsds,
            "FLDS": flds,
            "QBOT": qbot,
            "WIND": wind,
            "PRECT": prect,
        }
        prof = {}
        amp = rng.uniform(1.5, 5.0, (n_days, 1))
        prof["TBOT"] = _quantize(amp * _TBOT_DIURNAL + rng.normal(0, 0.2, (n_days, 8)), 10)
        prof["PSRF"] = _quantize(rng.normal(0, 25, (n_days, 8)), 4)
        prof["FSDS"] = np.clip(
            _FSDS_BASE + rng.normal(0, 0.05, (n_days, 8)) * (_FSDS_BASE > 0), 0.0, None
        )
        prof["FLDS"] = np.clip(1.0 + rng.normal(0, 0.05, (n_days, 8)), 0.5, None)
        prof["QBOT"] = np.clip(1.0 + rng.normal(0, 0.08, (n_days, 8)), 0.3, None)
        prof["WIND"] = np.clip(1.0 + rng.normal(0, 0.25, (n_days, 8)), 0.05, None)
        w = rng.random((n_days, 8))
        w[w < 0.4] = 0.0
        prof["PRECT"] = w
        out.append((year, month, daily, prof))
    return out


# ---------------------------------------------------------------------------
# Monthly file layout: dims (time=UNLIMITED, gridcell), one float32 variable
# per forcing field plus a float64 time axis in hours since period start.


def forcing_filename(year: int, month: int) -> str:
    return f"forcing_met_{year:04d}-{month:02d}.nc"


def forcing_file_model(n_land: int) -> cdf.CdfModel:
    model = cdf.CdfModel()
    model.dims = [cdf.Dim("time", 0, unlimited=True), cdf.Dim("gridcell", n_land)]
    model.vars.append(
        cdf.Var("time", cdf.NcType.FLOAT64, ("time",), {"units": "hours since period start"})
    )
    for name, spec in VARIABLES.items():
        model.vars.append(
            cdf.Var(
                name,
                cdf.NcType.FLOAT32,
                ("time", "gridcell"),
                {
                    "units": spec.units,
                    "downscale_mode": spec.downscale_mode,
                    "interp_mode": spec.interp_mode,
                },
            )
        )
    return model


def write_forcing_month(fm: ForcingMonth, path: str) -> None:
    n_land = next(iter(fm.values.values())).shape[1]
    model = forcing_file_model(n_land)
    model.gattrs = {"title": "kiloland forcing", "year": fm.year, "month": fm.month}
    data = {"time": fm.time_axis}
    data.update(fm.values)
    with open(path, "wb") as fh:
        cdf.write_file(fh, model, data, numrecs=fm.n_steps)


def read_forcing_month(path: str) -> ForcingMonth:
    with cdf.read_file(path) as f:
        start = month_start(f, path)
        values = {name: f.read(name) for name in VARIABLES}
        time_axis = f.read("time")
        return ForcingMonth(start.year, start.month, f.numrecs, values, time_axis)


@dataclass(frozen=True)
class ForcingFiles:
    """One scan of a run's monthly forcing files, made once by
    `forcing_files`: set-up and every stream read it, and no file is
    re-scanned. `time` holds every record's start in hours since the first
    record (read-only), so hour 0 of a run is its first forcing record."""

    paths: tuple  # in calendar order
    n_cols: int  # the gridcell length every file shares
    first_day: datetime.date  # the first file's month start
    time: np.ndarray
    starts: tuple  # index in `time` of each file's first record


def forcing_files(forcing_dir: str) -> ForcingFiles:
    """Scan the monthly forcing files in `forcing_dir`, opening each once.
    A file without its month raises CdfError. A file with no records or
    another cell count than the first, a gap between files, or times that
    do not increase raise ValueError."""
    pattern = "forcing_*_[0-9][0-9][0-9][0-9]-[0-9][0-9].nc"
    paths = sorted(glob.glob(os.path.join(forcing_dir, pattern)), key=lambda p: p[-10:-3])
    if not paths:
        raise FileNotFoundError(f"no forcing files in {forcing_dir}")
    times = []
    for path in paths:
        with cdf.read_file(path) as f:
            day, n, t = month_start(f, path), f.model.dim("gridcell").length, f.read("time")
        if t.size == 0:
            raise ValueError(f"forcing file {path} holds no records")
        if not times:
            first_day, n_cols = day, n
        elif n != n_cols:
            raise ValueError(f"forcing file {path} has {n} cells, {paths[0]} has {n_cols}")
        elif abs(t[0] - end) > 1e-9:
            raise ValueError(f"forcing gap: {path} starts at {t[0]}h, expected {end}h")
        end = t[-1] + STEP_HOURS
        times.append(t)
    starts = tuple(accumulate((t.size for t in times[:-1]), initial=0))
    time = np.concatenate(times) - times[0][0]  # record times are exact multiples of 3 h
    if np.any(np.diff(time) <= 0):
        raise ValueError(f"forcing time axis in {forcing_dir} must be strictly increasing")
    return ForcingFiles(tuple(paths), n_cols, first_day, _frozen(time), starts)


def month_start(f: cdf.CdfFile, path: str) -> datetime.date:
    """The first day of the month the forcing file `f` (opened from `path`)
    holds, from the `year` and `month` attributes `write_forcing_month`
    writes; a file without them raises CdfError."""
    a = f.model.gattrs
    if "year" not in a or "month" not in a:
        raise cdf.CdfError(f"forcing file {path} lacks its year or month attribute")
    return datetime.date(int(a["year"]), int(a["month"]), 1)


def month_offset_hours(period_start: tuple, year: int, month: int) -> float:
    """Hours from the period start (year, month, day 1, 00:00) to the first
    record of the given month."""
    t0 = datetime.date(period_start[0], period_start[1], 1)
    t1 = datetime.date(year, month, 1)
    return (t1 - t0).days * 24.0


def gen_forcing_files(seed: int, d: DomainSpec, months: list, out_dir) -> list:
    """Synthesize, downscale, and write one file per month; returns paths.

    Month files are positioned on the calendar relative to the first
    requested month, so a missing month leaves a detectable gap.
    """
    if not months:
        raise ValueError("no months to generate")
    os.makedirs(str(out_dir), exist_ok=True)
    paths = []
    period_start = months[0]
    for year, month, daily, profiles in synth_forcing(seed, d, months):
        offset = month_offset_hours(period_start, year, month)
        fm = downscale_month(daily, profiles, d, year, month, offset_hours=offset)
        path = os.path.join(str(out_dir), forcing_filename(year, month))
        write_forcing_month(fm, path)
        paths.append(path)
    return paths


class ForcingStream:
    """Reader over consecutive monthly files serving interpolated fields
    over a closed time window [start, end] (hours).

    The record values are immutable after open; several streams over the
    same files are safe. Each stream caches, per variable, the float64
    bracket of the record it last served: `a`, and `b - a` to the next
    record once an interpolation needs it, with the widened `b` kept beside
    it. When the record advances by one, that `b` becomes the new `a`, so
    stepping forward widens each record once (`_widen`). Cached arrays are
    read-only, and `fields_at` returns `a` itself where it does not
    interpolate: every step inside a nearest-mode bin gets the same array.

    Linear-mode variables interpolate between bracketing records and hold
    the final record of the data over its trailing interval; nearest-mode
    variables take the record whose left-closed 3-hour bin contains t.

    The stream holds the records from the one whose bin contains `start`
    through the one after the record whose bin contains `end` (the
    interpolation partner), so it serves the same fields, bit for bit, as
    a stream over the whole data. The trailing hold therefore applies only
    at the real end of the data, never at a window's edge.

    `fields_at` serves the variables in `names` at every t before `end`,
    and every variable, in VARIABLES order, at `end`. The others are held
    only from the record whose bin contains `end`.
    """

    def __init__(self, time_axis: np.ndarray, values: dict, window: tuple, names):
        self.time = np.asarray(time_axis, dtype=np.float64)
        self.values = values
        self.n_cols = next(iter(values.values())).shape[1]
        self.window = (float(window[0]), float(window[1]))
        self.names = tuple(names)
        # Index in `time` of each variable's first stored record; a variable
        # served only at the end holds the trailing records.
        self._first = {name: self.time.size - len(v) for name, v in values.items()}
        self._brackets = {}  # name -> [j, a, b - a or None, b or None]

    @classmethod
    def open(cls, files: ForcingFiles, window: tuple, names, columns=None) -> "ForcingStream":
        """A stream over `window` serving `names` (see the class docstring)
        from the scanned `files`; `columns` restricts to a gridcell subset
        (e.g. one rank's cells, in local order).

        Only the files that hold records of the window are opened, and no
        time axis is read: each variable's records are read with one slab
        per file that holds any of them.
        """
        unknown = sorted(set(names) - set(VARIABLES))
        if unknown:
            raise ValueError(f"unknown forcing variables {unknown}")
        lo, hi = _record_range(files.time, window)
        # The variables not named start at the record whose bin holds the end.
        end_record = int(np.searchsorted(files.time, window[1], side="right")) - 1
        first = {name: lo if name in names else end_record for name in VARIABLES}
        parts = {name: [] for name in VARIABLES}
        bounds = files.starts + (files.time.size,)
        for path, f0, f1 in zip(files.paths, bounds, bounds[1:]):
            if f1 <= lo or hi <= f0:  # no record of the window: the file stays closed
                continue
            with cdf.read_file(path) as f:
                for name in VARIABLES:
                    r0, r1 = max(first[name] - f0, 0), min(hi, f1) - f0
                    if r0 < r1:
                        parts[name].append(_read_columns(f, name, files.n_cols, columns, r0, r1))
        values = {name: _join(parts[name]) for name in VARIABLES}
        return cls(files.time[lo:hi], values, window, names)

    def fields_at(self, t_hours: float) -> dict:
        """Per-variable float64 fields at simulation time t (hours): `names`
        before the window's end, every variable at it."""
        lo, hi = self.window
        if not lo <= t_hours <= hi:
            raise ValueError(f"t={t_hours}h outside forcing window [{lo}h, {hi}h]")
        j = int(np.searchsorted(self.time, t_hours, side="right") - 1)
        out = {}
        # A window always holds the partner of its last bracketing record,
        # so j is the final stored record only at the end of the data.
        exact = self.time[j] == t_hours or j == self.time.size - 1
        for name in self.names if t_hours < hi else VARIABLES:
            if VARIABLES[name].interp_mode == NEAREST or exact:
                out[name] = self._bracket(name, j, False)[0]
            else:
                w = (t_hours - self.time[j]) / (self.time[j + 1] - self.time[j])
                a, diff = self._bracket(name, j, True)
                field = diff * w
                field += a  # a + diff * w: addition commutes bit for bit
                out[name] = field
        return out

    def _bracket(self, name: str, j: int, with_diff: bool) -> list:
        """[a, b - a] of `name` at record j from the cache. b - a is filled
        in by the first request with `with_diff`; until then it is None.
        The widened b computed with it serves as a at record j + 1."""
        entry = self._brackets.get(name)
        if entry is None or entry[0] != j:
            if entry is not None and entry[0] == j - 1 and entry[3] is not None:
                a = entry[3]
            else:
                a = self._widen(name, j)
            entry = self._brackets[name] = [j, a, None, None]
        if with_diff and entry[2] is None:
            b = entry[3] = self._widen(name, j + 1)
            entry[2] = _frozen(b - entry[1])
        return entry[1:3]

    def _widen(self, name: str, j: int) -> np.ndarray:
        """Record j of `name` as a read-only float64 array."""
        return _frozen(self.values[name][j - self._first[name]].astype(np.float64))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _record_range(time_axis: np.ndarray, window: tuple) -> tuple:
    """Records [lo, hi) that serve every t of the closed window: from the
    record whose bin holds the start through the partner of the record
    whose bin holds the end, clipped to the data."""
    start, end = window
    first, stop = float(time_axis[0]), float(time_axis[-1] + STEP_HOURS)
    if not first <= start <= end < stop:
        raise ValueError(
            f"window [{start}h, {end}h] outside forcing coverage [{first}h, {stop}h)"
        )
    lo = int(np.searchsorted(time_axis, start, side="right")) - 1
    hi = int(np.searchsorted(time_axis, end, side="right")) + 1
    return lo, min(hi, time_axis.size)


def _join(parts: list) -> np.ndarray:
    """Concatenate row blocks; a single block is used as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def _read_columns(f: cdf.CdfFile, name: str, n_land: int, columns, r0: int, r1: int):
    """Read records [r0, r1) of a (time, gridcell) variable; a `columns`
    subset is read in row chunks bounded to `COLUMN_CHUNK_BYTES` (64 MiB),
    each into one reused buffer in the file's byte order, and only the kept
    columns are decoded."""
    if columns is None:
        return f.read_slab(name, (r0, 0), (r1 - r0, n_land))
    columns = np.asarray(columns)
    stored = np.dtype(f.model.var(name).nc_type.dtype)
    chunk = max(1, COLUMN_CHUNK_BYTES // max(n_land * stored.itemsize, 1))
    buf = np.empty((min(chunk, r1 - r0), n_land), dtype=stored)
    out = np.empty((r1 - r0, columns.size), dtype=stored.newbyteorder("="))
    for a in range(r0, r1, chunk):
        rows = min(chunk, r1 - a)
        f.read_slab(name, (a, 0), (rows, n_land), out=buf[:rows])
        out[a - r0 : a - r0 + rows] = buf[:rows].take(columns, axis=1)
    return out
