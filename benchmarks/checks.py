"""Correctness checks of each workload's outputs, run after the timed calls.

Each check returns a list of failure messages; an empty list passes.

The column reference steps a seeded sample of cells in plain Python. It
takes the forcing from `downscale_month`'s in-memory arrays and the initial
state from `build_surface`'s, interpolates and couples the forcing itself,
and steps these column equations (per cell, one step of `dt` hours, state
at step start; forcing TBOT, PRECT in mm/h, FSDS):

    precip = PRECT*dt;  snow = precip if TBOT < T_rs else 0;  rain = precip - snow
    melt   = min(swe + snow, melt_factor*max(TBOT - 273.15, 0)*dt)
    wet    = soil_water / w_cap
    et     = min(et_coeff*FSDS*wet*dt, soil_water + rain + melt)
    filled = soil_water + rain + melt - et;  runoff = max(filled - w_cap, 0)
    gpp    = gpp_coeff*FSDS*wet
    swe'   = swe + snow - melt;  soil_water' = filled - runoff
    soil_temp' = soil_temp + (TBOT - soil_temp)*(dt/temp_tau)
    c_leaf' = c_leaf + (alloc*gpp - k_leaf*c_leaf)*dt
    c_soil' = c_soil + ((1 - alloc)*gpp + k_leaf*c_leaf*0.5 - k_soil*c_soil)*dt

History variables are the time means of FSNO = swe'/(swe' + snow_cover_scale),
H2OSOI = soil_water', TLAI = lai_per_c*c_leaf', TSOI = soil_temp',
QRUNOFF = runoff/dt and GPP = gpp, stored as float32. Linear-mode forcing
interpolates between the 3-hourly records that bracket t; PRECT takes the
record whose 3-hour bin holds t and arrives as mm per 3 h, so the coupler
divides it by 3. The reference shares no file, codec, stream, coupler,
partition or model code with the run, so its state and history means must
equal the run's bit for bit.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import shutil
from pathlib import Path

import numpy as np

from kiloland import cdf, compare, domain, forcing, simulation, surface
import tracing
import workloads

FREEZE_K = 273.15
RECORD_HOURS = 3.0
STATE = ("swe", "soil_water", "soil_temp", "c_leaf", "c_soil")
HISTORY = ("FSNO", "H2OSOI", "TLAI", "TSOI", "QRUNOFF", "GPP")
SAMPLE_CELLS = 32
FLOAT32_ULPS = 4
RESUME_DAY = 6


# ---------------------------------------------------------------------------
# Column reference


@dataclasses.dataclass
class ColumnInputs:
    """Plain-Python copies of the sampled cells' forcing and surface."""

    cells: list  # land-cell indices
    records: dict  # forcing variable -> per cell, list of record values
    nearest: set  # variables served from the record holding t
    surface: dict  # surface variable -> per cell, nested lists


def sample_cells(seed: int, n_land: int, k: int = SAMPLE_CELLS) -> list:
    rng = np.random.default_rng([seed, 0x5A])
    return sorted(int(c) for c in rng.choice(n_land, size=min(k, n_land), replace=False))


def column_inputs(inputs: "workloads.Inputs", seed: int) -> ColumnInputs:
    fm, ds = inputs.forcing, inputs.surface
    cells = sample_cells(seed, fm.values["TBOT"].shape[1])
    records = {
        name: [[float(v) for v in fm.values[name][:, c]] for c in cells] for name in fm.values
    }
    nearest = {n for n, spec in forcing.VARIABLES.items() if spec.interp_mode == forcing.NEAREST}
    surf = {
        name: [np.asarray(ds.values[name])[..., c].tolist() for c in cells]
        for name in ("MONTHLY_LAI", "PCT_PFT", "FMAX", "PCT_CLAY")
    }
    return ColumnInputs(cells, records, nearest, surf)


def _sum(values: list) -> float:
    """Sum in the order numpy uses along a contiguous axis of up to 128
    values: eight interleaved partial sums added as a tree, then the tail.
    The run's column-sliced surface arrays hold each cell's PFTs and soil
    layers contiguously, so its sums over them take this order."""
    n = len(values)
    if n < 8:
        total = values[0]
        for v in values[1:]:
            total += v
        return total
    head = n - n % 8
    r = list(values[:8])
    for i in range(8, head, 8):
        for j in range(8):
            r[j] += values[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[head:]:
        total += v
    return total


def _initial_state(surf: dict, i: int, p: dict, month: int) -> dict:
    lai = _sum([
        lai_pft * pct / 100.0
        for lai_pft, pct in zip(surf["MONTHLY_LAI"][i][month - 1], surf["PCT_PFT"][i])
    ])
    clay = surf["PCT_CLAY"][i]
    return {
        "swe": 0.0,
        "soil_water": p["w_cap"] * min(max(surf["FMAX"][i], 0.05), 0.95),
        "soil_temp": 275.0,
        "c_leaf": lai / p["lai_per_c"],
        "c_soil": 10.0 * (_sum(clay) / len(clay)),
    }


def _forcing_at(records: dict, nearest: set, i: int, t: float) -> dict:
    n = len(records["TBOT"][i])
    j = min(int(t // RECORD_HOURS), n - 1)
    exact = j * RECORD_HOURS == t or j == n - 1
    out = {}
    for name, rows in records.items():
        a = rows[i][j]
        if name in nearest or exact:
            out[name] = a
        else:
            w = (t - j * RECORD_HOURS) / RECORD_HOURS
            out[name] = a + (rows[i][j + 1] - a) * w
    return out


def _step(s: dict, tbot: float, prect: float, fsds: float, p: dict, dt: float):
    precip = prect * dt
    snow = precip if tbot < p["rain_snow_threshold"] else 0.0
    rain = precip - snow
    melt = min(s["swe"] + snow, p["melt_factor"] * max(tbot - FREEZE_K, 0.0) * dt)
    wet = s["soil_water"] / p["w_cap"]
    et = min(p["et_coeff"] * fsds * wet * dt, s["soil_water"] + rain + melt)
    filled = s["soil_water"] + rain + melt - et
    runoff = max(filled - p["w_cap"], 0.0)
    gpp = p["gpp_coeff"] * fsds * wet
    new = {
        "swe": s["swe"] + snow - melt,
        "soil_water": filled - runoff,
        "soil_temp": s["soil_temp"] + (tbot - s["soil_temp"]) * (dt / p["temp_tau"]),
        "c_leaf": s["c_leaf"] + (p["alloc"] * gpp - p["k_leaf"] * s["c_leaf"]) * dt,
        "c_soil": s["c_soil"]
        + ((1.0 - p["alloc"]) * gpp + p["k_leaf"] * s["c_leaf"] * 0.5 - p["k_soil"] * s["c_soil"])
        * dt,
    }
    diag = (
        new["swe"] / (new["swe"] + p["snow_cover_scale"]),
        new["soil_water"],
        p["lai_per_c"] * new["c_leaf"],
        new["soil_temp"],
        runoff / dt,
        gpp,
    )
    return new, diag


@dataclasses.dataclass
class ColumnResult:
    state: dict  # state variable -> per-cell final value
    sums: dict  # history variable -> per-cell accumulated sum since the last flush
    count: int
    means: dict  # flush step -> history variable -> per-cell float32 mean


def reference_run(col: ColumnInputs, cfg) -> ColumnResult:
    """Step the sampled columns for `cfg.n_days`, flushing history means at
    the case's history boundaries."""
    p = dataclasses.asdict(cfg.params)
    dt = float(cfg.dt_hours)
    steps_per_day = 24 // cfg.dt_hours
    total = cfg.n_days * steps_per_day
    if cfg.history_interval == "daily":
        flushes, reset = set(range(steps_per_day, total + 1, steps_per_day)), True
    elif cfg.history_interval == "end_of_run":
        flushes, reset = {total}, False
    else:
        raise ValueError(f"no reference for history_interval {cfg.history_interval!r}")
    month = int(cfg.start[5:7])
    k = len(col.cells)
    result = ColumnResult(
        state={v: [0.0] * k for v in STATE},
        sums={v: [0.0] * k for v in HISTORY},
        count=0,
        means={step: {v: [0.0] * k for v in HISTORY} for step in flushes},
    )
    for i in range(k):
        s = _initial_state(col.surface, i, p, month)
        sums = [0.0] * len(HISTORY)
        count = 0
        for step in range(total):
            f = _forcing_at(col.records, col.nearest, i, step * dt)
            s, diag = _step(s, f["TBOT"], f["PRECT"] / 3.0, f["FSDS"], p, dt)
            sums = [a + b for a, b in zip(sums, diag)]
            count += 1
            if step + 1 in flushes:
                for v, total_v in zip(HISTORY, sums):
                    result.means[step + 1][v][i] = float(np.float32(total_v / count))
                if reset:
                    sums = [0.0] * len(HISTORY)
                    count = 0
        for v in STATE:
            result.state[v][i] = s[v]
        for v, total_v in zip(HISTORY, sums):
            result.sums[v][i] = total_v
        result.count = count
    return result


def _rpointer(out_dir: Path) -> dict:
    text = (out_dir / f"rpointer.{workloads.CASE_NAME}").read_text()
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _mismatches(what, got, want, cells) -> list:
    bad = [
        f"{what} at cell {c}: run {g!r} != reference {w!r}"
        for c, g, w in zip(cells, got, want)
        if np.float64(g).tobytes() != np.float64(w).tobytes()
    ]
    return bad[:3]


def check_reference(out_dir, col: ColumnInputs, ref: ColumnResult, dt_hours: int = 1) -> list:
    """The run's final restart state and every history file's means equal
    the reference bit for bit at the sampled cells."""
    out_dir = Path(out_dir)
    failures = []
    cells = col.cells
    elm_r = out_dir / _rpointer(out_dir)["elm_r"]
    with cdf.read_file(str(elm_r)) as f:
        for v in STATE:
            failures += _mismatches(f"restart {v}", f.read(v)[cells].tolist(), ref.state[v], cells)
        for v in HISTORY:
            failures += _mismatches(
                f"restart hsum_{v}", f.read(f"hsum_{v}")[cells].tolist(), ref.sums[v], cells
            )
        if int(f.model.gattrs["hist_count"]) != ref.count:
            failures.append(f"restart hist_count {f.model.gattrs['hist_count']} != {ref.count}")
    seen = set()
    for path in sorted(out_dir.glob(f"{workloads.CASE_NAME}.elm.h0.*.nc")):
        with cdf.read_file(str(path)) as f:
            step = int(round(float(f.model.gattrs["sim_hours"]) / dt_hours))
            if step not in ref.means:
                failures.append(f"{path.name}: no reference flush at step {step}")
                continue
            seen.add(step)
            for v in HISTORY:
                got = f.read(v)[0, cells].astype(np.float64).tolist()
                failures += _mismatches(f"{path.name} {v}", got, ref.means[step][v], cells)
    if seen != set(ref.means):
        failures.append(f"history files for steps {sorted(seen)}, expected {sorted(ref.means)}")
    return failures


# ---------------------------------------------------------------------------
# Output files


def check_sizes(out_dir) -> list:
    """Every output file's length equals cdf.compute_size of its header."""
    failures = []
    paths = sorted(Path(out_dir).rglob("*.nc"))
    if not paths:
        return [f"no output files under {out_dir}"]
    for path in paths:
        with cdf.read_file(str(path)) as f:
            want = cdf.compute_size(f.model, f.numrecs).total_bytes
        got = path.stat().st_size
        if got != want:
            failures.append(f"{path.name}: {got} bytes, header accounts for {want}")
    return failures


def _same_files(got_dir: Path, want_dir: Path, names) -> list:
    failures = []
    for name in names:
        want = want_dir / name
        if not want.exists():
            failures.append(f"{name}: missing from {want_dir}")
        elif not filecmp.cmp(got_dir / name, want, shallow=False):
            failures.append(f"{name}: bytes differ from {want_dir}")
    return failures


def _outputs(out_dir: Path) -> list:
    return sorted(p.name for p in out_dir.glob("*.nc"))


def check_restart_transparency(w, inputs_dir, out_dir, work_dir) -> list:
    """Resuming from the day-6 bundle for the remaining days rewrites the
    later history and restart files byte for byte."""
    out_dir, work_dir = Path(out_dir), Path(work_dir)
    tag = f"2014-01-{1 + RESUME_DAY:02d}-00000"
    bundle = {
        "elm_r": f"{workloads.CASE_NAME}.elm.r.{tag}.nc",
        "cpl_r": f"{workloads.CASE_NAME}.cpl.r.{tag}.nc",
        "datm_r": f"{workloads.CASE_NAME}.datm.r.{tag}.nc",
        "rh0": f"{workloads.CASE_NAME}.elm.rh0.{tag}.nc",
    }
    src = work_dir / "bundle"
    resumed = work_dir / "resumed"
    shutil.rmtree(work_dir, ignore_errors=True)
    src.mkdir(parents=True)
    for name in bundle.values():
        if not (out_dir / name).exists():
            return [f"no day-{RESUME_DAY} bundle file {name}"]
        shutil.copyfile(out_dir / name, src / name)
    lines = [f"{key} = {name}" for key, name in bundle.items()] + [f"date = {tag}"]
    (src / f"rpointer.{workloads.CASE_NAME}").write_text("\n".join(lines) + "\n")
    cfg = workloads.case_config(w, inputs_dir)
    simulation.resume_case(cfg, str(resumed), w.n_days - RESUME_DAY, restart_dir=str(src))
    names = _outputs(resumed)
    final = f"2014-01-{1 + w.n_days:02d}-00000"
    if not any(final in n and ".elm.h0." in n for n in names):
        return [f"resumed run wrote no final history file ({names})"]
    return _same_files(resumed, out_dir, names)


def check_invariance(w, inputs_dir, out_dir, work_dir) -> list:
    """The outputs equal, byte for byte, those of a 1-worker, 1-aggregator
    run of the same case."""
    out_dir, work_dir = Path(out_dir), Path(work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    workloads.run_simulation(w, inputs_dir, work_dir, lnd_workers=1, n_aggregators=1)
    want, got = _outputs(work_dir), _outputs(out_dir)
    if want != got:
        return [f"output files {got} != serial run's {want}"]
    return _same_files(out_dir, work_dir, want)


# ---------------------------------------------------------------------------
# Data toolkit


def check_verdicts(verdicts: dict) -> list:
    failures = [f"{name}: regenerated input compares {v!r}" for name, v in verdicts.items()
                if v != "identical"]
    missing = set(workloads.INPUT_FILES) - set(verdicts)
    return failures + [f"{name}: not compared" for name in sorted(missing)]


def check_daily_aggregates(inputs: "workloads.Inputs") -> list:
    """The 3-hourly records keep each day's aggregate: the additive mean
    exactly, the multiplicative mean and the sum-preserving sum within
    FLOAT32_ULPS units in the last place of the float32 daily value."""
    failures = []
    d, fm = inputs.domain, inputs.forcing
    steps = forcing.STEPS_PER_DAY
    for name, spec in forcing.VARIABLES.items():
        daily = domain.compact(np.asarray(inputs.daily[name]), d)  # (days, n_land)
        sub = fm.values[name].astype(np.float64).reshape(daily.shape[0], steps, -1)
        if spec.downscale_mode == forcing.SUM_PRESERVING:
            agg, tol = sub.sum(axis=1), FLOAT32_ULPS * np.spacing(daily.astype(np.float32))
        else:
            agg = sub.sum(axis=1) / steps
            exact = spec.downscale_mode == forcing.ADDITIVE
            tol = 0.0 if exact else FLOAT32_ULPS * np.spacing(daily.astype(np.float32))
        excess = np.abs(agg - daily) - tol
        if np.any(excess > 0):
            day, cell = np.unravel_index(int(np.argmax(excess)), excess.shape)
            failures.append(
                f"{name} ({spec.downscale_mode}): day {day} cell {cell} aggregate "
                f"{agg[day, cell]!r} != daily {daily[day, cell]!r}"
            )
    return failures


def check_pct_pft(surface_path) -> list:
    pct = surface.read_surface(str(surface_path)).values["PCT_PFT"]
    err = np.abs(pct.sum(axis=0) - 100.0)
    if err.max() > 1e-9:
        return [f"PCT_PFT sums to {100.0 + err.max()!r} at cell {int(np.argmax(err))}"]
    return []


def flip_bit(path, copy_path, seed: int):
    """Copy `path` and flip one seeded bit of one element of a float64
    land variable; returns (variable, element index)."""
    shutil.copyfile(path, copy_path)
    rng = np.random.default_rng([seed, 0xB1])
    name = "xc_land"
    with cdf.read_file(str(copy_path)) as f:
        v = f.model.var(name)
        n = math.prod(f.shape(name))
        index = int(rng.integers(n))
        offset = v.begin + index * v.nc_type.size + int(rng.integers(v.nc_type.size))
    with open(copy_path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ (1 << int(rng.integers(8)))]))
    return name, index


def check_flip_detected(path, copy_path, name: str, index: int) -> list:
    """compare_files finds exactly the flipped element and nothing else."""
    report = compare.compare_files(str(path), str(copy_path))
    failures = []
    if report.verdict != "different":
        failures.append(f"one flipped bit compares {report.verdict!r}")
    diff = report.per_var.get(name)
    if diff is None or diff.first_diff_index != index or diff.n_bit_differing != 1:
        got = None if diff is None else (diff.first_diff_index, diff.n_bit_differing)
        failures.append(f"flipped {name}[{index}] reported as (index, count) {got}")
    others = [n for n, dv in report.per_var.items() if n != name and dv.n_bit_differing]
    if others:
        failures.append(f"flip in {name} also reported in {others}")
    return failures


# ---------------------------------------------------------------------------
# Traced calls

EXACT_COUNTS = ("forcing.open_calls", "cdf.read_calls", "cdf.write_calls", "cdf.write_mib")


def check_trace(w, traced_reps: list, tolerance_s: float = 1e-6) -> list:
    """Layer self times plus the simulation's own run time add up to each
    traced call's wall time, no time is negative, the counts repeat
    exactly, and the spans of every pool worker arrive."""
    failures = []
    if not traced_reps:
        return ["no traced call"]
    for n, rep in enumerate(traced_reps):
        m = rep["layers"]
        parts = [m[f"{layer}.self_s"] for layer in tracing.LAYERS] + [m["simulation.run_self_s"]]
        if abs(sum(parts) - m["trace.wall_s"]) > tolerance_s:
            failures.append(
                f"traced call {n}: self times sum to {sum(parts)!r}, wall {m['trace.wall_s']!r}"
            )
        if min(parts) < -tolerance_s:
            failures.append(f"traced call {n}: negative self time {min(parts)!r}")
        want_processes = 1 + (w.lnd_workers if w.lnd_workers > 1 else 0)
        if rep["processes"] != want_processes:
            failures.append(f"traced call {n}: spans from {rep['processes']} processes, "
                            f"expected {want_processes}")
    for key in EXACT_COUNTS:
        values = {rep["layers"][key] for rep in traced_reps}
        if len(values) != 1:
            failures.append(f"{key} differs between traced calls: {sorted(values)}")
    if w.kind == "simulation":
        want = workloads.segments(w) * w.lnd_workers
        got = traced_reps[0]["layers"]["forcing.open_calls"]
        if got != want:
            failures.append(f"forcing.open_calls {got}, expected {want} (segments x workers)")
    return failures
