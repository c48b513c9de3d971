"""The benchmark's workloads, the inputs they share, and the timed calls.

Every workload uses the same inputs: a Lambert-conformal domain whose land
mask is fixed (200 x 200 cells, land fraction 0.6, mask seed 7, so 23,803
land cells), plus one month of forcing (January 2014) and a surface file,
both drawn from the benchmark's `--seed`. Making these inputs is the data
toolkit's path (domain, forcing downscaling, surface interpolation), so it
is both the set-up of every workload and the timed call of `prep_verify`.

kiloland is imported through module attributes (`simulation.run_case`, not
`from ... import run_case`) so that the traced run's wrappers, which
replace module attributes, see every call made from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from kiloland import compare, domain, forcing, projection, simulation, surface

MASK_SEED = 7
LAND_FRACTION = 0.6
CELL_SIZE_M = 1000.0
CENTER_LAT_LON = (64.5, -165.0)
YEAR, MONTH = 2014, 1
START = "2014-01-01"

DOMAIN_FILE = "domain.nc"
FORCING_DIR = "forcing"
FORCING_FILE = f"{FORCING_DIR}/{forcing.forcing_filename(YEAR, MONTH)}"
SURFACE_FILE = "surface.nc"
INPUT_FILES = (DOMAIN_FILE, FORCING_FILE, SURFACE_FILE)
CASE_NAME = "bench"


@dataclass(frozen=True)
class Size:
    rows: int
    cols: int


# `small` exists for the benchmark's own tests; measured runs use
# `reference`.
SIZES = {"reference": Size(200, 200), "small": Size(24, 24)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "simulation" or "prep"
    n_days: int = 0
    history_interval: str = "none"
    restart_interval: str = "none"
    lnd_workers: int = 1
    n_aggregators: int = 1

    @property
    def simulated_days(self) -> int:
        """Days that `sypd` divides by: simulated days, or for `prep_verify`
        the days of forcing the data toolkit prepares."""
        if self.kind == "simulation":
            return self.n_days
        return forcing.days_in_month(YEAR, MONTH)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "daily_w1",
            "10 days with daily history and 2-day restarts on 1 worker: each of the "
            "10 segments re-reads the forcing month, so forcing reads dominate",
            "simulation", 10, "daily", "every:2d",
        ),
        Workload(
            "month_w1",
            "30 days in one segment on 1 worker: the forcing is read once, so "
            "interpolation and the column kernel carry the time",
            "simulation", 30, "end_of_run", "end_of_run",
        ),
        Workload(
            "daily_w2",
            "daily_w1 on 2 round-robin workers with 2 write aggregators: the process "
            "pool, state shipping, per-rank reads and aggregated writes",
            "simulation", 10, "daily", "every:2d", lnd_workers=2, n_aggregators=2,
        ),
        Workload(
            "prep_verify",
            "the data toolkit: build the domain, downscale a forcing month, interpolate "
            "the surface, write them and compare each bit-exactly with the set-up copy",
            "prep",
        ),
    )
}


@dataclass
class Inputs:
    """What `make_inputs` wrote, with the in-memory arrays it wrote from."""

    domain: object  # kiloland.domain.DomainSpec
    daily: dict  # forcing variable -> (days, rows, cols) daily field
    forcing: object  # kiloland.forcing.ForcingMonth, 3-hourly land records
    surface: object  # kiloland.surface.SurfaceDataset


def make_inputs(root, seed: int, size: Size) -> Inputs:
    """Write the domain, forcing month and surface file under `root`.

    The same calls as `kiloland make-domain`, `gen-forcing` and
    `gen-surface`; the forcing steps are spelled out so that the
    downscaled arrays stay available to the correctness checks.
    """
    root = Path(root)
    (root / FORCING_DIR).mkdir(parents=True, exist_ok=True)
    lcc = projection.LccParams()
    x0, y0 = projection.lcc_forward(*CENTER_LAT_LON, lcc)
    grid = domain.Grid2D(
        n_rows=size.rows, n_cols=size.cols, cell_size=CELL_SIZE_M,
        origin_x=x0, origin_y=y0, lcc=lcc,
    )
    mask = domain.synth_mask(size.rows, size.cols, LAND_FRACTION, MASK_SEED)
    d = domain.build_domain(grid, mask)
    domain.write_domain(d, str(root / DOMAIN_FILE))

    ((year, month, daily, profiles),) = forcing.synth_forcing(seed, d, [(YEAR, MONTH)])
    fm = forcing.downscale_month(daily, profiles, d, year, month)
    forcing.write_forcing_month(fm, str(root / FORCING_FILE))

    lat = domain.compact(d.yc, d)
    lon = domain.compact(d.xc, d)
    src = surface.synth_coarse_source(
        seed,
        (float(lat.min()) - 1.0, float(lat.max()) + 1.0),
        (float(lon.min()) - 1.0, float(lon.max()) + 1.0),
    )
    ds = surface.build_surface(d, src, {name: "nearest" for name in src.values})
    surface.write_surface(ds, str(root / SURFACE_FILE))
    return Inputs(d, daily, fm, ds)


def case_config(w: Workload, inputs_dir, **overrides):
    inputs_dir = Path(inputs_dir)
    fields = dict(
        name=CASE_NAME,
        domain=str(inputs_dir / DOMAIN_FILE),
        forcing_dir=str(inputs_dir / FORCING_DIR),
        surface=str(inputs_dir / SURFACE_FILE),
        start=START,
        n_days=w.n_days,
        dt_hours=1,
        history_interval=w.history_interval,
        restart_interval=w.restart_interval,
        lnd_workers=w.lnd_workers,
        n_aggregators=w.n_aggregators,
    )
    fields.update(overrides)
    return simulation.CaseConfig(**fields)


def run_simulation(w: Workload, inputs_dir, out_dir, **overrides):
    return simulation.run_case(case_config(w, inputs_dir, **overrides), str(out_dir))


def prepare_and_verify(inputs_dir, regen_dir, seed: int, size: Size) -> dict:
    """Regenerate every input under `regen_dir` and compare each file with
    the copy under `inputs_dir`; returns file -> compare verdict."""
    make_inputs(regen_dir, seed, size)
    return {
        name: compare.compare_files(
            str(Path(inputs_dir) / name), str(Path(regen_dir) / name)
        ).verdict
        for name in INPUT_FILES
    }


def segments(w: Workload) -> int:
    """Segments `run_case` splits the run into: one per history or restart
    boundary (each segment opens the forcing stream once per worker)."""
    steps_per_day = 24
    total = w.n_days * steps_per_day
    ends = {total}
    if w.history_interval == "daily":
        ends |= set(range(steps_per_day, total + 1, steps_per_day))
    if w.restart_interval.startswith("every:"):
        per = int(w.restart_interval[len("every:"):-1]) * steps_per_day
        ends |= set(range(per, total + 1, per))
    return len(ends)
