import os

import numpy as np
import pytest

from kiloland.domain import Grid2D, build_domain, compact, synth_mask, write_domain

# Canonical desk-scale test case: 32x32 grid, 613 of 1,024 cells land.
AKSP_MINI_SEED = 77
AKSP_MINI_ROWS = 32
AKSP_MINI_COLS = 32
AKSP_MINI_LAND_FRACTION = 0.6
AKSP_MINI_N_LAND = 613


def make_aksp_mini():
    from kiloland.projection import LccParams, lcc_forward

    lcc = LccParams()
    x0, y0 = lcc_forward(64.5, -165.0, lcc)
    grid = Grid2D(
        n_rows=AKSP_MINI_ROWS,
        n_cols=AKSP_MINI_COLS,
        cell_size=1000.0,
        origin_x=x0,
        origin_y=y0,
        lcc=lcc,
    )
    mask = synth_mask(
        AKSP_MINI_ROWS, AKSP_MINI_COLS, AKSP_MINI_LAND_FRACTION, AKSP_MINI_SEED
    )
    return build_domain(grid, mask)


def write_case_inputs(domain, root, seed=7, months=((2014, 1),)):
    """Domain, forcing, and surface files for a case rooted at `root`."""
    from kiloland.forcing import gen_forcing_files
    from kiloland.surface import build_surface, synth_coarse_source, write_surface

    os.makedirs(str(root), exist_ok=True)
    write_domain(domain, os.path.join(str(root), "domain.nc"))
    gen_forcing_files(seed, domain, list(months), os.path.join(str(root), "forcing"))
    lat = compact(domain.yc, domain)
    lon = compact(domain.xc, domain)
    src = synth_coarse_source(
        seed,
        (float(lat.min()) - 1.0, float(lat.max()) + 1.0),
        (float(lon.min()) - 1.0, float(lon.max()) + 1.0),
    )
    ds = build_surface(domain, src, {name: "nearest" for name in src.values})
    write_surface(ds, os.path.join(str(root), "surface.nc"))


def output_bytes(out_dir) -> dict:
    """Name -> bytes of a run's history, restart and rpointer files."""
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
        if name.endswith(".nc") or name.startswith("rpointer.")
    }


def drop_gattrs(path, *names):
    """Rewrite the file at `path` without the named global attributes."""
    from kiloland import cdf

    with cdf.read_file(path) as f:
        model, numrecs = f.model, f.numrecs
        data = {v.name: f.read(v.name) for v in model.vars}
    for name in names:
        del model.gattrs[name]
    with open(path, "wb") as fh:
        cdf.write_file(fh, model, data, numrecs=numrecs)


def setup_memory(cfg, out_dir, monkeypatch, resume_dir=None) -> tuple:
    """(retained, peak) bytes of one run's set-up (`_Run.setup`, fresh, or
    resumed from the restart bundle in `resume_dir`), up to and including
    the fork of its rank workers, which are then stopped unused. These are tracemalloc's figures plus the bytes of every
    anonymous mapping `simulation._shared` makes, which tracemalloc does
    not see; a mapping counts in the peak whenever it was made."""
    import tracemalloc

    from kiloland import simulation

    mapped = []
    shared = simulation._shared

    def counting(size):
        out = shared(size)
        mapped.append(len(out.base))
        return out

    monkeypatch.setattr(simulation, "_shared", counting)
    entries = None
    if resume_dir is not None:
        entries = simulation._read_rpointer(os.path.join(resume_dir, f"rpointer.{cfg.name}"))
        entries["dir"] = resume_dir
    tracemalloc.start()
    workers = None
    try:
        run = simulation._Run(cfg, out_dir)
        run.setup(resume_entries=entries, extra_days=1)
        workers = simulation._RankWorkers(run.ranks, cfg.dt_hours, cfg.params, run.forcing)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if workers is not None:
            workers.close()
    assert len(run.ranks) == cfg.lnd_workers
    return retained + sum(mapped), peak + sum(mapped)


def make_case_config(root, **overrides):
    from kiloland.simulation import CaseConfig

    defaults = dict(
        name="mini",
        domain=os.path.join(str(root), "domain.nc"),
        forcing_dir=os.path.join(str(root), "forcing"),
        surface=os.path.join(str(root), "surface.nc"),
    )
    defaults.update(overrides)
    return CaseConfig(**defaults)


@pytest.fixture(scope="session")
def aksp_mini():
    return make_aksp_mini()


@pytest.fixture(scope="session")
def mini_inputs(tmp_path_factory, aksp_mini):
    root = tmp_path_factory.mktemp("mini_inputs")
    write_case_inputs(aksp_mini, root)
    return root


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    print(f"\nACCEPTANCE {name}: {outcome}", flush=True)
