"""Command-line surface: data generation, case runs, validation,
benchmarking, and reporting.

Exit codes: 0 success, 1 validation failure (including a 'different'
comparison verdict), 2 usage error, 3 I/O or integrity error. Every
artifact-producing command writes a provenance record (argument hash,
seed, version) next to its outputs. KILOLAND_OUT sets the default output
directory.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import __version__, cdf, write_provenance


def _out_dir(args) -> str:
    out = args.out or os.environ.get("KILOLAND_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


# Namespace entries that do not shape an artifact: the handler (its repr
# carries a memory address), the log level, the output directory, and the
# case config and worker count, which only run, resume and bench read.
_UNHASHED_ARGS = ("func", "log_level", "out", "case", "workers")


def _provenance(out_dir: str, name: str, args) -> None:
    options = sorted((k, v) for k, v in vars(args).items() if k not in _UNHASHED_ARGS)
    write_provenance(out_dir, name, options, args.seed)


def cmd_make_domain(args) -> int:
    from .domain import Grid2D, build_domain, synth_mask, write_domain
    from .projection import LccParams, lcc_forward

    out = _out_dir(args)
    lcc = LccParams()
    x0, y0 = lcc_forward(args.center_lat, args.center_lon, lcc)
    grid = Grid2D(
        n_rows=args.rows,
        n_cols=args.cols,
        cell_size=args.cell_size,
        origin_x=x0,
        origin_y=y0,
        lcc=lcc,
    )
    d = build_domain(grid, synth_mask(args.rows, args.cols, args.land_fraction, args.seed))
    path = os.path.join(out, args.name)
    write_domain(d, path)
    _provenance(out, args.name, args)
    print(f"domain: {path} ({d.n_land} land cells of {grid.n_cells})")
    return 0


def cmd_gen_forcing(args) -> int:
    from .domain import read_domain
    from .forcing import gen_forcing_files

    out = _out_dir(args)
    d = read_domain(args.domain)
    year, month = args.start_month
    months = []
    for _ in range(args.months):
        months.append((year, month))
        month += 1
        if month > 12:
            year, month = year + 1, 1
    paths = gen_forcing_files(args.seed, d, months, out)
    _provenance(out, "forcing", args)
    for p in paths:
        print(f"forcing: {p}")
    return 0


def cmd_gen_surface(args) -> int:
    from .domain import compact, read_domain
    from .surface import build_surface, synth_coarse_source, write_surface

    out = _out_dir(args)
    d = read_domain(args.domain)
    lat = compact(d.yc, d)
    lon = compact(d.xc, d)
    src = synth_coarse_source(
        args.seed,
        (float(lat.min()) - 1.0, float(lat.max()) + 1.0),
        (float(lon.min()) - 1.0, float(lon.max()) + 1.0),
        spacing=args.spacing,
        n_extra=args.extra_vars,
    )
    ds = build_surface(d, src, {name: args.method for name in src.values})
    path = os.path.join(out, args.name)
    write_surface(ds, path)
    _provenance(out, args.name, args)
    print(f"surface: {path} ({len(ds.values)} variables, {ds.n_land} cells)")
    return 0


def cmd_subset(args) -> int:
    from .domain import read_domain, subset, write_domain

    out = _out_dir(args)
    d = read_domain(args.domain)
    if (args.bbox is None) == (args.ids is None):
        raise ValueError("give exactly one of --bbox or --ids")
    s = subset(d, bbox=args.bbox) if args.bbox is not None else subset(d, ids=args.ids)
    path = os.path.join(out, args.name)
    write_domain(s, path)
    _provenance(out, args.name, args)
    print(f"subset: {path} ({s.n_land} land cells)")
    return 0


def cmd_replicate(args) -> int:
    from .domain import read_domain, replicate, write_domain

    out = _out_dir(args)
    d = read_domain(args.domain)
    r = replicate(d, args.factor)
    path = os.path.join(out, args.name)
    write_domain(r, path)
    _provenance(out, args.name, args)
    print(f"replicated x{args.factor}: {path} ({r.n_land} land cells)")
    return 0


def _case(args) -> tuple:
    """`run`'s and `resume`'s case config and output directory. A given
    --workers, 0 included, replaces the config's worker count."""
    from .simulation import CaseConfig

    cfg = CaseConfig.from_file(args.case)
    if args.workers is not None:
        cfg.lnd_workers = args.workers
    return cfg, args.out or os.environ.get("KILOLAND_OUT") or f"{cfg.name}.out"


def cmd_run(args) -> int:
    from .simulation import run_case

    cfg, out = _case(args)
    result = run_case(cfg, out)
    for p in result.history_paths:
        print(f"history: {p}")
    for tag in result.restart_dates:
        print(f"restart: {tag}")
    for region in ("atm", "cpl", "lnd"):
        print(f"{region.upper()} seconds: {result.timers.total(region):.3f}")
    return 0


def cmd_resume(args) -> int:
    from .simulation import resume_case

    cfg, out = _case(args)
    result = resume_case(cfg, out, extra_days=args.extra_days,
                         restart_dir=args.restart_dir)
    for p in result.history_paths:
        print(f"history: {p}")
    return 0


def cmd_compare(args) -> int:
    from .compare import check_replication, compare_files

    if args.replication != 1:
        report = check_replication(args.file_a, args.file_b, args.replication)
    else:
        report = compare_files(args.file_a, args.file_b, tol=args.tol)
    print(report.summary())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.csv())
    return 0 if report.verdict != "different" else 1


def cmd_bench(args) -> int:
    from .perf import run_scaling_suite
    from .simulation import CaseConfig

    cfg = CaseConfig.from_file(args.case)
    out = _out_dir(args)
    result = run_scaling_suite(cfg, args.workers, mode=args.mode, out_dir=out)
    print(f"csv: {result['csv']}")
    print(f"svg: {result['svg']}")
    lnd = result["tables"]["LND"]
    for rec, s, e in zip(lnd.records, lnd.speedup, lnd.efficiency):
        print(
            f"LND {rec.n_cores} workers: {rec.run_seconds:.3f}s "
            f"sypd={rec.sypd:.2f} speedup={s:.2f} efficiency={e * 100:.0f}%"
        )
    return 0


def cmd_predict(args) -> int:
    from .perf import CostModel, predict_times, scaling_csv

    model = CostModel(c_cell=args.c_cell, c_sync=args.c_sync)
    if args.calibrate_seconds:
        model.calibrate(
            args.calibrate_seconds, args.cells, args.steps, args.calibrate_cores
        )
    table = predict_times(
        model, args.cells, args.steps, args.cores, sim_days=args.steps / 24.0
    )
    sys.stdout.write(scaling_csv(table))
    return 0


def cmd_dump(args) -> int:
    print(cdf.dump_header(args.file, title=os.path.basename(args.file)), end="")
    return 0


def cmd_report(args) -> int:
    from .perf import ScalingRecord, ScalingTable, render_scaling_svg

    out = _out_dir(args)
    rows = {}
    with open(args.csv) as fh:
        header = None
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("case,"):
                header = line.split(",")
                continue
            parts = line.split(",")
            rec = dict(zip(header, parts)) if header and len(header) == len(parts) else {}
            try:
                if rec["phase"] != "run":
                    continue
                seconds = float(rec["seconds"])
                if not seconds > 0:
                    raise ValueError(f"run seconds {rec['seconds']} are not positive")
                rows.setdefault(rec["component"], []).append(
                    ScalingRecord(
                        case=rec["case"],
                        component=rec["component"],
                        n_cores=int(rec["cores"]),
                        init_seconds=0.0,
                        run_seconds=seconds,
                        sim_days=5,
                    )
                )
            except KeyError:
                raise ValueError(
                    f"{args.csv} line {lineno}: row does not match a 'case,...' header line"
                ) from None
            except ValueError as e:
                raise ValueError(f"{args.csv} line {lineno}: {e}") from None
    if not rows:
        raise ValueError(f"no run rows found in {args.csv}")
    for comp, recs in rows.items():
        table = ScalingTable(recs)
        path = os.path.join(out, f"report_{comp.lower()}.svg")
        with open(path, "w") as fh:
            fh.write(render_scaling_svg(table, f"{comp} scaling"))
        print(f"chart: {path}")
    return 0


def _ints(text: str) -> list:
    """`--ids`, `--cores` and `bench --workers`: comma-separated integers."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _bbox(text: str) -> tuple:
    """`--bbox`: exactly four comma-separated numbers."""
    try:
        box = tuple(float(s) for s in text.split(","))
    except ValueError:
        box = ()
    if len(box) != 4:
        raise argparse.ArgumentTypeError(f"not four numbers xmin,ymin,xmax,ymax: {text!r}")
    return box


def _month(text: str) -> tuple:
    """`--start-month`: YYYY-MM with a month of 1 to 12, as (year, month)."""
    try:
        year, month = (int(s) for s in text.split("-"))
    except ValueError:
        month = 0
    if not 1 <= month <= 12:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM month: {text!r}")
    return year, month


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kiloland",
        description="Desk-scale land-simulation stack: data toolkit, "
        "column-model driver, NetCDF-classic codec, benchmark harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    # Global settings, one slot each. A command's own copy of one writes the
    # same slot and defaults to SUPPRESS, so it wins only when given.
    settings = {
        "--case": {"help": "case config file (or global --config)"},
        "--seed": {"type": int},
        "--out": {"help": "output directory (or $KILOLAND_OUT)"},
        "--workers": {"type": int},
    }
    parser.add_argument("--config", dest="case", default=None,
                        help="case config file (default for run/resume/bench)")
    for flag, default in (("--seed", 7), ("--out", None), ("--workers", None)):
        parser.add_argument(flag, default=default, **settings[flag])
    sub = parser.add_subparsers(dest="command", required=True)

    def local(p, *flags):
        for flag in flags:
            p.add_argument(flag, default=argparse.SUPPRESS, **settings[flag])

    p = sub.add_parser("make-domain", help="synthesize a projected domain file")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--land-fraction", type=float, default=0.6)
    p.add_argument("--cell-size", type=float, default=1000.0)
    p.add_argument("--center-lat", type=float, default=64.5)
    p.add_argument("--center-lon", type=float, default=-165.0)
    p.add_argument("--name", default="domain.nc")
    local(p, "--out", "--seed")
    p.set_defaults(func=cmd_make_domain)

    p = sub.add_parser("gen-forcing", help="synthesize monthly forcing files")
    p.add_argument("--domain", required=True)
    p.add_argument("--start-month", type=_month, default="2014-01", help="YYYY-MM")
    p.add_argument("--months", type=int, default=1)
    local(p, "--out", "--seed")
    p.set_defaults(func=cmd_gen_forcing)

    p = sub.add_parser("gen-surface", help="interpolate surface properties")
    p.add_argument("--domain", required=True)
    p.add_argument("--method", default="nearest",
                   choices=["nearest", "bilinear", "linear", "spline"])
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--extra-vars", type=int, default=0)
    p.add_argument("--name", default="surface.nc")
    local(p, "--out", "--seed")
    p.set_defaults(func=cmd_gen_surface)

    p = sub.add_parser("subset", help="cut a domain by bbox or id list")
    p.add_argument("--domain", required=True)
    p.add_argument("--bbox", type=_bbox, default=None,
                   help="xmin,ymin,xmax,ymax (projected m)")
    p.add_argument("--ids", type=_ints, default=None, help="comma-separated gridcell ids")
    p.add_argument("--name", default="subset.nc")
    local(p, "--out", "--seed")
    p.set_defaults(func=cmd_subset)

    p = sub.add_parser("replicate", help="stack k copies of a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--name", default="replicated.nc")
    local(p, "--out", "--seed")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("run", help="run a case")
    local(p, "--case", "--workers", "--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("resume", help="continue a case from its restart")
    p.add_argument("--extra-days", type=int, required=True)
    p.add_argument("--restart-dir", default=None)
    local(p, "--case", "--workers", "--out")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("compare", help="element-wise comparison of two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", default="bit_exact",
                   help="bit_exact | abs:<eps> | rel:<eps>, eps >= 0")
    p.add_argument("--replication", type=int, default=1,
                   help="check file_b as k bit-exact copies of file_a (--tol ignored)")
    p.add_argument("--csv", default=None, help="write per-variable CSV here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="strong/weak scaling suite")
    p.add_argument("--mode", required=True, choices=["strong", "weak"])
    # A list with its own default: a global --workers does not reach the suite.
    p.add_argument("--workers", type=_ints, default="1,2")
    local(p, "--case", "--out", "--seed")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("predict", help="cost-model extrapolation (labeled 'model')")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--steps", type=int, default=120)
    p.add_argument("--cores", type=_ints, required=True, help="comma-separated core counts")
    p.add_argument("--c-cell", type=float, default=0.0)
    p.add_argument("--c-sync", type=float, default=0.0)
    p.add_argument("--calibrate-seconds", type=float, default=0.0)
    p.add_argument("--calibrate-cores", type=int, default=1)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("dump", help="print a file header in stable text form")
    p.add_argument("file")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("report", help="render scaling CSV into SVG charts")
    p.add_argument("--csv", required=True)
    local(p, "--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper())
    if args.command in ("run", "resume", "bench") and args.case is None:
        print(f"usage error: {args.command}: a case config is required (--case or --config)",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (cdf.CdfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
