import os
import shutil
import subprocess
import sys
from csv import DictReader

import numpy as np
import pytest

from kiloland import cdf
from kiloland.cli import main
from kiloland.compare import files_bit_identical

from conftest import drop_gattrs


def run_cli(*argv):
    return main(list(argv))


def make_domain(out, seed=7, rows=16, cols=16, name="domain.nc"):
    assert run_cli(
        "make-domain", "--rows", str(rows), "--cols", str(cols),
        "--land-fraction", "0.6", "--seed", str(seed), "--out", out, "--name", name,
    ) == 0
    return os.path.join(out, name)


def write_cfg(path, root, **over):
    lines = {
        "case.name": over.get("name", "cli"),
        "case.domain": os.path.join(root, "domain.nc"),
        "case.forcing_dir": root,
        "case.surface": os.path.join(root, "surface.nc"),
        "case.start": over.get("start", "2014-01-01"),
        "case.n_days": over.get("n_days", 2),
        "case.dt_hours": 1,
        "case.history_interval": "end_of_run",
        "case.restart_interval": "end_of_run",
        "case.seed": 7,
        "lnd.n_workers": over.get("workers", 1),
        "lnd.partition": "round_robin",
    }
    with open(path, "w") as fh:
        for k, v in lines.items():
            fh.write(f"{k} = {v}\n")
    return path


@pytest.fixture()
def pipeline(tmp_path):
    root = str(tmp_path / "inputs")
    make_domain(root)
    assert run_cli("gen-forcing", "--domain", os.path.join(root, "domain.nc"),
                   "--start-month", "2014-01", "--months", "1", "--out", root) == 0
    assert run_cli("gen-surface", "--domain", os.path.join(root, "domain.nc"),
                   "--out", root) == 0
    cfg = write_cfg(str(tmp_path / "case.cfg"), root)
    return root, cfg, tmp_path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("make-domain", "--rows", "4", "--cols", "4", "--frobnicate")
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("transmogrify")
        assert exc.value.code == 2

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run_cli("dump", str(tmp_path / "nope.nc")) == 3

    def test_non_utf8_name_is_format_error(self, tmp_path, capsys):
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("n", 2)])
        model.vars.append(cdf.Var("tbot", cdf.NcType.FLOAT64, ("n",)))
        blob = bytearray(cdf.write_file(None, model, {"tbot": np.zeros(2)}))
        blob[blob.index(b"tbot")] = 0xFF
        path = tmp_path / "bad.nc"
        path.write_bytes(bytes(blob))
        assert run_cli("dump", str(path)) == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_validation_failure_is_one(self, tmp_path, capsys):
        out = str(tmp_path)
        domain = make_domain(out)
        code = run_cli("gen-surface", "--domain", domain, "--method", "spline",
                       "--out", out)
        assert code == 1
        assert "spline" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0


class TestMakeDomain:
    def test_twice_bit_identical(self, tmp_path, capsys):
        a = make_domain(str(tmp_path / "a"))
        b = make_domain(str(tmp_path / "b"))
        assert files_bit_identical(a, b)

    def test_provenance_written(self, tmp_path):
        out = str(tmp_path)
        make_domain(out)
        text = open(os.path.join(out, "domain.nc.provenance.txt")).read()
        assert "seed = 7" in text and "version = " in text

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KILOLAND_OUT", str(tmp_path / "env"))
        assert run_cli("make-domain", "--rows", "4", "--cols", "4") == 0
        assert os.path.exists(tmp_path / "env" / "domain.nc")


class TestDomainTools:
    def test_subset_by_ids(self, tmp_path, capsys):
        out = str(tmp_path)
        domain = make_domain(out)
        assert run_cli("subset", "--domain", domain, "--ids", "0,1,2,17",
                       "--out", out, "--name", "sub.nc") == 0
        assert os.path.exists(os.path.join(out, "sub.nc"))

    def test_subset_needs_exactly_one_selector(self, tmp_path, capsys):
        out = str(tmp_path)
        domain = make_domain(out)
        assert run_cli("subset", "--domain", domain, "--out", out) == 1

    def test_replicate(self, tmp_path, capsys):
        out = str(tmp_path)
        domain = make_domain(out)
        assert run_cli("replicate", "--domain", domain, "--factor", "3",
                       "--out", out, "--name", "x3.nc") == 0
        from kiloland.domain import read_domain

        assert read_domain(os.path.join(out, "x3.nc")).n_copies == 3

    @pytest.mark.parametrize("method", ["nearest", "bilinear"])
    def test_gen_surface_near_the_pole(self, tmp_path, capsys, method):
        # The source is padded by 1° past the land, so here its range passes
        # the pole; it keeps only the rows that lie on the sphere.
        from kiloland.domain import compact, read_domain

        out = str(tmp_path)
        assert run_cli("make-domain", "--rows", "16", "--cols", "16",
                       "--center-lat", "89.5", "--out", out) == 0
        domain = os.path.join(out, "domain.nc")
        d = read_domain(domain)
        assert compact(d.yc, d).max() > 89.0
        assert run_cli("gen-surface", "--domain", domain, "--method", method,
                       "--out", out) == 0


class TestBadToolValues:
    """A bad value exits 1 with one `error:` line, not a traceback or a
    silently different command."""

    @pytest.mark.parametrize("argv, want", [
        (("gen-forcing", "--months", "0"), "no months to generate"),
        (("gen-forcing", "--months", "-2"), "no months to generate"),
        (("gen-surface", "--spacing", "0"), "spacing must be positive, not 0.0"),
        (("gen-surface", "--spacing", "-0.5"), "spacing must be positive, not -0.5"),
        (("gen-surface", "--extra-vars", "-1"), "n_extra must be >= 0, not -1"),
    ])
    def test_generator_rejects(self, tmp_path, capsys, argv, want):
        out = str(tmp_path)
        domain = make_domain(out)
        capsys.readouterr()
        assert run_cli(*argv, "--domain", domain, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {want}\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_compare_replication_below_one_rejected(self, tmp_path, capsys, k):
        domain = make_domain(str(tmp_path))
        capsys.readouterr()
        assert run_cli("compare", domain, domain, "--replication", k) == 1
        assert capsys.readouterr().err == "error: k must be >= 1\n"


class TestRunAndCompare:
    def test_pipeline_run_then_compare_golden(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert run_cli("run", "--case", cfg, "--out", out1) == 0
        assert run_cli("run", "--case", cfg, "--out", out2, "--workers", "2") == 0
        h = "cli.elm.h0.2014-01-03-00000.nc"
        code = run_cli("compare", os.path.join(out1, h), os.path.join(out2, h),
                       "--tol", "bit_exact")
        assert code == 0
        assert "verdict: identical" in capsys.readouterr().out

    def test_compare_detects_difference(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out1 = str(tmp_path / "r1")
        assert run_cli("run", "--case", cfg, "--out", out1) == 0
        h = os.path.join(out1, "cli.elm.h0.2014-01-03-00000.nc")
        tampered = str(tmp_path / "t.nc")
        blob = bytearray(open(h, "rb").read())
        blob[-2] ^= 0x40
        open(tampered, "wb").write(bytes(blob))
        assert run_cli("compare", h, tampered, "--tol", "bit_exact") == 1

    def test_resume_via_cli(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out = str(tmp_path / "r")
        assert run_cli("run", "--case", cfg, "--out", out) == 0
        assert run_cli("resume", "--case", cfg, "--extra-days", "1", "--out", out) == 0
        assert os.path.exists(os.path.join(out, "cli.elm.h0.2014-01-04-00000.nc"))

    @pytest.mark.parametrize("days", ["-1", "-5"])
    def test_resume_negative_days_exits_one_and_writes_nothing(self, pipeline, capsys, days):
        root, cfg, tmp_path = pipeline
        out = tmp_path / "r"
        assert run_cli("run", "--case", cfg, "--out", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "cli.iostats.csv" in before
        capsys.readouterr()
        assert run_cli("resume", "--case", cfg, "--extra-days", days, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: extra_days must be >= 0, not {days}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_start_off_the_forcing_month_exits_one(self, pipeline, capsys):
        root, _, tmp_path = pipeline
        cfg = write_cfg(str(tmp_path / "late.cfg"), root, start="2014-01-15")
        out = tmp_path / "late"
        assert run_cli("run", "--case", cfg, "--out", str(out)) == 1
        assert "case start 2014-01-15 is not 2014-01-01" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_forcing_without_month_exits_three(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        path = os.path.join(root, "forcing_met_2014-01.nc")
        drop_gattrs(path, "month")
        capsys.readouterr()
        assert run_cli("run", "--case", cfg, "--out", str(tmp_path / "r")) == 3
        err = capsys.readouterr().err
        assert path in err and "year or month" in err

    @pytest.mark.parametrize("drop", ["checksum", "variable"])
    def test_resume_from_incomplete_restart_is_integrity_error(self, pipeline, capsys, drop):
        root, cfg, tmp_path = pipeline
        out = str(tmp_path / "r")
        assert run_cli("run", "--case", cfg, "--out", out) == 0
        elm_r = os.path.join(out, "cli.elm.r.2014-01-03-00000.nc")
        with cdf.read_file(elm_r) as f:
            model = f.model
            data = {v.name: f.read(v.name) for v in model.vars}
        if drop == "checksum":
            del model.var("soil_water").attrs["checksum"]
        else:
            model.vars.remove(model.var("soil_water"))
            del data["soil_water"]
        with open(elm_r, "wb") as fh:
            cdf.write_file(fh, model, data)
        capsys.readouterr()
        assert run_cli("resume", "--case", cfg, "--extra-days", "1", "--out", out) == 3
        want = "checksum" if drop == "checksum" else "soil_water"
        assert f"lacks '{want}'" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", ["n_copies", "id_space", "gridcell"])
    def test_domain_without_header_field_is_integrity_error(self, pipeline, capsys, drop):
        root, cfg, tmp_path = pipeline
        path = os.path.join(root, "domain.nc")
        with cdf.read_file(path) as f:
            model = f.model
            data = {v.name: f.read(v.name) for v in model.vars}
        if drop == "gridcell":
            model.dim("gridcell").name = "cell"
            for v in model.vars:
                v.dims = tuple("cell" if d == "gridcell" else d for d in v.dims)
        else:
            del model.gattrs[drop]
        with open(path, "wb") as fh:
            cdf.write_file(fh, model, data)
        capsys.readouterr()
        assert run_cli("run", "--case", cfg, "--out", str(tmp_path / "r")) == 3
        assert f"lacks '{drop}'" in capsys.readouterr().err
        # The data commands read the domain through `read_domain`.
        assert run_cli("replicate", "--domain", path, "--factor", "2",
                       "--out", str(tmp_path / "x")) == 3
        assert f"lacks '{drop}'" in capsys.readouterr().err

    def test_replication_check_via_cli(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out1 = str(tmp_path / "base")
        assert run_cli("run", "--case", cfg, "--out", out1) == 0
        domain = os.path.join(root, "domain.nc")
        assert run_cli("replicate", "--domain", domain, "--factor", "2",
                       "--out", root, "--name", "x2.nc") == 0
        cfg2 = write_cfg(str(tmp_path / "x2.cfg"), root, name="cli")
        with open(cfg2) as fh:
            text = fh.read().replace("domain.nc", "x2.nc")
        open(cfg2, "w").write(text)
        out2 = str(tmp_path / "x2run")
        assert run_cli("run", "--case", cfg2, "--out", out2) == 0
        h = "cli.elm.h0.2014-01-03-00000.nc"
        assert run_cli("compare", os.path.join(out1, h), os.path.join(out2, h),
                       "--replication", "2") == 0


class TestGlobalFlags:
    def test_global_config_feeds_run(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out = str(tmp_path / "g")
        assert run_cli("--config", cfg, "run", "--out", out) == 0
        assert os.path.exists(os.path.join(out, "cli.elm.h0.2014-01-03-00000.nc"))

    def test_run_without_case_is_usage_error(self, capsys):
        assert run_cli("run") == 2
        assert "usage error" in capsys.readouterr().err

    def test_global_seed_equivalent_to_local(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("--seed", "11", "make-domain", "--rows", "8", "--cols", "8",
                       "--out", a) == 0
        assert run_cli("make-domain", "--rows", "8", "--cols", "8", "--seed", "11",
                       "--out", b) == 0
        assert files_bit_identical(os.path.join(a, "domain.nc"),
                                   os.path.join(b, "domain.nc"))

    def test_global_workers_applies(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out = str(tmp_path / "gw")
        assert run_cli("--workers", "2", "--config", cfg, "run", "--out", out) == 0

    def test_zero_workers_exits_one(self, pipeline, capsys):
        """A given --workers 0, local or global, replaces the config's
        worker count and fails the partition's check."""
        root, cfg, tmp_path = pipeline
        out = str(tmp_path / "z")
        assert run_cli("run", "--case", cfg, "--out", out) == 0
        capsys.readouterr()
        for argv in (
            ("run", "--case", cfg, "--workers", "0"),
            ("--workers", "0", "--config", cfg, "run"),
            ("resume", "--case", cfg, "--extra-days", "1", "--workers", "0"),
            ("--workers", "0", "--config", cfg, "resume", "--extra-days", "1"),
        ):
            assert run_cli(*argv, "--out", out) == 1, argv
            assert "n_cells and n_ranks must be >= 1" in capsys.readouterr().err, argv

    def test_iostats_csv_written(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out = str(tmp_path / "st")
        assert run_cli("run", "--case", cfg, "--out", out) == 0
        text = open(os.path.join(out, "cli.iostats.csv")).read()
        assert text.startswith("case,variable,bytes,seconds,MiB_per_s,aggregators,buffer_limit")
        assert "cli,TLAI," in text


class TestEndToEndDeterminism:
    def test_full_pipeline_reproducible_from_config_and_seed(self, tmp_path, capsys):
        histories = []
        for leg in ("first", "second"):
            root = str(tmp_path / leg)
            make_domain(root)
            assert run_cli("gen-forcing", "--domain", os.path.join(root, "domain.nc"),
                           "--start-month", "2014-01", "--out", root) == 0
            assert run_cli("gen-surface", "--domain", os.path.join(root, "domain.nc"),
                           "--out", root) == 0
            cfg = write_cfg(os.path.join(root, "case.cfg"), root, workers=2)
            out = os.path.join(root, "run")
            assert run_cli("run", "--case", cfg, "--out", out) == 0
            histories.append(os.path.join(out, "cli.elm.h0.2014-01-03-00000.nc"))
        assert files_bit_identical(*histories)


class TestDump:
    def test_stable_header_output(self, tmp_path, capsys):
        out = str(tmp_path)
        domain = make_domain(out, rows=4, cols=4)
        capsys.readouterr()  # drop make-domain output
        assert run_cli("dump", domain) == 0
        text = capsys.readouterr().out
        assert text.startswith("netcdf domain.nc format CDF5")
        assert "gridcell = " in text and "double xc(nj, ni)" in text


class TestBenchPredictReport:
    def test_bench_and_report(self, pipeline, capsys):
        root, cfg, tmp_path = pipeline
        out = str(tmp_path / "bench")
        assert run_cli("bench", "--case", cfg, "--mode", "strong",
                       "--workers", "1,2", "--out", out) == 0
        captured = capsys.readouterr().out
        assert "LND 1 workers" in captured and "LND 2 workers" in captured
        csv = os.path.join(out, "scaling_strong.csv")
        with open(csv) as fh:
            lines = fh.read().splitlines()
        assert sum(line.startswith("case,") for line in lines) == 1
        with open(csv) as fh:
            rows = list(DictReader(fh))
        assert len(rows) == len(lines) - 1 == 3 * 2 * 2  # components x workers x phases
        assert {r["component"] for r in rows} == {"ATM", "CPL", "LND"}
        assert all(r["phase"] in ("init", "run") for r in rows)
        assert run_cli("report", "--csv", csv, "--out", out) == 0
        assert os.path.exists(os.path.join(out, "report_lnd.svg"))

    def test_predict_output_labeled_model(self, capsys):
        assert run_cli("predict", "--cells", "100000", "--steps", "120",
                       "--cores", "1,2,4", "--c-cell", "1e-6") == 0
        text = capsys.readouterr().out
        assert text.startswith("case,component,phase,cores")
        assert "predicted,LND,run,4," in text

    def test_predict_uncalibrated_fails(self, capsys):
        assert run_cli("predict", "--cells", "10", "--cores", "1") == 1

    @pytest.mark.parametrize("argv, want", [
        (["--calibrate-seconds", "-5"], "calibration run time must be positive, not -5.0"),
        (["--c-cell", "1e-9", "--c-sync=-1"], "c_sync must be >= 0, not -1.0"),
        (["--c-cell=-1e-9"], "c_cell must be >= 0, not -1e-09"),
    ])
    def test_predict_negative_value_named(self, capsys, argv, want):
        assert run_cli("predict", "--cells", "10", "--cores", "1,2", *argv) == 1
        assert capsys.readouterr().err == f"error: {want}\n"

    @pytest.mark.parametrize("argv", [
        ["--cells", "0", "--cores", "1,2", "--calibrate-seconds", "5"],
        ["--cells", "10", "--cores", "1,2", "--steps", "0", "--c-cell", "1e-9"],
        ["--cells", "10", "--cores", "0,2", "--c-cell", "1e-9"],
        ["--cells", "10", "--cores", "1,2", "--calibrate-seconds", "5",
         "--calibrate-cores", "0"],
    ])
    def test_predict_counts_below_one_rejected(self, capsys, argv):
        assert run_cli("predict", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cells, steps and cores must be >= 1")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rows, line", [
        (["c,LND,run,1,2.0,1,1,1"], 1),  # no header line
        (["case,component,phase,cores,seconds", "c,LND,run,1"], 2),  # short row
        (["case,component,phase,cores,seconds", "c,LND,run,1,2.0",
          "c,LND,run,2,0"], 3),  # zero seconds
    ])
    def test_report_malformed_csv_rejected(self, tmp_path, capsys, rows, line):
        csv = tmp_path / "bad.csv"
        csv.write_text("\n".join(rows) + "\n")
        assert run_cli("report", "--csv", str(csv), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv} line {line}: ")
        assert err.count("\n") == 1


class TestConsoleScript:
    def test_pipeline_reproducible_across_processes(self, tmp_path):
        """The pipeline, run twice in fresh interpreters with different hash
        seeds into the same cleared directory, writes the same bytes,
        provenance included. Only the timing columns of iostats.csv differ."""
        import kiloland

        out = tmp_path / "out"
        root, case = out / "inputs", out / "case"
        cfg = write_cfg(str(tmp_path / "case.cfg"), str(root))
        domain = str(root / "domain.nc")
        steps = [
            ["make-domain", "--rows", "8", "--cols", "8", "--out", str(root)],
            ["gen-forcing", "--domain", domain, "--out", str(root)],
            ["gen-surface", "--domain", domain, "--out", str(root)],
            ["run", "--case", cfg, "--out", str(case)],
            ["resume", "--case", cfg, "--extra-days", "1", "--out", str(case)],
        ]
        src = os.path.dirname(os.path.dirname(kiloland.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def untimed(f):
            if not f.name.endswith(".iostats.csv"):
                return f.read_bytes()
            with open(f) as fh:
                return [{k: v for k, v in row.items() if k not in ("seconds", "MiB_per_s")}
                        for row in DictReader(fh)]

        passes = []
        for hash_seed in ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            for argv in steps:
                proc = subprocess.run([sys.executable, "-m", "kiloland.cli", *argv],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
            passes.append({str(f.relative_to(out)): untimed(f)
                           for f in sorted(out.rglob("*")) if f.is_file()})
        first, second = passes
        assert sorted(first) == sorted(second)
        assert len([f for f in first if f.endswith(".provenance.txt")]) == 4
        for name in first:
            assert first[name] == second[name], name

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kiloland.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
