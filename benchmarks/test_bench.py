"""The benchmark's own tests: a small-size pass of every workload, and each
correctness check shown to fail on a corrupted output or a perturbed
reference.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from common import HERE, ROOT, use_checkout_kiloland

use_checkout_kiloland()

import checks  # noqa: E402
import records  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kiloland import cdf, surface  # noqa: E402

SMALL = workloads.SIZES["small"]
SEED = 5


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _flip(path: Path, offset: int, bit: int = 0):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([b ^ (1 << bit)]))


def _data_offset(path: Path, name: str, index: int = 0) -> int:
    with cdf.read_file(str(path)) as f:
        v = f.model.var(name)
        return v.begin + index * v.nc_type.size


# ---------------------------------------------------------------------------
# The whole command, at small size


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_pass(workload, trace):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    spec = tracing.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(spec)
    for name, m in result["metrics"].items():
        assert m["unit"] == spec[name][0]
        assert math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "daily_w1", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert spec["paths"] == ["benchmarks"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


# ---------------------------------------------------------------------------
# Checks, each shown able to fail


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """Small inputs plus a daily_w1 run over them."""
    root = tmp_path_factory.mktemp("case")
    inputs = workloads.make_inputs(root / "inputs", SEED, SMALL)
    w = workloads.WORKLOADS["daily_w1"]
    workloads.run_simulation(w, root / "inputs", root / "out")
    columns = checks.column_inputs(inputs, SEED)
    ref = checks.reference_run(columns, workloads.case_config(w, root / "inputs"))
    return root, inputs, columns, ref


def _copy_out(case, tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(case[0] / "out", out)
    return out


def test_reference_matches_and_fails_on_perturbed_reference(case):
    root, _, columns, ref = case
    assert checks.check_reference(root / "out", columns, ref) == []
    bad = copy.deepcopy(ref)
    bad.state["c_leaf"][0] = np.nextafter(bad.state["c_leaf"][0], np.inf)
    assert checks.check_reference(root / "out", columns, bad)
    bad = copy.deepcopy(ref)
    last = max(bad.means)
    bad.means[last]["TSOI"][3] = float(np.nextafter(np.float32(bad.means[last]["TSOI"][3]),
                                                    np.float32(np.inf)))
    assert checks.check_reference(root / "out", columns, bad)


def test_reference_fails_on_perturbed_forcing(case):
    root, inputs, columns, _ = case
    bad = copy.deepcopy(columns)
    bad.records["FSDS"][0][8 * 5 + 4] *= 1.0 + 1e-6  # day 5, midday record
    cfg = workloads.case_config(workloads.WORKLOADS["daily_w1"], root / "inputs")
    assert checks.check_reference(root / "out", columns, checks.reference_run(bad, cfg))


def test_reference_fails_on_corrupted_restart(case, tmp_path):
    _, _, columns, ref = case
    out = _copy_out(case, tmp_path)
    elm_r = out / checks._rpointer(out)["elm_r"]
    _flip(elm_r, _data_offset(elm_r, "soil_temp", columns.cells[0]) + 7)
    assert any("soil_temp" in f for f in checks.check_reference(out, columns, ref))


def test_sizes_pass_and_fail_on_padded_output(case, tmp_path):
    assert checks.check_sizes(case[0] / "out") == []
    out = _copy_out(case, tmp_path)
    victim = sorted(out.glob("*.elm.h0.*.nc"))[-1]
    with open(victim, "ab") as fh:
        fh.write(b"\0")
    assert checks.check_sizes(out)


def test_restart_transparency_and_its_failure(case, tmp_path):
    root = case[0]
    w = workloads.WORKLOADS["daily_w1"]
    assert checks.check_restart_transparency(w, root / "inputs", root / "out", tmp_path / "r") == []
    out = _copy_out(case, tmp_path)
    final = sorted(out.glob("*.elm.h0.*.nc"))[-1]
    _flip(final, _data_offset(final, "GPP", 1))
    assert checks.check_restart_transparency(w, root / "inputs", out, tmp_path / "r2")


def test_invariance_and_its_failure(case, tmp_path):
    root = case[0]
    w = workloads.WORKLOADS["daily_w2"]
    out = tmp_path / "w2"
    workloads.run_simulation(w, root / "inputs", out)
    assert checks.check_invariance(w, root / "inputs", out, tmp_path / "serial") == []
    victim = sorted(out.glob("*.elm.r.*.nc"))[0]
    _flip(victim, _data_offset(victim, "c_soil", 2))
    assert checks.check_invariance(w, root / "inputs", out, tmp_path / "serial")


def test_prep_checks_and_their_failures(case, tmp_path):
    root, inputs, _, _ = case
    regen = tmp_path / "regen"
    verdicts = workloads.prepare_and_verify(root / "inputs", regen, SEED, SMALL)
    assert checks.check_verdicts(verdicts) == []
    assert checks.check_verdicts({**verdicts, workloads.SURFACE_FILE: "different"})
    assert checks.check_verdicts({workloads.DOMAIN_FILE: "identical"})

    assert checks.check_pct_pft(regen / workloads.SURFACE_FILE) == []
    ds = copy.deepcopy(inputs.surface)
    ds.values["PCT_PFT"][4, 7] += 1e-6
    surface.write_surface(ds, str(tmp_path / "bad_surface.nc"))
    assert checks.check_pct_pft(tmp_path / "bad_surface.nc")

    domain_file = regen / workloads.DOMAIN_FILE
    name, index = checks.flip_bit(domain_file, tmp_path / "flipped.nc", SEED)
    assert checks.check_flip_detected(domain_file, tmp_path / "flipped.nc", name, index) == []
    shutil.copyfile(domain_file, tmp_path / "unflipped.nc")
    assert checks.check_flip_detected(domain_file, tmp_path / "unflipped.nc", name, index)
    assert checks.check_flip_detected(domain_file, tmp_path / "flipped.nc", name, index + 1)


@pytest.mark.parametrize("var, scale", [("TBOT", None), ("FSDS", 1 + 1e-5), ("PRECT", 1 + 1e-5)])
def test_daily_aggregates_and_their_failure(case, var, scale):
    inputs = case[1]
    assert checks.check_daily_aggregates(inputs) == []
    bad = copy.copy(inputs)
    bad.forcing = copy.deepcopy(inputs.forcing)
    rec = bad.forcing.values[var]
    cell = int(np.argmax(rec[12]))
    if scale is None:
        rec[12, cell] = np.nextafter(rec[12, cell], np.float32(np.inf))
    else:
        rec[12, cell] *= np.float32(scale)
    failures = checks.check_daily_aggregates(bad)
    assert len(failures) == 1 and failures[0].startswith(var)


# ---------------------------------------------------------------------------
# Tracing


def test_self_segments_and_attribution():
    parent = [("a.outer", 0.0, 10.0, 0), ("b.inner", 2.0, 5.0, 0), ("c.inner", 6.0, 7.0, 0)]
    segs = tracing.self_segments(parent)
    assert sum(e - s for s, e, n in segs if n == "a.outer") == pytest.approx(6.0)
    assert sum(e - s for s, e, n in segs if n == "b.inner") == pytest.approx(3.0)
    worker = [("b.inner", 1.0, 3.0, 0)]
    self_s, outside = tracing.attribute({1: parent, 2: worker}, 0.0, 12.0)
    # [1, 2) is shared by two processes, so a.outer and b.inner get half
    # each; over [2, 3) both processes are in b.inner.
    assert self_s["b.inner"] == pytest.approx(0.5 + 1.0 + 2.0)
    assert self_s["a.outer"] == pytest.approx(1.0 + 0.5 + 1.0 + 3.0)
    assert self_s["c.inner"] == pytest.approx(1.0)
    assert outside == pytest.approx(2.0)
    assert sum(self_s.values()) + outside == pytest.approx(12.0)


def _traced_reps(case, tmp_path, workload, n=2):
    root = case[0]
    w = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer(tmp_path / "spool")
    reps = []
    for k in range(n):
        tracer.install()
        try:
            t0 = time.perf_counter()
            workloads.run_simulation(w, root / "inputs", tmp_path / f"out{k}")
            t1 = time.perf_counter()
        finally:
            tracer.uninstall()
        by_pid = tracer.collect()
        reps.append({"processes": len(by_pid), "layers": tracing.rep_metrics(by_pid, t0, t1)})
    return w, reps


def test_trace_check_passes_and_fails(case, tmp_path):
    w, reps = _traced_reps(case, tmp_path, "daily_w1")
    assert checks.check_trace(w, reps) == []
    assert reps[0]["layers"]["forcing.open_calls"] == workloads.segments(w) == 10

    bad = copy.deepcopy(reps)
    bad[0]["layers"]["cdf.self_s"] += 1e-3
    assert checks.check_trace(w, bad)
    bad = copy.deepcopy(reps)
    bad[1]["layers"]["cdf.write_calls"] += 1
    assert checks.check_trace(w, bad)
    bad = copy.deepcopy(reps)
    bad[0]["processes"] = 2
    assert checks.check_trace(w, bad)


def test_trace_collects_worker_spans(case, tmp_path):
    w, reps = _traced_reps(case, tmp_path, "daily_w2", n=1)
    assert reps[0]["processes"] == 3
    assert reps[0]["layers"]["forcing.open_calls"] == 2 * workloads.segments(w)
    assert checks.check_trace(w, reps) == []


def test_tracer_restores_the_originals(tmp_path):
    from kiloland import cdf, decomp, forcing, simulation

    before = (simulation.step_cells, simulation.rearrange_write, decomp.rearrange_write,
              forcing.ForcingStream.__dict__["open"], cdf.CdfFile.read_slab,
              simulation._run_worker_segment)
    tracer = tracing.Tracer(tmp_path / "spool")
    try:
        tracer.install()
        assert simulation.step_cells is not before[0]
        assert simulation.rearrange_write is decomp.rearrange_write is not before[1]
    finally:
        tracer.uninstall()
    after = (simulation.step_cells, simulation.rearrange_write, decomp.rearrange_write,
             forcing.ForcingStream.__dict__["open"], cdf.CdfFile.read_slab,
             simulation._run_worker_segment)
    assert all(a is b for a, b in zip(before, after))


# ---------------------------------------------------------------------------
# Records


def test_records_diff(tmp_path):
    def rec(value):
        return {"workload": "daily_w1", "trace": 0,
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for i, v in enumerate((4.0, 4.2, 4.4)):
        (tmp_path / "a" / f"{i}.json").write_text(json.dumps(rec(v)))
    (tmp_path / "b" / "0.json").write_text(json.dumps(rec(3.15)))
    text = records.diff(records.load(tmp_path / "a"), records.load(tmp_path / "b"))
    assert "wall_s" in text and "-25.0%" in text
    assert records.git_sha(tmp_path) == "unknown"
