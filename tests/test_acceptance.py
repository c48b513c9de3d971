"""Acceptance criteria, one test (or parametrized family) per criterion.

Criteria 1-5 and 9-12 are property checks of the built system at desk
scale; 6-8 reproduce published scaling arithmetic exactly. Hardware-bound
clauses (the 4-worker measured-speedup points of criteria 9 and 10) skip
with an explicit message on machines with fewer than 4 cores.
"""

import io
import os
from dataclasses import replace

import numpy as np
import pytest

from kiloland import cdf
from kiloland.compare import check_replication, files_bit_identical
from kiloland.decomp import SCHEMES, IoDecomp, make_plan, partition, rearrange_write
from kiloland.domain import Grid2D, build_domain
from kiloland.forcing import (
    STEPS_PER_DAY,
    VARIABLES,
    downscale_day,
    downscale_month,
    synth_forcing,
)
from kiloland.perf import (
    ScalingRecord,
    ScalingTable,
    bandwidth,
    compute_sypd,
    run_scaling_suite,
    weak_efficiency,
)
from kiloland.simulation import (
    ToyParams,
    leaf_fixed_point,
    replicate_case,
    resume_case,
    run_case,
    run_constant_forcing,
)

from conftest import make_aksp_mini, make_case_config, write_case_inputs

MACHINE_CORES = os.cpu_count() or 1


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """AKSP-mini inputs plus the 1-worker 5-day reference run."""
    root = tmp_path_factory.mktemp("acc_mini")
    write_case_inputs(make_aksp_mini(), root)
    cfg = make_case_config(root)
    ref = run_case(cfg, str(root / "reference"))
    return {"root": root, "cfg": cfg, "ref": ref}


def bundle_paths(result):
    ptr = result.latest_restart
    return {
        kind: os.path.join(result.out_dir, ptr[kind])
        for kind in ("elm_r", "cpl_r", "datm_r", "rh0")
    }


# -- Criterion 1: replication equivalence -----------------------------------


def test_c01_replication_equivalence(mini, tmp_path):
    cfg10 = replicate_case(mini["cfg"], 10, str(tmp_path / "inputs"))
    rep = run_case(cfg10, str(tmp_path / "x10"))
    ref = mini["ref"]
    report = check_replication(ref.history_paths[0], rep.history_paths[0], 10)
    assert report.verdict == "identical", report.summary()
    base_bundle, rep_bundle = bundle_paths(ref), bundle_paths(rep)
    for kind in ("elm_r", "cpl_r"):
        report = check_replication(base_bundle[kind], rep_bundle[kind], 10)
        assert report.verdict == "identical", (kind, report.summary())


# -- Criterion 2: partition and worker invariance ----------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workers", [1, 2, 4, 8])
@pytest.mark.parametrize("aggregators", [1, 2])
def test_c02_partition_worker_invariance(mini, tmp_path, workers, scheme, aggregators):
    ref = mini["ref"]
    cfg = replace(
        mini["cfg"],
        lnd_workers=workers,
        partition_scheme=scheme,
        n_aggregators=aggregators,
    )
    res = run_case(cfg, str(tmp_path / "run"))
    ref_files = {os.path.basename(p): p for p in ref.history_paths}
    for p in res.history_paths:
        assert files_bit_identical(p, ref_files[os.path.basename(p)])
    for kind, path in bundle_paths(res).items():
        assert files_bit_identical(path, bundle_paths(ref)[kind]), kind


# -- Criterion 3: restart transparency ---------------------------------------


def test_c03_restart_transparency(mini, tmp_path):
    cfg = mini["cfg"]
    split_dir = str(tmp_path / "split")
    run_case(replace(cfg, n_days=3), split_dir)
    resume_case(cfg, split_dir, extra_days=2)
    final = "2014-01-06-00000"
    for kind in ("elm.h0", "elm.r", "cpl.r", "datm.r", "elm.rh0"):
        a = os.path.join(mini["ref"].out_dir, f"mini.{kind}.{final}.nc")
        b = os.path.join(split_dir, f"mini.{kind}.{final}.nc")
        assert files_bit_identical(a, b), f"{kind} differs between split and whole run"


# -- Criterion 4: daily-value preservation -----------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_c04_daily_value_preservation(seed):
    d = make_aksp_mini()
    year, month, daily, profiles = synth_forcing(seed, d, [(2014, 1)])[0]
    from kiloland.domain import compact

    for name, spec in VARIABLES.items():
        values = compact(daily[name], d)  # (n_days, n_land)
        out = downscale_day(values.T, profiles.values[name], spec.downscale_mode)
        if spec.downscale_mode == "additive":
            assert np.array_equal(out.mean(axis=-1), values.T), name
        elif spec.downscale_mode == "multiplicative":
            rel = np.abs(out.mean(axis=-1) - values.T) / np.maximum(values.T, 1e-30)
            assert rel.max() <= 1e-12, name
        else:
            rel = np.abs(out.sum(axis=-1) - values.T) / np.maximum(values.T, 1e-30)
            assert rel.max() <= 1e-12, name
    # The packed float32 month keeps additive means exact as well.
    fm = downscale_month(daily, profiles, d, year, month)
    for name in ("TBOT", "PSRF"):
        per_day = (
            fm.values[name].astype(np.float64)
            .reshape(-1, STEPS_PER_DAY, d.n_land)
            .mean(axis=1)
        )
        assert np.array_equal(per_day, compact(daily[name], d)), name


# -- Criterion 5: codec correctness ------------------------------------------


def test_c05_codec_round_trip_thousand_models():
    from test_cdf import random_model_and_data

    rng = np.random.default_rng(1905)
    for i in range(1000):
        variant = cdf.CDF5 if i % 2 else cdf.CDF2
        model, data, numrecs = random_model_and_data(rng, variant)
        blob = cdf.write_file(None, model, data, numrecs=numrecs)
        assert len(blob) == cdf.compute_size(model, numrecs).total_bytes
        f = cdf.read_file(blob)
        for v in model.vars:
            got = f.read(v.name)
            want = np.asarray(data[v.name]).astype(got.dtype)
            assert got.tobytes() == want.tobytes(), v.name


def test_c05_golden_header_fixture():
    from test_cdf import GOLDEN_EMPTY_CDF5, golden_one_var_cdf5

    assert cdf.write_file(None, cdf.CdfModel(variant=cdf.CDF5), {}) == GOLDEN_EMPTY_CDF5
    model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("x", 3)])
    model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("x",)))
    got = cdf.write_file(None, model, {"v": np.array([1.5, -2.0, 3.25])})
    assert got == golden_one_var_cdf5()


@pytest.mark.parametrize("n_agg", [1, 2, 4])
@pytest.mark.parametrize("buffer_limit", [1024, 64 * 2**20])
def test_c05_aggregated_writes_match_serial(n_agg, buffer_limit):
    rng = np.random.default_rng(n_agg * 1000 + buffer_limit % 997)
    n = 1013
    data = rng.standard_normal(n)

    def model():
        m = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", n)])
        m.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        return m

    serial = cdf.write_file(None, model(), {"v": data})
    part = partition(n, 8, "round_robin")
    iod = IoDecomp(part)
    plan = make_plan(iod.total_elements, n_agg, buffer_limit)
    buf = io.BytesIO()
    w = cdf.CdfWriter(buf, model())
    rearrange_write([data[c] for c in part.local_lists], iod, plan, w, "v")
    w.close()
    assert buf.getvalue() == serial


# -- Criterion 6: Table 5 metric reproduction --------------------------------

# (wall seconds, published SYPD) per component, 5 simulated days, as printed.
TABLE5 = [
    ("ATM", 132.749, 8.92),
    ("ATM", 48.765, 24.27),
    ("ATM", 31.120, 38.03),
    ("ATM", 68.089, 17.38),
    ("ATM", 52.85, 22.35),
    ("CPL", 142.032, 8.33),
    ("CPL", 39.008, 30.34),
    ("CPL", 3.886, 304.57),
    ("CPL", 1.573, 752.0),
    ("CPL", 3.32, 366.51),
    ("LND", 939.447, 1.26),
    ("LND", 388.043, 3.05),
    ("LND", 185.725, 6.37),
    ("LND", 134.960, 8.7),
    ("LND", 102.042, 11.60),
]
TABLE5_IDS = [f"{c}_{s}" for c, s, _ in TABLE5]

# For 5 simulated days on a 365-day year, seconds x SYPD = 5/365 x 86,400
# = 1183.56 for every consistent pair. This constant is written out here,
# not taken from compute_sypd, so the band check below tests the printed
# table itself.
TABLE5_SECONDS_X_SYPD = 5 / 365 * 86_400
TABLE5_BAND = 0.001

# Printed pairs that disagree with themselves: no SYPD definition fits them
# together with the other twelve (their seconds x SYPD gaps point in both
# directions). Case id -> (corrected member, corrected value, reason). The
# corrected value is the published counterpart converted and rounded to the
# precision its column is printed with.
TABLE5_ERRATA = {
    # The source does not settle which member is wrong; the seconds are the
    # one value printed with fewer decimals than their column.
    "ATM_52.85": (
        "seconds",
        52.956,
        "ATM seconds column has 3 decimals; 22.35 SYPD implies 52.956 s",
    ),
    # As for ATM: the digit count is the only guide.
    "CPL_3.32": (
        "seconds",
        3.229,
        "CPL seconds column has 3 decimals; 366.51 SYPD implies 3.229 s",
    ),
    # Settled by the same row's published 87% strong efficiency
    # (test_c06_lnd_erratum_agrees_with_strong_efficiency).
    "LND_134.96": (
        "sypd",
        8.77,
        "LND SYPD column has 2 decimals; 134.960 s gives 8.7697 SYPD",
    ),
}


def _table5_approx(published):
    """The stated C06 tolerance: 0.01 SYPD below 50 SYPD, 1% at or above."""
    if published < 50:
        return pytest.approx(published, abs=0.01)
    return pytest.approx(published, rel=0.01)


@pytest.mark.parametrize("component,seconds,published", TABLE5, ids=TABLE5_IDS)
def test_c06_table5_sypd_pairs(component, seconds, published):
    erratum = TABLE5_ERRATA.get(f"{component}_{seconds}")
    if erratum is not None:
        member, value, reason = erratum
        printed = compute_sypd(seconds, 5)
        assert printed != _table5_approx(published), (
            f"stale erratum: printed pair {seconds}s -> {printed:.4f} SYPD now "
            f"reproduces {published}; drop the erratum ({reason})"
        )
        if member == "seconds":
            seconds = value
        else:
            published = value
    got = compute_sypd(seconds, 5)
    want = _table5_approx(published)
    assert got == want, f"{component}: {seconds}s -> {got:.4f} SYPD vs {want}"


def _table5_gap(seconds, sypd):
    return abs(seconds * sypd / TABLE5_SECONDS_X_SYPD - 1)


def test_c06_table5_seconds_times_sypd_is_constant():
    assert set(TABLE5_ERRATA) <= set(TABLE5_IDS)
    gaps = {case: _table5_gap(s, p) for case, (_, s, p) in zip(TABLE5_IDS, TABLE5)}
    consistent = [g for case, g in gaps.items() if case not in TABLE5_ERRATA]
    assert len(consistent) == 12
    # Largest gap among consistent pairs: CPL_1.573 (752.0 printed, 752.42).
    assert max(consistent) == pytest.approx(0.00056, abs=0.00001)
    assert max(consistent) < TABLE5_BAND
    printed_gaps = {"ATM_52.85": 0.0020, "CPL_3.32": 0.0281, "LND_134.96": 0.0080}
    for case, gap in printed_gaps.items():
        assert gaps[case] == pytest.approx(gap, abs=0.0001)
        assert gaps[case] > TABLE5_BAND
    # Each corrected pair lands back inside the band.
    for case, (member, value, _) in TABLE5_ERRATA.items():
        _, s, p = TABLE5[TABLE5_IDS.index(case)]
        s, p = (value, p) if member == "seconds" else (s, value)
        assert _table5_gap(s, p) < TABLE5_BAND, case


def _lnd_efficiency_pct(points):
    """Strong efficiency (%) per core count of LND (cores, seconds) points."""
    records = [ScalingRecord("AKSPx10x10x3", "LND", p, 0.0, t, 5) for p, t in points]
    table = ScalingTable(records)
    return {r.n_cores: e * 100 for r, e in zip(records, table.efficiency)}


def test_c06_strong_efficiencies():
    eff = _lnd_efficiency_pct(
        [
            (6_300, 939.447),
            (12_600, 388.043),
            (25_200, 185.725),
            (50_400, 134.960),
            (100_800, 102.042),
        ]
    )
    assert eff[50_400] == pytest.approx(87, abs=1)
    assert eff[100_800] == pytest.approx(58, abs=1)


def test_c06_lnd_erratum_agrees_with_strong_efficiency():
    # LND_134.96 keeps its seconds and corrects its SYPD: the printed
    # 134.960 s reproduces the row's published 87% efficiency, while the
    # 1183.56 / 8.7 = 136.04 s implied by the printed 8.7 SYPD gives 86.3%.
    assert TABLE5_ERRATA["LND_134.96"][0] == "sypd"
    implied = TABLE5_SECONDS_X_SYPD / 8.7
    assert implied == pytest.approx(136.04, abs=0.01)

    def efficiency_at_50_400(seconds):
        return _lnd_efficiency_pct([(6_300, 939.447), (50_400, seconds)])[50_400]

    assert efficiency_at_50_400(134.960) == pytest.approx(87, abs=1)
    assert round(efficiency_at_50_400(implied)) != 87


# -- Criterion 7: Table 6 weak efficiency ------------------------------------


def test_c07_table6_weak_efficiency():
    times = [316.927, 374.488, 392.896, 388.043]
    cores = [42, 420, 4_200, 12_600]
    records = [
        ScalingRecord("AKSP-weak", "LND", c, 0.0, t, 5, cells_per_core=72_083 / 42)
        for c, t in zip(cores, times)
    ]
    eff = [e * 100 for e in weak_efficiency(records)]
    for got, want in zip(eff, [100.0, 84.6, 80.7, 81.7]):
        assert got == pytest.approx(want, abs=0.5)
    assert all(e > 80 for e in eff)


# -- Criterion 8: bandwidth reproduction --------------------------------------


def test_c08_bandwidth_reproduction():
    aksp = bandwidth(15.14, 21.51)
    assert aksp.mib_per_s == pytest.approx(671.3, abs=0.05)
    assert aksp.mib_per_s == pytest.approx(671.8, rel=0.005)
    big = bandwidth(4_540.54, 503.12)
    assert big.gib_per_s == pytest.approx(8.40, abs=0.01)
    assert big.gib_per_s == pytest.approx(8.4, rel=0.005)


# -- Criteria 9 and 10: desk scaling ------------------------------------------


@pytest.fixture(scope="module")
def strong_case(tmp_path_factory):
    """100,000-land-cell synthetic case (10-day run for timing signal)."""
    root = tmp_path_factory.mktemp("acc_strong")
    mask = np.zeros(320 * 320, dtype=np.int8)
    mask[:100_000] = 1
    d = build_domain(Grid2D(320, 320), mask.reshape(320, 320))
    write_case_inputs(d, root)
    return make_case_config(root, name="strong100k", n_days=10)


def measurable(workers):
    return [w for w in workers if w <= MACHINE_CORES]


def _alu_burn(_):
    """Small-array compute probe, independent of the code under test."""
    import time as _time

    x = np.random.default_rng(0).random(1_700)
    t0 = _time.perf_counter()
    for _ in range(20_000):
        x = np.minimum(x * 1.0000001 + 0.1, 2.0) * 0.999
    return _time.perf_counter() - t0


def coscheduling_penalty(n_procs: int, samples: int = 3) -> float:
    """Worst observed wall-time ratio of n identical concurrent processes
    vs one alone, over several alternating samples.

    On dedicated physical cores every sample is ~1.0. Shared or throttled
    backing (time-varying on busy virtual machines) shows up as a penalty
    that no per-worker-constant workload can hide, so a 25%-tolerance
    throughput measurement needs every sample clean, not a lucky one.
    """
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    worst = 0.0
    for _ in range(samples):
        with ctx.Pool(1) as pool:
            solo = min(pool.map(_alu_burn, [0]) + pool.map(_alu_burn, [0]))
        with ctx.Pool(n_procs) as pool:
            together = max(pool.map(_alu_burn, range(n_procs)))
        worst = max(worst, together / solo)
    return worst


@pytest.fixture(scope="module")
def strong_result(strong_case, tmp_path_factory):
    workers = measurable([1, 2, 4])
    if len(workers) < 2:
        pytest.skip("the strong-scaling measurement needs at least 2 cores")
    out = str(tmp_path_factory.mktemp("acc_strong_runs"))
    result = run_scaling_suite(
        strong_case, workers, mode="strong", out_dir=out, repeats=3
    )
    return workers, result["tables"]["LND"]


def test_c09_strong_scaling_time_decreasing(strong_result):
    workers, lnd = strong_result
    times = [r.run_seconds for r in lnd.records]
    assert all(a > b for a, b in zip(times, times[1:])), (
        f"LND time not strictly decreasing over workers {workers}: {times}"
    )


def test_c09_strong_scaling_speedup_at_4(strong_result):
    workers, lnd = strong_result
    if 4 not in workers:
        pytest.skip(
            f"machine has {MACHINE_CORES} cores; the speedup >= 2.0 clause is "
            "defined for a machine with >= 4 physical cores"
        )
    times = [r.run_seconds for r in lnd.records]
    speedup4 = times[0] / times[workers.index(4)]
    assert speedup4 >= 2.0, f"speedup at 4 workers = {speedup4:.2f} < 2.0"


def test_c10_desk_weak_scaling(tmp_path_factory):
    workers = measurable([1, 2, 4])
    assert len(workers) >= 2, "need at least 2 cores for the weak-scaling check"
    penalty = coscheduling_penalty(2)
    if penalty > 1.15:
        pytest.skip(
            f"this machine runs 2 identical concurrent processes {penalty:.2f}x "
            "slower than one alone (shared/throttled cores), so constant "
            "per-worker throughput cannot be measured here; the criterion "
            "needs dedicated physical cores"
        )
    root = tmp_path_factory.mktemp("acc_weak")
    mask = np.zeros(42 * 42, dtype=np.int8)
    mask[:1_700] = 1
    d = build_domain(Grid2D(42, 42), mask.reshape(42, 42))
    months = tuple((2014, m) for m in range(1, 9))
    write_case_inputs(d, root, months=months)
    cfg = make_case_config(root, name="weak1700", n_days=240)
    result = run_scaling_suite(
        cfg,
        workers,
        mode="weak",
        out_dir=str(root / "weak"),
        repeats=3,
    )
    lnd = result["tables"]["LND"]
    base = lnd.records[0].run_seconds
    for rec in lnd.records[1:]:
        drift = abs(rec.run_seconds - base) / base
        assert drift <= 0.25, (
            f"LND at {rec.n_cores} workers drifted {drift:.0%} from the "
            f"1-worker time ({rec.run_seconds:.3f}s vs {base:.3f}s)"
        )
    if 4 not in workers:
        pytest.skip(
            f"machine has {MACHINE_CORES} cores; the 4-worker point is defined "
            "for a machine with >= 4 physical cores (subset {workers} passed)"
        )


# -- Criterion 11: size proportionality ---------------------------------------


def payload_bytes(path):
    """Bytes of gridcell-dimensioned variables, from header accounting."""
    with cdf.read_file(path) as f:
        total = 0
        for v in f.model.vars:
            if "gridcell" not in v.dims:
                continue
            record = v.dims and f.model.dim(v.dims[0]).unlimited
            total += v.vsize * (f.numrecs if record else 1)
        return total


def test_c11_size_proportionality(mini, tmp_path):
    cfg10 = replicate_case(mini["cfg"], 10, str(tmp_path / "in"))
    rep = run_case(cfg10, str(tmp_path / "x10"))
    ref = mini["ref"]
    assert payload_bytes(rep.history_paths[0]) == 10 * payload_bytes(ref.history_paths[0])
    for kind in ("elm_r", "cpl_r"):
        a = bundle_paths(ref)[kind]
        b = bundle_paths(rep)[kind]
        assert payload_bytes(b) == 10 * payload_bytes(a), kind
    # compute_size agrees with the bytes on disk for both cases.
    for path in (ref.history_paths[0], rep.history_paths[0]):
        with cdf.read_file(path) as f:
            acct = cdf.compute_size(f.model, f.numrecs)
        assert acct.total_bytes == os.path.getsize(path)


# -- Criterion 12: spin-up convergence ----------------------------------------


def test_c12_spinup_convergence():
    p = ToyParams()
    fields = dict(TBOT=280.0, PRECT=1.0, FSDS=200.0, FLDS=300.0, QBOT=0.005,
                  WIND=4.0, PSRF=101_325.0)
    state = dict(swe=0.0, soil_water=p.w_cap, soil_temp=280.0, c_leaf=0.0, c_soil=0.0)
    n_steps = int(5 / p.k_leaf)  # 5/k_leaf simulated hours at dt = 1 h
    final = run_constant_forcing(state, fields, p, 1.0, n_steps)
    target = leaf_fixed_point(200.0, 1.0, p)
    rel = abs(float(final["c_leaf"]) - target) / target
    assert rel < 0.01, f"c_leaf {float(final['c_leaf']):.3f} vs fixed point {target:.3f}"
