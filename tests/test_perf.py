import os
import time

import numpy as np
import pytest

from kiloland.perf import (
    CostModel,
    ScalingRecord,
    ScalingTable,
    TimerTree,
    bandwidth,
    compute_sypd,
    merge_timers,
    predict_times,
    render_scaling_svg,
    run_scaling_suite,
    scaling_csv,
    weak_efficiency,
)

from conftest import make_case_config


def lnd_record(cores, seconds, case="AKSPx10x10x3", cells=21_624_900):
    return ScalingRecord(
        case=case, component="LND", n_cores=cores, init_seconds=0.0,
        run_seconds=seconds, sim_days=5, cells_per_core=cells / cores,
    )


class TestSypd:
    def test_lnd_baseline_pair(self):
        assert compute_sypd(939.447, 5) == pytest.approx(1.26, abs=0.005)

    def test_atm_pair(self):
        assert compute_sypd(132.749, 5) == pytest.approx(8.92, abs=0.01)

    def test_one_year_per_day(self):
        assert compute_sypd(86_400, 365) == 1.0

    def test_cpl_fast_pair(self):
        assert compute_sypd(1.573, 5) == pytest.approx(752, rel=0.001)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            compute_sypd(0.0, 5)

    # All weak-scaling table pairs reproduce from the formula as printed.
    # The strong table's three self-inconsistent pairs are checked errata
    # (TABLE5_ERRATA in the acceptance tests), at the unchanged tolerance.
    WEAK_PAIRS = [
        ("ATM", 2.395, 494.18), ("ATM", 11.353, 104.25),
        ("ATM", 28.985, 40.83), ("ATM", 48.765, 24.27),
        ("CPL", 0.597, 1982.52), ("CPL", 6.577, 179.95),
        ("CPL", 8.534, 138.69), ("CPL", 39.008, 30.34),
        ("LND", 316.927, 3.73), ("LND", 374.488, 3.16),
        ("LND", 392.896, 3.01), ("LND", 388.043, 3.05),
    ]

    @pytest.mark.parametrize("component,seconds,published", WEAK_PAIRS,
                             ids=[f"{c}_{s}" for c, s, _ in WEAK_PAIRS])
    def test_weak_table_pairs(self, component, seconds, published):
        got = compute_sypd(seconds, 5)
        tol = 0.5 if published > 300 else 0.01
        assert got == pytest.approx(published, abs=tol)


class TestStrongScaling:
    def test_published_efficiencies(self):
        records = [
            lnd_record(6_300, 939.447),
            lnd_record(12_600, 388.043),
            lnd_record(25_200, 185.725),
            lnd_record(50_400, 134.960),
            lnd_record(100_800, 102.042),
        ]
        table = ScalingTable(records)
        assert table.speedup[0] == 1.0
        assert table.efficiency[0] == 1.0
        assert table.efficiency[3] * 100 == pytest.approx(87, abs=1)
        assert table.efficiency[4] * 100 == pytest.approx(58, abs=1)

    def test_duplicate_cores_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScalingTable([lnd_record(8, 1.0), lnd_record(8, 2.0)])

    def test_mixed_components_rejected(self):
        a = lnd_record(8, 1.0)
        b = ScalingRecord("c", "ATM", 16, 0, 1.0, 5)
        with pytest.raises(ValueError, match="component"):
            ScalingTable([a, b])

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_non_positive_run_seconds_rejected(self, seconds):
        with pytest.raises(ValueError, match="run_seconds must be positive"):
            ScalingTable([lnd_record(8, 1.0), lnd_record(16, seconds)])


class TestWeakScaling:
    TIMES = [316.927, 374.488, 392.896, 388.043]
    CORES = [42, 420, 4_200, 12_600]

    def records(self):
        return [
            ScalingRecord(
                case="AKSP-weak", component="LND", n_cores=c, init_seconds=0.0,
                run_seconds=t, sim_days=5, cells_per_core=72_083 / 42,
            )
            for c, t in zip(self.CORES, self.TIMES)
        ]

    def test_published_efficiencies(self):
        eff = weak_efficiency(self.records())
        want = [1.0, 0.846, 0.807, 0.817]
        for got, expect in zip(eff, want):
            assert got * 100 == pytest.approx(expect * 100, abs=0.5)
        assert all(e > 0.80 for e in eff)

    def test_identity_when_flat(self):
        recs = self.records()
        for r in recs:
            r.run_seconds = recs[0].run_seconds
        assert weak_efficiency(recs) == [1.0] * 4

    def test_mismatched_workload_rejected(self):
        recs = self.records()
        recs[2].cells_per_core *= 1.5
        with pytest.raises(ValueError, match="weak-scaling"):
            weak_efficiency(recs)


class TestBandwidth:
    def test_aksp_write_figure(self):
        bw = bandwidth(15.14, 21.51)
        assert bw.mib_per_s == pytest.approx(671.3, abs=0.05)
        assert bw.mib_per_s == pytest.approx(671.8, rel=0.005)

    def test_largest_case_figure(self):
        bw = bandwidth(4_540.54, 503.12)
        assert bw.gib_per_s == pytest.approx(8.405, abs=0.005)
        assert bw.gib_per_s == pytest.approx(8.4, rel=0.005)

    def test_binary_unit_identity(self):
        assert bandwidth(1.073741824, 1.0).mib_per_s == pytest.approx(1024.0, rel=1e-12)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            bandwidth(0, 1)


class TestTimerTree:
    def test_nesting_and_totals(self):
        t = TimerTree()
        with t.region("run"):
            with t.child("run").region("lnd"):
                time.sleep(0.01)
        assert t.total("run") >= t.total("run/lnd") >= 0.01
        assert t.child("run").count == 1
        t.validate()

    def test_validation_catches_oversum(self):
        t = TimerTree()
        t.add("parent", 1.0)
        t.child("parent").add("a", 0.8)
        t.child("parent").add("b", 0.4)
        with pytest.raises(ValueError, match="exceeds"):
            t.validate()

    def test_merge_keeps_worker_max(self):
        trees = []
        for secs in (1.0, 3.0, 2.0):
            t = TimerTree()
            t.add("lnd", secs)
            trees.append(t)
        merged = merge_timers(trees)
        assert merged.children["lnd"].max_seconds == 3.0
        assert merged.children["lnd"].min_seconds == 1.0
        assert merged.children["lnd"].mean_seconds == pytest.approx(2.0)
        assert merged.n_workers == 3

    def test_report_text(self):
        t = TimerTree()
        t.add("lnd", 1.5)
        assert "lnd: 1.5000s" in t.report()

    def test_pass_counted_when_body_raises(self):
        t = TimerTree()
        with t.timed() as node:
            assert node is t
        with pytest.raises(KeyError, match="boom"):
            with t.region("atm"):
                time.sleep(0.01)
                raise KeyError("boom")
        assert t.count == 1 and t.seconds > 0
        assert t.child("atm").count == 1 and t.total("atm") >= 0.01


class TestPredictor:
    def test_zero_sync_is_perfect_scaling(self):
        m = CostModel(c_cell=1e-6, c_sync=0.0)
        table = predict_times(m, 100_000, 120, [1, 2, 4, 8], sim_days=5)
        assert all(e == pytest.approx(1.0, rel=1e-12) for e in table.efficiency)
        assert all(r.label == "model" for r in table.records)

    def test_efficiency_non_increasing(self):
        m = CostModel(c_cell=1e-6, c_sync=1e-4)
        table = predict_times(m, 100_000, 120, [1, 2, 4, 8, 16, 64], sim_days=5)
        assert all(a >= b - 1e-15 for a, b in zip(table.efficiency, table.efficiency[1:]))

    def test_uncalibrated_rejected(self):
        with pytest.raises(ValueError, match="not calibrated"):
            predict_times(CostModel(), 100, 10, [1, 2], sim_days=5)

    @pytest.mark.parametrize("field", ["c_cell", "c_sync"])
    def test_negative_coefficient_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, not -1.0$"):
            CostModel(**{field: -1.0})

    @pytest.mark.parametrize("seconds", [0.0, -5.0])
    def test_calibration_needs_a_positive_run_time(self, seconds):
        m = CostModel(c_sync=1e-5)
        with pytest.raises(ValueError, match=f"positive, not {seconds}$"):
            m.calibrate(run_seconds=seconds, n_cells=100, n_steps=10, n_cores=1)
        assert m.c_cell == 0.0

    def test_calibration_and_trend(self):
        m = CostModel(c_sync=1.2e-5)
        m.calibrate(run_seconds=10.0, n_cells=100_000, n_steps=120, n_cores=1)
        assert m.calibrated()
        # Qualitative published trend: efficiency stays high down to about
        # 1,000 cells per rank and degrades clearly near 220 cells per rank.
        table = predict_times(
            m, 21_624_900, 120, [6_300, 21_624, 98_295], sim_days=5
        )
        cells_per_rank = [21_624_900 / p for p in (6_300, 21_624, 98_295)]
        assert cells_per_rank[1] >= 1_000 and cells_per_rank[2] < 240
        assert table.efficiency[1] > 0.8
        assert table.efficiency[2] < 0.65
        assert table.efficiency[2] < table.efficiency[1]


class TestOutputs:
    def table(self):
        return ScalingTable(
            [lnd_record(1, 8.0, case="desk"), lnd_record(2, 4.4, case="desk")]
        )

    def test_csv_schema(self):
        text = scaling_csv(self.table())
        lines = text.strip().split("\n")
        assert lines[0] == "case,component,phase,cores,seconds,sypd,speedup,efficiency"
        assert lines[1].startswith("desk,LND,init,1,")
        assert lines[2].startswith("desk,LND,run,1,8.000000,")

    def test_svg_renders(self):
        svg = render_scaling_svg(self.table(), "LND strong scaling")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") == 4  # ideal + actual per point
        assert "91%" in svg  # (8/4.4)/2 = 90.9%


class TestMeasuredSuite:
    def test_strong_smoke_two_workers(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=2)
        out = str(tmp_path / "suite")
        result = run_scaling_suite(cfg, [1, 2], mode="strong", out_dir=out)
        lnd = result["tables"]["LND"]
        assert [r.n_cores for r in lnd.records] == [1, 2]
        assert os.path.exists(result["csv"])
        assert os.path.exists(result["svg"])
        text = open(result["csv"]).read()
        assert text.count("LND,run") == 2

    def test_strong_without_restarts(self, mini_inputs, tmp_path):
        # No restart bundle and no rpointer: the history files are compared.
        cfg = make_case_config(mini_inputs, n_days=1, restart_interval="none")
        result = run_scaling_suite(cfg, [1, 2], mode="strong", out_dir=str(tmp_path))
        assert [r.n_cores for r in result["tables"]["LND"].records] == [1, 2]

    @pytest.mark.parametrize("fault", ["flip", "extra"])
    def test_strong_divergence_raises(self, mini_inputs, tmp_path, monkeypatch, fault):
        from kiloland import simulation

        run_case = simulation.run_case

        def faulty(cfg, out_dir):
            result = run_case(cfg, out_dir)
            if cfg.lnd_workers == 2 and fault == "flip":  # the last GPP value's low byte
                with open(result.history_paths[0], "r+b") as fh:
                    fh.seek(-1, os.SEEK_END)
                    last = fh.read(1)[0]
                    fh.seek(-1, os.SEEK_END)
                    fh.write(bytes([last ^ 1]))
            elif cfg.lnd_workers == 2:
                open(os.path.join(out_dir, "mini.extra.nc"), "wb").close()
            return result

        monkeypatch.setattr(simulation, "run_case", faulty)
        cfg = make_case_config(mini_inputs, n_days=1)
        want = "diverged from the reference: mini.elm.h0" if fault == "flip" else "wrote"
        with pytest.raises(AssertionError, match=want):
            run_scaling_suite(cfg, [1, 2], mode="strong", out_dir=str(tmp_path))

    def test_repeats_interleave_worker_counts(self, mini_inputs, tmp_path, monkeypatch):
        from kiloland import simulation

        runs = []  # (workers, run directory, land seconds) in run order
        run_case = simulation.run_case

        def recording(cfg, out_dir):
            result = run_case(cfg, out_dir)
            runs.append((cfg.lnd_workers, os.path.basename(out_dir),
                         result.timers.total("lnd")))
            return result

        monkeypatch.setattr(simulation, "run_case", recording)
        cfg = make_case_config(mini_inputs, n_days=1)
        result = run_scaling_suite(cfg, [1, 2], mode="strong", out_dir=str(tmp_path), repeats=3)
        assert [(w, d) for w, d, _ in runs] == [
            (1, "strong_w1"), (2, "strong_w2"),
            (1, "strong_w1_r1"), (2, "strong_w2_r1"),
            (1, "strong_w1_r2"), (2, "strong_w2_r2"),
        ]
        # Each count keeps its fastest land time.
        lnd = result["tables"]["LND"]
        for rec in lnd.records:
            assert rec.run_seconds == min(s for w, _, s in runs if w == rec.n_cores)

    def test_weak_smoke(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=1)
        out = str(tmp_path / "weak")
        result = run_scaling_suite(cfg, [1, 2], mode="weak", out_dir=out)
        lnd = result["tables"]["LND"]
        assert lnd.records[0].cells_per_core == 613
        assert lnd.records[1].cells_per_core == 613

    def test_repeated_worker_counts_rejected_before_any_run(self, mini_inputs, tmp_path,
                                                            monkeypatch):
        from kiloland import simulation

        runs = []
        monkeypatch.setattr(simulation, "run_case", lambda cfg, out_dir: runs.append(out_dir))
        cfg = make_case_config(mini_inputs, n_days=1)
        out = tmp_path / "suite"
        with pytest.raises(ValueError, match=r"worker counts \[1, 1\] repeat a count"):
            run_scaling_suite(cfg, [1, 1], mode="strong", out_dir=str(out))
        assert runs == []
        assert not out.exists()

    def test_oversubscription_rejected(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=1)
        huge = (os.cpu_count() or 1) + 1
        with pytest.raises(ValueError, match="exceed the machine"):
            run_scaling_suite(cfg, [1, huge], mode="strong", out_dir=str(tmp_path))

    def test_bad_mode(self, mini_inputs, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            run_scaling_suite(
                make_case_config(mini_inputs), [1], mode="wide", out_dir=str(tmp_path)
            )
