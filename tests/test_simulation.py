import math
import os
import pickle
import re
import shutil
import tempfile
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiloland import cdf
from kiloland.compare import check_replication, files_bit_identical
from kiloland.forcing import forcing_filename, read_forcing_month, write_forcing_month
from kiloland.simulation import (
    FREEZE_K,
    CaseConfig,
    FORCING_INPUTS,
    HIST_VARS,
    STATE_VARS,
    ToyParams,
    leaf_fixed_point,
    replicate_case,
    resume_case,
    run_case,
    run_constant_forcing,
    spinup_check,
    step_cells,
)
from kiloland.surface import N_PFTS, SOIL_LAYERS, SurfaceDataset, read_surface, write_surface

from conftest import drop_gattrs, make_case_config, output_bytes, setup_memory, write_case_inputs

P = ToyParams()


def oracle_step(s, f, p, dt):
    """Independent scalar evaluation of the column update, written from the
    formula statement rather than the vectorized implementation."""
    precip = f["PRECT"] * dt
    snow = precip if f["TBOT"] < p.rain_snow_threshold else 0.0
    rain = precip - snow
    melt = min(s["swe"] + snow, p.melt_factor * max(f["TBOT"] - 273.15, 0.0) * dt)
    et = min(
        p.et_coeff * f["FSDS"] * (s["soil_water"] / p.w_cap) * dt,
        s["soil_water"] + rain + melt,
    )
    filled = s["soil_water"] + rain + melt - et
    runoff = max(filled - p.w_cap, 0.0)
    gpp = p.gpp_coeff * f["FSDS"] * (s["soil_water"] / p.w_cap)
    out = {
        "swe": s["swe"] + snow - melt,
        "soil_water": filled - runoff,
        "soil_temp": s["soil_temp"] + (f["TBOT"] - s["soil_temp"]) * (dt / p.temp_tau),
        "c_leaf": s["c_leaf"] + (p.alloc * gpp - p.k_leaf * s["c_leaf"]) * dt,
        "c_soil": s["c_soil"]
        + ((1 - p.alloc) * gpp + p.k_leaf * s["c_leaf"] * 0.5 - p.k_soil * s["c_soil"]) * dt,
    }
    diag = {
        "FSNO": out["swe"] / (out["swe"] + p.snow_cover_scale),
        "H2OSOI": out["soil_water"],
        "TLAI": p.lai_per_c * out["c_leaf"],
        "TSOI": out["soil_temp"],
        "QRUNOFF": runoff / dt,
        "GPP": gpp,
    }
    return out, diag


def state(swe=0.0, soil_water=100.0, soil_temp=275.0, c_leaf=10.0, c_soil=50.0):
    return dict(swe=swe, soil_water=soil_water, soil_temp=soil_temp,
                c_leaf=c_leaf, c_soil=c_soil)


def forcing(TBOT=275.0, PRECT=0.0, FSDS=0.0, **extra):
    f = dict(TBOT=TBOT, PRECT=PRECT, FSDS=FSDS, FLDS=300.0, QBOT=0.005,
             WIND=4.0, PSRF=101325.0)
    f.update(extra)
    return f


def one_cell(values: dict) -> dict:
    """A dict of scalars as one-cell float64 arrays."""
    return {k: np.array([v], dtype=np.float64) for k, v in values.items()}


class TestStepCell:
    def test_zero_forcing_decay_only(self):
        s0 = state(soil_temp=270.0)
        s1, _ = step_cells(one_cell(s0), one_cell(forcing(TBOT=270.0)), P, 1.0)
        assert s1["swe"][0] == s0["swe"]
        assert s1["soil_water"][0] == s0["soil_water"]
        assert s1["c_leaf"][0] == pytest.approx(s0["c_leaf"] * (1 - P.k_leaf * 1.0), rel=1e-15)

    def test_subfreezing_accumulation(self):
        s1, _ = step_cells(one_cell(state()), one_cell(forcing(TBOT=263.15, PRECT=1.0)), P, 1.0)
        assert s1["swe"][0] == 1.0

    def test_against_independent_oracle(self):
        s0 = state(swe=5.0, soil_water=100.0, soil_temp=270.0, c_leaf=10.0, c_soil=50.0)
        f = forcing(TBOT=275.0, PRECT=0.0, FSDS=200.0)
        got_s, got_d = step_cells(one_cell(s0), one_cell(f), P, 1.0)
        want_s, want_d = oracle_step(s0, f, P, 1.0)
        for k in STATE_VARS:
            assert got_s[k][0] == pytest.approx(want_s[k], rel=1e-15), k
        for j, k in enumerate(HIST_VARS):
            assert got_d[j, 0] == pytest.approx(want_d[k], rel=1e-15), k

    def test_nan_forcing_rejected(self):
        with pytest.raises(ValueError, match="NaN forcing"):
            step_cells(one_cell(state()), one_cell(forcing(TBOT=np.nan)), P, 1.0)

    @given(
        swe=st.floats(0, 500),
        w=st.floats(0, 200),
        tbot=st.floats(230, 310),
        prect=st.floats(0, 20),
        fsds=st.floats(0, 1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_water_balance_property(self, swe, w, tbot, prect, fsds):
        s0 = state(swe=swe, soil_water=w)
        f = forcing(TBOT=tbot, PRECT=prect, FSDS=fsds)
        s1, d = step_cells(one_cell(s0), one_cell(f), P, 1.0)
        et_implied = (
            prect * 1.0
            - (s1["swe"][0] - s0["swe"])
            - (s1["soil_water"][0] - s0["soil_water"])
            - d[HIST_VARS.index("QRUNOFF"), 0] * 1.0
        )
        assert et_implied >= -1e-9
        # recompute et independently to close the budget
        rain = prect if tbot >= P.rain_snow_threshold else 0.0
        snow = prect - rain
        melt = min(swe + snow, P.melt_factor * max(tbot - 273.15, 0.0))
        et = min(P.et_coeff * fsds * (w / P.w_cap), w + rain + melt)
        assert abs(et_implied - et) < 1e-9

    @given(
        swe=st.floats(0, 500), w=st.floats(0, 200), tbot=st.floats(230, 310),
        prect=st.floats(0, 20), fsds=st.floats(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_preserved(self, swe, w, tbot, prect, fsds):
        s0 = state(swe=swe, soil_water=w)
        s1, d = step_cells(one_cell(s0), one_cell(forcing(tbot, prect, fsds)), P, 1.0)
        assert s1["swe"][0] >= 0
        assert 0 <= s1["soil_water"][0] <= P.w_cap
        assert d[HIST_VARS.index("QRUNOFF"), 0] >= 0
        assert 0 <= d[HIST_VARS.index("FSNO"), 0] < 1
        # Relaxation keeps soil temperature inside the forcing envelope.
        assert min(s0["soil_temp"], tbot) <= s1["soil_temp"][0] <= max(s0["soil_temp"], tbot)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError, match="w_cap"):
            ToyParams(w_cap=0.0)
        with pytest.raises(ValueError, match="k_leaf"):
            ToyParams(k_leaf=-1e-4)

    def test_vectorized_matches_scalar(self, rng):
        n = 64
        s = {
            "swe": rng.uniform(0, 30, n), "soil_water": rng.uniform(0, 200, n),
            "soil_temp": rng.uniform(250, 300, n), "c_leaf": rng.uniform(0, 100, n),
            "c_soil": rng.uniform(0, 500, n),
        }
        f = {
            "TBOT": rng.uniform(250, 300, n), "PRECT": rng.uniform(0, 5, n),
            "FSDS": rng.uniform(0, 400, n),
        }
        new, diag = step_cells(s, f, P, 1.0)
        for i in [0, 17, 63]:
            si = {k: float(v[i]) for k, v in s.items()}
            fi = forcing(TBOT=float(f["TBOT"][i]), PRECT=float(f["PRECT"][i]),
                         FSDS=float(f["FSDS"][i]))
            want_s, want_d = step_cells(one_cell(si), one_cell(fi), P, 1.0)
            for k in STATE_VARS:
                assert new[k][i] == want_s[k][0]
            for j in range(len(HIST_VARS)):
                assert diag[j, i] == want_d[j, 0]


    def test_kernel_reads_exactly_forcing_inputs(self):
        class Recording(dict):
            def __init__(self, *args):
                super().__init__(*args)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        f = Recording({k: np.array([v]) for k, v in forcing(FSDS=200.0).items()})
        s0 = {k: np.array([v]) for k, v in state().items()}
        step_cells(s0, f, P, 1.0)
        assert f.read == set(FORCING_INPUTS)


def reference_step(state, forcing, p, dt):
    """The straight-line formulas of the column update, one fresh array per
    operation: the form `step_cells` must match byte for byte."""
    tbot = forcing["TBOT"]
    prect = forcing["PRECT"]  # mm/h
    fsds = forcing["FSDS"]
    precip = prect * dt
    snow = np.where(tbot < p.rain_snow_threshold, precip, 0.0)
    rain = precip - snow
    melt = np.minimum(state["swe"] + snow, p.melt_factor * np.maximum(tbot - FREEZE_K, 0.0) * dt)
    wet = state["soil_water"] / p.w_cap
    et = np.minimum(p.et_coeff * fsds * wet * dt, state["soil_water"] + rain + melt)
    filled = state["soil_water"] + rain + melt - et
    runoff = np.maximum(filled - p.w_cap, 0.0)
    gpp = p.gpp_coeff * fsds * wet
    new = {
        "swe": state["swe"] + snow - melt,
        "soil_water": filled - runoff,
        "soil_temp": state["soil_temp"] + (tbot - state["soil_temp"]) * (dt / p.temp_tau),
        "c_leaf": state["c_leaf"] + (p.alloc * gpp - p.k_leaf * state["c_leaf"]) * dt,
        "c_soil": state["c_soil"]
        + ((1.0 - p.alloc) * gpp + p.k_leaf * state["c_leaf"] * 0.5 - p.k_soil * state["c_soil"])
        * dt,
    }
    diag = np.stack(
        [
            new["swe"] / (new["swe"] + p.snow_cover_scale),
            new["soil_water"],
            p.lai_per_c * new["c_leaf"],
            new["soil_temp"],
            runoff / dt,
            gpp,
        ]
    )
    return new, diag


def assert_same_bytes(got, want):
    got_s, got_d = got
    want_s, want_d = want
    for k in STATE_VARS:
        g, w = np.asarray(got_s[k]), np.asarray(want_s[k])
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), k
    assert got_d.shape == want_d.shape
    for j, k in enumerate(HIST_VARS):
        assert got_d[j].tobytes() == want_d[j].tobytes(), k


def cells(values, n):
    """A strategy for `n`-cell float64 arrays drawn from `values`."""
    return st.lists(values, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64))


# Step lengths other than the driver's 1 h, and a rain/snow threshold off
# the melt point so the two branches part.
STEP_DTS = st.sampled_from([1.0, 0.25, 0.5, 3.0, 1 / 3])
STEP_PARAMS = st.sampled_from([P, replace(P, rain_snow_threshold=FREEZE_K + 1.0)])


@st.composite
def kernel_case(draw, n):
    p = draw(STEP_PARAMS)
    edge_t = st.sampled_from([p.rain_snow_threshold, FREEZE_K])
    s = {
        "swe": draw(cells(st.one_of(st.floats(0, 50), st.just(0.0)), n)),
        "soil_water": draw(cells(st.one_of(st.floats(0, p.w_cap), st.sampled_from([0.0, p.w_cap])), n)),
        "soil_temp": draw(cells(st.floats(240, 310), n)),
        "c_leaf": draw(cells(st.floats(0, 500), n)),
        "c_soil": draw(cells(st.floats(0, 5000), n)),
    }
    f = {
        "TBOT": draw(cells(st.one_of(st.floats(230, 310), edge_t), n)),
        "PRECT": draw(cells(st.one_of(st.floats(0, 30), st.just(0.0)), n)),
        "FSDS": draw(cells(st.one_of(st.floats(0, 1200), st.just(0.0)), n)),
    }
    return s, f, p, draw(STEP_DTS)


class TestStepCellsBitExact:
    """`step_cells` writes its intermediates into arrays it owns; every
    output byte must still be that of the straight-line formulas."""

    @given(data=st.data(), n=st.integers(1, 16))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, data, n):
        s, f, p, dt = data.draw(kernel_case(n))
        before = {k: v.copy() for k, v in {**s, **f}.items()}
        for v in f.values():
            v.flags.writeable = False  # as the stream's bracket cache hands them out
        got = step_cells(s, f, p, dt)
        assert_same_bytes(got, reference_step(s, f, p, dt))
        for k, v in {**s, **f}.items():
            assert v.tobytes() == before[k].tobytes(), f"input {k} was written"

    @given(data=st.data(), n=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_scalar_forcing_broadcasts_over_cells(self, data, n):
        s, f, p, dt = data.draw(kernel_case(n))
        f0 = {k: np.array(v[0]) for k, v in f.items()}
        got = step_cells(s, f0, p, dt)
        assert got[1].shape == (len(HIST_VARS), n)
        assert_same_bytes(got, reference_step(s, f0, p, dt))

    def test_zero_d_inputs(self):
        s0 = {k: np.array(v) for k, v in state(swe=3.0, soil_water=199.0).items()}
        f0 = {k: np.array(v) for k, v in forcing(TBOT=274.0, PRECT=2.0, FSDS=500.0).items()}
        got = step_cells(s0, f0, P, 0.5)
        assert got[1].shape == (len(HIST_VARS),)
        assert_same_bytes(got, reference_step(s0, f0, P, 0.5))

    def test_zero_cell_rank(self):
        empty = np.zeros(0)
        new, diag = step_cells({k: empty for k in STATE_VARS},
                               {k: empty for k in FORCING_INPUTS}, P, 1.0)
        assert diag.shape == (len(HIST_VARS), 0)
        assert all(new[k].shape == (0,) for k in STATE_VARS)

    @pytest.mark.parametrize("name, cell", [("PRECT", 3), ("FSDS", 4)])
    def test_nan_forcing_named_by_cell(self, rng, name, cell):
        n = 6
        s = {k: np.full(n, v) for k, v in state().items()}
        f = {"TBOT": rng.uniform(250, 300, n), "PRECT": rng.uniform(0, 5, n),
             "FSDS": rng.uniform(0, 400, n)}
        f[name][cell] = np.nan
        with pytest.raises(ValueError, match=re.escape(f"NaN forcing at cells [{cell}]")):
            step_cells(s, f, P, 1.0)


class TestCoupler:
    def test_converts_each_read_only_prect_once(self):
        from kiloland.simulation import _Coupler

        prect = np.arange(5.0)
        prect.flags.writeable = False  # as the stream's bracket cache hands it out
        couple = _Coupler()
        rate = couple({"PRECT": prect})["PRECT"]
        assert rate.tobytes() == (np.arange(5.0) / 3.0).tobytes()
        assert not rate.flags.writeable
        assert couple({"PRECT": prect})["PRECT"] is rate
        assert couple({"PRECT": prect.copy()})["PRECT"] is not rate
        assert prect.tobytes() == np.arange(5.0).tobytes()

    def test_writeable_input_converted_every_time(self):
        from kiloland.simulation import _Coupler

        couple = _Coupler()
        prect = np.ones(4)
        first = couple({"PRECT": prect})["PRECT"]
        prect[:] = 6.0  # the same object with new values
        second = couple({"PRECT": prect})["PRECT"]
        assert first.tobytes() == (np.ones(4) / 3.0).tobytes()
        assert second.tobytes() == np.full(4, 2.0).tobytes()
        assert not np.shares_memory(second, prect)


class TestCaseConfig:
    def test_file_round_trip(self, tmp_path):
        cfg = CaseConfig(name="abc", n_days=3, lnd_workers=4, partition_scheme="block")
        path = str(tmp_path / "case.cfg")
        cfg.to_file(path)
        back = CaseConfig.from_file(path)
        for attr in CaseConfig._KEYMAP.values():
            got = getattr(back, attr)
            want = getattr(cfg, attr)
            if attr in ("domain", "forcing_dir", "surface"):
                got = os.path.basename(got)
            assert got == want, attr

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError, match="divide 24"):
            CaseConfig(dt_hours=5)

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError, match="n_days"):
            CaseConfig(n_days=0)

    def test_bad_interval_rejected(self):
        # Each grammar takes only its own forms, and every:<n>d needs n >= 1.
        for key, value in [
            ("history_interval", "weekly"),
            ("history_interval", "every:1d"),
            ("restart_interval", "daily"),
            ("restart_interval", "every:0d"),
            ("restart_interval", "every:-1d"),
        ]:
            with pytest.raises(ValueError, match=key):
                CaseConfig(**{key: value})

    def test_fingerprint_ignores_execution_layout(self):
        a = CaseConfig()
        b = replace(a, lnd_workers=8, partition_scheme="block", n_aggregators=4)
        c = replace(a, seed=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    # The atm and cpl components have no worker settings.
    @pytest.mark.parametrize("key", ["case.wat", "atm.n_workers", "cpl.n_workers"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            CaseConfig.from_file(str(path))

    @pytest.mark.parametrize("line, want", [
        ("lnd.n_workers = 0", "lnd_workers must be >= 1"),
        ("lnd.partition = diagonal", "unknown partition_scheme 'diagonal'"),
        ("lnd.block_size = 0", "block_size must be >= 1"),
        ("case.n_days = 0", "n_days must be >= 1"),
        ("case.restart_interval = every:0d", "bad restart_interval"),
    ])
    def test_rejected_value_names_file_line_and_key(self, tmp_path, line, want):
        path = tmp_path / "bad.cfg"
        path.write_text(f"case.name = x\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:2: {key}: {want}')}"):
            CaseConfig.from_file(str(path))

    def test_non_integer_value_names_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("case.name = x\ncase.n_days = five\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: case.n_days .*'five'"):
            CaseConfig.from_file(str(path))


class TestRunCase:
    def test_five_day_run_shape(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs)
        res = run_case(cfg, str(tmp_path / "run"))
        assert len(res.history_paths) == 1
        assert res.restart_dates == ["2014-01-06-00000"]
        with cdf.read_file(res.history_paths[0]) as f:
            assert f.numrecs == 1
            assert f.model.gattrs["averaging_steps"] == 120
            assert f.read("time")[0] == 120.0
            for name in HIST_VARS:
                assert f.shape(name) == (1, 613)

    def test_init_state_independent_of_layout(self, mini_inputs):
        from kiloland.simulation import init_state

        surf = read_surface(str(mini_inputs / "surface.nc")).values
        lai = surf["MONTHLY_LAI"][0]
        c_order = init_state(surf, P, lai)
        f_order = init_state(
            {k: np.asfortranarray(v) for k, v in surf.items()}, P, np.asfortranarray(lai)
        )
        for name in STATE_VARS:
            assert np.array_equal(c_order[name], f_order[name]), name

    def test_history_mean_equals_oracle(self, mini_inputs, tmp_path):
        # Recompute the mean from a 1-worker inline pass over the same
        # forcing; flushed value must match double-accumulate-then-round.
        from kiloland.forcing import ForcingStream, VARIABLES, forcing_files
        from kiloland.simulation import _Coupler, init_state

        cfg = make_case_config(mini_inputs)
        res = run_case(cfg, str(tmp_path / "run"))
        surf = read_surface(cfg.surface)
        s = init_state(surf.values, cfg.params, surf.values["MONTHLY_LAI"][0])
        stream = ForcingStream.open(forcing_files(cfg.forcing_dir), (0.0, 743.0), VARIABLES)
        sums = np.zeros((len(HIST_VARS), 613))
        for step in range(120):
            fields = stream.fields_at(step * 1.0)
            s, diag = step_cells(s, _Coupler()(fields), cfg.params, 1.0)
            sums += diag
        want = (sums / 120.0).astype(np.float32)
        with cdf.read_file(res.history_paths[0]) as f:
            for i, name in enumerate(HIST_VARS):
                got = f.read(name)[0]
                np.testing.assert_array_equal(got, want[i])

    def test_worker_and_scheme_invariance(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs)
        ref = run_case(cfg, str(tmp_path / "ref"))
        ref_files = {
            os.path.basename(p): p
            for p in [ref.history_paths[0]]
        }
        for workers, scheme in [(2, "round_robin"), (4, "block"), (2, "block_round_robin")]:
            out = str(tmp_path / f"w{workers}_{scheme}")
            res = run_case(
                replace(cfg, lnd_workers=workers, partition_scheme=scheme), out
            )
            for p in res.history_paths:
                assert files_bit_identical(p, ref_files[os.path.basename(p)])

    def test_daily_history_interval(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, history_interval="daily", n_days=3)
        res = run_case(cfg, str(tmp_path / "daily"))
        assert len(res.history_paths) == 3
        with cdf.read_file(res.history_paths[1]) as f:
            assert f.model.gattrs["averaging_steps"] == 24
            assert f.model.gattrs["window_start_hours"] == 24.0

    def test_every_n_days_restart(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, restart_interval="every:2d", n_days=5)
        res = run_case(cfg, str(tmp_path / "r2d"))
        assert res.restart_dates == ["2014-01-03-00000", "2014-01-05-00000"]

    def test_forcing_coverage_gap_detected(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=45)
        with pytest.raises(ValueError, match="coverage gap"):
            run_case(cfg, str(tmp_path / "gap"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timing_report_populated(self, mini_inputs, tmp_path, workers):
        cfg = make_case_config(mini_inputs, lnd_workers=workers)
        res = run_case(cfg, str(tmp_path / "t"))
        for region in ("atm", "cpl", "lnd"):
            assert res.timers.total(region) > 0, region
        assert res.timers.total("init") > 0
        res.timers.validate()

    def test_root_run_region_timed(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=2)
        out = str(tmp_path / "root")
        for res in (run_case(cfg, out), resume_case(cfg, out, extra_days=1)):
            root = res.timers
            assert root.name == "run" and root.seconds > 0 and root.count == 1
            assert sum(c.seconds for c in root.children.values()) <= root.seconds
            res.timers.validate()

    def test_segments_read_only_their_window(self, mini_inputs, tmp_path, monkeypatch):
        from kiloland.decomp import partition
        from kiloland.forcing import ForcingStream

        # Rank workers may run in forked processes, so each open leaves a file.
        log = tmp_path / "opened"
        log.mkdir()
        open_stream = ForcingStream.open

        def recording(cls, paths, window, names, columns=None):
            stream = open_stream(paths, window, names, columns=columns)
            held = {name: len(v) for name, v in stream.values.items()}
            fd, _ = tempfile.mkstemp(dir=log)
            with os.fdopen(fd, "wb") as fh:
                pickle.dump((window, stream.time.size, columns, names, held), fh)
            return stream

        monkeypatch.setattr(ForcingStream, "open", classmethod(recording))
        windows = [(0.0, 23.0), (24.0, 47.0), (48.0, 71.0)]
        for workers in (1, 2):
            cfg = make_case_config(
                mini_inputs, history_interval="daily", n_days=3, lnd_workers=workers
            )
            run_case(cfg, str(tmp_path / f"w{workers}"))
            opened = [pickle.loads(p.read_bytes()) for p in log.iterdir()]
            for p in log.iterdir():
                p.unlink()
            assert sorted(w for w, *_ in opened) == sorted(windows * workers)
            for (start, end), n_records, _, names, held in opened:
                limit = math.ceil((end - start + cfg.dt_hours) / 3) + 1
                assert n_records <= limit
                # The kernel inputs span the window; the coupler-only
                # variables hold the end's record and its partner.
                assert names == FORCING_INPUTS
                for name, n in held.items():
                    assert n <= (limit if name in names else 2), (name, n)
            # One rank over the unreplicated file reads its columns as stored.
            cells = partition(613, workers, cfg.partition_scheme, cfg.block_size).local_lists
            for window in windows:
                got = [columns for w, _, columns, *_ in opened if w == window]
                if workers == 1:
                    assert got == [None]
                else:
                    assert sorted(c.tolist() for c in got) == sorted(c.tolist() for c in cells)

    def test_loop_interpolates_only_kernel_inputs(self, mini_inputs, tmp_path, monkeypatch):
        from kiloland import simulation
        from kiloland.forcing import ForcingStream, VARIABLES, forcing_files

        requests = []  # (t, keys of the returned fields)
        fields_at = ForcingStream.fields_at

        def recording(self, t):
            out = fields_at(self, t)
            requests.append((t, tuple(out)))
            return out

        segments = []  # (step_hi, copy of the bundle)
        run_segment = simulation._run_worker_segment

        def segment(task):
            result = run_segment(task)
            # The next segment updates the rank's bundle in place.
            segments.append((task.step_hi, {k: v.copy() for k, v in result.bundle.items()}))
            return result

        monkeypatch.setattr(ForcingStream, "fields_at", recording)
        monkeypatch.setattr(simulation, "_run_worker_segment", segment)
        cfg = make_case_config(mini_inputs, history_interval="daily", n_days=3)
        run_case(cfg, str(tmp_path / "loop"))
        monkeypatch.undo()

        assert [hi for hi, _ in segments] == [24, 48, 72]
        assert [t for t, _ in requests] == [float(step) for step in range(72)]
        last = {hi - 1 for hi, _ in segments}
        for step, (_, keys) in enumerate(requests):
            assert keys == (tuple(VARIABLES) if step in last else FORCING_INPUTS), step
        full = ForcingStream.open(forcing_files(cfg.forcing_dir), (0.0, 743.0), VARIABLES)
        for hi, bundle in segments:
            want = simulation._Coupler()(full.fields_at((hi - 1) * float(cfg.dt_hours)))
            assert list(bundle) == list(want)
            for name in VARIABLES:
                assert bundle[name].tobytes() == want[name].tobytes(), (hi, name)

    def test_setup_reads_only_what_init_state_uses(self, aksp_mini, tmp_path, monkeypatch):
        # A March start, on March forcing: MONTHLY_LAI is read at month index 2.
        write_case_inputs(aksp_mini, tmp_path / "in", months=((2014, 3),))
        surface_reads = record_slab_reads(monkeypatch)
        cfg = make_case_config(tmp_path / "in", n_days=1, start="2014-03-01")
        run_case(cfg, str(tmp_path / "s"))
        assert sorted(surface_reads) == [
            ("FMAX", (0,), (613,)),
            ("MONTHLY_LAI", (2, 0, 0), (1, N_PFTS, 613)),
            ("PCT_CLAY", (0, 0), (SOIL_LAYERS, 613)),
            ("PCT_PFT", (0, 0), (N_PFTS, 613)),
        ]

    def test_provenance_sidecar(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs)
        res = run_case(cfg, str(tmp_path / "p"))
        text = open(os.path.join(res.out_dir, "mini.provenance.txt")).read()
        assert "seed = 7" in text and "config_hash" in text

    @pytest.mark.parametrize("key", ["n_aggregators", "buffer_limit"])
    def test_bad_aggregator_config_rejected_in_setup(self, mini_inputs, tmp_path,
                                                     monkeypatch, key):
        from kiloland.forcing import ForcingStream

        opened = []
        monkeypatch.setattr(ForcingStream, "open", lambda *a, **k: opened.append(a))
        cfg = make_case_config(mini_inputs, n_days=2, **{key: 0})
        with pytest.raises(ValueError):
            run_case(cfg, str(tmp_path / "bad"))
        assert opened == []

    @pytest.mark.parametrize("start", ["2014-01-15", "2014-03-01", "2013-12-31"])
    def test_start_must_be_first_forcing_day(self, mini_inputs, tmp_path, monkeypatch, start):
        # The forcing holds January 2014, so hour 0 is 2014-01-01 00:00.
        from kiloland.forcing import ForcingStream

        opened = []
        monkeypatch.setattr(ForcingStream, "open", lambda *a, **k: opened.append(a))
        cfg = make_case_config(mini_inputs, n_days=1, start=start)
        out = tmp_path / "late"
        with pytest.raises(ValueError, match=f"case start {start} is not 2014-01-01"):
            run_case(cfg, str(out))
        assert opened == []
        assert not out.exists() or os.listdir(out) == []

    def test_forcing_without_month_is_cdf_error(self, mini_inputs, tmp_path):
        from kiloland.forcing import forcing_filename

        cfg = make_case_config(mini_inputs, n_days=1, forcing_dir=str(tmp_path / "forcing"))
        shutil.copytree(mini_inputs / "forcing", cfg.forcing_dir)
        path = os.path.join(cfg.forcing_dir, forcing_filename(2014, 1))
        drop_gattrs(path, "year", "month")
        with pytest.raises(cdf.CdfError, match=re.escape(path)):
            run_case(cfg, str(tmp_path / "r"))

    def test_forcing_may_begin_at_a_later_month_of_its_batch(self, aksp_mini, tmp_path):
        # February of a January-February batch holds records from 744h; a
        # February made alone holds them from 0h. Only the time values differ.
        write_case_inputs(aksp_mini, tmp_path / "batch", months=((2014, 1), (2014, 2)))
        os.remove(tmp_path / "batch" / "forcing" / forcing_filename(2014, 1))
        write_case_inputs(aksp_mini, tmp_path / "alone", months=((2014, 2),))
        for root in ("batch", "alone"):
            cfg = make_case_config(
                tmp_path / root, n_days=2, start="2014-02-01", history_interval="daily",
                restart_interval="every:1d",
            )
            run_case(cfg, str(tmp_path / f"out_{root}"))
        assert output_bytes(tmp_path / "out_batch") == output_bytes(tmp_path / "out_alone")

    def test_forcing_time_read_once_per_file(self, aksp_mini, tmp_path, monkeypatch):
        write_case_inputs(aksp_mini, tmp_path / "in", months=((2014, 1), (2014, 2)))
        reads = Counter()
        read_slab = cdf.CdfFile.read_slab

        def recording(self, name, start, count, out=None):
            if name == "time":
                reads[os.path.basename(self._fh.name)] += 1
            return read_slab(self, name, start, count, out=out)

        monkeypatch.setattr(cdf.CdfFile, "read_slab", recording)
        cfg = make_case_config(tmp_path / "in", n_days=10, history_interval="daily")
        run_case(cfg, str(tmp_path / "r"))
        assert reads == {forcing_filename(2014, m): 1 for m in (1, 2)}

    def test_forcing_cell_counts_must_agree(self, aksp_mini, mini_inputs, tmp_path, monkeypatch):
        from kiloland.forcing import ForcingStream, gen_forcing_files

        # January as the run's, February from the same batch cut to 600 cells.
        forcing_dir = tmp_path / "forcing"
        shutil.copytree(mini_inputs / "forcing", forcing_dir)
        gen_forcing_files(7, aksp_mini, [(2014, 1), (2014, 2)], tmp_path / "batch")
        feb = read_forcing_month(str(tmp_path / "batch" / forcing_filename(2014, 2)))
        feb.values = {name: v[:, :600] for name, v in feb.values.items()}
        path = str(forcing_dir / forcing_filename(2014, 2))
        write_forcing_month(feb, path)
        opened = []
        monkeypatch.setattr(ForcingStream, "open", lambda *a, **k: opened.append(a))
        cfg = make_case_config(mini_inputs, n_days=1, forcing_dir=str(forcing_dir))
        out = tmp_path / "r"
        with pytest.raises(ValueError, match=re.escape(f"forcing file {path} has 600 cells")) as e:
            run_case(cfg, str(out))
        assert "has 613" in str(e.value)
        assert opened == []
        assert not out.exists() or os.listdir(out) == []

    def test_every_output_file_written_in_io_region(self, mini_inputs, tmp_path):
        cfg = make_case_config(
            mini_inputs, n_days=4, history_interval="daily", restart_interval="every:2d"
        )
        res = run_case(cfg, str(tmp_path / "io"))
        assert len(res.history_paths) == 4 and len(res.restart_dates) == 2
        io = res.timers.children["io"]
        assert io.count == len(res.history_paths) + 4 * len(res.restart_dates)

    def test_output_headers_pinned(self, mini_inputs, tmp_path):
        cfg = make_case_config(
            mini_inputs, n_days=2, history_interval="daily", restart_interval="every:1d"
        )
        run_case(cfg, str(tmp_path / "h"))
        for kind, want in OUTPUT_HEADERS.items():
            path = str(tmp_path / "h" / f"mini.{kind}.2014-01-03-00000.nc")
            got = re.sub(r':checksum = "[0-9a-f]{8}"', ':checksum = "*"', cdf.dump_header(path, kind))
            assert got == want, kind


FILE_GATTRS = """global attributes:
  :case = "mini"
  :compset = "I1850-toy"
  :fingerprint = "e02ddb069ef6f9c7"
  :start = "2014-01-01"
  :dt_hours = 1
  :n_land = 613
  :id_space = 1024
  :n_copies = 1
  :sim_hours = 48.0
"""

# The header of every run output file of a 2-day case with daily history
# and daily restarts, at its end; the `elm.r` checksums are masked.
OUTPUT_HEADERS = {
    "elm.h0": """netcdf elm.h0 format CDF5 numrecs 1
dimensions:
  time = UNLIMITED (1 currently)
  gridcell = 613
variables:
  double time(time)
    time:units = "hours since start"
""" + "".join(
        f"""  float {name}(time, gridcell)
    {name}:units = "{units}"
    {name}:cell_method = "time mean"
"""
        for name, units in zip(HIST_VARS, ("1", "mm", "m^2/m^2", "K", "mm/h", "gC/m^2/h"))
    ) + FILE_GATTRS + """  :window_start_hours = 24.0
  :averaging_steps = 24
""",
    "elm.r": """netcdf elm.r format CDF5 numrecs 0
dimensions:
  gridcell = 613
variables:
""" + "".join(
        f"""  double {name}(gridcell)
    {name}:checksum = "*"
"""
        for name in STATE_VARS + tuple(f"hsum_{v}" for v in HIST_VARS)
    ) + FILE_GATTRS + """  :hist_count = 0
""",
    "cpl.r": """netcdf cpl.r format CDF5 numrecs 0
dimensions:
  gridcell = 613
variables:
""" + "".join(
        f"""  double x2l_{name}(gridcell)
    x2l_{name}:units = "{units}"
"""
        for name, units in (
            ("TBOT", "K"), ("PRECT", "mm/h"), ("FSDS", "W/m^2"), ("FLDS", "W/m^2"),
            ("QBOT", "kg/kg"), ("WIND", "m/s"), ("PSRF", "Pa"),
        )
    ) + FILE_GATTRS,
    "datm.r": """netcdf datm.r format CDF5 numrecs 0
dimensions:
variables:
  int64 next_step()
  double t_hours()
""" + FILE_GATTRS,
    "elm.rh0": """netcdf elm.rh0 format CDF5 numrecs 0
dimensions:
variables:
  double window_start_hours()
  int64 hist_count()
""" + FILE_GATTRS + """  :history_interval = "daily"
""",
}


def record_slab_reads(monkeypatch, title="kiloland surface properties") -> list:
    """(variable, start, count) of every slab read from a file with this
    title attribute (a surface file by default)."""
    reads = []
    read_slab = cdf.CdfFile.read_slab

    def recording(self, name, start, count, out=None):
        if self.model.gattrs.get("title") == title:
            reads.append((name, tuple(start), tuple(count)))
        return read_slab(self, name, start, count, out=out)

    monkeypatch.setattr(cdf.CdfFile, "read_slab", recording)
    return reads


class TestRankWorkers:
    def test_no_rank_is_pickled(self, mini_inputs, tmp_path, monkeypatch):
        from kiloland import simulation

        def refuse(self, protocol):
            raise AssertionError("a rank was pickled")

        monkeypatch.setattr(simulation._Rank, "__reduce_ex__", refuse)
        cfg = make_case_config(mini_inputs, history_interval="daily",
                               restart_interval="every:2d", n_days=4)
        run_case(cfg, str(tmp_path / "w1"))
        run_case(replace(cfg, lnd_workers=2), str(tmp_path / "w2"))
        one, two = output_bytes(tmp_path / "w1"), output_bytes(tmp_path / "w2")
        assert len(one) == 4 + 2 * 4 + 1  # history, two restart bundles, rpointer
        assert one == two

    def test_dead_worker_is_child_process_error(self, mini_inputs, tmp_path, monkeypatch):
        import multiprocessing

        from kiloland import simulation

        monkeypatch.setattr(simulation, "_run_worker_segment", lambda task: os._exit(1))
        cfg = make_case_config(mini_inputs, lnd_workers=2)
        with pytest.raises(ChildProcessError, match="land rank 0 worker exited with code 1"):
            run_case(cfg, str(tmp_path / "dead"))
        assert multiprocessing.active_children() == []

    def test_worker_exception_keeps_its_type(self, mini_inputs, tmp_path, monkeypatch):
        import multiprocessing

        from kiloland import simulation

        def boom(task):
            raise ValueError("boom")

        monkeypatch.setattr(simulation, "_run_worker_segment", boom)
        cfg = make_case_config(mini_inputs, lnd_workers=2)
        with pytest.raises(ValueError, match="^boom$"):
            run_case(cfg, str(tmp_path / "boom"))
        assert multiprocessing.active_children() == []

    def test_only_the_segment_writes_a_rank_in_place(self, mini_inputs, tmp_path, monkeypatch):
        from kiloland import simulation

        run_segment, step = simulation._run_worker_segment, simulation.step_cells
        steps = []  # (forcing, new state, diagnostics) of each step, copied

        def recording_step(state, forcing, p, dt):
            new, diag = step(state, forcing, p, dt)
            steps.append(tuple({k: np.array(v) for k, v in d.items()}
                               for d in (forcing, new)) + (diag.copy(),))
            return new, diag

        def arrays(rank):
            return [*rank.state.values(), rank.sums, *rank.bundle.values()]

        owned, checked = [], []

        def segment(task):
            rank = task.rank
            if not owned:
                owned.extend(arrays(rank))
            assert all(a is b for a, b in zip(arrays(rank), owned, strict=True))
            sums = rank.sums.copy()
            steps.clear()
            assert run_segment(task) is rank
            assert all(a is b for a, b in zip(arrays(rank), owned, strict=True))
            forcing, state, _ = steps[-1]
            for own, last in ((rank.state, state), (rank.bundle, forcing)):
                assert list(own) == list(last)
                for k, v in own.items():
                    assert v.tobytes() == last[k].tobytes(), k
            for *_, diag in steps:
                sums += diag
            assert rank.sums.tobytes() == sums.tobytes()
            checked.append(task.step_hi)
            return rank

        monkeypatch.setattr(simulation, "step_cells", recording_step)
        monkeypatch.setattr(simulation, "_run_worker_segment", segment)
        cfg = make_case_config(mini_inputs, history_interval="daily",
                               restart_interval="every:2d", n_days=4)
        run_case(cfg, str(tmp_path / "w1"))
        assert checked == [24, 48, 72, 96]

    def test_single_rank_is_neither_shared_nor_forked(self, mini_inputs, tmp_path,
                                                      monkeypatch):
        import multiprocessing

        from kiloland import simulation

        def refuse(arrays):
            raise AssertionError("a single rank was put in shared memory")

        run_segment, children = simulation._run_worker_segment, []

        def segment(task):
            children.append(multiprocessing.active_children())
            return run_segment(task)

        monkeypatch.setattr(simulation, "_shared", refuse)
        monkeypatch.setattr(simulation, "_run_worker_segment", segment)
        cfg = make_case_config(mini_inputs, history_interval="daily", n_days=3)
        run_case(cfg, str(tmp_path / "w1"))
        assert children == [[], [], []]

    def test_provenance_independent_of_input_location(self, mini_inputs, tmp_path):
        import shutil

        texts = []
        for copy in ("a", "b"):
            root = shutil.copytree(mini_inputs, tmp_path / copy / "inputs")
            cfg = make_case_config(root, n_days=1)
            run_case(cfg, str(tmp_path / copy / "out"))
            texts.append((tmp_path / copy / "out" / "mini.provenance.txt").read_bytes())
        assert texts[0] == texts[1]


@pytest.fixture(scope="class")
def x200(mini_inputs, tmp_path_factory):
    """The mini case replicated 200x (122,600 cells), with the restart
    bundle of a 1-day run of it."""
    root = tmp_path_factory.mktemp("x200")
    cfg = replicate_case(make_case_config(mini_inputs, n_days=1, history_interval="none"),
                         200, str(root / "inputs"))
    run_case(cfg, str(root / "day1"))
    return cfg, str(root / "day1")


class TestSetup:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    def test_builds_each_rank_once_where_it_lives(self, x200, tmp_path, monkeypatch,
                                                  workers, resumed):
        """Set-up holds the rank arrays (144 B per cell), the decomposition
        and the forcing columns, and never a whole-run copy of the arrays."""
        cfg, restart_dir = x200
        cfg = replace(cfg, lnd_workers=workers)
        retained, peak = setup_memory(cfg, str(tmp_path / "run"), monkeypatch,
                                      resume_dir=restart_dir if resumed else None)
        n = 200 * 613
        assert retained < 155 * n, retained / n
        assert peak < 200 * n, peak / n

    @pytest.mark.parametrize("copies, workers", [(1, 2), (3, 1), (3, 2)])
    def test_cell_indices_are_four_bytes(self, mini_inputs, tmp_path, copies, workers):
        from kiloland import simulation

        cfg = make_case_config(mini_inputs, n_days=1, lnd_workers=workers)
        cfg = replicate_case(cfg, copies, str(tmp_path / "inputs"))
        run = simulation._Run(cfg, str(tmp_path / "run"))
        run.setup()
        assert len(run.ranks) == workers
        for rank in run.ranks:
            assert rank.cells.dtype == np.int32
            assert rank.columns.dtype == np.int32

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_forcing_names_the_gridcell(self, mini_inputs, tmp_path, capsys, workers):
        from kiloland.cli import main

        root = shutil.copytree(mini_inputs, tmp_path / "inputs")
        path = os.path.join(root, "forcing", forcing_filename(2014, 1))
        fm = read_forcing_month(path)
        fm.values["TBOT"][5, 301] = np.nan
        write_forcing_month(fm, path)
        case = str(tmp_path / "case.cfg")
        make_case_config(root, n_days=1).to_file(case)
        code = main(["run", "--case", case, "--out", str(tmp_path / "out"),
                     "--workers", str(workers)])
        assert code == 1
        assert "NaN forcing at cells [301]" in capsys.readouterr().err


class TestReplication:
    def test_x10_outputs_are_ten_copies(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs)
        base = run_case(cfg, str(tmp_path / "base"))
        cfg10 = replicate_case(cfg, 10, str(tmp_path / "inputs10"))
        rep = run_case(cfg10, str(tmp_path / "x10"))
        report = check_replication(base.history_paths[0], rep.history_paths[0], 10)
        assert report.verdict == "identical"
        b = base.latest_restart
        r = rep.latest_restart
        report = check_replication(
            os.path.join(base.out_dir, b["elm_r"]),
            os.path.join(rep.out_dir, r["elm_r"]),
            10,
        )
        assert report.verdict == "identical"

    def test_replicated_setup_reads_at_source_size(self, mini_inputs, tmp_path, monkeypatch):
        cfg3 = replicate_case(make_case_config(mini_inputs, n_days=1), 3, str(tmp_path / "in3"))
        domain_reads = record_slab_reads(monkeypatch, title="kiloland domain")
        surface_reads = record_slab_reads(monkeypatch)
        res = run_case(cfg3, str(tmp_path / "x3"))
        assert res.n_land == 3 * 613
        assert domain_reads == []
        assert sorted(surface_reads) == [
            ("FMAX", (0,), (613,)),
            ("MONTHLY_LAI", (0, 0, 0), (1, N_PFTS, 613)),
            ("PCT_CLAY", (0, 0), (SOIL_LAYERS, 613)),
            ("PCT_PFT", (0, 0), (N_PFTS, 613)),
        ]

    def test_replicated_case_workers_invariant(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs)
        cfg3 = replicate_case(cfg, 3, str(tmp_path / "in3"))
        a = run_case(cfg3, str(tmp_path / "a"))
        b = run_case(replace(cfg3, lnd_workers=4), str(tmp_path / "b"))
        assert files_bit_identical(a.history_paths[0], b.history_paths[0])


class TestRestart:
    def test_split_equals_whole(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs)
        whole = run_case(cfg, str(tmp_path / "whole"))
        split_dir = str(tmp_path / "split")
        run_case(replace(cfg, n_days=3), split_dir)
        resumed = resume_case(cfg, split_dir, extra_days=2)
        final = "2014-01-06-00000"
        for kind in ("elm.h0", "elm.r", "cpl.r", "datm.r", "elm.rh0"):
            a = os.path.join(whole.out_dir, f"mini.{kind}.{final}.nc")
            b = os.path.join(split_dir, f"mini.{kind}.{final}.nc")
            assert files_bit_identical(a, b), kind
        assert resumed.restart_dates == [final]

    @pytest.mark.parametrize(
        "first, then, scheme",
        [(1, 3, "round_robin"), (2, 1, "block"), (2, 3, "block_round_robin")],
    )
    def test_resume_under_another_layout(self, mini_inputs, tmp_path, first, then, scheme):
        cfg = make_case_config(mini_inputs)
        whole = run_case(cfg, str(tmp_path / "whole"))
        split_dir = str(tmp_path / "split")
        run_case(replace(cfg, n_days=3, lnd_workers=first, partition_scheme=scheme), split_dir)
        resume_case(
            replace(cfg, lnd_workers=then, partition_scheme=scheme), split_dir, extra_days=2
        )
        final = "2014-01-06-00000"
        for kind in ("elm.h0", "elm.r", "cpl.r", "datm.r", "elm.rh0"):
            a = os.path.join(whole.out_dir, f"mini.{kind}.{final}.nc")
            b = os.path.join(split_dir, f"mini.{kind}.{final}.nc")
            assert files_bit_identical(a, b), kind

    def test_resume_zero_days_rewrites_identical_bundle(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=3)
        first = run_case(cfg, str(tmp_path / "r"))
        ptr = first.latest_restart
        paths = {k: os.path.join(first.out_dir, ptr[k]) for k in
                 ("elm_r", "cpl_r", "datm_r", "rh0")}
        before = {k: open(p, "rb").read() for k, p in paths.items()}
        stamps = {k: os.stat(p).st_mtime_ns for k, p in paths.items()}
        resume_case(cfg, str(tmp_path / "r"), extra_days=0)
        for kind, p in paths.items():
            assert os.stat(p).st_mtime_ns != stamps[kind], f"{kind} not rewritten"
            assert open(p, "rb").read() == before[kind], f"{kind} changed"

    def test_resume_zero_days_on_two_workers(self, mini_inputs, tmp_path):
        # The resumed coupler fields are split between the ranks and written
        # back without a step in between.
        cfg = make_case_config(mini_inputs, n_days=3)
        first = run_case(cfg, str(tmp_path / "r"))
        ptr = first.latest_restart
        paths = [os.path.join(first.out_dir, ptr[k]) for k in ("elm_r", "cpl_r", "datm_r", "rh0")]
        before = [open(p, "rb").read() for p in paths]
        res = resume_case(replace(cfg, lnd_workers=2), str(tmp_path / "r"), extra_days=0)
        assert res.restart_dates == ["2014-01-04-00000"]
        assert [open(p, "rb").read() for p in paths] == before

    def test_resume_zero_days_with_daily_history(self, mini_inputs, tmp_path):
        # The day-boundary flush already reset the accumulators, so a
        # zero-step resume rewrites the bundle but not the history.
        cfg = make_case_config(mini_inputs, n_days=2, history_interval="daily")
        first = run_case(cfg, str(tmp_path / "r"))
        hist = first.history_paths[-1]
        before = open(hist, "rb").read()
        res = resume_case(cfg, str(tmp_path / "r"), extra_days=0)
        assert res.history_paths == []
        assert open(hist, "rb").read() == before
        assert res.restart_dates == ["2014-01-03-00000"]

    @pytest.mark.parametrize("days", [-1, -5])
    def test_resume_negative_days_rejected_before_setup(self, mini_inputs, tmp_path, days):
        cfg = make_case_config(mini_inputs, n_days=2)
        out = tmp_path / "r"
        run_case(cfg, str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ValueError, match=rf"^extra_days must be >= 0, not {days}$"):
            resume_case(cfg, str(out), extra_days=days)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restart_gathers_each_land_variable_once(self, mini_inputs, tmp_path,
                                                     monkeypatch, workers):
        """The elm.r checksums are folded into the write: one gather per
        variable, and each checksum is the CRC-32 of that variable's
        gathered big-endian bytes."""
        from kiloland import decomp, simulation

        gathered = []
        gather = decomp.IoDecomp.gather

        def recording_gather(self, local_datas):
            out = gather(self, local_datas)
            gathered.append(out.copy())
            return out

        writes = []  # (kind, file name, the gathers since the previous write)
        write = simulation._Run._write

        def recording_write(self, kind, *args, **kwargs):
            name = write(self, kind, *args, **kwargs)
            done = sum(len(arrays) for *_, arrays in writes)
            writes.append((kind, name, gathered[done:]))
            return name

        monkeypatch.setattr(decomp.IoDecomp, "gather", recording_gather)
        monkeypatch.setattr(simulation._Run, "_write", recording_write)
        cfg = make_case_config(mini_inputs, n_days=2, lnd_workers=workers)
        res = run_case(cfg, str(tmp_path / "r"))
        land = [(name, arrays) for kind, name, arrays in writes if kind == "elm.r"]
        assert len(land) == 1
        name, arrays = land[0]
        names = list(STATE_VARS) + [f"hsum_{v}" for v in HIST_VARS]
        assert len(arrays) == len(names) == 11
        with cdf.read_file(os.path.join(res.out_dir, name)) as f:
            for var, arr in zip(names, arrays):
                crc = zlib.crc32(arr.astype(">f8").tobytes())
                assert f.model.var(var).attrs["checksum"] == f"{crc:08x}", var
                np.testing.assert_array_equal(f.read(var), arr)

    def test_tampered_restart_detected(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=2)
        res = run_case(cfg, str(tmp_path / "r"))
        elm_r = os.path.join(res.out_dir, res.latest_restart["elm_r"])
        blob = bytearray(open(elm_r, "rb").read())
        blob[-9] ^= 0x01  # flip one payload bit
        open(elm_r, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="checksum mismatch"):
            resume_case(cfg, str(tmp_path / "r"), extra_days=1)

    def test_resume_with_wrong_params_rejected(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=2)
        run_case(cfg, str(tmp_path / "r"))
        other = replace(cfg, seed=99)
        with pytest.raises(ValueError, match="different parameter set"):
            resume_case(other, str(tmp_path / "r"), extra_days=1)

    def test_resume_reads_no_surface_data(self, mini_inputs, tmp_path, monkeypatch):
        cfg = make_case_config(mini_inputs, n_days=2)
        run_case(cfg, str(tmp_path / "r"))
        surface_reads = record_slab_reads(monkeypatch)
        resume_case(cfg, str(tmp_path / "r"), extra_days=1)
        assert surface_reads == []

    def test_resume_checks_surface_cells(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs, n_days=2)
        run_case(cfg, str(tmp_path / "r"))
        ds = read_surface(cfg.surface)
        small = SurfaceDataset(
            {k: v[..., :600] for k, v in ds.values.items()}, ds.methods, 600, ds.subgrid
        )
        path = str(tmp_path / "small_surface.nc")
        write_surface(small, path)
        with pytest.raises(ValueError, match="surface covers 600 cells.*domain mismatch"):
            resume_case(replace(cfg, surface=path), str(tmp_path / "r"), extra_days=1)

    def test_resume_checks_the_forcing_month(self, aksp_mini, mini_inputs, tmp_path,
                                             monkeypatch):
        # A bundle made on January forcing, resumed on March forcing.
        from kiloland.forcing import ForcingStream

        cfg = make_case_config(mini_inputs, n_days=1)
        run_case(cfg, str(tmp_path / "r"))
        write_case_inputs(aksp_mini, tmp_path / "march", months=((2014, 3),))
        march = replace(cfg, forcing_dir=str(tmp_path / "march" / "forcing"))
        opened = []
        monkeypatch.setattr(ForcingStream, "open", lambda *a, **k: opened.append(a))
        out = tmp_path / "resumed"
        with pytest.raises(ValueError, match="case start 2014-01-01 is not 2014-03-01"):
            resume_case(march, str(out), extra_days=1, restart_dir=str(tmp_path / "r"))
        assert opened == []
        assert not out.exists() or os.listdir(out) == []

    def test_resume_without_pointer(self, mini_inputs, tmp_path):
        cfg = make_case_config(mini_inputs)
        with pytest.raises(FileNotFoundError, match="rpointer"):
            resume_case(cfg, str(tmp_path / "empty"), extra_days=1)


class TestSpinup:
    def test_constant_forcing_reaches_closed_form(self):
        # Saturated soil: wetness pegged at 1, so c* = a*g*FSDS/k_leaf.
        fields = forcing(TBOT=280.0, PRECT=1.0, FSDS=200.0)
        s0 = state(soil_water=P.w_cap, c_leaf=0.0, c_soil=0.0)
        n_steps = int(5 / P.k_leaf)  # 50,000 hours
        s = run_constant_forcing(s0, fields, P, 1.0, n_steps)
        target = leaf_fixed_point(200.0, 1.0, P)
        assert target == pytest.approx(500.0)
        assert abs(float(s["c_leaf"]) - target) / target < 0.01

    def test_zero_gpp_pools_decay(self):
        fields = forcing(TBOT=280.0, PRECT=0.0, FSDS=0.0)
        s0 = state(c_leaf=100.0, c_soil=100.0)
        traj = run_constant_forcing(s0, fields, P, 1.0, 2000, record_every=100)[1]
        leaf = np.array(traj["c_leaf"]).ravel()
        soil = np.array(traj["c_soil"]).ravel()
        assert np.all(np.diff(leaf) < 0) and leaf[-1] < 100.0
        assert np.all(soil >= 0)

    def test_spinup_check_contraction(self):
        fields = forcing(TBOT=280.0, PRECT=1.0, FSDS=200.0)
        s = state(soil_water=P.w_cap, c_leaf=0.0, c_soil=0.0)
        cycle = 2000
        means = {"c_leaf": [], "c_soil": []}
        for _ in range(6):
            s, track = run_constant_forcing(s, fields, P, 1.0, cycle, record_every=cycle)
            means["c_leaf"].append(float(track["c_leaf"][-1]))
            means["c_soil"].append(float(track["c_soil"][-1]))
        report = spinup_check(means, tol=0.5)
        for pool in ("c_leaf", "c_soil"):
            rel = report.rel_change[pool]
            assert np.all(np.diff(rel) <= 1e-12)  # non-increasing
        assert report.converged["c_leaf"]

    def test_spinup_check_needs_two_cycles(self):
        with pytest.raises(ValueError, match="2 repeated-forcing cycles"):
            spinup_check({"c_leaf": [1.0]})
