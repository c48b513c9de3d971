import datetime
import os
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kiloland import cdf
from kiloland.domain import compact
from kiloland.forcing import (
    ForcingMonth,
    ForcingStream,
    STEP_HOURS,
    STEPS_PER_DAY,
    VARIABLES,
    downscale_day,
    downscale_month,
    forcing_file_model,
    forcing_files,
    gen_forcing_files,
    month_offset_hours,
    read_forcing_month,
    synth_forcing,
    write_forcing_month,
)


class TestDownscaleDay:
    def test_additive_mean_centering(self):
        out = downscale_day(280.0, np.arange(1.0, 9.0), "additive")
        np.testing.assert_array_equal(out, 280.0 + np.arange(1.0, 9.0) - 4.5)
        assert out.mean() == 280.0

    def test_multiplicative_flat_profile(self):
        out = downscale_day(100.0, np.full(8, 0.37), "multiplicative")
        np.testing.assert_allclose(out, 100.0, rtol=1e-15)

    def test_sum_preserving_example(self):
        out = downscale_day(8.0, np.array([0, 0, 0, 0, 1, 1, 1, 1.0]), "sum_preserving")
        np.testing.assert_array_equal(out, [0, 0, 0, 0, 2, 2, 2, 2.0])
        assert out.sum() == 8.0

    def test_multiplicative_zero_profile_uniform(self):
        out = downscale_day(42.0, np.zeros(8), "multiplicative")
        np.testing.assert_array_equal(out, np.full(8, 42.0))

    def test_sum_preserving_zero_profile_uniform(self):
        out = downscale_day(8.0, np.zeros(8), "sum_preserving")
        np.testing.assert_array_equal(out, np.full(8, 1.0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            downscale_day(np.nan, np.ones(8), "additive")

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            downscale_day(1.0, np.array([1, 1, 1, -1, 1, 1, 1, 1.0]), "multiplicative")

    def test_nonnegativity_preserved(self, rng):
        daily = rng.uniform(0, 50, size=100)
        shape = rng.uniform(0, 2, size=(100, 8))
        for mode in ("multiplicative", "sum_preserving"):
            assert np.all(downscale_day(daily, shape, mode) >= 0)

    def test_daily_aggregates_random(self, rng):
        daily = rng.uniform(1, 100, size=500)
        shape = rng.uniform(0, 2, size=(500, 8))
        mult = downscale_day(daily, shape, "multiplicative")
        np.testing.assert_allclose(mult.mean(axis=-1), daily, rtol=1e-12)
        summ = downscale_day(daily, shape, "sum_preserving")
        np.testing.assert_allclose(summ.sum(axis=-1), daily, rtol=1e-12)
        add = downscale_day(daily, rng.standard_normal((500, 8)), "additive")
        np.testing.assert_allclose(add.mean(axis=-1), daily, rtol=1e-14)


class TestDownscaleMonth:
    def month(self, aksp_mini, year, month, seed=5):
        (y, m, daily, prof) = synth_forcing(seed, aksp_mini, [(year, month)])[0]
        return daily, prof, downscale_month(daily, prof, aksp_mini, y, m)

    def test_january_has_248_steps(self, aksp_mini):
        _, _, fm = self.month(aksp_mini, 2014, 1)
        assert fm.n_steps == 248
        assert fm.values["TBOT"].shape == (248, aksp_mini.n_land)

    def test_february_nonleap_224(self, aksp_mini):
        _, _, fm = self.month(aksp_mini, 2014, 2)
        assert fm.n_steps == 224

    def test_february_leap_232(self, aksp_mini):
        _, _, fm = self.month(aksp_mini, 2016, 2)
        assert fm.n_steps == 232

    def test_tbot_daily_mean_preserved(self, aksp_mini):
        daily, prof, fm = self.month(aksp_mini, 2014, 1)
        tbot = fm.values["TBOT"].astype(np.float64)
        per_day = tbot.reshape(31, STEPS_PER_DAY, -1).mean(axis=1)
        want = compact(daily["TBOT"], aksp_mini)
        # Dyadic construction keeps this exact even through float32.
        np.testing.assert_allclose(per_day, want, rtol=1e-12)
        assert np.array_equal(per_day, want)

    def test_prect_daily_sum_preserved(self, aksp_mini):
        daily, prof, fm = self.month(aksp_mini, 2014, 1)
        prect = fm.values["PRECT"].astype(np.float64)
        per_day = prect.reshape(31, STEPS_PER_DAY, -1).sum(axis=1)
        want = compact(daily["PRECT"], aksp_mini)
        np.testing.assert_allclose(per_day, want, rtol=1e-6)  # float32 storage

    def test_missing_variable_rejected(self, aksp_mini):
        (y, m, daily, prof) = synth_forcing(5, aksp_mini, [(2014, 1)])[0]
        del daily["WIND"]
        with pytest.raises(ValueError, match="WIND"):
            downscale_month(daily, prof, aksp_mini, y, m)

    def test_downscale_compact_commutes(self, aksp_mini):
        (y, m, daily, prof) = synth_forcing(5, aksp_mini, [(2014, 1)])[0]
        fm = downscale_month(daily, prof, aksp_mini, y, m)
        for name, spec in VARIABLES.items():
            compacted_daily = compact(daily[name], aksp_mini)  # (n_days, n_land)
            direct = downscale_day(
                compacted_daily.T, prof[name], spec.downscale_mode
            )  # (n_land, n_days, 8)
            direct = direct.transpose(1, 2, 0).reshape(fm.n_steps, -1).astype(np.float32)
            assert np.array_equal(direct, fm.values[name])


def whole_grid_month(daily_fields, profiles, d, year, month, offset_hours=0.0):
    """The former downscale_month: every variable downscaled over the whole
    grid as (nj, ni, n_days, 8), reordered to records, then compacted."""
    n_days = daily_fields["TBOT"].shape[0]
    nj, ni = d.grid.n_rows, d.grid.n_cols
    values = {}
    for name, spec in VARIABLES.items():
        daily = np.asarray(daily_fields[name], dtype=np.float64)
        prof = np.asarray(profiles[name], dtype=np.float64)
        sub = downscale_day(daily.transpose(1, 2, 0), prof, spec.downscale_mode)
        sub = sub.transpose(2, 3, 0, 1).reshape(n_days * STEPS_PER_DAY, nj, ni)
        values[name] = compact(sub, d).astype(np.float32)
    time_axis = offset_hours + np.arange(n_days * STEPS_PER_DAY) * STEP_HOURS
    return ForcingMonth(year, month, values, time_axis)


def with_zero_day(profiles, day=3):
    """Profiles whose FSDS and PRECT are all zero on one day, so the
    uniform branch of the multiplicative and sum-preserving modes runs."""
    values = {name: v.copy() for name, v in profiles.items()}
    values["FSDS"][day] = 0.0
    values["PRECT"][day] = 0.0
    return values


class TestDownscaleMonthLandOnly:
    def test_matches_per_cell_reference_with_zero_profile_day(self, aksp_mini):
        (y, m, daily, prof) = synth_forcing(5, aksp_mini, [(2014, 1)])[0]
        prof = with_zero_day(prof)
        fm = downscale_month(daily, prof, aksp_mini, y, m)
        for name, spec in VARIABLES.items():
            land = compact(daily[name], aksp_mini)  # (n_days, n_land)
            want = np.empty((fm.n_steps, aksp_mini.n_land), dtype=np.float32)
            for cell in range(aksp_mini.n_land):
                per_day = downscale_day(land[:, cell], prof[name], spec.downscale_mode)
                want[:, cell] = per_day.reshape(-1)
            assert np.array_equal(fm.values[name], want), name
        # On the zero day every step holds the daily mean (FSDS) or an
        # eighth of the daily total (PRECT).
        day = slice(3 * STEPS_PER_DAY, 4 * STEPS_PER_DAY)
        for name, share in (("FSDS", 1.0), ("PRECT", 8.0)):
            want = (compact(daily[name], aksp_mini)[3] / share).astype(np.float32)
            assert np.array_equal(fm.values[name][day], np.tile(want, (STEPS_PER_DAY, 1)))

    def test_output_layout(self, aksp_mini):
        (y, m, daily, prof) = synth_forcing(5, aksp_mini, [(2014, 2)])[0]
        fm = downscale_month(daily, prof, aksp_mini, y, m)
        for arr in fm.values.values():
            assert arr.dtype == np.float32
            assert arr.shape == (fm.n_steps, aksp_mini.n_land)
            assert arr.flags.c_contiguous

    def test_nan_rejected(self, aksp_mini):
        (y, m, daily, prof) = synth_forcing(5, aksp_mini, [(2014, 1)])[0]
        bad = dict(daily, QBOT=daily["QBOT"].copy())
        bad["QBOT"][7].flat[aksp_mini.land_flat[10]] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            downscale_month(bad, prof, aksp_mini, y, m)
        bad_prof = {k: v.copy() for k, v in prof.items()}
        bad_prof["TBOT"][20, 4] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            downscale_month(daily, bad_prof, aksp_mini, y, m)

    def test_negative_profile_rejected(self, aksp_mini):
        (y, m, daily, prof) = synth_forcing(5, aksp_mini, [(2014, 1)])[0]
        prof["WIND"][30, 2] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            downscale_month(daily, prof, aksp_mini, y, m)

    def test_inputs_stay_unwritten(self, aksp_mini):
        (y, m, daily, prof) = synth_forcing(5, aksp_mini, [(2014, 1)])[0]
        prof = with_zero_day(prof)
        before = [a.tobytes() for a in (*daily.values(), *prof.values())]
        downscale_month(daily, prof, aksp_mini, y, m)
        assert [a.tobytes() for a in (*daily.values(), *prof.values())] == before

    def test_files_match_whole_grid_formula(self, aksp_mini, tmp_path):
        months = [(2014, 1), (2014, 2)]
        paths = gen_forcing_files(11, aksp_mini, months, tmp_path / "new")
        for path, (y, m, daily, prof) in zip(paths, synth_forcing(11, aksp_mini, months)):
            offset = month_offset_hours(months[0], y, m)
            oracle = str(tmp_path / f"oracle_{m}.nc")
            write_forcing_month(whole_grid_month(daily, prof, aksp_mini, y, m, offset), oracle)
            assert open(path, "rb").read() == open(oracle, "rb").read()


class TestSynth:
    def test_same_seed_bit_identical_files(self, aksp_mini, tmp_path):
        a = gen_forcing_files(9, aksp_mini, [(2014, 1)], tmp_path / "a")
        b = gen_forcing_files(9, aksp_mini, [(2014, 1)], tmp_path / "b")
        assert open(a[0], "rb").read() == open(b[0], "rb").read()

    def test_fsds_profile_night_zero_day_peak(self, aksp_mini):
        (_, _, _, prof) = synth_forcing(1, aksp_mini, [(2014, 7)])[0]
        fsds = prof["FSDS"]
        assert np.all(fsds >= 0)
        assert np.all(fsds[:, [0, 1, 7]] == 0.0)
        assert np.all(np.isin(np.argmax(fsds, axis=1), [3, 4, 5]))

    @pytest.mark.parametrize("seed", range(10))
    def test_plausible_ranges(self, aksp_mini, seed):
        (_, _, daily, _) = synth_forcing(seed, aksp_mini, [(2014, 1)])[0]
        assert np.all((daily["TBOT"] >= 230) & (daily["TBOT"] <= 310))
        assert np.all(daily["FSDS"] >= 0)
        assert np.all(daily["PRECT"] >= 0)
        assert np.all((daily["PSRF"] > 90_000) & (daily["PSRF"] < 110_000))
        assert np.all((daily["QBOT"] > 0) & (daily["QBOT"] < 0.03))
        assert np.all(daily["WIND"] > 0)


def ramp_stream(n_land=3):
    """Six 3-hourly records forming an exact linear ramp per variable, served
    over [0h, 17.9h]."""
    time = np.arange(6) * STEP_HOURS
    values = {}
    for k, name in enumerate(VARIABLES):
        base = 270.0 + 10 * k
        ramp = base + 0.75 * np.arange(6)[:, None] + np.arange(n_land)[None, :]
        values[name] = ramp.astype(np.float32)
    return ForcingStream(time, values, (0.0, 17.9), VARIABLES)


class TestInterpolation:
    def test_exact_at_records(self):
        s = ramp_stream()
        for j, t in enumerate(s.time):
            fields = s.fields_at(float(t))
            for name in VARIABLES:
                np.testing.assert_array_equal(
                    fields[name], s.values[name][j].astype(np.float64)
                )

    def test_linear_midpoint(self):
        time = np.array([0.0, 3.0])
        values = {
            name: np.array([[270.0], [274.0]], dtype=np.float32) for name in VARIABLES
        }
        s = ForcingStream(time, values, (0.0, 3.0), VARIABLES)
        assert s.fields_at(1.5)["TBOT"][0] == 272.0

    def test_hourly_sampling_matches_brute_force(self):
        s = ramp_stream()

        def brute(name, col, t):
            times, vals = s.time, s.values[name][:, col].astype(np.float64)
            if t >= times[-1]:
                return vals[-1]
            for k in range(len(times) - 1):
                if times[k] <= t <= times[k + 1]:
                    f = (t - times[k]) / (times[k + 1] - times[k])
                    return vals[k] * (1 - f) + vals[k + 1] * f
            raise AssertionError("uncovered")

        for t in np.arange(0.0, 18.0, 1.0):
            fields = s.fields_at(float(t))
            for name, spec in VARIABLES.items():
                if spec.interp_mode != "linear":
                    continue
                for col in range(3):
                    assert fields[name][col] == pytest.approx(
                        brute(name, col, t), rel=1e-14
                    )

    def test_prect_nearest_left_closed(self):
        s = ramp_stream()
        for t, want_row in [(0.0, 0), (2.9, 0), (3.0, 1), (4.5, 1), (17.9, 5)]:
            np.testing.assert_array_equal(
                s.fields_at(t)["PRECT"], s.values["PRECT"][want_row].astype(np.float64)
            )

    def test_linear_holds_in_trailing_interval(self):
        s = ramp_stream()
        np.testing.assert_array_equal(
            s.fields_at(16.0)["TBOT"], s.values["TBOT"][5].astype(np.float64)
        )

    def test_out_of_range_names_coverage(self):
        s = ramp_stream()
        with pytest.raises(ValueError, match=r"window \[0.0h, 17.9h\]"):
            s.fields_at(18.0)
        with pytest.raises(ValueError, match="window"):
            s.fields_at(-0.5)

    def test_fields_at_ramp_midpoint(self):
        # Halfway between records 0 and 1 of the 0.75-per-record ramp.
        s = ramp_stream()
        fields = s.fields_at(1.5)
        for name, spec in VARIABLES.items():
            want = s.values[name][0].astype(np.float64)
            if spec.interp_mode == "linear":
                want = want + 0.375
            np.testing.assert_array_equal(fields[name], want)


class TestFiles:
    def test_month_file_round_trip(self, aksp_mini, tmp_path):
        (y, m, daily, prof) = synth_forcing(3, aksp_mini, [(2014, 1)])[0]
        fm = downscale_month(daily, prof, aksp_mini, y, m)
        path = str(tmp_path / "f.nc")
        write_forcing_month(fm, path)
        back = read_forcing_month(path)
        assert back.n_steps == fm.n_steps
        np.testing.assert_array_equal(back.time_axis, fm.time_axis)
        for name in VARIABLES:
            np.testing.assert_array_equal(back.values[name], fm.values[name])

    def test_stream_across_months(self, aksp_mini, tmp_path):
        gen_forcing_files(3, aksp_mini, [(2014, 1), (2014, 2)], tmp_path)
        files = forcing_files(str(tmp_path))
        s = ForcingStream.open(files, (0.0, (248 + 224) * 3.0 - 1.0), VARIABLES)
        assert s.time.size == 248 + 224
        np.testing.assert_array_equal(np.diff(s.time), 3.0)

    def test_stream_gap_detected(self, aksp_mini, tmp_path):
        gen_forcing_files(3, aksp_mini, [(2014, 1), (2014, 3)], tmp_path)
        with pytest.raises(ValueError, match="gap"):
            forcing_files(str(tmp_path))

    def test_cdf2_month_readable_by_third_party(self, aksp_mini, tmp_path):
        scipy_io = pytest.importorskip("scipy.io")
        (y, m, daily, prof) = synth_forcing(3, aksp_mini, [(2014, 2)])[0]
        fm = downscale_month(daily, prof, aksp_mini, y, m)
        path = str(tmp_path / "f2.nc")
        model = forcing_file_model(aksp_mini.n_land)
        model.variant = cdf.CDF2
        with open(path, "wb") as fh:
            cdf.write_file(fh, model, {"time": fm.time_axis, **fm.values}, numrecs=fm.n_steps)
        with scipy_io.netcdf_file(path, "r", mmap=False) as nc:
            assert nc.dimensions["gridcell"] == aksp_mini.n_land
            np.testing.assert_array_equal(nc.variables["TBOT"][:], fm.values["TBOT"])

    def test_column_subset_matches_full(self, aksp_mini, tmp_path):
        gen_forcing_files(3, aksp_mini, [(2014, 1)], tmp_path)
        files = forcing_files(str(tmp_path))
        cols = np.array([5, 0, 200, 612])
        full = ForcingStream.open(files, (0.0, 743.0), VARIABLES)
        sub = ForcingStream.open(files, (0.0, 743.0), VARIABLES, columns=cols)
        for name in VARIABLES:
            np.testing.assert_array_equal(sub.values[name], full.values[name][:, cols])
        f_full = full.fields_at(7.0)
        f_sub = sub.fields_at(7.0)
        for name in VARIABLES:
            np.testing.assert_array_equal(f_sub[name], f_full[name][cols])


# Two consecutive months: January (248 records) and February 2014 (224).
_N_RECORDS = 248 + 224
_DATA_END = _N_RECORDS * STEP_HOURS
_SUBSET = np.array([612, 5, 0, 200, 301])

_hours = st.one_of(
    st.integers(0, int(_DATA_END) * 4 - 1).map(lambda q: q / 4.0),
    st.integers(0, _N_RECORDS - 1).map(lambda k: k * STEP_HOURS),
    # Around the month boundary (744h) and inside the last record's
    # trailing interval.
    st.sampled_from([741.0, 742.5, 744.0, 745.5, 1413.0, 1414.5, 1415.75]),
)


@pytest.fixture(scope="module")
def two_months(tmp_path_factory, aksp_mini):
    out = tmp_path_factory.mktemp("two_months")
    gen_forcing_files(3, aksp_mini, [(2014, 1), (2014, 2)], out)
    files = forcing_files(str(out))
    # The whole data, to its last quarter-hour, served for every variable.
    return files, ForcingStream.open(files, (0.0, _DATA_END - 0.25), VARIABLES)


class TestForcingFiles:
    def test_one_scan_of_every_file(self, two_months):
        files, _ = two_months
        assert [p[-10:-3] for p in files.paths] == ["2014-01", "2014-02"]
        assert files.n_cols == 613
        assert files.first_day == datetime.date(2014, 1, 1)
        assert files.starts == (0, 248)
        np.testing.assert_array_equal(files.time, np.arange(_N_RECORDS) * STEP_HOURS)
        with pytest.raises(ValueError, match="read-only"):
            files.time[0] = 1.0

    def test_hour_zero_is_the_first_record(self, aksp_mini, tmp_path):
        # February of a January-February batch: its records start at 744h.
        gen_forcing_files(3, aksp_mini, [(2014, 1), (2014, 2)], tmp_path)
        os.remove(tmp_path / "forcing_met_2014-01.nc")
        files = forcing_files(str(tmp_path))
        assert files.first_day == datetime.date(2014, 2, 1)
        assert files.starts == (0,)
        np.testing.assert_array_equal(files.time, np.arange(224) * STEP_HOURS)

    def test_cell_count_mismatch_names_the_file(self, aksp_mini, tmp_path):
        gen_forcing_files(3, aksp_mini, [(2014, 1), (2014, 2)], tmp_path)
        feb = str(tmp_path / "forcing_met_2014-02.nc")
        fm = read_forcing_month(feb)
        fm.values = {name: v[:, :600] for name, v in fm.values.items()}
        write_forcing_month(fm, feb)
        with pytest.raises(ValueError, match=re.escape(f"forcing file {feb} has 600 cells")):
            forcing_files(str(tmp_path))

    @pytest.mark.parametrize("fault", ["no records", "records out of order"])
    def test_bad_time_axis_rejected(self, aksp_mini, tmp_path, fault):
        from kiloland import cdf

        (path,) = gen_forcing_files(3, aksp_mini, [(2014, 1)], tmp_path)
        with cdf.read_file(path) as f:
            model, numrecs = f.model, f.numrecs
            data = {v.name: f.read(v.name) for v in model.vars}
        if fault == "no records":
            data, numrecs = {name: v[:0] for name, v in data.items()}, 0
            want = f"forcing file {path} holds no records"
        else:
            data["time"][[5, 6]] = data["time"][[6, 5]]
            want = "must be strictly increasing"
        with open(path, "wb") as fh:
            cdf.write_file(fh, model, data, numrecs=numrecs)
        with pytest.raises(ValueError, match=re.escape(want)):
            forcing_files(str(tmp_path))


def _window_times(start, end, records):
    """The window's ends plus, for every record inside it, the record time
    and two points of its bin."""
    inside = records[(records >= start) & (records <= end)]
    ts = np.concatenate([[start, end], inside, inside + 1.0, inside + 2.25])
    return np.unique(ts[(ts >= start) & (ts <= end)])


@st.composite
def _call_sequences(draw):
    """Times asked for: forward and backward hours, repeats, record steps
    and jumps."""
    t = draw(_hours)
    calls = []
    for _ in range(draw(st.integers(1, 24))):
        move = draw(st.sampled_from(["same", "next", "back", "record", "jump"]))
        if move == "next":
            t = min(t + 1.0, _DATA_END - 0.25)
        elif move == "back":
            t = max(t - 1.0, 0.0)
        elif move == "record":
            t = min((t // STEP_HOURS + 1) * STEP_HOURS, _DATA_END - STEP_HOURS)
        elif move == "jump":
            t = draw(_hours)
        calls.append(t)
    return calls


_names = st.lists(st.sampled_from(list(VARIABLES)), min_size=1, unique=True)


class TestBracketCache:
    @settings(max_examples=60, deadline=None)
    @given(calls=_call_sequences(), names=_names, windowed=st.booleans())
    def test_cached_fields_match_fresh_stream(self, two_months, calls, names, windowed):
        files, full = two_months
        if windowed:
            # The window's edges are the first and last times asked for.
            s = ForcingStream.open(files, (min(calls), max(calls)), names)
        else:
            s = ForcingStream(full.time, full.values, full.window, names)
        for t in calls:
            got = s.fields_at(t)
            want = ForcingStream(full.time, full.values, full.window, VARIABLES).fields_at(t)
            assert list(got) == list(names if t < s.window[1] else VARIABLES)
            j = int(np.searchsorted(s.time, t, side="right")) - 1
            exact = s.time[j] == t or j == s.time.size - 1
            for name, arr in got.items():
                assert arr.tobytes() == want[name].tobytes(), (name, t)
                if VARIABLES[name].interp_mode == "nearest" or exact:
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = np.nan
                else:
                    arr[:] = np.nan  # a fresh result, not the cache


    def test_hourly_stepping_widens_each_record_once(self, two_months, monkeypatch):
        _, full = two_months
        widened = Counter()
        widen = ForcingStream._widen

        def counting(self, name, j):
            widened[name, j] += 1
            return widen(self, name, j)

        monkeypatch.setattr(ForcingStream, "_widen", counting)
        s = ForcingStream(full.time, full.values, full.window, VARIABLES)
        served = [s.fields_at(float(t)) for t in range(101)]
        assert set(widened.values()) == {1}
        # t = 100h lies inside record 33's bin: the linear variables also
        # widened its partner, record 34.
        for name, spec in VARIABLES.items():
            n = 34 if spec.interp_mode == "nearest" else 35
            assert sorted(j for v, j in widened if v == name) == list(range(n)), name
        # Every step of a nearest-mode bin gets the one cached array.
        for k in range(33):
            bin_fields = served[3 * k : 3 * k + 3]
            assert all(f["PRECT"] is bin_fields[0]["PRECT"] for f in bin_fields), k


_columns = st.none() | st.lists(st.integers(0, 612), min_size=1, max_size=12, unique=True)


class TestCouplerOnlyVariables:
    """A stream serves the variables not in its `names` only at the
    window's end."""

    @settings(max_examples=40, deadline=None)
    @given(a=_hours, b=_hours, cols=_columns)
    @example(a=0.0, b=23.0, cols=None)  # ends on a record
    @example(a=743.0, b=745.5, cols=[612, 0])  # crosses the month boundary
    @example(a=1400.0, b=1415.75, cols=None)  # ends in the trailing interval
    @example(a=742.5, b=742.5, cols=[5])  # one instant
    def test_serves_the_full_stream_bytes(self, two_months, a, b, cols):
        from kiloland.simulation import FORCING_INPUTS

        files, full = two_months
        start, end = min(a, b), max(a, b)
        idx = slice(None) if cols is None else np.array(cols)
        s = ForcingStream.open(files, (start, end), FORCING_INPUTS, columns=cols)
        coupler_only = [name for name in VARIABLES if name not in FORCING_INPUTS]
        assert s.names == FORCING_INPUTS
        for name, v in s.values.items():
            assert len(v) <= (2 if name in coupler_only else s.time.size), name
        for t in _window_times(start, end, full.time):
            got = s.fields_at(float(t))
            want = full.fields_at(float(t))
            assert list(got) == list(FORCING_INPUTS if t < end else VARIABLES), t
            for name in got:
                assert got[name].tobytes() == want[name][idx].tobytes(), (name, t)

    def test_bad_names_rejected(self, two_months):
        files, _ = two_months
        with pytest.raises(ValueError, match="unknown forcing variables"):
            ForcingStream.open(files, (0.0, 5.0), ["TBOT", "RAIN"])


class TestWindow:
    @settings(max_examples=40, deadline=None)
    @given(a=_hours, b=_hours, subset=st.booleans())
    @example(a=0.0, b=23.0, subset=False)  # starts on a record
    @example(a=1.0, b=24.0, subset=True)  # ends on a record
    @example(a=742.5, b=744.0, subset=False)  # ends on the month boundary
    @example(a=743.0, b=745.5, subset=True)  # crosses the month boundary
    @example(a=1400.0, b=1415.75, subset=False)  # ends in the trailing interval
    @example(a=1414.5, b=1414.5, subset=True)  # one instant at the data end
    def test_window_matches_full_stream(self, two_months, a, b, subset):
        files, full = two_months
        start, end = min(a, b), max(a, b)
        cols = _SUBSET if subset else None
        w = ForcingStream.open(files, (start, end), VARIABLES, columns=cols)
        assert w.window == (start, end)
        # The first record's bin holds the start; the last record is the
        # partner of the one holding the end, or the last of the data.
        assert w.time[0] <= start < w.time[0] + STEP_HOURS
        assert w.time[-1] > end or w.time[-1] == full.time[-1]
        for t in _window_times(start, end, full.time):
            got = w.fields_at(float(t))
            want = full.fields_at(float(t))
            for name in VARIABLES:
                ref = want[name] if cols is None else want[name][cols]
                assert got[name].tobytes() == ref.tobytes(), (name, t)
        for t in (start - 0.25, end + 0.25):
            with pytest.raises(ValueError, match=rf"window \[{start}h, {end}h\]"):
                w.fields_at(t)

    def test_window_outside_data_rejected(self, two_months):
        files, _ = two_months
        for window in [(-1.0, 5.0), (10.0, _DATA_END), (5.0, 4.0)]:
            with pytest.raises(ValueError, match="outside forcing coverage"):
                ForcingStream.open(files, window, VARIABLES)

    def test_file_outside_window_gives_no_data_reads(self, two_months, monkeypatch):
        from kiloland import cdf

        files, full = two_months
        opened, reads = [], []
        init, read_slab = cdf.CdfFile.__init__, cdf.CdfFile.read_slab

        def opening(self, source):
            opened.append(source)
            init(self, source)

        def recording(self, name, start, count):
            reads.append((name, tuple(start), tuple(count)))
            return read_slab(self, name, start, count)

        monkeypatch.setattr(cdf.CdfFile, "__init__", opening)
        monkeypatch.setattr(cdf.CdfFile, "read_slab", recording)
        w = ForcingStream.open(files, (800.0, 820.0), VARIABLES)
        # Only February is opened, and no time axis is read: the February
        # records 18..26 (798h..822h), one slab per variable.
        assert opened == [files.paths[1]]
        assert reads == [(name, (18, 0), (9, files.n_cols)) for name in VARIABLES]
        np.testing.assert_array_equal(w.values["TBOT"], full.values["TBOT"][266:275])
