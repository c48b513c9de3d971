import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kiloland.domain import compact, expand
from kiloland.surface import (
    CoarseGrid,
    N_MONTHS,
    N_PFTS,
    SOIL_LAYERS,
    SubgridSpec,
    build_surface,
    chord_sq,
    interp_bilinear,
    interp_nearest,
    nearest_indices,
    read_surface,
    synth_coarse_source,
    write_surface,
)


def brute_force_nearest(src, lat, lon):
    """Exhaustive scan with the same distance formula; first strict minimum
    in flat order, so ties resolve to the lower flat index."""
    out = np.empty(len(lat), dtype=np.int64)
    centers = [(la, lo) for la in src.lat for lo in src.lon]
    for t, (tla, tlo) in enumerate(zip(lat, lon)):
        best, best_d = -1, np.inf
        for flat, (sla, slo) in enumerate(centers):
            d = float(chord_sq(tla, tlo, sla, slo))
            if d < best_d:
                best, best_d = flat, d
        out[t] = best
    return out


def _axis(lo, hi, max_size):
    """A strictly increasing axis of half degrees in [lo, hi]."""
    return st.lists(
        st.integers(2 * lo, 2 * hi), min_size=1, max_size=max_size, unique=True
    ).map(lambda v: tuple(x / 2 for x in sorted(v)))


@st.composite
def _oracle_cases(draw):
    src_lat = draw(
        st.one_of(
            _axis(-90, 90, 5),
            _axis(-90, 90, 4).map(lambda v: tuple(sorted({-90.0, 90.0, *v}))),
        )
    )
    n_circle = draw(st.sampled_from([0, 3, 8, 24]))
    if n_circle:  # the whole circle, so a nearest center can lie across ±180°
        start = draw(st.sampled_from([-180.0, -172.5, 0.0]))
        src_lon = tuple(start + 360.0 * k / n_circle for k in range(n_circle))
    else:
        src_lon = draw(_axis(-200, 200, 6))
    i = st.integers(0, len(src_lat) - 1)
    j = st.integers(0, len(src_lon) - 1)

    def mid(axis, k):
        return (axis[k] + axis[min(k + 1, len(axis) - 1)]) / 2

    target = st.one_of(
        st.tuples(i, j).map(lambda ij: (src_lat[ij[0]], src_lon[ij[1]])),
        st.tuples(i, j).map(lambda ij: (mid(src_lat, ij[0]), mid(src_lon, ij[1]))),
        st.tuples(i, j).map(lambda ij: (src_lat[ij[0]], mid(src_lon, ij[1]))),
        st.tuples(st.floats(-90, 90), st.floats(-540, 540)),
        st.tuples(st.sampled_from([-90.0, 90.0]), st.floats(-180, 180)),
    )
    return src_lat, src_lon, tuple(draw(st.lists(target, min_size=1, max_size=8)))


class TestNearest:
    def test_target_on_source_center(self):
        src = CoarseGrid(
            np.array([60.0, 60.5]),
            np.array([-165.0, -164.5]),
            {"v": np.array([[1.0, 2.0], [3.0, 4.0]])},
        )
        got = interp_nearest(src, np.array([60.5]), np.array([-165.0]))
        assert got["v"][0] == 3.0

    def test_constant_source(self, rng):
        src = CoarseGrid(
            np.arange(55.0, 58.0, 0.5),
            np.arange(-170.0, -166.0, 0.5),
            {"v": np.full((6, 8), 7.25)},
        )
        lat = rng.uniform(55, 57.5, 40)
        lon = rng.uniform(-170, -166.5, 40)
        assert np.all(interp_nearest(src, lat, lon)["v"] == 7.25)

    def test_box_pattern_against_exhaustive_oracle(self, aksp_mini):
        # 2x2 coarse source over the mini domain: output must be blocks of
        # at most 4 distinct values, matching a brute-force nearest search.
        lat = compact(aksp_mini.yc, aksp_mini)
        lon = compact(aksp_mini.xc, aksp_mini)
        la0, la1 = float(lat.min()), float(lat.max())
        lo0, lo1 = float(lon.min()), float(lon.max())
        src = CoarseGrid(
            np.array([la0 - 0.05, la1 + 0.05]),
            np.array([lo0 - 0.05, lo1 + 0.05]),
            {"v": np.array([[10.0, 20.0], [30.0, 40.0]])},
        )
        idx = nearest_indices(src, lat, lon)
        want = brute_force_nearest(src, lat, lon)
        np.testing.assert_array_equal(idx, want)
        got = interp_nearest(src, lat, lon)["v"]
        assert len(np.unique(got)) <= 4

    def test_tie_goes_to_lower_flat_index(self):
        # Target exactly between two centers on the same parallel.
        src = CoarseGrid(
            np.array([50.0]),
            np.array([-120.0, -119.0]),
            {"v": np.array([[1.0, 2.0]])},
        )
        got = interp_nearest(src, np.array([50.0]), np.array([-119.5]))
        assert got["v"][0] == 1.0

    def test_random_targets_match_oracle(self, rng):
        src = CoarseGrid(
            np.arange(40.0, 43.0, 0.5),
            np.arange(-110.0, -106.0, 0.5),
            {"v": rng.standard_normal((6, 8))},
        )
        lat = rng.uniform(39.8, 42.7, 60)
        lon = rng.uniform(-110.2, -106.3, 60)
        np.testing.assert_array_equal(
            nearest_indices(src, lat, lon), brute_force_nearest(src, lat, lon)
        )

    def test_extra_dims_carried(self, rng):
        src = CoarseGrid(
            np.array([50.0, 50.5]),
            np.array([-120.0, -119.5]),
            {"v": rng.standard_normal((12, 17, 2, 2))},
        )
        got = interp_nearest(src, np.array([50.1, 50.4]), np.array([-119.9, -119.6]))
        assert got["v"].shape == (12, 17, 2)

    def test_single_cell_source(self):
        src = CoarseGrid(np.array([50.0]), np.array([-120.0]), {"v": np.array([[3.5]])})
        got = interp_nearest(src, np.array([49.0, 51.0, 50.0]), np.array([-121.0, -119.0, -120.0]))
        np.testing.assert_array_equal(got["v"], [3.5, 3.5, 3.5])

    def test_empty_source(self):
        with pytest.raises(ValueError, match="empty source"):
            CoarseGrid(np.array([]), np.array([-120.0]), {})

    def test_pole_target_across_an_equidistant_row(self):
        # Every center of the 0° row is 90° from the pole, so rounding alone
        # decides the minimum; a search over a few candidates can miss it.
        src = CoarseGrid(np.array([-30.0, 0.0]), np.arange(-180.0, 166.0, 15.0), {})
        lat, lon = np.array([90.0]), np.array([-63.2])
        assert brute_force_nearest(src, lat, lon)[0] == 24
        assert nearest_indices(src, lat, lon)[0] == 24

    @pytest.mark.parametrize("lat, lon", [(np.nan, 10.0), (50.0, np.inf)])
    def test_non_finite_target_rejected(self, lat, lon):
        src = CoarseGrid(np.array([50.0, 51.0]), np.array([9.0, 10.0]), {})
        with pytest.raises(ValueError, match=r"non-finite target 1: lat"):
            nearest_indices(src, np.array([50.5, lat]), np.array([9.5, lon]))

    def test_target_beyond_a_pole_rejected(self):
        src = CoarseGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), {})
        with pytest.raises(ValueError, match=r"target latitude outside \[-90, 90\]"):
            nearest_indices(src, np.array([0.5, -90.5]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("lat, lon", [([0.0, 91.0], [0.0]), ([np.nan], [0.0]), ([0.0], [np.inf])])
    def test_source_axis_off_the_sphere_rejected(self, lat, lon):
        with pytest.raises(ValueError, match=r"lat axis must lie in \[-90, 90\]"):
            CoarseGrid(np.array(lat), np.array(lon), {})

    @settings(max_examples=150, deadline=None)
    @given(case=_oracle_cases())
    @example(case=((-30.0, 0.0), tuple(np.arange(-180.0, 166.0, 15.0)), ((90.0, -63.2),)))
    def test_matches_oracle(self, case):
        """Uneven rows and columns, single rows or columns, longitudes round
        the whole circle and rows at the poles; targets on centers, on
        midpoints (exact ties), outside the extent and at a pole."""
        src_lat, src_lon, targets = case
        src = CoarseGrid(np.array(src_lat), np.array(src_lon), {})
        lat, lon = (np.array(v, dtype=np.float64) for v in zip(*targets))
        np.testing.assert_array_equal(
            nearest_indices(src, lat, lon), brute_force_nearest(src, lat, lon)
        )


def brute_bilinear(src, name, la, lo):
    lat, lon = src.lat, src.lon
    v = np.asarray(src.values[name], dtype=np.float64)
    i = int(np.clip(np.searchsorted(lat, la, side="right") - 1, 0, lat.size - 2))
    j = int(np.clip(np.searchsorted(lon, lo, side="right") - 1, 0, lon.size - 2))
    f = (la - lat[i]) / (lat[i + 1] - lat[i])
    g = (lo - lon[j]) / (lon[j + 1] - lon[j])
    return (
        v[..., i, j] * (1 - f) * (1 - g)
        + v[..., i + 1, j] * f * (1 - g)
        + v[..., i, j + 1] * (1 - f) * g
        + v[..., i + 1, j + 1] * f * g
    )


class TestBilinear:
    def grid(self, rng):
        return CoarseGrid(
            np.arange(40.0, 44.1, 0.5),
            np.arange(-110.0, -104.9, 0.5),
            {"v": rng.standard_normal((9, 11))},
        )

    def test_source_center_reproduced(self, rng):
        src = self.grid(rng)
        got = interp_bilinear(src, np.array([src.lat[3]]), np.array([src.lon[4]]))
        assert got["v"][0] == pytest.approx(src.values["v"][3, 4], rel=1e-15)

    def test_midpoint_of_step_edge(self):
        src = CoarseGrid(
            np.array([40.0, 41.0]),
            np.array([-110.0, -109.0]),
            {"v": np.array([[0.0, 0.0], [100.0, 100.0]])},
        )
        got = interp_bilinear(src, np.array([40.5]), np.array([-109.5]))
        assert got["v"][0] == pytest.approx(50.0, abs=1e-12)

    def test_random_targets_match_oracle(self, rng):
        src = self.grid(rng)
        lat = rng.uniform(40.0, 44.0, 100)
        lon = rng.uniform(-110.0, -105.0, 100)
        got = interp_bilinear(src, lat, lon)["v"]
        want = np.array([brute_bilinear(src, "v", la, lo) for la, lo in zip(lat, lon)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_bounded_by_corners(self, rng):
        src = self.grid(rng)
        lat = rng.uniform(40.0, 44.0, 200)
        lon = rng.uniform(-110.0, -105.0, 200)
        got = interp_bilinear(src, lat, lon)["v"]
        assert got.min() >= src.values["v"].min() - 1e-12
        assert got.max() <= src.values["v"].max() + 1e-12

    def test_outside_extent_rejected(self, rng):
        src = self.grid(rng)
        with pytest.raises(ValueError, match="outside"):
            interp_bilinear(src, np.array([44.2]), np.array([-108.0]))


def coarse_for(aksp_mini, seed=4, n_extra=0):
    lat = compact(aksp_mini.yc, aksp_mini)
    lon = compact(aksp_mini.xc, aksp_mini)
    return synth_coarse_source(
        seed,
        (float(lat.min()) - 1.0, float(lat.max()) + 1.0),
        (float(lon.min()) - 1.0, float(lon.max()) + 1.0),
        spacing=0.5,
        n_extra=n_extra,
    )


def all_nearest(src):
    return {name: "nearest" for name in src.values}


class TestBuildSurface:
    def test_invariants_hold(self, aksp_mini):
        src = coarse_for(aksp_mini)
        ds = build_surface(aksp_mini, src, all_nearest(src))
        ds.validate()
        assert ds.n_land == aksp_mini.n_land

    def test_single_nonzero_pft_renormalized_to_100(self, aksp_mini):
        src = coarse_for(aksp_mini)
        pct = np.zeros_like(src.values["PCT_PFT"])
        pct[3] = 37.0  # arbitrary positive weight on one PFT
        src.values["PCT_PFT"] = pct
        ds = build_surface(aksp_mini, src, all_nearest(src))
        np.testing.assert_allclose(ds.values["PCT_PFT"][3], 100.0, atol=1e-12)
        assert np.all(ds.values["PCT_PFT"][np.arange(N_PFTS) != 3] == 0.0)

    def test_monthly_lai_dims(self, aksp_mini):
        src = coarse_for(aksp_mini)
        ds = build_surface(aksp_mini, src, all_nearest(src))
        assert ds.values["MONTHLY_LAI"].shape == (N_MONTHS, N_PFTS, aksp_mini.n_land)

    def test_missing_method_rejected(self, aksp_mini):
        src = coarse_for(aksp_mini)
        methods = all_nearest(src)
        del methods["FMAX"]
        with pytest.raises(ValueError, match="FMAX"):
            build_surface(aksp_mini, src, methods)

    def test_spline_rejected_with_message(self, aksp_mini):
        src = coarse_for(aksp_mini)
        methods = all_nearest(src)
        methods["FMAX"] = "spline"
        with pytest.raises(NotImplementedError, match="spline"):
            build_surface(aksp_mini, src, methods)

    @pytest.mark.parametrize("method", ["nearest", "bilinear"])
    def test_source_stays_unwritten(self, aksp_mini, method):
        """The clamps and the renormalization act on the interpolated arrays
        only, even where every one of them fires."""
        src = coarse_for(aksp_mini)
        src.values["PCT_CLAY"][:, ::2] = 130.0
        src.values["PCT_PFT"][:, 1::2] = -5.0
        src.values["FMAX"][::3] = 1.5
        src.values["MONTHLY_LAI"][..., ::2, :] = -1.0
        before = {name: v.tobytes() for name, v in src.values.items()}
        build_surface(aksp_mini, src, {name: method for name in src.values})
        assert {name: v.tobytes() for name, v in src.values.items()} == before

    def test_bilinear_methods_work_too(self, aksp_mini):
        src = coarse_for(aksp_mini)
        methods = all_nearest(src)
        methods["MONTHLY_LAI"] = "bilinear"
        ds = build_surface(aksp_mini, src, methods)
        ds.validate()
        assert ds.methods["MONTHLY_LAI"] == "bilinear"

    @pytest.mark.parametrize("bilinear", [(), ("FMAX", "SYNTH_01")])
    def test_nearest_indices_computed_once(self, aksp_mini, monkeypatch, bilinear):
        import kiloland.surface as surface

        src = coarse_for(aksp_mini, n_extra=2)
        methods = dict(all_nearest(src), **{name: "bilinear" for name in bilinear})
        calls = []
        real = surface.nearest_indices

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(surface, "nearest_indices", counting)
        ds = build_surface(aksp_mini, src, methods)
        assert len(calls) == 1
        # Each variable through its own interpolation call, as builds did
        # before the indices were shared, then the same clamps.
        lat, lon = compact(aksp_mini.yc, aksp_mini), compact(aksp_mini.xc, aksp_mini)
        want = {}
        for name, method in methods.items():
            one = CoarseGrid(src.lat, src.lon, {name: src.values[name]})
            interp = interp_nearest if method == "nearest" else interp_bilinear
            want[name] = interp(one, lat, lon)[name]
        for name in ("PCT_CLAY", "PCT_PFT"):
            want[name] = np.clip(want[name], 0.0, 100.0)
        want["FMAX"] = np.clip(want["FMAX"], 0.0, 1.0)
        want["MONTHLY_LAI"] = np.maximum(want["MONTHLY_LAI"], 0.0)
        want["PCT_PFT"] = want["PCT_PFT"] * (100.0 / want["PCT_PFT"].sum(axis=0))
        assert set(ds.values) == set(want)
        for name, v in want.items():
            assert np.array_equal(ds.values[name], v), name

    def test_nearest_piecewise_constant(self, aksp_mini):
        src = coarse_for(aksp_mini)
        ds = build_surface(aksp_mini, src, all_nearest(src))
        n_src = src.lat.size * src.lon.size
        assert len(np.unique(ds.values["FMAX"])) <= n_src

    def test_expand_2d(self, aksp_mini):
        src = coarse_for(aksp_mini)
        ds = build_surface(aksp_mini, src, all_nearest(src))
        f2 = expand(ds.values["FMAX"], aksp_mini)
        assert f2.shape == (32, 32)
        assert np.all(np.isnan(f2[aksp_mini.mask == 0]))


def test_no_scipy_in_any_module_or_surface_build():
    """Importing every kiloland module and building a surface loads no
    scipy, so neither a process nor a forked rank carries its pages."""
    import kiloland

    code = (
        "import pkgutil, sys\n"
        "import kiloland\n"
        "for m in pkgutil.iter_modules(kiloland.__path__):\n"
        "    __import__('kiloland.' + m.name)\n"
        "from conftest import make_aksp_mini\n"
        "from kiloland.domain import compact, expand\n"
        "from kiloland.surface import build_surface, synth_coarse_source\n"
        "d = make_aksp_mini()\n"
        "lat, lon = compact(d.yc, d), compact(d.xc, d)\n"
        "src = synth_coarse_source(7, (lat.min() - 1, lat.max() + 1),\n"
        "                          (lon.min() - 1, lon.max() + 1))\n"
        "build_surface(d, src, {name: 'nearest' for name in src.values})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(kiloland.__file__))
    path = os.pathsep.join([src_dir, os.path.dirname(__file__)])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestSurfaceFile:
    def test_round_trip(self, aksp_mini, tmp_path):
        src = coarse_for(aksp_mini, n_extra=2)
        ds = build_surface(aksp_mini, src, all_nearest(src))
        path = str(tmp_path / "surf.nc")
        write_surface(ds, path)
        back = read_surface(path)
        back.validate()
        for name in ds.values:
            np.testing.assert_array_equal(back.values[name], ds.values[name])
            assert back.methods[name] == "nearest"
        assert back.subgrid == SubgridSpec()

    def test_subgrid_constants(self):
        sg = SubgridSpec()
        assert sg.max_landunits == 5
        assert sg.max_columns_per_landunit == 2
        assert sg.soil_layers == SOIL_LAYERS == 15
        assert sg.max_pfts == N_PFTS == 17
