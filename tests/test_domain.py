import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kiloland import cdf
from kiloland.domain import (
    AKSP_CENSUS,
    DomainSpec,
    Grid2D,
    SubgridCensus,
    build_domain,
    census,
    compact,
    domain_file_model,
    expand,
    read_domain,
    replicate,
    subset,
    synth_mask,
    write_domain,
)

from conftest import AKSP_MINI_N_LAND


def tiny_domain(mask):
    mask = np.asarray(mask)
    return build_domain(Grid2D(n_rows=mask.shape[0], n_cols=mask.shape[1]), mask)


class TestBuildDomain:
    def test_two_by_two_diagonal(self):
        d = tiny_domain([[1, 0], [0, 1]])
        np.testing.assert_array_equal(d.land_index, [0, 3])
        assert d.n_land == 2

    def test_ids_row_major(self):
        d = tiny_domain(np.ones((3, 4)))
        np.testing.assert_array_equal(
            d.gridcell_id, np.arange(12).reshape(3, 4)
        )

    def test_paper_scale_land_count(self):
        # Full North America grid dimensions with exactly the published
        # number of land cells; only counting, no geolocation.
        n_land = 21_624_900
        mask = np.zeros(7_814 * 8_075, dtype=np.int8)
        mask[:n_land] = 1
        d = DomainSpec(Grid2D(n_rows=7_814, n_cols=8_075), mask.reshape(7_814, 8_075))
        assert d.n_land == n_land

    def test_empty_land_domain_rejected(self):
        with pytest.raises(ValueError, match="empty land domain"):
            tiny_domain(np.zeros((4, 4)))

    def test_area_and_frac(self):
        d = tiny_domain([[1, 0], [1, 1]])
        assert np.all(d.area == 1.0)  # 1 km cells
        np.testing.assert_array_equal(d.frac, [[1.0, 0.0], [1.0, 1.0]])

    def test_corners_enclose_center(self, aksp_mini):
        d = aksp_mini
        assert np.all(d.xv.min(axis=0) <= d.xc) and np.all(d.xc <= d.xv.max(axis=0))
        assert np.all(d.yv.min(axis=0) <= d.yc) and np.all(d.yc <= d.yv.max(axis=0))

    def test_aksp_mini_land_count(self, aksp_mini):
        assert aksp_mini.n_land == AKSP_MINI_N_LAND


class TestCompactExpand:
    def test_diagonal_example(self):
        d = tiny_domain([[1, 0], [0, 1]])
        field = np.array([["a", "b"], ["c", "d"]])
        np.testing.assert_array_equal(compact(field, d), ["a", "d"])

    def test_all_land_is_row_major_flatten(self):
        d = tiny_domain(np.ones((3, 5)))
        field = np.arange(15.0).reshape(3, 5)
        np.testing.assert_array_equal(compact(field, d), field.reshape(-1))

    def test_aksp_mini_count(self, aksp_mini, rng):
        field = rng.standard_normal((32, 32))
        assert compact(field, aksp_mini).shape == (AKSP_MINI_N_LAND,)

    def test_round_trip_random_mask(self, rng):
        mask = synth_mask(16, 16, 0.5, seed=3)
        mask[0, 0] = 1  # keep at least one land cell
        d = tiny_domain(mask)
        field = rng.standard_normal((16, 16))
        back = expand(compact(field, d), d, fill=np.nan)
        assert np.array_equal(back[mask == 1], field[mask == 1])
        assert np.all(np.isnan(back[mask == 0]))

    def test_leading_dims_carried(self, aksp_mini, rng):
        field = rng.standard_normal((5, 32, 32))
        c = compact(field, aksp_mini)
        assert c.shape == (5, AKSP_MINI_N_LAND)
        back = expand(c, aksp_mini, fill=0.0)
        assert back.shape == (5, 32, 32)

    def test_ocean_row_stays_fill(self):
        mask = np.zeros((3, 3), dtype=np.int8)
        mask[1, :] = 1
        d = tiny_domain(mask)
        out = expand(np.ones(3), d, fill=-9.0)
        assert np.all(out[0] == -9.0) and np.all(out[2] == -9.0)

    def test_dimension_mismatch(self, aksp_mini):
        with pytest.raises(ValueError):
            compact(np.zeros((8, 8)), aksp_mini)
        with pytest.raises(ValueError):
            expand(np.zeros(10), aksp_mini)

    def test_nan_fill_survives_emitted_file(self, aksp_mini, rng, tmp_path):
        field = expand(rng.standard_normal(aksp_mini.n_land), aksp_mini, fill=np.nan)
        model = cdf.CdfModel(
            variant=cdf.CDF5, dims=[cdf.Dim("nj", 32), cdf.Dim("ni", 32)]
        )
        model.vars.append(cdf.Var("f", cdf.NcType.FLOAT64, ("nj", "ni")))
        path = str(tmp_path / "f.nc")
        with open(path, "wb") as fh:
            cdf.write_file(fh, model, {"f": field})
        with cdf.read_file(path) as f:
            back = f.read("f")
        assert np.all(np.isnan(back[aksp_mini.mask == 0]))
        assert not np.any(np.isnan(back[aksp_mini.mask == 1]))

    @given(
        data=hnp.arrays(
            np.float64,
            (6, 7),
            elements=st.floats(allow_nan=False, width=64, min_value=-1e12, max_value=1e12),
        ),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_compact_expand_inverse_property(self, data, seed):
        mask = synth_mask(6, 7, 0.5, seed)
        mask[2, 3] = 1
        d = tiny_domain(mask)
        assert np.array_equal(
            compact(expand(compact(data, d), d, fill=0.0), d), compact(data, d)
        )


class TestSubset:
    def test_full_bbox_is_identity(self, aksp_mini):
        g = aksp_mini.grid
        bbox = (
            g.origin_x,
            g.origin_y,
            g.origin_x + (g.n_cols - 1) * g.cell_size,
            g.origin_y + (g.n_rows - 1) * g.cell_size,
        )
        s = subset(aksp_mini, bbox=bbox)
        assert s.grid.n_rows == g.n_rows and s.grid.n_cols == g.n_cols
        np.testing.assert_array_equal(s.mask, aksp_mini.mask)
        np.testing.assert_array_equal(s.gridcell_id, aksp_mini.gridcell_id)

    def test_bbox_against_brute_force(self, aksp_mini):
        g = aksp_mini.grid
        bbox = (
            g.origin_x + 3.2 * g.cell_size,
            g.origin_y + 10.7 * g.cell_size,
            g.origin_x + 20.1 * g.cell_size,
            g.origin_y + 30.0 * g.cell_size,
        )
        s = subset(aksp_mini, bbox=bbox)
        # Brute-force point-in-box over every parent cell center.
        x, y = g.cell_centers()
        inside = (
            (x >= bbox[0]) & (x <= bbox[2]) & (y >= bbox[1]) & (y <= bbox[3])
        )
        want = set(aksp_mini.gridcell_id[inside & (aksp_mini.mask == 1)])
        assert set(s.land_index) == want

    def test_id_list_single_cell(self, aksp_mini):
        land_id = int(aksp_mini.land_index[0])
        s = subset(aksp_mini, ids=[land_id])
        assert s.grid.n_rows == 1 and s.grid.n_cols == 1
        assert s.n_land == 1
        assert s.land_index[0] == land_id

    def test_ids_preserved_for_traceability(self, aksp_mini):
        s = subset(aksp_mini, ids=list(aksp_mini.land_index[5:9]))
        assert set(s.land_index) == set(aksp_mini.land_index[5:9])

    def test_subset_coords_match_parent_bitwise(self, aksp_mini):
        s = subset(aksp_mini, bbox=(
            aksp_mini.grid.origin_x + 5 * 1000.0,
            aksp_mini.grid.origin_y + 5 * 1000.0,
            aksp_mini.grid.origin_x + 10 * 1000.0,
            aksp_mini.grid.origin_y + 12 * 1000.0,
        ))
        assert np.array_equal(s.xc, aksp_mini.xc[5:13, 5:11])
        assert np.array_equal(s.yv, aksp_mini.yv[:, 5:13, 5:11])

    def test_empty_intersection(self, aksp_mini):
        with pytest.raises(ValueError, match="intersect"):
            subset(aksp_mini, bbox=(1e12, 1e12, 2e12, 2e12))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 3),
        box=st.lists(st.floats(-3.0, 12.0), min_size=4, max_size=4),
    )
    def test_bbox_equals_ids_of_the_cells_inside(self, seed, box):
        """A bbox selects what the id list of the cells whose centers lie in
        it selects, and both miss the domain alike."""
        g = Grid2D(8, 10, cell_size=1000.0, origin_x=-40_000.0, origin_y=25_000.0)
        d = build_domain(g, synth_mask(8, 10, 0.6, seed))
        bbox = (g.origin_x + box[0] * g.cell_size, g.origin_y + box[1] * g.cell_size,
                g.origin_x + box[2] * g.cell_size, g.origin_y + box[3] * g.cell_size)
        x, y = g.cell_centers()
        inside = (x >= bbox[0]) & (x <= bbox[2]) & (y >= bbox[1]) & (y <= bbox[3])
        ids = d.gridcell_id[inside]
        if ids.size == 0:
            for selector in ({"bbox": bbox}, {"ids": ids}):
                with pytest.raises(ValueError, match="^selector does not intersect the domain$"):
                    subset(d, **selector)
            return
        by_box, by_ids = subset(d, bbox=bbox), subset(d, ids=ids)
        assert by_box.grid == by_ids.grid
        for name in ("mask", "gridcell_id", "xc", "yc", "xv", "yv"):
            a, b = getattr(by_box, name), getattr(by_ids, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestReplicate:
    def test_aksp_times_300_matches_paper(self):
        # 72,083 land cells on a minimal carrier grid; counting only.
        mask = np.zeros(269 * 269, dtype=np.int8)
        mask[:72_083] = 1
        d = DomainSpec(Grid2D(269, 269), mask.reshape(269, 269))
        assert replicate(d, 300).n_land == 21_624_900

    def test_times_10_arithmetic(self):
        mask = np.zeros(269 * 269, dtype=np.int8)
        mask[:72_083] = 1
        d = DomainSpec(Grid2D(269, 269), mask.reshape(269, 269))
        assert replicate(d, 10).n_land == 720_830

    def test_identity_with_provenance(self, aksp_mini):
        r = replicate(aksp_mini, 1)
        np.testing.assert_array_equal(r.land_index, aksp_mini.land_index)
        assert np.all(r.copy_index == 0)
        np.testing.assert_array_equal(r.source_id, aksp_mini.land_index)

    def test_copy_ordering_and_provenance(self, aksp_mini):
        k = 3
        r = replicate(aksp_mini, k)
        n = aksp_mini.n_land
        assert r.n_land == k * n
        for j in range(k):
            seg = slice(j * n, (j + 1) * n)
            np.testing.assert_array_equal(r.copy_index[seg], j)
            np.testing.assert_array_equal(r.source_id[seg], aksp_mini.land_index)

    def test_coords_tile(self, aksp_mini):
        r = replicate(aksp_mini, 2)
        assert np.array_equal(r.xc[:32], aksp_mini.xc)
        assert np.array_equal(r.xc[32:], aksp_mini.xc)

    def test_composition_multiset(self, aksp_mini):
        a_b = replicate(replicate(aksp_mini, 2), 3)
        ab = replicate(aksp_mini, 6)
        np.testing.assert_array_equal(a_b.land_index, ab.land_index)

    def test_id_uniqueness_property(self, aksp_mini):
        r = replicate(aksp_mini, 7)
        ids = r.gridcell_id.reshape(-1)
        assert len(np.unique(ids)) == ids.size


class TestCensus:
    def test_pft_total_matches_paper(self):
        assert census(AKSP_CENSUS, 300).pfts == 699_434_100

    def test_landunit_total_matches_paper(self):
        assert census(AKSP_CENSUS, 300).landunits == 93_936_900

    def test_all_x300_totals(self):
        c = census(AKSP_CENSUS, 300)
        assert c.gridcells == 21_624_900
        assert c.topounits == 21_624_900
        assert c.columns == 353_435_700

    def test_identity(self):
        assert census(AKSP_CENSUS, 1) == AKSP_CENSUS

    @given(a=st.integers(1, 1000), b=st.integers(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b):
        base = SubgridCensus(3, 5, 7, 11, 13)
        left = census(base, a + b)
        ra, rb = census(base, a), census(base, b)
        assert left == SubgridCensus(
            ra.gridcells + rb.gridcells,
            ra.topounits + rb.topounits,
            ra.landunits + rb.landunits,
            ra.columns + rb.columns,
            ra.pfts + rb.pfts,
        )


class TestDomainFile:
    def test_fifteen_variables(self, aksp_mini):
        assert len(domain_file_model(aksp_mini).vars) == 15

    def test_write_read_round_trip(self, aksp_mini, tmp_path):
        path = str(tmp_path / "domain.nc")
        write_domain(aksp_mini, path)
        d = read_domain(path)
        assert d.grid == aksp_mini.grid
        np.testing.assert_array_equal(d.mask, aksp_mini.mask)
        np.testing.assert_array_equal(d.gridcell_id, aksp_mini.gridcell_id)
        assert np.array_equal(d.xc, aksp_mini.xc)
        assert np.array_equal(d.yv, aksp_mini.yv)
        assert d.id_space == aksp_mini.id_space

    def test_write_deterministic(self, aksp_mini, tmp_path):
        p1, p2 = str(tmp_path / "a.nc"), str(tmp_path / "b.nc")
        write_domain(aksp_mini, p1)
        write_domain(aksp_mini, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_replicated_domain_file(self, aksp_mini, tmp_path):
        path = str(tmp_path / "x3.nc")
        write_domain(replicate(aksp_mini, 3), path)
        d = read_domain(path)
        assert d.n_land == 3 * aksp_mini.n_land
        assert d.n_copies == 3
        np.testing.assert_array_equal(d.source_id[: aksp_mini.n_land], aksp_mini.land_index)
