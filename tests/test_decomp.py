import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiloland import cdf
from kiloland.decomp import (
    BLOCK,
    BLOCK_ROUND_ROBIN,
    DEFAULT_BUFFER_LIMIT,
    ROUND_ROBIN,
    SCHEMES,
    IoDecomp,
    index_dtype,
    make_plan,
    partition,
    rearrange_write,
)


class TestPartition:
    def test_round_robin_example(self):
        p = partition(10, 3, ROUND_ROBIN)
        np.testing.assert_array_equal(p.local_lists[0], [0, 3, 6, 9])

    def test_block_example(self):
        p = partition(10, 3, BLOCK)
        assert [len(l) for l in p.local_lists] == [4, 3, 3]
        np.testing.assert_array_equal(p.local_lists[0], [0, 1, 2, 3])

    def test_block_round_robin_example(self):
        p = partition(12, 2, BLOCK_ROUND_ROBIN, block_size=3)
        np.testing.assert_array_equal(p.local_lists[0], [0, 1, 2, 6, 7, 8])
        np.testing.assert_array_equal(p.local_lists[1], [3, 4, 5, 9, 10, 11])

    def test_more_ranks_than_cells_warns(self):
        with pytest.warns(UserWarning, match="empty ranks"):
            p = partition(3, 5, ROUND_ROBIN)
        assert [len(l) for l in p.local_lists] == [1, 1, 1, 0, 0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cell_lists_are_int32_views_of_one_order(self, scheme):
        p = partition(1000, 3, scheme, block_size=7)
        base = p.local_lists[0].base
        assert base is not None and base.dtype == np.int32 and base.size == 1000
        assert all(c.dtype == np.int32 and c.base is base for c in p.local_lists)

    def test_index_dtype_widens_at_two_to_the_31_cells(self):
        assert index_dtype(1) == np.int32
        assert index_dtype(2**31 - 1) == np.int32
        assert index_dtype(2**31) == np.int64
        assert index_dtype(21_600_000) == np.int32  # the paper's domain

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            partition(10, 2, "diagonal")

    @given(
        n=st.integers(1, 500),
        p=st.integers(1, 16),
        scheme=st.sampled_from(SCHEMES),
        b=st.integers(1, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_coverage_and_balance(self, n, p, scheme, b):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            part = partition(n, p, scheme, block_size=b)
        # Every cell assigned exactly once, each rank's cells ascending.
        all_cells = np.concatenate(part.local_lists)
        assert len(all_cells) == n
        assert len(np.unique(all_cells)) == n
        for cells in part.local_lists:
            assert np.all(np.diff(cells) > 0) if len(cells) > 1 else True
        counts = np.array([len(l) for l in part.local_lists])
        spread = counts.max() - counts.min()
        if scheme in (ROUND_ROBIN, BLOCK):
            assert spread <= 1
        else:
            assert spread <= b

    @given(
        n=st.integers(1, 300),
        p=st.integers(1, 40),
        scheme=st.sampled_from(SCHEMES),
        b=st.integers(1, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_lists_are_each_schemes_definition(self, n, p, scheme, b):
        """Round-robin puts cell c on rank c % p, block round-robin on
        (c // b) % p, and block gives contiguous runs, the longer ones
        first, whose sizes differ by at most one (n < p included)."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lists = partition(n, p, scheme, block_size=b).local_lists
        assert len(lists) == p
        cells = np.arange(n)
        if scheme == BLOCK:
            sizes = [len(l) for l in lists]
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
            np.testing.assert_array_equal(np.concatenate(lists), cells)
        else:
            rank = cells % p if scheme == ROUND_ROBIN else (cells // b) % p
            for r, l in enumerate(lists):
                np.testing.assert_array_equal(l, cells[rank == r])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_builds_the_lists_without_a_sort(self, scheme):
        """The lists are one 4-byte order and the build's transients stay
        small: no per-cell rank array and no int64 argsort."""
        import tracemalloc

        n = 1_000_000
        tracemalloc.start()
        try:
            part = partition(n, 2, scheme)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert part.n_cells == n
        assert retained <= 4 * n + 4096, retained / n
        assert peak < 10 * n, peak / n


class TestIoDecomp:
    def test_single_rank_identity(self):
        part = partition(6, 1, BLOCK)
        np.testing.assert_array_equal(part.gather([np.arange(6.0)]), np.arange(6.0))

    def test_round_robin_flat_example(self):
        part = partition(4, 2, ROUND_ROBIN)
        out = part.gather([np.array([10, 12]), np.array([11, 13])])
        np.testing.assert_array_equal(out, [10, 11, 12, 13])

    @given(
        n=st.integers(1, 1000),
        p=st.integers(1, 7),
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_scatter_gather_round_trip(self, n, p, scheme, seed):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            part = partition(n, p, scheme)
        data = np.random.default_rng(seed).standard_normal(n)
        assert np.array_equal(part.gather([data[c] for c in part.local_lists]), data)

    def test_offsets_partition_the_space(self):
        part = partition(50, 7, BLOCK_ROUND_ROBIN, block_size=4)
        ranks = [np.full(len(cells), r) for r, cells in enumerate(part.local_lists)]
        out = part.gather(ranks)
        np.testing.assert_array_equal(out, (np.arange(50) // 4) % 7)

    @pytest.mark.parametrize("p", [1, 2])
    def test_retains_under_one_byte_per_cell(self, p):
        """The decomposition is its cell lists: its coverage check keeps no
        per-rank index array of its own."""
        import tracemalloc

        n = 1_000_000
        lists = partition(n, p, ROUND_ROBIN).local_lists
        tracemalloc.start()
        try:
            iod = IoDecomp(n, lists)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert iod.n_cells == n
        assert retained < n

    def test_coverage_check_peaks_under_two_bytes_per_cell(self):
        """The success path checks coverage with a 1-byte mask, not a count."""
        import tracemalloc

        n = 1_000_000
        lists = partition(n, 2, ROUND_ROBIN).local_lists
        tracemalloc.start()
        try:
            IoDecomp(n, lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n

    @pytest.mark.parametrize(
        "local_lists, bad",
        [
            ([[0, 1, 2, 3], [3, 4, 5]], 3),  # cell 3 on both ranks
            ([[0, 1], [2, 3, 5]], 4),  # cell 4 on no rank
            ([[0, 1, 2], [3, 4, 6]], 5),  # cell 6 outside the domain, 5 missing
        ],
    )
    def test_rejects_partition_that_misses_or_repeats_a_cell(self, local_lists, bad):
        with pytest.raises(ValueError, match=rf"exactly once \(first bad offset {bad}\)"):
            IoDecomp(6, [np.array(cells) for cells in local_lists])


class TestPlan:
    def test_default_buffer_limit_is_64_mib(self):
        assert DEFAULT_BUFFER_LIMIT == 64 * 2**20
        assert make_plan(100, 2).buffer_limit == 64 * 2**20

    def test_equal_spans(self):
        plan = make_plan(10, 3)
        assert plan.ranges == [(0, 4), (4, 7), (7, 10)]

    def test_more_aggregators_than_elements(self):
        plan = make_plan(2, 5)
        assert plan.ranges == [(0, 1), (1, 2)]

    def test_validation(self):
        plan = make_plan(11, 2)
        model = cdf.CdfModel(dims=[cdf.Dim("gridcell", 10)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        writer = cdf.CdfWriter(io.BytesIO(), model)
        part = partition(10, 2, BLOCK)
        with pytest.raises(ValueError, match="cover 11 of 10"):
            rearrange_write([np.zeros(5), np.zeros(5)], part, plan, writer, "v")

    def test_plan_rejects_a_buffer_limit_below_one(self):
        with pytest.raises(ValueError, match="buffer_limit must be positive"):
            make_plan(10, 2, 0)


def write_pair(n_cells, p, n_agg, buffer_limit, scheme, rng, record_var=False):
    """Emit the same variable serially and through the rearranger."""
    if record_var:
        model_dims = [cdf.Dim("time", 0, True), cdf.Dim("gridcell", n_cells)]
        vdims = ("time", "gridcell")
        numrecs = 3
        data = rng.standard_normal((numrecs, n_cells))
    else:
        model_dims = [cdf.Dim("gridcell", n_cells)]
        vdims = ("gridcell",)
        numrecs = 0
        data = rng.standard_normal(n_cells)

    def model():
        m = cdf.CdfModel(variant=cdf.CDF5, dims=list(model_dims))
        m.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, vdims))
        return m

    serial = cdf.write_file(None, model(), {"v": data}, numrecs=numrecs)

    part = partition(n_cells, p, scheme)
    plan = make_plan(part.n_cells, n_agg, buffer_limit)
    buf = io.BytesIO()
    w = cdf.CdfWriter(buf, model(), numrecs=numrecs)
    if record_var:
        for rec in range(numrecs):
            locals_ = [data[rec][c] for c in part.local_lists]
            rearrange_write(locals_, part, plan, w, "v", record=rec)
    else:
        locals_ = [data[c] for c in part.local_lists]
        rearrange_write(locals_, part, plan, w, "v")
    w.close()
    return serial, buf.getvalue()


class TestRearrangeWrite:
    def test_single_rank_single_aggregator_is_serial(self, rng):
        serial, ours = write_pair(100, 1, 1, DEFAULT_BUFFER_LIMIT, BLOCK, rng)
        assert serial == ours

    @pytest.mark.parametrize("n_agg", [1, 2, 4])
    @pytest.mark.parametrize("buffer_limit", [1024, 64 * 2**20])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bit_identical_to_serial(self, n_agg, buffer_limit, scheme, rng):
        serial, ours = write_pair(257, 8, n_agg, buffer_limit, scheme, rng)
        assert serial == ours

    def test_record_variable_path(self, rng):
        serial, ours = write_pair(
            64, 4, 2, 1024, ROUND_ROBIN, rng, record_var=True
        )
        assert serial == ours

    def test_stats_and_csv(self, rng):
        n = 128
        part = partition(n, 4, BLOCK)
        plan = make_plan(n, 2, 1024)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", n)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        data = rng.standard_normal(n)
        stats = rearrange_write([data[c] for c in part.local_lists], part, plan, w, "v")
        w.close()
        assert stats.bytes_written == n * 8
        assert stats.per_aggregator_bytes == [64 * 8, 64 * 8]
        row = stats.csv_row("case1")
        assert row.startswith("case1,v,1024,")
        assert row.endswith(",2,1024")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_write_call_sequence_pinned(self, scheme, rng):
        """Each aggregator's range goes out in buffer-limit chunks, in
        aggregator order, whatever the partition."""
        n, numrecs = 601, 2
        calls = []

        class RecordingWriter(cdf.CdfWriter):
            def write_elements(self, name, start, values, record=None):
                calls.append((start, np.asarray(values).size, record))
                super().write_elements(name, start, values, record=record)

        model = cdf.CdfModel(
            variant=cdf.CDF5, dims=[cdf.Dim("time", 0, True), cdf.Dim("gridcell", n)]
        )
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("time", "gridcell")))
        part = partition(n, 8, scheme)
        plan = make_plan(n, 3, 1024)
        w = RecordingWriter(io.BytesIO(), model, numrecs=numrecs)
        for rec in range(numrecs):
            data = rng.standard_normal(n)
            rearrange_write([data[c] for c in part.local_lists], part, plan, w, "v", record=rec)
        w.close()
        chunks = [(0, 128), (128, 73), (201, 128), (329, 72), (401, 128), (529, 72)]
        assert calls == [(s, k, rec) for rec in range(numrecs) for s, k in chunks]

    def test_rank_count_mismatch_rejected(self, rng):
        n = 16
        part = partition(n, 2, BLOCK)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", n)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        data = rng.standard_normal(n)
        locals_ = [data[c] for c in part.local_lists]
        with pytest.raises(ValueError, match="1 rank arrays for 2 ranks"):
            rearrange_write(locals_[:1], part, make_plan(n, 1), w, "v")

    def test_data_for_an_empty_rank_rejected(self):
        with pytest.warns(UserWarning, match="empty ranks"):
            part = partition(3, 4, ROUND_ROBIN)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", 3)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        locals_ = [np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1)]
        with pytest.raises(ValueError, match="v: rank 3 supplied 1 of 0 elements"):
            rearrange_write(locals_, part, make_plan(3, 1), w, "v")

    @pytest.mark.parametrize("name, dims", [("levels", ("lev", "gridcell")), ("short", ("short",))])
    def test_variable_without_one_value_per_gridcell_rejected(self, name, dims):
        """A (2, n) or an (n - 1,) variable is not a gridcell variable."""
        n = 16
        part = partition(n, 2, BLOCK)
        model = cdf.CdfModel(
            variant=cdf.CDF5,
            dims=[cdf.Dim("lev", 2), cdf.Dim("gridcell", n), cdf.Dim("short", n - 1)],
        )
        model.vars.append(cdf.Var(name, cdf.NcType.FLOAT64, dims))
        w = cdf.CdfWriter(io.BytesIO(), model)
        locals_ = [np.zeros(len(cells)) for cells in part.local_lists]
        with pytest.raises(ValueError, match=rf"^{name}: .* not one per gridcell \(16\)"):
            rearrange_write(locals_, part, make_plan(n, 1), w, name)

    def test_integrity_error_names_offset(self, rng):
        n = 16
        part = partition(n, 2, BLOCK)
        plan = make_plan(n, 1)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", n)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        data = rng.standard_normal(n)
        locals_ = [data[c] for c in part.local_lists]
        locals_[1] = locals_[1][:-1]  # drop one element from rank 1
        with pytest.raises(ValueError, match="offset"):
            rearrange_write(locals_, part, plan, w, "v")
