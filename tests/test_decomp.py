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
    Partition,
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
        # Every cell assigned exactly once.
        all_cells = np.concatenate(part.local_lists)
        assert len(all_cells) == n
        assert len(np.unique(all_cells)) == n
        # Per-rank lists ascending, matching the assignment array.
        for r, cells in enumerate(part.local_lists):
            assert np.all(np.diff(cells) > 0) if len(cells) > 1 else True
            assert np.all(part.assignment[cells] == r)
        counts = np.array([len(l) for l in part.local_lists])
        spread = counts.max() - counts.min()
        if scheme in (ROUND_ROBIN, BLOCK):
            assert spread <= 1
        else:
            assert spread <= b


class TestIoDecomp:
    def test_single_rank_identity(self):
        part = partition(6, 1, BLOCK)
        np.testing.assert_array_equal(IoDecomp(part).gather([np.arange(6.0)]), np.arange(6.0))

    def test_round_robin_flat_example(self):
        part = partition(4, 2, ROUND_ROBIN)
        out = IoDecomp(part).gather([np.array([10, 12]), np.array([11, 13])])
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
        assert np.array_equal(IoDecomp(part).gather([data[c] for c in part.local_lists]), data)

    def test_offsets_partition_the_space(self):
        part = partition(50, 7, BLOCK_ROUND_ROBIN, block_size=4)
        ranks = [np.full(len(cells), r) for r, cells in enumerate(part.local_lists)]
        out = IoDecomp(part).gather(ranks)
        np.testing.assert_array_equal(out, part.assignment)

    @pytest.mark.parametrize("p", [1, 2])
    def test_retains_under_one_byte_per_cell(self, p):
        """The decomposition is the partition's cell lists: it keeps no
        per-rank index array of its own."""
        import tracemalloc

        n = 1_000_000
        part = partition(n, p, ROUND_ROBIN)
        tracemalloc.start()
        try:
            iod = IoDecomp(part)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert iod.total_elements == n
        assert retained < n

    @pytest.mark.parametrize(
        "local_lists, bad",
        [
            ([[0, 1, 2, 3], [3, 4, 5]], 3),  # cell 3 on both ranks
            ([[0, 1], [2, 3, 5]], 4),  # cell 4 on no rank
            ([[0, 1, 2], [3, 4, 6]], 5),  # cell 6 outside the domain, 5 missing
        ],
    )
    def test_rejects_partition_that_misses_or_repeats_a_cell(self, local_lists, bad):
        part = Partition(
            scheme=BLOCK,
            n_cells=6,
            n_ranks=2,
            block_size=None,
            assignment=np.zeros(6, dtype=np.int32),
            local_lists=[np.array(cells) for cells in local_lists],
        )
        with pytest.raises(ValueError, match=rf"exactly once \(first bad offset {bad}\)"):
            IoDecomp(part)


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
        plan = make_plan(10, 2)
        plan.validate(10)
        with pytest.raises(ValueError, match="cover"):
            plan.validate(11)


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
    iod = IoDecomp(part)
    plan = make_plan(iod.total_elements, n_agg, buffer_limit)
    buf = io.BytesIO()
    w = cdf.CdfWriter(buf, model(), numrecs=numrecs)
    if record_var:
        for rec in range(numrecs):
            locals_ = [data[rec][c] for c in part.local_lists]
            rearrange_write(locals_, iod, plan, w, "v", record=rec)
    else:
        locals_ = [data[c] for c in part.local_lists]
        rearrange_write(locals_, iod, plan, w, "v")
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
        iod = IoDecomp(part)
        plan = make_plan(n, 2, 1024)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", n)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        data = rng.standard_normal(n)
        stats = rearrange_write([data[c] for c in part.local_lists], iod, plan, w, "v")
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
        iod = IoDecomp(part)
        plan = make_plan(n, 3, 1024)
        w = RecordingWriter(io.BytesIO(), model, numrecs=numrecs)
        for rec in range(numrecs):
            data = rng.standard_normal(n)
            rearrange_write([data[c] for c in part.local_lists], iod, plan, w, "v", record=rec)
        w.close()
        chunks = [(0, 128), (128, 73), (201, 128), (329, 72), (401, 128), (529, 72)]
        assert calls == [(s, k, rec) for rec in range(numrecs) for s, k in chunks]

    def test_rank_count_mismatch_rejected(self, rng):
        n = 16
        part = partition(n, 2, BLOCK)
        iod = IoDecomp(part)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", n)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        data = rng.standard_normal(n)
        locals_ = [data[c] for c in part.local_lists]
        with pytest.raises(ValueError, match="1 rank arrays for 2 ranks"):
            rearrange_write(locals_[:1], iod, make_plan(n, 1), w, "v")

    def test_data_for_an_empty_rank_rejected(self):
        with pytest.warns(UserWarning, match="empty ranks"):
            part = partition(3, 4, ROUND_ROBIN)
        iod = IoDecomp(part)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", 3)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        locals_ = [np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1)]
        with pytest.raises(ValueError, match="v: rank 3 supplied 1 of 0 elements"):
            rearrange_write(locals_, iod, make_plan(3, 1), w, "v")

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
            rearrange_write(locals_, IoDecomp(part), make_plan(n, 1), w, name)

    def test_integrity_error_names_offset(self, rng):
        n = 16
        part = partition(n, 2, BLOCK)
        iod = IoDecomp(part)
        plan = make_plan(n, 1)
        model = cdf.CdfModel(variant=cdf.CDF5, dims=[cdf.Dim("gridcell", n)])
        model.vars.append(cdf.Var("v", cdf.NcType.FLOAT64, ("gridcell",)))
        w = cdf.CdfWriter(io.BytesIO(), model)
        data = rng.standard_normal(n)
        locals_ = [data[c] for c in part.local_lists]
        locals_[1] = locals_[1][:-1]  # drop one element from rank 1
        with pytest.raises(ValueError, match="offset"):
            rearrange_write(locals_, iod, plan, w, "v")
