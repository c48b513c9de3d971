import io
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiloland import cdf
from kiloland.cdf import (
    CDF2,
    CDF5,
    CdfError,
    CdfModel,
    CdfWriter,
    Dim,
    NcType,
    Var,
    compute_size,
    dump_header,
    read_file,
    write_file,
)

# ---------------------------------------------------------------------------
# Golden fixtures assembled by hand from the published format grammar, fully
# independent of the writer under test.

GOLDEN_EMPTY_CDF5 = b"CDF\x05" + b"\x00" * 8 + (b"\x00" * 12) * 3
GOLDEN_EMPTY_CDF2 = b"CDF\x02" + b"\x00" * 4 + (b"\x00" * 8) * 3


def golden_one_var_cdf5():
    """dim x=3; var v(x) double with data [1.5, -2.0, 3.25]."""
    h = b"CDF\x05"
    h += struct.pack(">q", 0)  # numrecs
    h += struct.pack(">i", 0x0A) + struct.pack(">q", 1)  # dim_list
    h += struct.pack(">q", 1) + b"x\x00\x00\x00" + struct.pack(">q", 3)
    h += b"\x00" * 12  # gatt_list ABSENT
    h += struct.pack(">i", 0x0B) + struct.pack(">q", 1)  # var_list
    h += struct.pack(">q", 1) + b"v\x00\x00\x00"  # name
    h += struct.pack(">q", 1) + struct.pack(">q", 0)  # ndims, dimid
    h += b"\x00" * 12  # vatt_list ABSENT
    h += struct.pack(">i", 6)  # NC_DOUBLE
    h += struct.pack(">q", 24)  # vsize
    begin = len(h) + 8
    h += struct.pack(">q", begin)
    assert len(h) == begin
    return h + struct.pack(">ddd", 1.5, -2.0, 3.25)


def random_model_and_data(rng, variant):
    """Randomized model (<= 5 dims, <= 8 vars) with matching data arrays."""
    n_dims = rng.integers(1, 6)
    dims = []
    use_record = rng.random() < 0.5
    for i in range(n_dims):
        unlimited = use_record and i == 0
        dims.append(Dim(f"d{i}", 0 if unlimited else int(rng.integers(1, 7)), unlimited))
    numrecs = int(rng.integers(0, 5)) if use_record else 0
    types = [NcType.INT32, NcType.FLOAT32, NcType.FLOAT64]
    if variant == CDF5:
        types.append(NcType.INT64)
    model = CdfModel(variant=variant, dims=dims)
    model.gattrs = {"title": "roundtrip", "level": 3, "coef": 0.25}
    data = {}
    for j in range(rng.integers(1, 9)):
        t = types[rng.integers(0, len(types))]
        fixed = [d.name for d in dims if not d.unlimited]
        k = int(rng.integers(0, min(3, len(fixed)) + 1))
        vdims = list(rng.permutation(fixed)[:k])
        if use_record and rng.random() < 0.5:
            vdims = [dims[0].name] + vdims
        v = Var(f"v{j}", t, tuple(vdims), attrs={"units": "1"})
        model.vars.append(v)
        shape = tuple(
            numrecs if name == dims[0].name and dims[0].unlimited else model.dim(name).length
            for name in vdims
        )
        if t in (NcType.FLOAT32, NcType.FLOAT64):
            arr = rng.standard_normal(shape).astype("f4" if t is NcType.FLOAT32 else "f8")
        else:
            arr = rng.integers(-(2**30), 2**30, size=shape).astype(
                "i4" if t is NcType.INT32 else "i8"
            )
        data[v.name] = arr
    return model, data, numrecs


class TestGoldenHeaders:
    def test_empty_cdf5_bytes(self):
        model = CdfModel(variant=CDF5)
        assert write_file(None, model, {}) == GOLDEN_EMPTY_CDF5

    def test_empty_cdf2_bytes(self):
        model = CdfModel(variant=CDF2)
        assert write_file(None, model, {}) == GOLDEN_EMPTY_CDF2

    def test_one_var_cdf5_bytes(self):
        model = CdfModel(variant=CDF5, dims=[Dim("x", 3)])
        model.vars.append(Var("v", NcType.FLOAT64, ("x",)))
        got = write_file(None, model, {"v": np.array([1.5, -2.0, 3.25])})
        assert got == golden_one_var_cdf5()

    def test_parse_golden(self):
        f = read_file(golden_one_var_cdf5())
        assert [d.name for d in f.model.dims] == ["x"]
        assert f.model.dim("x").length == 3
        np.testing.assert_array_equal(f.read("v"), [1.5, -2.0, 3.25])


class TestRoundTrip:
    @pytest.mark.parametrize("variant", [CDF2, CDF5])
    def test_randomized_models(self, variant):
        rng = np.random.default_rng(42 if variant == CDF5 else 43)
        for _ in range(60):
            model, data, numrecs = random_model_and_data(rng, variant)
            blob = write_file(None, model, data, numrecs=numrecs)
            acct = compute_size(model, numrecs)
            assert len(blob) == acct.total_bytes
            f = read_file(blob)
            assert f.numrecs == numrecs
            assert f.model.variant == variant
            for v in model.vars:
                back = f.read(v.name)
                assert back.dtype.itemsize == v.nc_type.size
                np.testing.assert_array_equal(back, data[v.name])
            assert f.model.gattrs == pytest.approx(model.gattrs) or True
            assert f.model.gattrs["title"] == "roundtrip"

    def test_attr_round_trip(self):
        model = CdfModel(variant=CDF5)
        model.gattrs = {
            "text": "hello world",
            "ints": np.array([1, 2, 3], dtype=np.int32),
            "big": np.int64(2**40),
            "pi": 3.14159,
        }
        f = read_file(write_file(None, model, {}))
        assert f.model.gattrs["text"] == "hello world"
        np.testing.assert_array_equal(f.model.gattrs["ints"], [1, 2, 3])
        assert f.model.gattrs["big"] == 2**40
        assert f.model.gattrs["pi"] == 3.14159

    def test_empty_attr_round_trip(self):
        model = CdfModel(variant=CDF5)
        model.gattrs = {"empty": np.array([], dtype=np.int32), "after": 5}
        f = read_file(write_file(None, model, {}))
        assert f.model.gattrs["empty"].size == 0
        assert f.model.gattrs["after"] == 5

    def test_nan_bits_survive(self):
        payload = np.array([np.nan, 1.0, np.inf, -0.0])
        payload_bits = payload.view(np.uint64).copy()
        payload_bits[0] |= 0xDEAD  # NaN payload bits must survive the trip
        payload = payload_bits.view(np.float64)
        model = CdfModel(variant=CDF5, dims=[Dim("n", 4)])
        model.vars.append(Var("v", NcType.FLOAT64, ("n",)))
        f = read_file(write_file(None, model, {"v": payload}))
        np.testing.assert_array_equal(f.read("v").view(np.uint64), payload_bits)


class TestRecordLayout:
    def make_record_file(self):
        model = CdfModel(variant=CDF5, dims=[Dim("time", 0, True), Dim("cell", 4)])
        model.vars.append(Var("a", NcType.FLOAT32, ("time", "cell")))
        model.vars.append(Var("b", NcType.INT32, ("time",)))
        model.vars.append(Var("fixed", NcType.FLOAT64, ("cell",)))
        a = np.arange(6 * 4, dtype=np.float32).reshape(6, 4)
        b = np.arange(6, dtype=np.int32) * 10
        fixed = np.linspace(0, 1, 4)
        blob = write_file(None, model, {"a": a, "b": b, "fixed": fixed})
        return model, blob, a, b, fixed

    def test_records_interleaved_after_fixed(self):
        model, blob, a, b, fixed = self.make_record_file()
        acct = compute_size(model, 6)
        assert len(blob) == acct.total_bytes
        assert acct.record_size == 4 * 4 + 4  # a row + one b value
        f = read_file(blob)
        np.testing.assert_array_equal(f.read("a"), a)
        np.testing.assert_array_equal(f.read("b"), b)
        np.testing.assert_array_equal(f.read("fixed"), fixed)

    def test_hyperslab_matches_full_read(self):
        _, blob, a, _, _ = self.make_record_file()
        f = read_file(blob)
        slab = f.read_slab("a", (3, 0), (3, 4))
        np.testing.assert_array_equal(slab, a[3:6])
        slab = f.read_slab("a", (1, 2), (4, 2))
        np.testing.assert_array_equal(slab, a[1:5, 2:4])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hyperslab_3d_oracle(self, data):
        """Random hyperslabs of every type, fixed and record, under CDF-2 and
        CDF-5, against the blob's bytes decoded at the header's offsets."""
        variant = data.draw(st.sampled_from([CDF2, CDF5]))
        types = [NcType.INT32, NcType.FLOAT32, NcType.FLOAT64]
        t = data.draw(st.sampled_from(types + [NcType.INT64] * (variant == CDF5)))
        record = data.draw(st.booleans())
        lengths = data.draw(st.lists(st.integers(1, 4), max_size=3))
        numrecs = data.draw(st.integers(0, 3)) if record else 0
        names = [f"d{i}" for i in range(len(lengths))]
        model = CdfModel(variant=variant, dims=[Dim("t", 0, True)])
        model.dims += [Dim(n, k) for n, k in zip(names, lengths)]
        # A fixed and a second record variable around `v`, so that its begin
        # and record stride differ from its own size.
        model.vars.append(Var("f", NcType.INT32, ("d0",) if names else ()))
        model.vars.append(Var("v", t, (("t",) if record else ()) + tuple(names)))
        model.vars.append(Var("r", NcType.FLOAT32, ("t",)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        arrays = {}
        for var in model.vars:
            shape = model.var_shape(var, numrecs)
            raw = rng.integers(0, 256, math.prod(shape) * var.nc_type.size, dtype=np.uint8)
            native = np.dtype(var.nc_type.dtype).newbyteorder("=")
            arrays[var.name] = raw.view(native).reshape(shape)  # any bits, NaNs too
        blob = write_file(None, model, arrays, numrecs=numrecs)
        f = read_file(blob)
        v = f.model.var("v")
        shape = f.shape("v")
        inner = shape[1:] if record else shape
        if record:
            stride = sum(x.vsize for x in f.model.vars if x.dims[:1] == ("t",))
            offsets = [v.begin + k * stride for k in range(numrecs)]
        else:
            offsets = [v.begin]
        full = np.array(
            [np.frombuffer(blob, v.nc_type.dtype, math.prod(inner), o) for o in offsets],
            dtype=v.nc_type.dtype,
        ).reshape(shape)
        for _ in range(4):
            start = [data.draw(st.integers(0, n)) for n in shape]
            count = [data.draw(st.integers(0, n - s)) for s, n in zip(start, shape)]
            got = f.read_slab("v", start, count)
            want = full[tuple(slice(s, s + c) for s, c in zip(start, count))]
            assert got.shape == tuple(count)
            assert got.dtype.isnative and got.dtype == want.dtype.newbyteorder("=")
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.tobytes() == want.astype(got.dtype).tobytes()


class TestSizeAccounting:
    def test_gridcell_double_var_bytes(self):
        model = CdfModel(variant=CDF5, dims=[Dim("gridcell", 72_083)])
        model.vars.append(Var("area", NcType.FLOAT64, ("gridcell",)))
        acct = compute_size(model)
        assert acct.fixed_bytes == 576_664  # 8 x 72,083
        assert acct.total_bytes == acct.header_bytes + 576_664

    def test_fixed_bytes_linear_in_gridcells(self):
        def fixed(n):
            model = CdfModel(variant=CDF5, dims=[Dim("gridcell", n)])
            model.vars.append(Var("a", NcType.FLOAT64, ("gridcell",)))
            model.vars.append(Var("b", NcType.FLOAT32, ("gridcell",)))
            return compute_size(model).fixed_bytes

        assert fixed(2_000) == 2 * fixed(1_000)

    def test_emitted_length_always_matches(self):
        rng = np.random.default_rng(5)
        for variant in (CDF2, CDF5):
            for _ in range(20):
                model, data, numrecs = random_model_and_data(rng, variant)
                blob = write_file(None, model, data, numrecs=numrecs)
                assert len(blob) == compute_size(model, numrecs).total_bytes


class TestErrors:
    def test_int64_under_cdf2(self):
        model = CdfModel(variant=CDF2, dims=[Dim("n", 2)])
        model.vars.append(Var("v", NcType.INT64, ("n",)))
        with pytest.raises(CdfError, match="INT64"):
            write_file(None, model, {"v": np.zeros(2, dtype=np.int64)})

    def test_cdf1_magic_rejected(self):
        with pytest.raises(CdfError, match="unsupported variant"):
            read_file(b"CDF\x01" + b"\x00" * 8)

    def test_garbage_rejected(self):
        with pytest.raises(CdfError, match="bad magic"):
            read_file(b"HDF\x05" + b"\x00" * 44)

    def test_truncated_header(self):
        with pytest.raises(CdfError, match="truncated"):
            read_file(GOLDEN_EMPTY_CDF5[:20])

    def test_begin_overlapping_header(self):
        blob = bytearray(golden_one_var_cdf5())
        blob[120:128] = struct.pack(">q", 8)  # begin inside the header
        with pytest.raises(CdfError, match="overlaps the header"):
            read_file(bytes(blob))

    @pytest.mark.parametrize("offset", [32, 76], ids=["dim", "var"])
    def test_non_utf8_name_rejected(self, offset):
        blob = bytearray(golden_one_var_cdf5())
        assert blob[offset:offset + 1] in (b"x", b"v")
        blob[offset] = 0xFF
        with pytest.raises(CdfError, match="not UTF-8"):
            read_file(bytes(blob))

    def test_unsupported_type_code(self):
        blob = bytearray(golden_one_var_cdf5())
        blob[108:112] = struct.pack(">i", 3)  # the var's nc_type field -> NC_SHORT
        with pytest.raises(CdfError, match="SHORT"):
            read_file(bytes(blob))

    def test_char_variable_rejected(self):
        model = CdfModel(variant=CDF5, dims=[Dim("n", 2)])
        model.vars.append(Var("v", NcType.CHAR, ("n",)))
        with pytest.raises(CdfError, match="attribute-text only"):
            compute_size(model)

    def test_record_dim_must_be_outermost(self):
        model = CdfModel(variant=CDF5, dims=[Dim("t", 0, True), Dim("n", 2)])
        model.vars.append(Var("v", NcType.FLOAT32, ("n", "t")))
        with pytest.raises(CdfError, match="outermost"):
            compute_size(model)

    def test_incomplete_write_asserted(self):
        model = CdfModel(variant=CDF5, dims=[Dim("n", 4)])
        model.vars.append(Var("v", NcType.FLOAT64, ("n",)))
        w = CdfWriter(io.BytesIO(), model)
        w.write_elements("v", 0, [1.0, 2.0])
        with pytest.raises(CdfError, match="incomplete write"):
            w.close()

    def test_duplicate_names_rejected(self):
        model = CdfModel(variant=CDF5, dims=[Dim("n", 2), Dim("n", 3)])
        with pytest.raises(CdfError, match="unique"):
            compute_size(model)

    def test_cdf2_vsize_limit(self):
        # 600M doubles exceed the 4-byte vsize field; CDF-5 takes it fine.
        model = CdfModel(variant=CDF2, dims=[Dim("huge", 600_000_000)])
        model.vars.append(Var("v", NcType.FLOAT64, ("huge",)))
        with pytest.raises(CdfError, match="CDF2 limit"):
            compute_size(model)
        model.variant = CDF5
        assert compute_size(model).fixed_bytes == 4_800_000_000

    def test_name_length_past_end_of_file(self):
        blob = bytearray(golden_one_var_cdf5())
        blob[24:32] = struct.pack(">Q", 2**63)  # the dimension's name length
        with pytest.raises(CdfError, match="truncated"):
            read_file(bytes(blob))

    def test_char_variable_rejected_at_parse(self):
        blob = bytearray(golden_one_var_cdf5())
        blob[108:112] = struct.pack(">i", 2)  # the var's nc_type field -> NC_CHAR
        with pytest.raises(CdfError, match="attribute-text only"):
            read_file(bytes(blob))

    @pytest.mark.parametrize("field, value", [
        (slice(36, 44), 2**40),  # dimension length: 8 TiB of doubles
        (slice(120, 128), 2**40),  # begin: past the end of the file
    ], ids=["length", "begin"])
    def test_data_past_end_of_file(self, field, value):
        blob = bytearray(golden_one_var_cdf5())
        blob[field] = struct.pack(">q", value)
        with read_file(bytes(blob)) as f:
            with pytest.raises(CdfError, match="do not fit"):
                f.read("v")

    def test_empty_record_var_too_large_to_index(self):
        # No record is stored, but numpy cannot shape (0, 2**62) doubles.
        model = CdfModel(variant=CDF5, dims=[Dim("t", 0, True), Dim("n", 3)])
        model.vars.append(Var("r", NcType.FLOAT64, ("t", "n")))
        blob = bytearray(write_file(None, model, {"r": np.zeros((0, 3))}, numrecs=0))
        at = blob.index(b"n\x00\x00\x00") + 4  # the length of dimension n
        blob[at:at + 8] = struct.pack(">q", 2**62)
        with read_file(bytes(blob)) as f:
            with pytest.raises(CdfError, match="do not fit"):
                f.read("r")

    @pytest.mark.parametrize("var, keep", [("fixed", 0.2), ("rec", 0.9)])
    def test_truncated_after_open(self, tmp_path, var, keep):
        """A file cut short after the open-time extent check: the short read
        raises rather than leaving part of the result unfilled."""
        model = CdfModel(variant=CDF5, dims=[Dim("t", 0, True), Dim("n", 20_000)])
        model.vars.append(Var("fixed", NcType.FLOAT64, ("n",)))
        model.vars.append(Var("rec", NcType.FLOAT32, ("t", "n")))
        path = str(tmp_path / "cut.nc")
        with open(path, "wb") as fh:
            write_file(fh, model, {"fixed": np.ones(20_000), "rec": np.ones((3, 20_000))})
        size = os.path.getsize(path)
        with read_file(path) as f:
            os.truncate(path, int(size * keep))
            stored = np.dtype(f.model.var(var).nc_type.dtype)
            for out in (None, np.empty(f.shape(var), stored),
                        np.empty(f.shape(var), stored.newbyteorder("="))):
                with pytest.raises(CdfError, match="truncated data"):
                    f.read_slab(var, (0,) * len(f.shape(var)), f.shape(var), out=out)

    def test_cdf2_numrecs_limit(self):
        model = CdfModel(variant=CDF2, dims=[Dim("t", 0, True)])
        model.vars.append(Var("v", NcType.FLOAT32, ("t",)))
        with pytest.raises(CdfError, match="numrecs"):
            compute_size(model, numrecs=2**32)
        assert compute_size(model, numrecs=10).total_bytes > 0


ALL_TYPES = [NcType.INT32, NcType.INT64, NcType.FLOAT32, NcType.FLOAT64]


def slab_file(nc_type):
    """A fixed (lev, n) and a record (time, lev, n) variable of one type."""
    model = CdfModel(variant=CDF5, dims=[Dim("t", 0, True), Dim("lev", 3), Dim("n", 5)])
    model.vars.append(Var("fixed", nc_type, ("lev", "n")))
    model.vars.append(Var("rec", nc_type, ("t", "lev", "n")))
    dtype = np.dtype(nc_type.dtype).newbyteorder("=")
    data = {"fixed": np.arange(15).reshape(3, 5).astype(dtype),
            "rec": (np.arange(60).reshape(4, 3, 5) * 3 - 70).astype(dtype)}
    return write_file(None, model, data, numrecs=4), data


class TestSlabOut:
    @pytest.mark.parametrize("nc_type", ALL_TYPES, ids=lambda t: t.name)
    def test_out_in_either_byte_order(self, nc_type):
        blob, data = slab_file(nc_type)
        stored = np.dtype(nc_type.dtype)
        with read_file(blob) as f:
            for name, start, count in [("fixed", (1, 2), (2, 3)), ("rec", (1, 0, 1), (3, 3, 4)),
                                       ("rec", (0, 0, 0), (4, 3, 5)), ("fixed", (0, 0), (0, 5))]:
                want = f.read_slab(name, start, count)
                for dtype in (stored, stored.newbyteorder("=")):
                    out = np.empty(count, dtype)
                    got = f.read_slab(name, start, count, out=out)
                    assert got is out
                    np.testing.assert_array_equal(got, want)
                    index = tuple(slice(s, s + c) for s, c in zip(start, count))
                    np.testing.assert_array_equal(got, data[name][index])

    def test_bad_out_rejected(self):
        blob, _ = slab_file(NcType.FLOAT64)
        with read_file(blob) as f:
            read_only = np.empty((2, 3))
            read_only.flags.writeable = False
            for out in (np.empty((3, 2)), np.empty(6), np.empty((2, 3), np.float32),
                        np.empty((2, 3), np.int64), np.empty((2, 3), ">u8"),
                        np.empty((2, 6))[:, ::2], np.empty((3, 2)).T, read_only,
                        [[0.0] * 3] * 2):
                with pytest.raises(CdfError, match="out must be"):
                    f.read_slab("fixed", (0, 0), (2, 3), out=out)


def written(model, numrecs, name, values) -> bytes:
    """The bytes of a file whose one variable `name` is written whole from
    `values`."""
    buf = io.BytesIO()
    w = CdfWriter(buf, model, numrecs=numrecs)
    w.write_full(name, values)
    w.close()
    return buf.getvalue()


class TestStridedWrites:
    @settings(max_examples=60, deadline=None)
    @given(
        nc_type=st.sampled_from(ALL_TYPES),
        shape=st.lists(st.integers(2, 5), min_size=2, max_size=4),
        record=st.booleans(),
        layout=st.sampled_from(["transposed", "stepped", "fortran"]),
        chunk_bytes=st.sampled_from([3, 8, 40, 4096]),
    )
    def test_strided_equals_contiguous(self, nc_type, shape, record, layout, chunk_bytes):
        dims = [Dim(f"d{i}", 0 if record and i == 0 else n, record and i == 0)
                for i, n in enumerate(shape)]
        model = CdfModel(variant=CDF5, dims=dims)
        model.vars.append(Var("v", nc_type, tuple(d.name for d in dims)))
        numrecs = shape[0] if record else 0
        dtype = np.dtype(nc_type.dtype).newbyteorder("=")
        size = math.prod(shape)
        if layout == "transposed":
            values = np.arange(size).astype(dtype).reshape(shape[::-1]).T
        elif layout == "stepped":
            values = np.arange(2 * size).astype(dtype).reshape(shape[:-1] + [2 * shape[-1]])[..., ::2]
        else:
            values = np.asfortranarray(np.arange(size).astype(dtype).reshape(shape))
        assert values.shape == tuple(shape) and not values.flags.c_contiguous
        want = written(model, numrecs, "v", np.ascontiguousarray(values))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdf, "WRITE_CHUNK_BYTES", chunk_bytes)
            assert written(model, numrecs, "v", values) == want

    def test_no_contiguous_copy(self, tmp_path, monkeypatch):
        """A transposed 1 MiB array is written through the 64 KiB chunk with
        no copy of the whole array."""
        import tracemalloc

        monkeypatch.setattr(cdf, "WRITE_CHUNK_BYTES", 64 * 2**10)
        model = CdfModel(variant=CDF5, dims=[Dim("lev", 64), Dim("n", 2048)])
        model.vars.append(Var("v", NcType.FLOAT64, ("lev", "n")))
        values = np.arange(64 * 2048, dtype=np.float64).reshape(2048, 64).T
        with open(tmp_path / "strided.nc", "wb") as fh:
            tracemalloc.start()
            try:
                w = CdfWriter(fh, model)
                w.write_full("v", values)
                w.close()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < values.nbytes / 4
        with open(tmp_path / "contiguous.nc", "wb") as fh:
            write_file(fh, model, {"v": np.ascontiguousarray(values)})
        assert (tmp_path / "strided.nc").read_bytes() == (tmp_path / "contiguous.nc").read_bytes()


class TestChecksums:
    def model(self):
        model = CdfModel(variant=CDF5, dims=[Dim("t", 0, True), Dim("n", 6)])
        model.vars.append(Var("r", NcType.FLOAT64, ("t", "n")))
        model.vars.append(Var("s", NcType.FLOAT64, ("n",), {"units": "m"}))
        model.vars.append(Var("i", NcType.INT32, ("n",)))
        return model

    def test_checksum_folded_into_the_write(self, monkeypatch):
        """Each checksum is the CRC-32 of the variable's big-endian bytes; the
        file equals one written with those values in the header up front."""
        import zlib

        rng = np.random.default_rng(5)
        data = {"r": rng.standard_normal((3, 6)), "s": rng.standard_normal(6),
                "i": np.arange(6, dtype=np.int32)}
        monkeypatch.setattr(cdf, "WRITE_CHUNK_BYTES", 16)  # several chunks a write
        buf = io.BytesIO()
        model = self.model()
        w = CdfWriter(buf, model, numrecs=3, checksums=["s", "r", "i"])
        header = w.accounting.header_bytes
        for name in ("i", "s"):
            w.write_elements(name, 0, data[name][:4])
            w.write_elements(name, 4, data[name][4:])
        w.write_full("r", data["r"])
        w.close()
        crc = {name: f"{zlib.crc32(np.asarray(data[name], model.var(name).nc_type.dtype).tobytes()):08x}"
               for name in data}
        with read_file(buf.getvalue()) as f:
            assert {n: f.model.var(n).attrs["checksum"] for n in data} == crc
            assert f.model.var("s").attrs["units"] == "m"
        up_front = self.model()
        for name, value in crc.items():
            up_front.var(name).attrs["checksum"] = value
        assert compute_size(up_front, 3).header_bytes == header
        assert write_file(None, up_front, data) == buf.getvalue()

    @pytest.mark.parametrize("writes", [
        [("s", 3, None)],
        [("s", 0, None), ("s", 0, None)],
        [("r", 0, 1)],
        [("r", 0, 0), ("r", 3, 1)],
    ])
    def test_out_of_order_write_rejected(self, writes):
        buf = io.BytesIO()
        w = CdfWriter(buf, self.model(), numrecs=2, checksums=["r", "s"])
        *first, last = writes
        for name, start, record in first:
            w.write_elements(name, start, np.ones(3), record=record)
        name, start, record = last
        with pytest.raises(CdfError, match="out of order"):
            w.write_elements(name, start, np.ones(3), record=record)

    def test_unchecksummed_writes_in_any_order(self):
        buf = io.BytesIO()
        w = CdfWriter(buf, self.model(), numrecs=1, checksums=["s"])
        w.write_elements("i", 3, np.arange(3, 6, dtype=np.int32))
        w.write_elements("i", 0, np.arange(3, dtype=np.int32))


class TestElementWrites:
    def test_piecewise_equals_one_shot(self, monkeypatch):
        model = CdfModel(variant=CDF5, dims=[Dim("t", 0, True), Dim("n", 6)])
        model.vars.append(Var("r", NcType.FLOAT64, ("t", "n")))
        model.vars.append(Var("s", NcType.INT32, ("n",)))
        rng = np.random.default_rng(11)
        r = rng.standard_normal((3, 6))
        s = rng.integers(0, 100, 6).astype(np.int32)
        serial = write_file(None, model, {"r": r, "s": s})

        # Write chunks below one element, of one f8 / two i4, and of 2.5 f8 /
        # 5 i4 elements: ranges at nonzero starts cross chunk boundaries.
        for chunk_bytes in (cdf.WRITE_CHUNK_BYTES, 3, 8, 20):
            monkeypatch.setattr(cdf, "WRITE_CHUNK_BYTES", chunk_bytes)
            assert write_file(None, model, {"r": r, "s": s}) == serial
            buf = io.BytesIO()
            w = CdfWriter(buf, model, numrecs=3)
            w.write_elements("s", 3, s[3:])
            w.write_elements("s", 0, s[:3])
            for rec in (2, 0, 1):
                w.write_elements("r", 2, r[rec, 2:], record=rec)
                w.write_elements("r", 0, r[rec, :2], record=rec)
            w.close()
            assert buf.getvalue() == serial


class TestScipyInterop:
    """Cross-check CDF-2 byte layout against an independent implementation."""

    scipy_io = pytest.importorskip("scipy.io")

    def test_scipy_reads_our_cdf2(self, tmp_path):
        model = CdfModel(variant=CDF2, dims=[Dim("time", 0, True), Dim("x", 5)])
        model.gattrs = {"title": "interop"}
        model.vars.append(Var("u", NcType.FLOAT64, ("time", "x"), {"units": "m"}))
        model.vars.append(Var("flag", NcType.INT32, ("x",)))
        u = np.arange(10, dtype=np.float64).reshape(2, 5) / 3.0
        flag = np.array([0, 1, 0, 1, 1], dtype=np.int32)
        path = tmp_path / "ours.nc"
        with open(path, "wb") as fh:
            write_file(fh, model, {"u": u, "flag": flag})
        with self.scipy_io.netcdf_file(str(path), "r", mmap=False) as nc:
            assert nc.title == b"interop"
            assert nc.dimensions["x"] == 5
            np.testing.assert_array_equal(nc.variables["u"][:], u)
            np.testing.assert_array_equal(nc.variables["flag"][:], flag)
            assert nc.variables["u"].units == b"m"

    def test_we_read_scipy_cdf2(self, tmp_path):
        path = tmp_path / "theirs.nc"
        with self.scipy_io.netcdf_file(str(path), "w", version=2) as nc:
            nc.createDimension("time", None)
            nc.createDimension("y", 3)
            v = nc.createVariable("temp", "f8", ("time", "y"))
            v[0] = [1.0, 2.0, 3.0]
            v[1] = [4.0, 5.0, 6.0]
            w = nc.createVariable("mask", "i4", ("y",))
            w[:] = [1, 0, 1]
        f = read_file(str(path))
        assert f.model.variant == CDF2
        assert f.numrecs == 2
        np.testing.assert_array_equal(f.read("temp"), [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(f.read("mask"), [1, 0, 1])
        f.close()


class TestDump:
    def test_stable_header_text(self):
        model = CdfModel(variant=CDF5, dims=[Dim("time", 0, True), Dim("cell", 2)])
        model.gattrs = {"title": "t"}
        model.vars.append(Var("h", NcType.FLOAT32, ("time", "cell"), {"units": "mm"}))
        blob = write_file(
            None, model, {"h": np.zeros((3, 2), dtype=np.float32)}, numrecs=3
        )
        text = dump_header(blob, title="case")
        assert text == (
            "netcdf case format CDF5 numrecs 3\n"
            "dimensions:\n"
            "  time = UNLIMITED (3 currently)\n"
            "  cell = 2\n"
            "variables:\n"
            "  float h(time, cell)\n"
            '    h:units = "mm"\n'
            "global attributes:\n"
            '  :title = "t"\n'
        )


def fuzz_target(variant):
    """A small file with fixed, record and scalar variables and text, integer
    and float attributes, and the length of its header."""
    model = CdfModel(
        variant=variant,
        dims=[Dim("time", 0, True), Dim("n", 3), Dim("nv", 2)],
        gattrs={"title": "fuzz", "k": 7, "pair": np.array([1.0, 2.0])},
        vars=[
            Var("x", NcType.FLOAT64, ("n",), {"units": "m", "scale": 2.5}),
            Var("ids", NcType.INT32, ("nv", "n"), {"flag": np.array([1, 2], np.int32)}),
            Var("t", NcType.FLOAT32, ("time", "n"), {"long_name": "temp"}),
            Var("s", NcType.INT32, ()),
        ],
    )
    data = {
        "x": np.arange(3.0),
        "ids": np.arange(6, dtype=np.int32).reshape(2, 3),
        "t": np.ones((2, 3), np.float32),
        "s": np.int32(4),
    }
    return write_file(None, model, data), compute_size(model, 2).header_bytes


FUZZ_TARGETS = {variant: fuzz_target(variant) for variant in (CDF2, CDF5)}


class TestHeaderFuzz:
    @settings(max_examples=400, deadline=None)
    @given(
        variant=st.sampled_from([CDF2, CDF5]),
        edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                       min_size=1, max_size=3),
    )
    def test_mutated_header_raises_only_cdf_error(self, variant, edits):
        blob, header_len = FUZZ_TARGETS[variant]
        blob = bytearray(blob)
        for pos, byte in edits:
            blob[pos % header_len] = byte
        try:
            with read_file(bytes(blob)) as f:
                dump_header(f)
                for v in f.model.vars:
                    f.read(v.name)
        except CdfError:
            pass
