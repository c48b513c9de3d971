import math
import os
import tempfile
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiloland import cdf, compare
from kiloland.cli import main
from kiloland.compare import (
    check_replication,
    compare_files,
    files_bit_identical,
)


def write_sample(path, values, extra_fixed=None, n_cells=16, numrecs=2):
    """Small history-like file: record vars over (time, gridcell)."""
    model = cdf.CdfModel(variant=cdf.CDF5)
    model.dims = [cdf.Dim("time", 0, True), cdf.Dim("gridcell", n_cells)]
    data = {}
    for name, arr in values.items():
        model.vars.append(cdf.Var(name, cdf.NcType.FLOAT32, ("time", "gridcell")))
        data[name] = arr
    for name, arr in (extra_fixed or {}).items():
        model.vars.append(cdf.Var(name, cdf.NcType.FLOAT64, ("gridcell",)))
        data[name] = arr
    with open(path, "wb") as fh:
        cdf.write_file(fh, model, data, numrecs=numrecs)
    return path


@pytest.fixture()
def sample(tmp_path, rng):
    values = {
        "TLAI": rng.standard_normal((2, 16)).astype(np.float32),
        "TSOI": (270 + rng.standard_normal((2, 16))).astype(np.float32),
    }
    fixed = {"area": rng.uniform(0.5, 2.0, 16)}
    path = write_sample(str(tmp_path / "a.nc"), values, fixed)
    return path, values, fixed, tmp_path, rng


class TestCompareFiles:
    def test_file_vs_itself_identical(self, sample):
        path = sample[0]
        report = compare_files(path, path)
        assert report.verdict == "identical"
        assert not report.vars_only_in_a and not report.vars_only_in_b
        assert all(d.n_differing == 0 for d in report.per_var.values())

    def test_one_ulp_perturbation(self, sample):
        path, values, fixed, tmp_path, _ = sample
        v2 = {k: v.copy() for k, v in values.items()}
        v2["TLAI"][1, 7] = np.nextafter(v2["TLAI"][1, 7], np.float32(np.inf))
        other = write_sample(str(tmp_path / "b.nc"), v2, fixed)
        bit = compare_files(path, other, tol="bit_exact")
        assert bit.verdict == "different"
        assert bit.per_var["TLAI"].n_differing == 1
        assert bit.per_var["TLAI"].first_diff_index == 16 + 7
        rel = compare_files(path, other, tol=("rel", 1e-6))
        assert rel.verdict == "within_tolerance"
        assert rel.per_var["TLAI"].n_differing == 0
        assert rel.per_var["TLAI"].n_bit_differing == 1

    def test_missing_variable_flagged(self, sample):
        path, values, fixed, tmp_path, _ = sample
        v2 = {k: v for k, v in values.items() if k != "TLAI"}
        other = write_sample(str(tmp_path / "c.nc"), v2, fixed)
        report = compare_files(path, other)
        assert report.vars_only_in_a == ["TLAI"]
        assert report.verdict == "different"

    def test_nan_equal_bits_identical(self, tmp_path, rng):
        arr = rng.standard_normal((2, 16)).astype(np.float32)
        arr[0, 3] = np.nan
        a = write_sample(str(tmp_path / "n1.nc"), {"v": arr})
        b = write_sample(str(tmp_path / "n2.nc"), {"v": arr.copy()})
        assert compare_files(a, b, tol="bit_exact").verdict == "identical"

    def test_nan_mismatch_flagged_in_tolerance_mode(self, tmp_path, rng):
        arr = rng.standard_normal((2, 16)).astype(np.float32)
        arr2 = arr.copy()
        arr2[1, 2] = np.nan
        a = write_sample(str(tmp_path / "m1.nc"), {"v": arr})
        b = write_sample(str(tmp_path / "m2.nc"), {"v": arr2})
        report = compare_files(a, b, tol=("rel", 1.0))
        assert report.verdict == "different"
        assert report.per_var["v"].n_differing == 1

    def test_abs_tolerance(self, tmp_path, rng):
        arr = rng.standard_normal((2, 16)).astype(np.float32)
        arr2 = arr + np.float32(1e-4)
        a = write_sample(str(tmp_path / "t1.nc"), {"v": arr})
        b = write_sample(str(tmp_path / "t2.nc"), {"v": arr2})
        assert compare_files(a, b, tol=("abs", 1e-3)).verdict == "within_tolerance"
        assert compare_files(a, b, tol=("abs", 1e-6)).verdict == "different"

    def test_shape_mismatch(self, tmp_path, rng):
        a = write_sample(str(tmp_path / "s1.nc"), {"v": rng.standard_normal((2, 16)).astype(np.float32)})
        b = write_sample(str(tmp_path / "s2.nc"), {"v": rng.standard_normal((3, 16)).astype(np.float32)}, numrecs=3)
        report = compare_files(a, b)
        assert report.verdict == "different"
        assert report.per_var["v"].shape_mismatch

    def test_symmetry_of_verdict(self, sample):
        path, values, fixed, tmp_path, rng = sample
        v2 = {k: v.copy() for k, v in values.items()}
        v2["TSOI"][0, 0] += np.float32(1.0)
        other = write_sample(str(tmp_path / "sym.nc"), v2, fixed)
        assert (
            compare_files(path, other, tol="bit_exact").verdict
            == compare_files(other, path, tol="bit_exact").verdict
        )

    def test_bad_tolerance_spec(self, sample):
        with pytest.raises(ValueError, match="tol"):
            compare_files(sample[0], sample[0], tol="close_enough")

    @pytest.mark.parametrize("tol", ["abs:nan", "rel:nan", "abs:-1", "rel:-1e-9", "abs:", "near:1"])
    @pytest.mark.parametrize("entry", ["cli", "text", "pair"])
    def test_tolerance_needs_non_negative_eps(self, tmp_path, capsys, tol, entry):
        a = write_sample(str(tmp_path / "a.nc"), {"v": np.arange(4.0).reshape(1, 4)},
                         n_cells=4, numrecs=1)
        a2 = write_sample(str(tmp_path / "a2.nc"), {"v": np.arange(4.0).reshape(1, 4)},
                          n_cells=4, numrecs=1)
        b = write_sample(str(tmp_path / "b.nc"),
                         {"v": np.arange(4.0).reshape(1, 4) * 1000 + 7}, n_cells=4, numrecs=1)
        kind, _, eps = tol.partition(":")
        for other in (a2, b):
            if entry == "cli":
                assert main(["compare", a, other, "--tol", tol]) == 1
                out, err = capsys.readouterr()
                assert out == "" and err.count("\n") == 1
                assert err.startswith("error: tol must be 'bit_exact', 'abs:<eps>', 'rel:<eps>'")
            else:
                with pytest.raises(ValueError, match="eps >= 0"):
                    compare_files(a, other, tol if entry == "text" else (kind, eps))

    def test_tolerance_text_equals_pair(self, sample):
        path, values, fixed, tmp_path, _ = sample
        v2 = {k: v + np.float32(1e-4) for k, v in values.items()}
        other = write_sample(str(tmp_path / "e.nc"), v2, fixed)
        for text, pair in [("abs:1e-3", ("abs", 1e-3)), ("rel:1e-9", ("rel", 1e-9))]:
            got = compare_files(path, other, text)
            assert asdict(got) == asdict(compare_files(path, other, pair))
        assert got.verdict == "different"
        assert compare_files(path, other, "abs:1e-3").verdict == "within_tolerance"
        assert compare_files(path, other, "rel:inf").verdict == "within_tolerance"

    def test_text_and_csv_outputs(self, sample):
        path, values, fixed, tmp_path, _ = sample
        v2 = {k: v.copy() for k, v in values.items()}
        v2["TLAI"][0, 0] += np.float32(5)
        other = write_sample(str(tmp_path / "o.nc"), v2, fixed)
        report = compare_files(path, other, tol=("abs", 1e-9))
        text = report.summary()
        assert "verdict: different" in text and "TLAI" in text
        csv = report.csv()
        assert csv.startswith("variable,n_elements,n_differing")


def tile_file(tmp_path, rng, k, corrupt_copy=None):
    n = 12
    values = {"h": rng.standard_normal((2, n)).astype(np.float32)}
    fixed = {"state": rng.standard_normal(n)}
    base = write_sample(str(tmp_path / "base.nc"), values, fixed, n_cells=n)
    big_values = {"h": np.tile(values["h"], (1, k))}
    big_fixed = {"state": np.tile(fixed["state"], k)}
    if corrupt_copy is not None:
        big_fixed["state"][corrupt_copy * n + 5] += 1.0
    replica = write_sample(
        str(tmp_path / "rep.nc"), big_values, big_fixed, n_cells=n * k
    )
    return base, replica


class TestCheckReplication:
    def test_k1_reduces_to_bit_exact(self, tmp_path, rng):
        base, replica = tile_file(tmp_path, rng, 1)
        assert check_replication(base, replica, 1).verdict == "identical"
        assert compare_files(base, replica, tol="bit_exact").verdict == "identical"

    def test_tiled_file_is_identical(self, tmp_path, rng):
        base, replica = tile_file(tmp_path, rng, 10)
        assert check_replication(base, replica, 10).verdict == "identical"

    def test_corrupted_copy_located(self, tmp_path, rng):
        base, replica = tile_file(tmp_path, rng, 10, corrupt_copy=7)
        report = check_replication(base, replica, 10)
        assert report.verdict == "different"
        assert report.per_var["state"].first_diff_copy == 7
        assert report.per_var["state"].first_diff_index == 7 * 12 + 5

    def test_dimension_mismatch_rejected(self, tmp_path, rng):
        base, replica = tile_file(tmp_path, rng, 3)
        with pytest.raises(ValueError, match="not .* base"):
            check_replication(base, replica, 4)


class TestBitIdentical:
    def test_same_and_different(self, tmp_path, rng):
        a = write_sample(str(tmp_path / "x.nc"), {"v": rng.standard_normal((2, 16)).astype(np.float32)})
        import shutil

        b = str(tmp_path / "y.nc")
        shutil.copy(a, b)
        assert files_bit_identical(a, b)
        blob = bytearray(open(b, "rb").read())
        blob[-1] ^= 1
        open(b, "wb").write(bytes(blob))
        assert not files_bit_identical(a, b)


def write_vars(path, n_cells, lev, variables):
    """variables: name -> (NcType, dims, array) over time/lev/gridcell."""
    model = cdf.CdfModel(variant=cdf.CDF5)
    model.dims = [cdf.Dim("time", 0, True), cdf.Dim("lev", lev), cdf.Dim("gridcell", n_cells)]
    for name, (nc_type, dims, _) in variables.items():
        model.vars.append(cdf.Var(name, nc_type, dims))
    with open(path, "wb") as fh:
        cdf.write_file(fh, model, {k: v[2] for k, v in variables.items()})
    return path


def test_slab_streaming_gives_same_reports(tmp_path, rng, monkeypatch):
    """Row slabs of a few bytes give the same reports as one slab per variable."""
    n, lev, k = 6, 3, 4
    F32, F64, I32 = cdf.NcType.FLOAT32, cdf.NcType.FLOAT64, cdf.NcType.INT32
    base = {
        "h": (F32, ("time", "gridcell"), rng.standard_normal((2, n)).astype(np.float32)),
        "m": (F64, ("lev", "gridcell"), rng.standard_normal((lev, n))),
        "s": (F64, ("gridcell",), rng.standard_normal(n)),
        "i": (I32, ("gridcell",), np.arange(n, dtype=np.int32)),
        "g": (F64, ("lev",), rng.standard_normal(lev)),
    }

    def tiled(**changes):
        out = {}
        for name, (t, dims, a) in base.items():
            a = np.tile(a, (1,) * (a.ndim - 1) + (k,)) if "gridcell" in dims else a.copy()
            for idx, value in changes.get(name, ()):
                a[idx] = value
            out[name] = (t, dims, a)
        return out

    near_m = base["m"][2] + np.array([[0.0], [1e-9], [0.0]])
    near_m[0, 3] = np.nan  # a NaN mismatch in another row than the differences
    # "m" differs in row 2 of copy 2 and in row 1 of copy 3: the first
    # difference is the one in the lower copy, though a later row.
    files = {
        "base": write_vars(str(tmp_path / "base.nc"), n, lev, base),
        "same": write_vars(str(tmp_path / "same.nc"), n, lev, base),
        "near": write_vars(str(tmp_path / "near.nc"), n, lev, {
            **base,
            "m": (F64, ("lev", "gridcell"), near_m),
            "s": (F64, ("gridcell",), np.where(np.arange(n) == 1, np.nan, base["s"][2])),
        }),
        "rep": write_vars(str(tmp_path / "rep.nc"), n * k, lev, tiled()),
        "bad": write_vars(str(tmp_path / "bad.nc"), n * k, lev, tiled(
            m=[((2, 2 * n + 4), 9.0), ((1, 3 * n + 1), 9.0)],
            h=[((1, 3 * n + 5), 9.0)],
        )),
    }
    pairs = [("base", "same"), ("base", "near"), ("near", "base")]
    tols = ["bit_exact", "abs:1e-12", "rel:1e-3"]

    def reports():
        return [
            *(compare_files(files[x], files[y], tol) for x, y in pairs for tol in tols),
            check_replication(files["base"], files["rep"], k),
            check_replication(files["base"], files["bad"], k),
        ]

    default = reports()
    monkeypatch.setattr(compare, "SLAB_BYTES", 3)
    streamed = reports()
    assert [asdict(r) for r in streamed] == [asdict(r) for r in default]
    assert default[-2].verdict == "identical"
    bad = default[-1]
    assert bad.verdict == "different"
    assert (bad.per_var["m"].first_diff_copy, bad.per_var["m"].first_diff_index) == (2, 2 * n + 4)
    assert (bad.per_var["h"].first_diff_copy, bad.per_var["h"].first_diff_index) == (3, 3 * n + 5)
    assert bad.per_var["m"].n_differing == 2 and bad.per_var["g"].n_differing == 0
    assert [r.verdict for r in default[3:6]] == ["different"] * 3  # NaN mismatch
    assert default[4].per_var["m"].max_rel_diff > 0


# ---------------------------------------------------------------------------
# The comparator against a reference that decodes every slab to native order
# and to float64, as the comparator did before it compared stored bytes.


def reference_var(fa, fb, name, mode, eps, copies=None):
    diff = compare.VarDiff()
    shape = fa.shape(name)
    k = copies or 1
    n = shape[-1] if shape else 1
    if fb.shape(name) != (shape[:-1] + (n * k,) if shape else shape):
        diff.shape_mismatch = True
        return diff
    diff.n_elements = math.prod(shape) * k
    first = None
    pos = 0
    for start, count in compare._row_slabs(shape, fa.model.var(name).nc_type.size):
        a = fa.read_slab(name, start, count).ravel()
        a_bits = a.view(f"u{a.itemsize}")
        for j in range(k):
            at = start[:-1] + (start[-1] + j * n,) if j else start
            b = fb.read_slab(name, at, count).ravel()
            bit_neq = a_bits != b.view(a_bits.dtype)
            n_bit = np.count_nonzero(bit_neq)
            if n_bit:
                here = (j, pos + int(np.argmax(bit_neq)))
                first = min(first or here, here)
            diff.n_bit_differing += n_bit
            af, bf = a.astype(np.float64), b.astype(np.float64)
            if mode == "bit":
                diff.n_differing += n_bit
                if n_bit and a.dtype.kind == "f":
                    ok = np.isfinite(af) & np.isfinite(bf)
                    if ok.any():
                        d = np.abs(af - bf)[ok]
                        diff.max_abs_diff = max(diff.max_abs_diff, float(d.max()))
            else:
                nan_a, nan_b = np.isnan(af), np.isnan(bf)
                d = np.abs(af - bf)
                d[nan_a | nan_b | (af == bf)] = 0.0
                rel = d / np.fmax(np.fmax(np.abs(af), np.abs(bf)), 1e-30)
                rel[np.isinf(d)] = np.inf
                if d.size:
                    diff.max_abs_diff = max(diff.max_abs_diff, float(d.max()))
                    diff.max_rel_diff = max(diff.max_rel_diff, float(rel.max()))
                beyond = (nan_a ^ nan_b) | (d > eps if mode == "abs" else rel > eps)
                diff.n_differing += int(beyond.sum())
        pos += a.size
    if first is not None:
        j, i = first
        if copies:
            diff.first_diff_copy, diff.first_diff_index = j, j * n + i % n
        else:
            diff.first_diff_index = i
    return diff


def reference_compare(a, b, mode, eps, copies=None):
    report = compare.CompareReport()
    with cdf.read_file(a) as fa, cdf.read_file(b) as fb:
        names_b = [v.name for v in fb.model.vars]
        report.vars_only_in_a = [v.name for v in fa.model.vars if v.name not in names_b]
        report.vars_only_in_b = [n for n in names_b if n not in [v.name for v in fa.model.vars]]
        for v in fa.model.vars:
            if v.name in names_b:
                k = copies if "gridcell" in v.dims else None
                report.per_var[v.name] = reference_var(fa, fb, v.name, mode, eps, k)
    diffs = report.per_var.values()
    if report.vars_only_in_a or report.vars_only_in_b or any(
        d.n_differing or d.shape_mismatch for d in diffs
    ):
        report.verdict = "different"
    elif any(d.n_bit_differing for d in diffs):
        report.verdict = "within_tolerance"
    return report


PROPERTY_TYPES = {
    cdf.NcType.INT32: np.int32,
    cdf.NcType.INT64: np.int64,
    cdf.NcType.FLOAT32: np.float32,
    cdf.NcType.FLOAT64: np.float64,
}
PROPERTY_LAYOUTS = [
    ("gridcell",), ("time", "gridcell"), ("lev", "gridcell"),
    ("time", "lev", "gridcell"), ("lev",), (),
]


def special_bits(dtype) -> np.ndarray:
    """Bit patterns of special values: ±0, ±inf, NaNs with payloads and
    signs, extremes and ordinary numbers (extremes and ±1 for integers)."""
    dtype = np.dtype(dtype)
    u = np.dtype(f"u{dtype.itemsize}")
    if dtype.kind == "i":
        info = np.iinfo(dtype)
        return np.array([0, 1, -1, 7, info.min, info.max], dtype).view(u)
    info = np.finfo(dtype)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, info.tiny, info.max],
                      dtype).view(u)
    quiet = int(np.array(np.nan, dtype).view(u))
    sign = 1 << (8 * dtype.itemsize - 1)
    return np.concatenate([values, np.array([quiet | 1, quiet | 5, quiet | sign, sign | 3], u)])


def mutated(bits: np.ndarray, dtype, rng, n_changes: int) -> np.ndarray:
    """A copy of the bit patterns with up to n_changes elements changed by a
    one-ulp step, a special value or one flipped bit."""
    bits = bits.copy()
    flat = bits.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # nextafter of max or NaN
        _mutate(flat, dtype, rng, n_changes)
    return bits


def _mutate(flat, dtype, rng, n_changes):
    pool = special_bits(dtype)
    for _ in range(n_changes if flat.size else 0):
        i = int(rng.integers(flat.size))
        kind = int(rng.integers(3))
        if kind == 0:  # the next value up: one ulp (or one, for integers)
            if np.dtype(dtype).kind == "f":
                x = flat[i : i + 1].view(dtype)
                flat[i : i + 1] = np.nextafter(x, np.array(np.inf, dtype)).view(flat.dtype)
            else:
                flat[i] = flat.dtype.type(flat[i] + flat.dtype.type(1))
        elif kind == 1:
            flat[i] = pool[int(rng.integers(pool.size))]
        else:
            flat[i] ^= flat.dtype.type(1) << flat.dtype.type(int(rng.integers(8 * flat.itemsize)))


@st.composite
def comparison_case(draw):
    n = draw(st.integers(1, 4))
    lev = draw(st.integers(1, 3))
    numrecs = draw(st.integers(0, 2))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    types = draw(st.lists(st.sampled_from(list(PROPERTY_TYPES)), min_size=4, max_size=6))
    layouts = [draw(st.sampled_from(PROPERTY_LAYOUTS)) for _ in types]
    types[:4] = list(PROPERTY_TYPES)  # every type, every time
    tol = "bit_exact" if k else draw(st.sampled_from(
        ["bit_exact", "abs:0", "abs:1e-6", "abs:0.5", "rel:0", "rel:1e-7", "rel:0.5", "abs:inf"]
    ))
    slab_bytes = draw(st.sampled_from([1, 8, 20, 50, compare.SLAB_BYTES]))
    return dict(n=n, lev=lev, numrecs=numrecs, k=k, types=types, layouts=layouts, tol=tol,
                slab_bytes=slab_bytes, changes=draw(st.integers(0, 4)),
                seed=draw(st.integers(0, 2**32 - 1)))


def write_case_file(path, case, arrays, n_cells):
    model = cdf.CdfModel(variant=cdf.CDF5, dims=[
        cdf.Dim("time", 0, True), cdf.Dim("lev", case["lev"]), cdf.Dim("gridcell", n_cells)
    ])
    for i, (t, dims) in enumerate(zip(case["types"], case["layouts"])):
        model.vars.append(cdf.Var(f"v{i}", t, dims))
    with open(path, "wb") as fh:
        cdf.write_file(fh, model, arrays, numrecs=case["numrecs"])


@settings(max_examples=300, deadline=None)
@given(case=comparison_case())
def test_reports_equal_the_decoding_reference(case):
    """compare_files in bit, abs: and rel: modes and check_replication for
    k in {1, 2, 3} give the reference comparator's reports, field for field,
    over every type, NaN payloads, ±inf, ±0, one-ulp changes and slabs that
    split a variable's rows."""
    rng = np.random.default_rng(case["seed"])
    k, n = case["k"], case["n"]
    sizes = {"time": case["numrecs"], "lev": case["lev"], "gridcell": n}
    base, other = {}, {}
    for i, (t, dims) in enumerate(zip(case["types"], case["layouts"])):
        dtype = PROPERTY_TYPES[t]
        pool = special_bits(dtype)
        bits = pool[rng.integers(pool.size, size=tuple(sizes[d] for d in dims))]
        base[f"v{i}"] = bits.view(dtype)
        if k and "gridcell" in dims:
            bits = np.concatenate([bits] * k, axis=-1)
        other[f"v{i}"] = mutated(bits, dtype, rng, case["changes"]).view(dtype)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.nc"), os.path.join(tmp, "b.nc")
        write_case_file(a, case, base, n)
        write_case_file(b, case, other, n * (k or 1))
        with mock.patch.object(compare, "SLAB_BYTES", case["slab_bytes"]):
            if k:
                got = check_replication(a, b, k)
                want = reference_compare(a, b, "bit", 0.0, copies=k)
            else:
                got = compare_files(a, b, case["tol"])
                want = reference_compare(a, b, *compare._parse_tol(case["tol"]))
    assert repr(asdict(got)) == repr(asdict(want))
