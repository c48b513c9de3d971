from dataclasses import asdict

import numpy as np
import pytest

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
