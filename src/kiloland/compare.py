"""Output validation: element-wise comparison of two files, variable
presence diffing, and replication-equivalence checking.

Comparisons stream hyperslabs of at most 64 MiB so arbitrarily large files
never need a full in-memory load. Bit-exact mode compares raw bit
patterns (equal-bit NaNs compare equal); tolerance modes flag NaN-ness
mismatches and measure |a-b| against an absolute or relative epsilon with
denominator max(|a|, |b|, 1e-30).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cdf

__all__ = [
    "CompareReport",
    "VarDiff",
    "check_replication",
    "compare_files",
    "files_bit_identical",
]

SLAB_BYTES = 64 * 2**20

_BIT_VIEW = {1: np.uint8, 4: np.uint32, 8: np.uint64}


@dataclass
class VarDiff:
    n_elements: int = 0
    n_differing: int = 0  # beyond tolerance (any bit difference when bit_exact)
    n_bit_differing: int = 0
    max_abs_diff: float = 0.0
    max_rel_diff: float = 0.0
    first_diff_index: int | None = None
    first_diff_copy: int | None = None
    shape_mismatch: bool = False


@dataclass
class CompareReport:
    per_var: dict = field(default_factory=dict)
    vars_only_in_a: list = field(default_factory=list)
    vars_only_in_b: list = field(default_factory=list)
    verdict: str = "identical"

    def summary(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        for name in self.vars_only_in_a:
            lines.append(f"  only in A: {name}")
        for name in self.vars_only_in_b:
            lines.append(f"  only in B: {name}")
        for name, d in self.per_var.items():
            if d.shape_mismatch:
                lines.append(f"  {name}: shape mismatch")
            elif d.n_bit_differing:
                where = f" first at {d.first_diff_index}"
                if d.first_diff_copy is not None:
                    where += f" (copy {d.first_diff_copy})"
                lines.append(
                    f"  {name}: {d.n_differing}/{d.n_elements} beyond tolerance, "
                    f"{d.n_bit_differing} bitwise, max_abs={d.max_abs_diff:.3e}, "
                    f"max_rel={d.max_rel_diff:.3e}{where}"
                )
        return "\n".join(lines)

    def csv(self) -> str:
        lines = ["variable,n_elements,n_differing,max_abs_diff,max_rel_diff,first_diff_index"]
        for name, d in self.per_var.items():
            first = "" if d.first_diff_index is None else d.first_diff_index
            lines.append(
                f"{name},{d.n_elements},{d.n_differing},{d.max_abs_diff:.17g},"
                f"{d.max_rel_diff:.17g},{first}"
            )
        return "\n".join(lines) + "\n"


def _parse_tol(tol):
    if tol == "bit_exact":
        return ("bit", 0.0)
    if isinstance(tol, (tuple, list)) and len(tol) == 2 and tol[0] in ("abs", "rel"):
        return (tol[0], float(tol[1]))
    raise ValueError("tol must be 'bit_exact', ('abs', eps) or ('rel', eps)")


def _slab_rows(shape, itemsize):
    if not shape:
        return 1
    per_row = int(np.prod(shape[1:], dtype=np.int64)) * itemsize
    return max(1, SLAB_BYTES // max(per_row, 1))


def _compare_var(fa, fb, name, mode, eps, diff: VarDiff):
    shape_a = fa.shape(name)
    shape_b = fb.shape(name)
    if shape_a != shape_b:
        diff.shape_mismatch = True
        return
    n = int(np.prod(shape_a, dtype=np.int64)) if shape_a else 1
    diff.n_elements = n
    if n == 0:
        return
    itemsize = fa.model.var(name).nc_type.size
    rows = _slab_rows(shape_a, itemsize)
    first = shape_a[0] if shape_a else 1
    flat_pos = 0
    for r0 in range(0, max(first, 1), rows):
        nr = min(rows, first - r0) if shape_a else 1
        if shape_a:
            start = (r0,) + (0,) * (len(shape_a) - 1)
            count = (nr,) + shape_a[1:]
        else:
            start = count = ()
        a = fa.read_slab(name, start, count).ravel()
        b = fb.read_slab(name, start, count).ravel()
        bits = _BIT_VIEW[a.dtype.itemsize]
        bit_neq = a.view(bits) != b.view(bits)
        n_bit = int(bit_neq.sum())
        if n_bit and diff.first_diff_index is None:
            diff.first_diff_index = flat_pos + int(np.argmax(bit_neq))
        diff.n_bit_differing += n_bit
        if mode == "bit":
            diff.n_differing += n_bit
            if n_bit and a.dtype.kind == "f":
                af, bf = a.astype(np.float64), b.astype(np.float64)
                ok = np.isfinite(af) & np.isfinite(bf)
                if ok.any():
                    d = np.abs(af - bf)[ok]
                    diff.max_abs_diff = max(diff.max_abs_diff, float(d.max()))
        else:
            af = a.astype(np.float64)
            bf = b.astype(np.float64)
            nan_a, nan_b = np.isnan(af), np.isnan(bf)
            nan_mismatch = nan_a ^ nan_b
            both = ~nan_a & ~nan_b
            d = np.where(both, np.abs(af - bf), 0.0)
            denom = np.maximum(np.maximum(np.abs(af), np.abs(bf)), 1e-30)
            rel = d / denom
            if d.size:
                diff.max_abs_diff = max(diff.max_abs_diff, float(d.max()))
                diff.max_rel_diff = max(diff.max_rel_diff, float(rel.max()))
            beyond = nan_mismatch | (d > eps if mode == "abs" else rel > eps)
            diff.n_differing += int(beyond.sum())
        flat_pos += a.size


def compare_files(a, b, tol="bit_exact") -> CompareReport:
    """Element-wise comparison of two files, variables matched by name.

    Verdict: 'identical' (bitwise equal everywhere, same variables),
    'within_tolerance' (bit differences exist but none beyond tol), or
    'different'.
    """
    mode, eps = _parse_tol(tol)
    report = CompareReport()
    with cdf.read_file(a) as fa, cdf.read_file(b) as fb:
        names_a = [v.name for v in fa.model.vars]
        names_b = [v.name for v in fb.model.vars]
        report.vars_only_in_a = [n for n in names_a if n not in names_b]
        report.vars_only_in_b = [n for n in names_b if n not in names_a]
        for name in names_a:
            if name in report.vars_only_in_a:
                continue
            diff = VarDiff()
            report.per_var[name] = diff
            _compare_var(fa, fb, name, mode, eps, diff)
    any_beyond = any(d.n_differing or d.shape_mismatch for d in report.per_var.values())
    any_bits = any(d.n_bit_differing for d in report.per_var.values())
    presence = bool(report.vars_only_in_a or report.vars_only_in_b)
    if any_beyond or presence:
        report.verdict = "different"
    elif any_bits:
        report.verdict = "within_tolerance"
    else:
        report.verdict = "identical"
    return report


def check_replication(base_path, replica_path, k: int) -> CompareReport:
    """Verify a replica file equals k bit-exact copies of the base file.

    Variables with a gridcell dimension are compared segment by segment;
    others must match bit-exactly. first_diff_copy locates the copy of the
    first differing element.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    report = CompareReport()
    with cdf.read_file(base_path) as fb, cdf.read_file(replica_path) as fr:
        names_b = [v.name for v in fb.model.vars]
        names_r = [v.name for v in fr.model.vars]
        report.vars_only_in_a = [n for n in names_b if n not in names_r]
        report.vars_only_in_b = [n for n in names_r if n not in names_b]
        try:
            nb = fb.model.dim("gridcell").length
            nr = fr.model.dim("gridcell").length
        except KeyError:
            raise ValueError("both files need a gridcell dimension") from None
        if nr != k * nb:
            raise ValueError(
                f"replica gridcell dimension {nr} is not {k} x base {nb}"
            )
        for name in names_b:
            if name in report.vars_only_in_a:
                continue
            diff = VarDiff()
            report.per_var[name] = diff
            vb = fb.model.var(name)
            if "gridcell" not in vb.dims:
                _compare_var(fb, fr, name, "bit", 0.0, diff)
                continue
            if vb.dims[-1] != "gridcell":
                raise ValueError(f"{name}: gridcell must be the innermost dimension")
            shape_b = fb.shape(name)
            diff.n_elements = int(np.prod(shape_b, dtype=np.int64)) * k
            base_data = fb.read(name)
            bits = _BIT_VIEW[base_data.dtype.itemsize]
            lead = shape_b[:-1]
            for j in range(k):
                start = (0,) * (len(shape_b) - 1) + (j * nb,)
                count = lead + (nb,)
                seg = fr.read_slab(name, start, count)
                neq = seg.view(bits) != base_data.view(bits)
                n_bit = int(neq.sum())
                if n_bit and diff.first_diff_index is None:
                    diff.first_diff_index = j * nb + int(
                        np.argmax(neq.reshape(-1)) % nb
                    )
                    diff.first_diff_copy = j
                diff.n_bit_differing += n_bit
                diff.n_differing += n_bit
    if (
        any(d.n_differing or d.shape_mismatch for d in report.per_var.values())
        or report.vars_only_in_a
        or report.vars_only_in_b
    ):
        report.verdict = "different"
    else:
        report.verdict = "identical"
    return report


def files_bit_identical(a: str, b: str, chunk: int = SLAB_BYTES) -> bool:
    """Whole-file byte equality, streamed."""
    import os

    if os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            ba = fa.read(chunk)
            bb = fb.read(chunk)
            if ba != bb:
                return False
            if not ba:
                return True
