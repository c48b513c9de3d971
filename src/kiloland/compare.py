"""Output validation: element-wise comparison of two files, variable
presence diffing, and replication-equivalence checking.

Comparisons stream row slabs of at most 64 MiB through buffers allocated
once per comparison, so arbitrarily large files never need a full in-memory
load; a replication check is the same comparison run over the replica's k
copies. Bit-exact mode compares the stored bit patterns (equal-bit NaNs
compare equal); tolerance modes flag NaN-ness
mismatches and measure |a-b| against an absolute or relative epsilon with
denominator max(|a|, |b|, 1e-30).
"""

from __future__ import annotations

import math
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
    if isinstance(tol, str):
        kind, _, eps = tol.partition(":")
    elif isinstance(tol, (tuple, list)) and len(tol) == 2:
        kind, eps = tol
    else:
        kind = eps = None
    try:
        eps = float(eps)
    except (TypeError, ValueError):
        eps = float("nan")
    if kind in ("abs", "rel") and eps >= 0:  # rejects NaN too
        return (kind, eps)
    raise ValueError(
        f"tol must be 'bit_exact', 'abs:<eps>', 'rel:<eps>' or ('abs'|'rel', eps) "
        f"with eps >= 0, not {tol!r}"
    )


def _row_slabs(shape, itemsize):
    """(start, count) of consecutive first-axis slabs of at most SLAB_BYTES."""
    if not shape:
        yield (), ()
        return
    rows = max(1, SLAB_BYTES // max(math.prod(shape[1:]) * itemsize, 1))
    for r0 in range(0, shape[0], rows):
        yield (r0,) + (0,) * (len(shape) - 1), (min(rows, shape[0] - r0),) + shape[1:]


def _slab_buffers(fa, fb, names):
    """Two slab byte buffers and one boolean buffer, sized for the largest
    slab that _row_slabs yields for any of `names` (one row may exceed
    SLAB_BYTES), in the wider of the two files' types."""
    nbytes = elems = 0
    for name in names:
        size = fa.model.var(name).nc_type.size
        first = next(_row_slabs(fa.shape(name), size), None)  # the largest
        if first is not None:
            m = math.prod(first[1])
            nbytes = max(nbytes, m * max(size, fb.model.var(name).nc_type.size))
            elems = max(elems, m)
    return np.empty(nbytes, np.uint8), np.empty(nbytes, np.uint8), np.empty(elems, bool)


def _compare_var(fa, fb, name, mode, eps, buffers, copies=None) -> VarDiff:
    """Compare variable `name` of fa with fb, slab by slab, reading each
    slab into `buffers` (see _slab_buffers).

    Bit mode compares the stored bytes as unsigned integers, so nothing is
    byte-swapped; only a slab that differs is decoded, for max_abs_diff.
    Tolerance modes read in native order into the same buffers.

    With `copies` = k, fb holds k copies of fa's variable side by side along
    the innermost axis: copy j is read at offset j*n there, n being fa's
    innermost length. The first difference is then the first in copy order
    (first_diff_copy), located by its index along fb's innermost axis.
    """
    diff = VarDiff()
    shape = fa.shape(name)
    k = copies or 1
    n = shape[-1] if shape else 1
    if fb.shape(name) != (shape[:-1] + (n * k,) if shape else shape):
        diff.shape_mismatch = True
        return diff
    diff.n_elements = math.prod(shape) * k
    stored = [np.dtype(f.model.var(name).nc_type.dtype) for f in (fa, fb)]
    dtype, dtype_b = stored if mode == "bit" else [t.newbyteorder("=") for t in stored]
    bits = f"u{dtype.itemsize}"
    buf_a, buf_b, buf_neq = buffers
    first = None  # (copy, flat index within the copy) of the first bit difference
    pos = 0
    for start, count in _row_slabs(shape, dtype.itemsize):
        m = math.prod(count)
        a = fa.read_slab(name, start, count, out=_view(buf_a, dtype, count)).reshape(-1)
        for j in range(k):
            at = start[:-1] + (start[-1] + j * n,) if j else start
            b = fb.read_slab(name, at, count, out=_view(buf_b, dtype_b, count)).reshape(-1)
            bit_neq = np.not_equal(a.view(bits), b.view(bits), out=buf_neq[:m])
            n_bit = np.count_nonzero(bit_neq)
            if n_bit:
                here = (j, pos + int(np.argmax(bit_neq)))
                first = min(first or here, here)
            diff.n_bit_differing += n_bit
            # Infinities and NaN payloads decode to values whose
            # differences are NaN (inf - inf, inf / inf), and finite values of
            # opposite sign near the float64 maximum differ by more than it
            # (|a - b| = inf): both are accounted for below.
            with np.errstate(invalid="ignore", over="ignore"):
                if mode == "bit":
                    diff.n_differing += n_bit
                    if n_bit and dtype.kind == "f":
                        # Equal bits are finite with |a - b| = 0 or not finite,
                        # so the differing elements alone give the maximum.
                        af, bf = a[bit_neq].astype(np.float64), b[bit_neq].astype(np.float64)
                        ok = np.isfinite(af) & np.isfinite(bf)
                        if ok.any():
                            d = np.abs(af - bf)[ok]
                            diff.max_abs_diff = max(diff.max_abs_diff, float(d.max()))
                else:
                    af, bf = a.astype(np.float64), b.astype(np.float64)
                    nan_a, nan_b = np.isnan(af), np.isnan(bf)  # NaN-ness is counted apart
                    d = np.abs(af - bf)
                    d[nan_a | nan_b | (af == bf)] = 0.0  # so do equal infinities
                    rel = d / np.fmax(np.fmax(np.abs(af), np.abs(bf)), 1e-30)
                    rel[np.isinf(d)] = np.inf
                    if d.size:
                        diff.max_abs_diff = max(diff.max_abs_diff, float(d.max()))
                        diff.max_rel_diff = max(diff.max_rel_diff, float(rel.max()))
                    beyond = (nan_a ^ nan_b) | (d > eps if mode == "abs" else rel > eps)
                    diff.n_differing += int(beyond.sum())
        pos += m
    if first is not None:
        j, i = first
        if copies:
            diff.first_diff_copy, diff.first_diff_index = j, j * n + i % n
        else:
            diff.first_diff_index = i
    return diff


def _view(buf: np.ndarray, dtype: np.dtype, count: tuple) -> np.ndarray:
    """The leading bytes of `buf` as a C-ordered `dtype` array of `count`."""
    return buf[: math.prod(count) * dtype.itemsize].view(dtype).reshape(count)


def _compare(a, b, mode, eps, copies=None) -> CompareReport:
    """The comparison engine; `copies` = k checks b as a k-fold replica of a
    along the gridcell dimension (see check_replication)."""
    report = CompareReport()
    with cdf.read_file(a) as fa, cdf.read_file(b) as fb:
        if copies:
            try:
                nb = fa.model.dim("gridcell").length
                nr = fb.model.dim("gridcell").length
            except KeyError:
                raise ValueError("both files need a gridcell dimension") from None
            if nr != copies * nb:
                raise ValueError(
                    f"replica gridcell dimension {nr} is not {copies} x base {nb}"
                )
        names_a = [v.name for v in fa.model.vars]
        names_b = [v.name for v in fb.model.vars]
        report.vars_only_in_a = [n for n in names_a if n not in names_b]
        report.vars_only_in_b = [n for n in names_b if n not in names_a]
        shared = [v for v in fa.model.vars if v.name in names_b]
        buffers = _slab_buffers(fa, fb, [v.name for v in shared])
        for v in shared:
            k = copies if "gridcell" in v.dims else None
            if k and v.dims[-1] != "gridcell":
                raise ValueError(f"{v.name}: gridcell must be the innermost dimension")
            report.per_var[v.name] = _compare_var(fa, fb, v.name, mode, eps, buffers, k)
    diffs = report.per_var.values()
    if (
        report.vars_only_in_a
        or report.vars_only_in_b
        or any(d.n_differing or d.shape_mismatch for d in diffs)
    ):
        report.verdict = "different"
    elif any(d.n_bit_differing for d in diffs):
        report.verdict = "within_tolerance"
    return report


def compare_files(a, b, tol="bit_exact") -> CompareReport:
    """Element-wise comparison of two files, variables matched by name.

    `tol` is 'bit_exact', 'abs:<eps>', 'rel:<eps>' or a pair ('abs'|'rel',
    eps), with eps >= 0 (inf allowed); anything else raises ValueError.
    Verdict: 'identical' (bitwise equal everywhere, same variables),
    'within_tolerance' (bit differences exist but none beyond tol), or
    'different'.
    """
    return _compare(a, b, *_parse_tol(tol))


def check_replication(base_path, replica_path, k: int) -> CompareReport:
    """Verify a replica file equals k bit-exact copies of the base file.

    Variables with a gridcell dimension (which must be innermost) are
    compared copy by copy; others must match bit-exactly. first_diff_copy
    locates the copy of the first differing element.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _compare(base_path, replica_path, "bit", 0.0, copies=k)


def files_bit_identical(a: str, b: str) -> bool:
    """Whole-file byte equality, streamed."""
    import os

    if os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            ba = fa.read(SLAB_BYTES)
            bb = fb.read(SLAB_BYTES)
            if ba != bb:
                return False
            if not ba:
                return True
