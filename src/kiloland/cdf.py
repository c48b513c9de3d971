"""Self-contained reader/writer for the NetCDF classic binary format,
variants CDF-2 (64-bit offset) and CDF-5 (64-bit data).

The byte layout follows the published classic-format grammar: a big-endian
header (magic, numrecs, then dimension / global-attribute / variable lists
with names padded to 4-byte boundaries), fixed-size variable data in
definition order, then record data interleaved per record in definition
order. In CDF-5 every non-negative size field widens from 4 to 8 bytes
(numrecs, list lengths, name lengths, dimension lengths, attribute counts,
variable ranks, dimension ids, vsize); tags and type codes stay 4 bytes,
and 'begin' offsets are 8 bytes in both supported variants.

Supported variable types: INT32, INT64 (CDF-5 only), FLOAT32, FLOAT64.
CHAR is accepted for attribute text only. BYTE and SHORT are rejected.
Writers must supply every element; there is no fill-value prefill.
"""

from __future__ import annotations

import enum
import io
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CDF2",
    "CDF5",
    "CdfError",
    "CdfFile",
    "CdfModel",
    "CdfWriter",
    "Dim",
    "NcType",
    "SizeAccounting",
    "Var",
    "compute_size",
    "dump_header",
    "read_file",
    "write_file",
]

CDF2 = "CDF2"
CDF5 = "CDF5"

_TAG_DIMENSION = 0x0A
_TAG_VARIABLE = 0x0B
_TAG_ATTRIBUTE = 0x0C

_MAGIC = {CDF2: b"CDF\x02", CDF5: b"CDF\x05"}
_VARIANT_BY_MAGIC = {v: k for k, v in _MAGIC.items()}

# Bytes converted to big-endian per write: bounds a write's temporary.
WRITE_CHUNK_BYTES = 4 * 2**20

# A checksum attribute holds this until the writer knows the CRC-32; both
# are 8 characters, so filling it in keeps the header's length.
CHECKSUM_PLACEHOLDER = "0" * 8

# CDF-2 field limits: numrecs and vsize are 4-byte fields.
_MAX_U32_NUMRECS = 0xFFFFFFFE
_MAX_U32_VSIZE = 0xFFFFFFFC


class CdfError(ValueError):
    """Malformed model, unsupported content, or corrupt byte stream."""


class NcType(enum.Enum):
    CHAR = (2, 1, None)
    INT32 = (4, 4, ">i4")
    FLOAT32 = (5, 4, ">f4")
    FLOAT64 = (6, 8, ">f8")
    INT64 = (10, 8, ">i8")

    def __init__(self, code, size, dtype):
        self.code = code
        self.size = size
        self.dtype = dtype


_TYPE_BY_CODE = {t.code: t for t in NcType}
# Classic codes we recognize but deliberately refuse.
_REJECTED_CODES = {1: "BYTE", 3: "SHORT", 7: "UBYTE", 8: "USHORT", 9: "UINT", 11: "UINT64"}


@dataclass
class Dim:
    name: str
    length: int
    unlimited: bool = False


@dataclass
class Var:
    name: str
    nc_type: NcType
    dims: tuple = ()
    attrs: dict = field(default_factory=dict)
    # Filled in by layout computation / header parsing.
    begin: int = 0
    vsize: int = 0


@dataclass
class CdfModel:
    """In-memory model of one file: dimensions, attributes, variables."""

    variant: str = CDF5
    dims: list = field(default_factory=list)
    gattrs: dict = field(default_factory=dict)
    vars: list = field(default_factory=list)

    def dim(self, name: str) -> Dim:
        for d in self.dims:
            if d.name == name:
                return d
        raise KeyError(name)

    def var(self, name: str) -> Var:
        for v in self.vars:
            if v.name == name:
                return v
        raise KeyError(name)

    def record_dim(self):
        for d in self.dims:
            if d.unlimited:
                return d
        return None

    def var_shape(self, v: Var, numrecs: int) -> tuple:
        return tuple(
            numrecs if self.dim(n).unlimited else self.dim(n).length for n in v.dims
        )

    def validate(self) -> None:
        if self.variant not in _MAGIC:
            raise CdfError(f"unsupported variant {self.variant!r}")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise CdfError("dimension names must be nonempty and unique")
        if sum(d.unlimited for d in self.dims) > 1:
            raise CdfError("at most one record dimension is allowed")
        vnames = [v.name for v in self.vars]
        if len(set(vnames)) != len(vnames) or any(not n for n in vnames):
            raise CdfError("variable names must be nonempty and unique")
        for v in self.vars:
            if v.nc_type is NcType.CHAR:
                raise CdfError(f"variable {v.name}: CHAR is attribute-text only")
            if v.nc_type is NcType.INT64 and self.variant == CDF2:
                raise CdfError(f"variable {v.name}: INT64 requires CDF5")
            for i, dname in enumerate(v.dims):
                d = self.dim(dname)
                if d.unlimited and i != 0:
                    raise CdfError(
                        f"variable {v.name}: record dimension must be outermost"
                    )
                if not d.unlimited and d.length < 0:
                    raise CdfError(f"dimension {dname}: negative length")
        for scope, attrs in [("global", self.gattrs)] + [
            (v.name, v.attrs) for v in self.vars
        ]:
            for aname, value in attrs.items():
                if not aname:
                    raise CdfError(f"{scope}: empty attribute name")
                _encode_attr_value(value, self.variant)  # raises if unsupported


def _is_record(model: CdfModel, v: Var) -> bool:
    return bool(v.dims) and model.dim(v.dims[0]).unlimited


def _per_slab_elems(model: CdfModel, v: Var) -> int:
    """Elements per record (record var) or total elements (fixed var)."""
    n = 1
    for dname in v.dims:
        d = model.dim(dname)
        if not d.unlimited:
            n *= d.length
    return n


def _pad4(b: bytes) -> bytes:
    return b + b"\x00" * (-len(b) % 4)


def _nn_width(variant: str) -> int:
    return 8 if variant == CDF5 else 4


@dataclass
class SizeAccounting:
    header_bytes: int
    fixed_bytes: int
    record_size: int
    numrecs: int

    @property
    def total_bytes(self) -> int:
        return self.header_bytes + self.fixed_bytes + self.numrecs * self.record_size


def _attr_nc_type(value) -> NcType:
    if isinstance(value, (str, bytes)):
        return NcType.CHAR
    explicit = isinstance(value, (np.ndarray, np.generic))
    arr = np.asarray(value)
    if arr.dtype.kind == "f":
        return NcType.FLOAT64 if arr.dtype.itemsize == 8 else NcType.FLOAT32
    if arr.dtype.kind in "iu":
        if explicit:
            return NcType.INT64 if arr.dtype.itemsize == 8 else NcType.INT32
        # Plain Python ints: prefer INT32 when every value fits.
        lo, hi = int(arr.min(initial=0)), int(arr.max(initial=0))
        return NcType.INT32 if -(2**31) <= lo and hi < 2**31 else NcType.INT64
    raise CdfError(f"unsupported attribute value type {arr.dtype}")


def _encode_attr_value(value, variant: str):
    """Return (nc_type, nelems, padded payload bytes)."""
    t = _attr_nc_type(value)
    if t is NcType.CHAR:
        data = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        return t, len(data), _pad4(data)
    if t is NcType.INT64 and variant == CDF2:
        raise CdfError("INT64 attribute requires CDF5")
    arr = np.atleast_1d(np.asarray(value)).astype(t.dtype)
    return t, arr.size, _pad4(arr.tobytes())


def _decode_attr_value(t: NcType, raw: bytes, nelems: int):
    if t is NcType.CHAR:
        return raw[:nelems].decode("utf-8", errors="replace")
    arr = np.frombuffer(raw, dtype=t.dtype, count=nelems)
    arr = arr.astype(arr.dtype.newbyteorder("="))
    return arr[0].item() if arr.size == 1 else arr


class _HeaderBuilder:
    def __init__(self, variant: str):
        self.variant = variant
        self.w = _nn_width(variant)
        self.parts = []

    def nonneg(self, value: int):
        if value < 0:
            raise CdfError("negative size field")
        self.parts.append(value.to_bytes(self.w, "big"))

    def u32(self, value: int):
        self.parts.append(struct.pack(">I", value))

    def i64(self, value: int):
        self.parts.append(struct.pack(">q", value))

    def raw(self, b: bytes):
        self.parts.append(b)

    def name(self, s: str):
        nb = s.encode("utf-8")
        self.nonneg(len(nb))
        self.raw(_pad4(nb))

    def list_header(self, tag: int, count: int):
        # ABSENT is encoded as a zero tag followed by a zero count.
        self.u32(tag if count else 0)
        self.nonneg(count)

    def attrs(self, attrs: dict):
        self.list_header(_TAG_ATTRIBUTE, len(attrs))
        for aname, value in attrs.items():
            t, nelems, payload = _encode_attr_value(value, self.variant)
            self.name(aname)
            self.u32(t.code)
            self.nonneg(nelems)
            self.raw(payload)

    def bytes(self) -> bytes:
        return b"".join(self.parts)


def _build_header(model: CdfModel, numrecs: int) -> bytes:
    b = _HeaderBuilder(model.variant)
    b.raw(_MAGIC[model.variant])
    if model.variant == CDF2 and numrecs > _MAX_U32_NUMRECS:
        raise CdfError("record count exceeds the CDF2 numrecs field")
    b.nonneg(numrecs)
    b.list_header(_TAG_DIMENSION, len(model.dims))
    for d in model.dims:
        b.name(d.name)
        b.nonneg(0 if d.unlimited else d.length)
    b.attrs(model.gattrs)
    dim_ids = {d.name: i for i, d in enumerate(model.dims)}
    b.list_header(_TAG_VARIABLE, len(model.vars))
    for v in model.vars:
        b.name(v.name)
        b.nonneg(len(v.dims))
        for dname in v.dims:
            b.nonneg(dim_ids[dname])
        b.attrs(v.attrs)
        b.u32(v.nc_type.code)
        if model.variant == CDF2:
            b.u32(min(v.vsize, _MAX_U32_VSIZE))
        else:
            b.nonneg(v.vsize)
        b.i64(v.begin)
    return b.bytes()


def compute_size(model: CdfModel, numrecs: int = 0) -> SizeAccounting:
    """Exact byte accounting for the file this model would produce; assigns
    begin/vsize to every variable."""
    model.validate()
    for v in model.vars:
        slab = _per_slab_elems(model, v) * v.nc_type.size
        v.vsize = slab + (-slab % 4)
        if model.variant == CDF2 and v.vsize > _MAX_U32_VSIZE:
            raise CdfError(
                f"variable {v.name}: vsize {v.vsize} exceeds the CDF2 limit"
            )
    # Header length depends only on field widths, not on the begin values,
    # so a first pass with placeholder offsets gives the exact length.
    header_len = len(_build_header(model, numrecs))
    cursor = header_len
    for v in model.vars:
        if not _is_record(model, v):
            v.begin = cursor
            cursor += v.vsize
    fixed_bytes = cursor - header_len
    record_size = 0
    for v in model.vars:
        if _is_record(model, v):
            v.begin = cursor + record_size
            record_size += v.vsize
    return SizeAccounting(header_len, fixed_bytes, record_size, numrecs)


class CdfWriter:
    """Streaming writer: header up front, data by full array or by element
    range, with an exactness check that every element was written once.
    `target` is an open, seekable binary file; close() flushes it and
    leaves it open.

    Byte ranges of distinct variables/records are disjoint, so concurrent
    producers may be serialized through one writer in any order. The
    variables named in `checksums` are the exception: each must be written
    in offset order, and the writer folds the big-endian bytes it writes
    into a running CRC-32. It sets their `checksum` attribute in `model`
    to CHECKSUM_PLACEHOLDER, and close() writes the header again with the
    CRC as 8 hex digits.
    """

    def __init__(self, target, model: CdfModel, numrecs: int = 0, checksums=()):
        self.model = model
        self.numrecs = numrecs
        self._crc = {}
        for name in checksums:
            model.var(name).attrs["checksum"] = CHECKSUM_PLACEHOLDER
            self._crc[name] = 0
        self.accounting = compute_size(model, numrecs)
        self._record_size = self.accounting.record_size
        self._written = {v.name: 0 for v in model.vars}
        self._expected = {
            v.name: _per_slab_elems(model, v) * (numrecs if _is_record(model, v) else 1)
            for v in model.vars
        }
        self._fh = target
        self._fh.write(_build_header(model, numrecs))
        total = self.accounting.total_bytes
        self._fh.truncate(total)

    def write_full(self, name: str, values) -> None:
        v = self.model.var(name)
        shape = self.model.var_shape(v, self.numrecs)
        arr = np.asarray(values)
        if arr.shape != shape:
            raise CdfError(f"{name}: data shape {arr.shape} != {shape}")
        if _is_record(self.model, v):
            for rec in range(self.numrecs):
                self.write_elements(name, 0, arr[rec], record=rec)
        else:
            self.write_elements(name, 0, arr)

    def write_elements(self, name: str, start: int, values, record=None) -> None:
        """Write the elements of `values`, in C order, as a flat element
        range of a variable (one record of it, for record variables)
        starting at element offset `start`. They are converted to the
        file's big-endian type WRITE_CHUNK_BYTES at a time, each chunk
        written from one reused buffer; a strided array is converted block
        by block, with no contiguous copy of the whole."""
        v = self.model.var(name)
        arr = np.asarray(values)
        slab = _per_slab_elems(self.model, v)
        if _is_record(self.model, v):
            if record is None:
                raise CdfError(f"{name} is a record variable; record index required")
            if not 0 <= record < self.numrecs:
                raise CdfError(f"{name}: record {record} out of range")
            base = v.begin + record * self._record_size
        else:
            if record is not None:
                raise CdfError(f"{name} is not a record variable")
            base = v.begin
        if start < 0 or start + arr.size > slab:
            raise CdfError(
                f"{name}: element range [{start}, {start + arr.size}) exceeds {slab}"
            )
        crc = self._crc.get(name)
        if crc is not None and (record or 0) * slab + start != self._written[name]:
            raise CdfError(
                f"{name}: checksummed variable written out of order (element "
                f"{(record or 0) * slab + start}, expected {self._written[name]})"
            )
        self._fh.seek(base + start * v.nc_type.size)
        step = max(1, WRITE_CHUNK_BYTES // v.nc_type.size)
        chunk = np.empty(min(step, arr.size), dtype=v.nc_type.dtype)
        for part in _converted(arr, chunk):
            self._fh.write(part)
            if crc is not None:
                crc = zlib.crc32(part, crc)
        if crc is not None:
            self._crc[name] = crc
        self._written[name] += arr.size

    def close(self) -> None:
        missing = {
            n: (self._expected[n], w)
            for n, w in self._written.items()
            if w != self._expected[n]
        }
        if missing:
            detail = ", ".join(
                f"{n}: wrote {w} of {e}" for n, (e, w) in missing.items()
            )
            raise CdfError(f"incomplete write ({detail}); every element is required")
        if self._crc:
            for name, crc in self._crc.items():
                self.model.var(name).attrs["checksum"] = f"{crc:08x}"
            self._fh.seek(0)
            self._fh.write(_build_header(self.model, self.numrecs))
        self._fh.flush()


def _converted(arr: np.ndarray, chunk: np.ndarray):
    """Yield leading parts of `chunk` that hold, in turn, the elements of
    `arr` in C order, converted to the chunk's type. A strided array is
    copied one leading-axis block at a time (a run of leading rows, or one
    row split further when a row exceeds the chunk)."""
    if arr.size == 0:
        return
    if arr.ndim <= 1 or arr.flags.c_contiguous:
        flat = arr.reshape(-1)  # a view in both cases
        for i in range(0, flat.size, chunk.size):
            part = chunk[: flat.size - i]
            np.copyto(part, flat[i : i + chunk.size], casting="unsafe")
            yield part
        return
    row = arr[0].size
    if row > chunk.size:
        for sub in arr:
            yield from _converted(sub, chunk)
        return
    rows = chunk.size // row
    for i in range(0, len(arr), rows):
        block = arr[i : i + rows]
        part = chunk[: block.size].reshape(block.shape)
        np.copyto(part, block, casting="unsafe")
        yield part


def write_file(target, model: CdfModel, data: dict, numrecs=None):
    """One-shot serial write of a whole file.

    `data` maps every variable name to a full array (record variables carry
    the record dimension first). `target` is an open binary file; when it
    is None the encoded bytes are returned instead.
    """
    rec_vars = [v for v in model.vars if v.dims and model.dim(v.dims[0]).unlimited]
    if numrecs is None:
        numrecs = len(np.asarray(data[rec_vars[0].name])) if rec_vars else 0
    buf = io.BytesIO() if target is None else target
    w = CdfWriter(buf, model, numrecs)
    for v in model.vars:
        if v.name not in data:
            raise CdfError(f"no data supplied for variable {v.name}")
        w.write_full(v.name, data[v.name])
    w.close()
    if target is None:
        return buf.getvalue()
    return None


class _HeaderParser:
    def __init__(self, fh, variant: str, left: int):
        self.fh = fh
        self.w = _nn_width(variant)
        self.left = left  # bytes left in the stream

    def read(self, n: int) -> bytes:
        if n > self.left:
            raise CdfError("truncated header")
        self.left -= n
        return self.fh.read(n)

    def u32(self) -> int:
        return struct.unpack(">I", self.read(4))[0]

    def nonneg(self) -> int:
        return int.from_bytes(self.read(self.w), "big")

    def i64(self) -> int:
        return struct.unpack(">q", self.read(8))[0]

    def name(self) -> str:
        n = self.nonneg()
        raw = self.read(n + (-n % 4))
        try:
            return raw[:n].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CdfError(f"name is not UTF-8: {raw[:n]!r}") from e

    def list_header(self, expect_tag: int) -> int:
        tag = self.u32()
        count = self.nonneg()
        if tag == 0 and count == 0:
            return 0
        if tag != expect_tag:
            raise CdfError(f"bad list tag {tag:#x} (expected {expect_tag:#x})")
        return count

    def nc_type(self) -> NcType:
        code = self.u32()
        t = _TYPE_BY_CODE.get(code)
        if t is None:
            what = _REJECTED_CODES.get(code, f"code {code}")
            raise CdfError(f"unsupported type {what}")
        return t

    def attrs(self) -> dict:
        out = {}
        for _ in range(self.list_header(_TAG_ATTRIBUTE)):
            aname = self.name()
            t = self.nc_type()
            nelems = self.nonneg()
            nbytes = nelems * t.size
            raw = self.read(nbytes + (-nbytes % 4))
            out[aname] = _decode_attr_value(t, raw, nelems)
        return out


def _runs(shape, start, count, itemsize) -> list:
    """(byte offset, byte length) of each contiguous run of the hyperslab
    (start, count) of a C-ordered block of `shape`, in the slab's order."""
    ndim = len(shape)
    if ndim == 0:
        return [(0, itemsize)]
    strides = [1] * ndim
    for i in range(ndim - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    # Dims after `split` are fully covered, so each run spans count[split]
    # consecutive rows.
    split = ndim - 1
    while split > 0 and start[split] == 0 and count[split] == shape[split]:
        split -= 1
    run = count[split] * strides[split] * itemsize
    runs = []
    for idx in np.ndindex(*count[:split]):
        off = start[split] * strides[split]
        for i, ix in enumerate(idx):
            off += (start[i] + ix) * strides[i]
        runs.append((off * itemsize, run))
    return runs


class CdfFile:
    """Parsed header plus lazy hyperslab access to variable data."""

    def __init__(self, source):
        if isinstance(source, (bytes, bytearray)):
            self._fh = io.BytesIO(bytes(source))
            self._own = True
        elif isinstance(source, str):
            self._fh = open(source, "rb")
            self._own = True
        else:
            self._fh = source
            self._own = False
        # Offsets in the header count from the start of the stream.
        self._size = self._fh.seek(0, io.SEEK_END)
        self._fh.seek(0)
        magic = self._fh.read(4)
        if len(magic) != 4 or magic[:3] != b"CDF":
            raise CdfError("not a NetCDF classic stream (bad magic)")
        variant = _VARIANT_BY_MAGIC.get(magic)
        if variant is None:
            raise CdfError(f"unsupported variant (version byte {magic[3]:#04x})")
        p = _HeaderParser(self._fh, variant, self._size - 4)
        self.numrecs = p.nonneg()
        model = CdfModel(variant=variant)
        for _ in range(p.list_header(_TAG_DIMENSION)):
            name = p.name()
            length = p.nonneg()
            model.dims.append(Dim(name, length, unlimited=(length == 0)))
        model.gattrs = p.attrs()
        for _ in range(p.list_header(_TAG_VARIABLE)):
            name = p.name()
            ndims = p.nonneg()
            dimids = [p.nonneg() for _ in range(ndims)]
            attrs = p.attrs()
            t = p.nc_type()
            vsize = p.nonneg()
            begin = p.i64()
            try:
                dims = tuple(model.dims[i].name for i in dimids)
            except IndexError:
                raise CdfError(f"variable {name}: dimension id out of range") from None
            model.vars.append(Var(name, t, dims, attrs, begin=begin, vsize=vsize))
        self._header_len = self._fh.tell()
        model.validate()
        for v in model.vars:
            if v.begin < self._header_len:
                raise CdfError(f"variable {v.name}: begin offset overlaps the header")
        # Record dims report the live record count.
        rec = model.record_dim()
        if rec is not None:
            rec.length = self.numrecs
        self.model = model
        self._record_size = sum(
            v.vsize for v in model.vars if _is_record(model, v)
        )

    def shape(self, name: str) -> tuple:
        return self.model.var_shape(self.model.var(name), self.numrecs)

    def read(self, name: str) -> np.ndarray:
        shape = self.shape(name)
        return self.read_slab(name, (0,) * len(shape), shape)

    def read_slab(self, name: str, start: tuple, count: tuple, out=None) -> np.ndarray:
        """Read a rectangular hyperslab (start/count per dimension) and
        return it. Each contiguous run of the file is read straight into its
        place in the result: a fresh native-order array, or `out`, which
        must be a writeable C-contiguous array of shape `count` holding the
        variable's type in either byte order. The result is byte-swapped in
        place only when its byte order differs from the file's."""
        v = self.model.var(name)
        shape = self.shape(name)
        start, count = tuple(start), tuple(count)
        if len(start) != len(shape) or len(count) != len(shape):
            raise CdfError(f"{name}: slab rank must be {len(shape)}")
        for s, c, n in zip(start, count, shape):
            if s < 0 or c < 0 or s + c > n:
                raise CdfError(f"{name}: slab [{start}, {count}) exceeds shape {shape}")
        itemsize = v.nc_type.size
        record = _is_record(self.model, v)
        # Before allocating: n blocks (records) of `per` bytes inside the file.
        n, dims = (shape[0], shape[1:]) if record else (1, shape)
        per = math.prod(dims) * itemsize
        end = v.begin + (n - 1) * self._record_size + per if n else 0
        if end > self._size or per > np.iinfo(np.intp).max:
            raise CdfError(f"variable {name}: {n} x {per} bytes do not fit the file")
        stored = np.dtype(v.nc_type.dtype)
        if out is None:
            out = np.empty(count, dtype=stored.newbyteorder("="))
        elif not (
            isinstance(out, np.ndarray)
            and out.shape == count
            and out.dtype in (stored, stored.newbyteorder("="))
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise CdfError(
                f"{name}: out must be a writeable C-contiguous {stored.newbyteorder('=')} "
                f"array (either byte order) of shape {count}"
            )
        if out.size == 0:
            return out
        if record:
            bases = [v.begin + (start[0] + k) * self._record_size for k in range(count[0])]
            runs = _runs(shape[1:], start[1:], count[1:], itemsize)
        else:
            bases = [v.begin]
            runs = _runs(shape, start, count, itemsize)
        flat = out.reshape(-1)
        dest = memoryview(flat.view(np.uint8))
        pos = 0
        for base in bases:
            for offset, nbytes in runs:
                self._fh.seek(base + offset)
                # The open-time extent check cannot see a file that shrank
                # since; a short read is the only sign of that.
                if self._fh.readinto(dest[pos : pos + nbytes]) != nbytes:
                    raise CdfError(f"variable {name}: truncated data")
                pos += nbytes
        if out.dtype != stored:
            flat.byteswap(inplace=True)
        return out

    def close(self) -> None:
        if self._own:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_file(source) -> CdfFile:
    """Open a path, byte string, or file object as a parsed CdfFile."""
    return CdfFile(source)


_DUMP_TYPE = {
    NcType.INT32: "int",
    NcType.INT64: "int64",
    NcType.FLOAT32: "float",
    NcType.FLOAT64: "double",
}


def _fmt_attr(value) -> str:
    if isinstance(value, str):
        return '"%s"' % value
    arr = np.atleast_1d(np.asarray(value))
    return ", ".join(repr(x.item()) for x in arr)


def dump_header(source, title: str = "-") -> str:
    """Stable text rendering of a file header, for inspection and golden
    tests."""
    f = source if isinstance(source, CdfFile) else read_file(source)
    m = f.model
    lines = [f"netcdf {title} format {m.variant} numrecs {f.numrecs}"]
    lines.append("dimensions:")
    for d in m.dims:
        if d.unlimited:
            lines.append(f"  {d.name} = UNLIMITED ({f.numrecs} currently)")
        else:
            lines.append(f"  {d.name} = {d.length}")
    lines.append("variables:")
    for v in m.vars:
        dims = ", ".join(v.dims)
        lines.append(f"  {_DUMP_TYPE[v.nc_type]} {v.name}({dims})")
        for aname, value in v.attrs.items():
            lines.append(f"    {v.name}:{aname} = {_fmt_attr(value)}")
    lines.append("global attributes:")
    for aname, value in m.gattrs.items():
        lines.append(f"  :{aname} = {_fmt_attr(value)}")
    if not isinstance(source, CdfFile):
        f.close()
    return "\n".join(lines) + "\n"
