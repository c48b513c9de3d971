"""Static domain decomposition and the parallel-write pipeline.

Three gridcell partitioning schemes (round-robin, block, block
round-robin) assign cells to ranks; the I/O decomposition of a gridcell
variable is those cell lists, each cell's file offset being its global id;
a write gathers the ranks' data once and each aggregator writes its
contiguous offset range of it through one cdf writer, flushing at a
configurable buffer limit. The emitted bytes are bit-identical to a serial
write for every scheme, aggregator count, and buffer size.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AggregatorPlan",
    "DEFAULT_BUFFER_LIMIT",
    "IOSTATS_HEADER",
    "IoDecomp",
    "Partition",
    "ROUND_ROBIN",
    "BLOCK",
    "BLOCK_ROUND_ROBIN",
    "SCHEMES",
    "WriteStats",
    "make_plan",
    "partition",
    "rearrange_write",
]

ROUND_ROBIN = "round_robin"
BLOCK = "block"
BLOCK_ROUND_ROBIN = "block_round_robin"
SCHEMES = (ROUND_ROBIN, BLOCK, BLOCK_ROUND_ROBIN)

DEFAULT_BLOCK_SIZE = 64
DEFAULT_BUFFER_LIMIT = 64 * 2**20  # 64 MiB per flush


@dataclass
class Partition:
    scheme: str
    n_cells: int
    n_ranks: int
    block_size: int | None
    assignment: np.ndarray  # cell -> rank
    local_lists: list = field(default_factory=list)  # per rank, ascending global ids


def partition(n_cells: int, n_ranks: int, scheme: str, block_size: int | None = None) -> Partition:
    """Assign cells to ranks under one of the three static schemes."""
    if n_cells < 1 or n_ranks < 1:
        raise ValueError("n_cells and n_ranks must be >= 1")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} (choose from {SCHEMES})")
    i = np.arange(n_cells, dtype=np.int64)
    if scheme == ROUND_ROBIN:
        assignment = (i % n_ranks).astype(np.int32)
    elif scheme == BLOCK:
        big = n_cells % n_ranks
        base = n_cells // n_ranks
        counts = np.full(n_ranks, base, dtype=np.int64)
        counts[:big] += 1
        assignment = np.repeat(np.arange(n_ranks, dtype=np.int32), counts)
    else:
        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        assignment = ((i // block_size) % n_ranks).astype(np.int32)
    if n_ranks > n_cells:
        warnings.warn(
            f"{n_ranks} ranks for {n_cells} cells leaves empty ranks", stacklevel=2
        )
    order = np.argsort(assignment, kind="stable")
    bounds = np.searchsorted(assignment[order], np.arange(n_ranks + 1))
    local_lists = [order[bounds[r] : bounds[r + 1]] for r in range(n_ranks)]
    return Partition(
        scheme=scheme,
        n_cells=n_cells,
        n_ranks=n_ranks,
        block_size=block_size if scheme == BLOCK_ROUND_ROBIN else None,
        assignment=assignment,
        local_lists=local_lists,
    )


@dataclass
class IoDecomp:
    """The I/O decomposition of a gridcell variable: rank r's local element
    i goes to file offset `part.local_lists[r][i]`. Every run output is one
    value per gridcell, so the partition's cell lists are the whole map.
    Construction checks once that they cover [0, n_cells) exactly once.
    """

    part: Partition

    def __post_init__(self):
        total = self.total_elements
        cells = np.concatenate([np.asarray(c, dtype=np.int64) for c in self.part.local_lists])
        inside = (cells >= 0) & (cells < total)
        counts = np.bincount(cells[inside], minlength=total)
        bad = np.concatenate([cells[~inside], np.flatnonzero(counts != 1)])
        if bad.size:
            raise ValueError(
                f"rank offsets do not cover [0, {total}) exactly once "
                f"(first bad offset {int(bad.min())})"
            )

    @property
    def total_elements(self) -> int:
        return self.part.n_cells

    def gather(self, local_datas: list) -> np.ndarray:
        """Assemble the global flat array from per-rank local arrays."""
        lists = self.part.local_lists
        if len(local_datas) != len(lists):
            raise ValueError(f"{len(local_datas)} rank arrays for {len(lists)} ranks")
        out = None
        for rank, (local, cells) in enumerate(zip(local_datas, lists)):
            local = np.asarray(local).reshape(-1)
            if local.size != len(cells):
                first = int(cells[min(local.size, len(cells) - 1)]) if len(cells) else None
                raise ValueError(
                    f"rank {rank} supplied {local.size} of {len(cells)} elements "
                    f"(first mismatch at offset {first})"
                )
            if out is None:
                out = np.empty(self.total_elements, dtype=local.dtype)
            out[cells] = local
        return out


@dataclass
class AggregatorPlan:
    """Contiguous global element ranges, one per aggregator, plus the flush
    buffer limit in bytes."""

    n_aggregators: int
    ranges: list  # [(lo, hi)) partitioning [0, total)
    buffer_limit: int = DEFAULT_BUFFER_LIMIT

    def validate(self, total_elements: int) -> None:
        if self.buffer_limit <= 0:
            raise ValueError("buffer_limit must be positive")
        cursor = 0
        for lo, hi in self.ranges:
            if lo != cursor or hi < lo:
                raise ValueError("aggregator ranges must partition [0, total)")
            cursor = hi
        if cursor != total_elements:
            raise ValueError(
                f"aggregator ranges cover {cursor} of {total_elements} elements"
            )


def make_plan(
    total_elements: int,
    n_aggregators: int,
    buffer_limit: int = DEFAULT_BUFFER_LIMIT,
) -> AggregatorPlan:
    """Equal contiguous element spans (within one) across aggregators."""
    if n_aggregators < 1:
        raise ValueError("need at least one aggregator")
    n_aggregators = min(n_aggregators, max(total_elements, 1))
    base = total_elements // n_aggregators
    extra = total_elements % n_aggregators
    ranges = []
    lo = 0
    for a in range(n_aggregators):
        hi = lo + base + (1 if a < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return AggregatorPlan(n_aggregators, ranges, buffer_limit)


@dataclass
class WriteStats:
    variable: str
    bytes_written: int
    seconds: float
    n_aggregators: int
    buffer_limit: int
    per_aggregator_bytes: list

    @property
    def mib_per_s(self) -> float:
        return self.bytes_written / 2**20 / self.seconds if self.seconds > 0 else 0.0

    def csv_row(self, case: str) -> str:
        return (
            f"{case},{self.variable},{self.bytes_written},{self.seconds:.6f},"
            f"{self.mib_per_s:.3f},{self.n_aggregators},{self.buffer_limit}"
        )


IOSTATS_HEADER = "case,variable,bytes,seconds,MiB_per_s,aggregators,buffer_limit"


def rearrange_write(
    local_datas: list,
    iod: IoDecomp,
    plan: AggregatorPlan,
    writer,
    var_name: str,
    record: int | None = None,
) -> WriteStats:
    """Gather the ranks' data once and write each aggregator's contiguous
    range of it, flushing at most `buffer_limit` bytes at a time.

    The assembled bytes depend only on the decomposition, never on gather
    order, so the file is bit-identical to a serial write. A record of
    `var_name` must hold one value per gridcell.
    """
    plan.validate(iod.total_elements)
    var = writer.model.var(var_name)
    per_record = math.prod(writer.model.var_shape(var, 1))
    if per_record != iod.total_elements:
        raise ValueError(
            f"{var_name}: {per_record} elements per record, "
            f"not one per gridcell ({iod.total_elements})"
        )
    itemsize = var.nc_type.size
    t0 = time.perf_counter()
    try:
        flat = iod.gather(local_datas)
    except ValueError as err:
        raise ValueError(f"{var_name}: {err}") from None
    max_elems = max(plan.buffer_limit // itemsize, 1)
    per_agg = []
    for lo, hi in plan.ranges:
        for pos in range(lo, hi, max_elems):
            writer.write_elements(var_name, pos, flat[pos : min(pos + max_elems, hi)],
                                  record=record)
        per_agg.append((hi - lo) * itemsize)
    return WriteStats(
        variable=var_name,
        bytes_written=sum(per_agg),
        seconds=time.perf_counter() - t0,
        n_aggregators=plan.n_aggregators,
        buffer_limit=plan.buffer_limit,
        per_aggregator_bytes=per_agg,
    )
