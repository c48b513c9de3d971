"""Static domain decomposition and the parallel-write pipeline.

`partition` decomposes the gridcells over the ranks under one of three
schemes (round-robin, block, block round-robin) and returns one `IoDecomp`:
each rank's ascending list of global cell ids, which are also the file
offsets of every gridcell variable, so it serves both the run and its
writes. The lists are built in closed form, without a sort. A write
gathers the ranks' data once and each aggregator writes its contiguous
offset range of it through one cdf writer, flushing at a configurable
buffer limit. The emitted bytes are bit-identical to a serial write for
every scheme, aggregator count, and buffer size.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AggregatorPlan",
    "DEFAULT_BUFFER_LIMIT",
    "IOSTATS_HEADER",
    "IoDecomp",
    "ROUND_ROBIN",
    "BLOCK",
    "BLOCK_ROUND_ROBIN",
    "SCHEMES",
    "WriteStats",
    "index_dtype",
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


def index_dtype(n_cells: int) -> np.dtype:
    """The dtype of an index into `n_cells` cells: 4 bytes below 2^31 cells."""
    return np.dtype(np.int32 if n_cells < 2**31 else np.int64)


@dataclass
class IoDecomp:
    """The decomposition of the gridcells over the ranks: rank r holds the
    cells `local_lists[r]`, ascending, and its local element i goes to file
    offset `local_lists[r][i]`. Every run output is one value per gridcell,
    so these lists are the whole I/O map. Construction checks once that
    they cover [0, n_cells) exactly once.
    """

    n_cells: int
    local_lists: list

    def __post_init__(self):
        total = self.n_cells
        lists = [np.asarray(c) for c in self.local_lists]
        # Lists whose lengths sum to `total` and that reach every cell of
        # [0, total) cover it exactly once, so a 1-byte mask suffices when
        # they do; only a bad partition pays for the count below.
        if sum(c.size for c in lists) == total and all(
            c.size == 0 or (c.min() >= 0 and c.max() < total) for c in lists
        ):
            seen = np.zeros(total, dtype=bool)
            for c in lists:
                seen[c] = True
            if seen.all():
                return
        cells = np.concatenate([c.astype(np.int64) for c in lists])
        inside = (cells >= 0) & (cells < total)
        counts = np.bincount(cells[inside], minlength=total)
        bad = np.concatenate([cells[~inside], np.flatnonzero(counts != 1)])
        if bad.size:
            raise ValueError(
                f"rank offsets do not cover [0, {total}) exactly once "
                f"(first bad offset {int(bad.min())})"
            )

    def gather(self, local_datas: list) -> np.ndarray:
        """Assemble the global flat array from per-rank local arrays."""
        lists = self.local_lists
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
                out = np.empty(self.n_cells, dtype=local.dtype)
            out[cells] = local
        return out


def partition(n_cells: int, n_ranks: int, scheme: str, block_size: int | None = None) -> IoDecomp:
    """Decompose the cells over the ranks under one of the three static
    schemes. The ranks' lists are views of one index order, built in
    closed form: block gives each rank one contiguous run, and round-robin
    is block round-robin with one-cell blocks."""
    if n_cells < 1 or n_ranks < 1:
        raise ValueError("n_cells and n_ranks must be >= 1")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} (choose from {SCHEMES})")
    size = 1
    if scheme == BLOCK_ROUND_ROBIN:
        size = DEFAULT_BLOCK_SIZE if block_size is None else block_size
        if size < 1:
            raise ValueError("block_size must be >= 1")
    if n_ranks > n_cells:
        warnings.warn(
            f"{n_ranks} ranks for {n_cells} cells leaves empty ranks", stacklevel=2
        )
    dtype = index_dtype(n_cells)
    if scheme == BLOCK:
        order = np.arange(n_cells, dtype=dtype)
        lists = [order[lo:hi] for lo, hi in _even_runs(n_cells, n_ranks)]
    else:
        lists = _dealt_blocks(n_cells, n_ranks, size, dtype)
    return IoDecomp(n_cells, lists)


def _even_runs(total: int, k: int) -> list:
    """k contiguous [lo, hi) runs covering [0, total) whose lengths differ
    by at most one, the longer runs first."""
    base, big = divmod(total, k)
    bounds = [r * base + min(r, big) for r in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _dealt_blocks(n_cells: int, n_ranks: int, size: int, dtype: np.dtype) -> list:
    """Rank r's cells are blocks r, r + n_ranks, ... of `size` cells (the
    last block may be short), written rank after rank into one order."""
    order = np.empty(n_cells, dtype=dtype)
    within = np.arange(size, dtype=dtype)
    n_full, tail = divmod(n_cells, size)
    lists, lo = [], 0
    for r in range(n_ranks):
        starts = np.arange(r, n_full, n_ranks, dtype=dtype)
        starts *= size
        hi = lo + starts.size * size
        np.add(starts[:, None], within, out=order[lo:hi].reshape(-1, size))
        if tail and n_full % n_ranks == r:
            order[hi : hi + tail] = np.arange(n_cells - tail, n_cells, dtype=dtype)
            hi += tail
        lists.append(order[lo:hi])
        lo = hi
    return lists


@dataclass
class AggregatorPlan:
    """Contiguous global element ranges, one per aggregator, plus the flush
    buffer limit in bytes. `make_plan` builds it valid."""

    ranges: list  # [(lo, hi)) partitioning [0, total)
    buffer_limit: int


def make_plan(
    total_elements: int,
    n_aggregators: int,
    buffer_limit: int = DEFAULT_BUFFER_LIMIT,
) -> AggregatorPlan:
    """Equal contiguous element spans (within one) across aggregators."""
    if n_aggregators < 1:
        raise ValueError("need at least one aggregator")
    if buffer_limit <= 0:
        raise ValueError("buffer_limit must be positive")
    n_aggregators = min(n_aggregators, max(total_elements, 1))
    return AggregatorPlan(_even_runs(total_elements, n_aggregators), buffer_limit)


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
    covered = plan.ranges[-1][1]
    if covered != iod.n_cells:
        raise ValueError(f"aggregator ranges cover {covered} of {iod.n_cells} elements")
    var = writer.model.var(var_name)
    per_record = math.prod(writer.model.var_shape(var, 1))
    if per_record != iod.n_cells:
        raise ValueError(
            f"{var_name}: {per_record} elements per record, "
            f"not one per gridcell ({iod.n_cells})"
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
        n_aggregators=len(plan.ranges),
        buffer_limit=plan.buffer_limit,
        per_aggregator_bytes=per_agg,
    )
