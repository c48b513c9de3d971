"""Computational domain construction: projected 2D grid, land mask,
gridcell IDs, areas and fractions, cell-corner geolocation, and the 2D/1D
land compaction map, plus subsetting and replication.

Gridcell IDs are 0-based row-major over the originating grid. Replication
stacks copies after one another with ids offset by the accumulated id
space, so copy and source cell are always recoverable as
``id // id_space`` and ``id % id_space``. A DomainSpec is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cdf
from .projection import LccParams, lcc_inverse

__all__ = [
    "AKSP_CENSUS",
    "DomainSpec",
    "Grid2D",
    "SubgridCensus",
    "build_domain",
    "census",
    "compact",
    "expand",
    "read_domain",
    "read_domain_header",
    "replicate",
    "subset",
    "synth_mask",
    "write_domain",
]


@dataclass(frozen=True)
class Grid2D:
    """Regular square-celled grid in projected meters; (origin_x, origin_y)
    is the center of cell [0, 0] and rows advance north."""

    n_rows: int
    n_cols: int
    cell_size: float = 1000.0
    origin_x: float = 0.0
    origin_y: float = 0.0
    lcc: LccParams = LccParams()

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("grid must have at least one row and column")
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def cell_centers(self, rows=None, cols=None):
        """Projected (x, y) centers, broadcast over the row/col grid."""
        r = np.arange(self.n_rows) if rows is None else np.asarray(rows)
        c = np.arange(self.n_cols) if cols is None else np.asarray(cols)
        x = self.origin_x + c * self.cell_size
        y = self.origin_y + r * self.cell_size
        return np.broadcast_to(x, (r.size, c.size)), np.broadcast_to(
            y[:, None], (r.size, c.size)
        )


@dataclass
class SubgridCensus:
    gridcells: int
    topounits: int
    landunits: int
    columns: int
    pfts: int


# Subgrid totals of the 72,083-gridcell Seward Peninsula reference case.
AKSP_CENSUS = SubgridCensus(
    gridcells=72_083,
    topounits=72_083,
    landunits=313_123,
    columns=1_178_119,
    pfts=2_331_447,
)


class DomainSpec:
    """Concrete domain: grid + mask + ids, with geolocation computed lazily
    (or inherited from a parent domain) so huge masks stay cheap."""

    # Corner order for xv/yv: SW, SE, NE, NW.
    N_CORNERS = 4

    def __init__(self, grid: Grid2D, mask, gridcell_id=None, id_space=None, n_copies=1):
        mask = np.asarray(mask)
        if mask.shape != (grid.n_rows, grid.n_cols):
            raise ValueError(
                f"mask shape {mask.shape} does not match grid "
                f"({grid.n_rows}, {grid.n_cols})"
            )
        self.grid = grid
        self.mask = np.ascontiguousarray(mask.astype(np.int8, copy=False))
        self.id_space = grid.n_cells if id_space is None else int(id_space)
        self.n_copies = int(n_copies)
        self._gridcell_id = gridcell_id
        self._land_flat = None
        self._n_land = None
        self._xc = self._yc = self._xv = self._yv = None
        self._tile_coords_from = None  # (base DomainSpec, k) set by replicate

    # -- basic shape and indexing ------------------------------------------

    @property
    def n_land(self) -> int:
        if self._n_land is None:
            self._n_land = int(np.count_nonzero(self.mask))
        return self._n_land

    @property
    def land_flat(self) -> np.ndarray:
        """Flat row-major positions of land cells in this grid, ascending."""
        if self._land_flat is None:
            self._land_flat = np.flatnonzero(self.mask.reshape(-1))
        return self._land_flat

    @property
    def gridcell_id(self) -> np.ndarray:
        if self._gridcell_id is None:
            self._gridcell_id = np.arange(self.grid.n_cells, dtype=np.int64).reshape(
                self.grid.n_rows, self.grid.n_cols
            )
        return self._gridcell_id

    @property
    def land_index(self) -> np.ndarray:
        """Global IDs of land cells: the 1D compaction map."""
        return self.gridcell_id.reshape(-1)[self.land_flat]

    @property
    def source_id(self) -> np.ndarray:
        """Per land cell: the originating cell id before replication."""
        return self.land_index % self.id_space

    @property
    def copy_index(self) -> np.ndarray:
        """Per land cell: which replica the cell belongs to (0-based)."""
        return self.land_index // self.id_space

    # -- per-cell scalar fields --------------------------------------------

    @property
    def frac(self) -> np.ndarray:
        return self.mask.astype(np.float64)

    @property
    def area(self) -> np.ndarray:
        """Cell area in km^2, exact on the projected plane."""
        km = self.grid.cell_size / 1000.0
        return np.full((self.grid.n_rows, self.grid.n_cols), km * km)

    # -- geolocation (lazy) ------------------------------------------------

    def _geolocate(self):
        g = self.grid
        x, y = g.cell_centers()
        yc, xc = lcc_inverse(x, y, g.lcc)
        h = g.cell_size / 2.0
        xv = np.empty((self.N_CORNERS, g.n_rows, g.n_cols))
        yv = np.empty_like(xv)
        for k, (dx, dy) in enumerate([(-h, -h), (h, -h), (h, h), (-h, h)]):
            lat, lon = lcc_inverse(x + dx, y + dy, g.lcc)
            xv[k], yv[k] = lon, lat
        self._xc, self._yc, self._xv, self._yv = xc, yc, xv, yv

    def _coord(self, name):
        if self._xc is None:
            if self._tile_coords_from is not None:
                base, k = self._tile_coords_from
                self._set_coords(
                    np.tile(base.xc, (k, 1)),
                    np.tile(base.yc, (k, 1)),
                    np.tile(base.xv, (1, k, 1)),
                    np.tile(base.yv, (1, k, 1)),
                )
            else:
                self._geolocate()
        return getattr(self, "_" + name)

    @property
    def xc(self) -> np.ndarray:
        """Cell-center longitudes, degrees."""
        return self._coord("xc")

    @property
    def yc(self) -> np.ndarray:
        """Cell-center latitudes, degrees."""
        return self._coord("yc")

    @property
    def xv(self) -> np.ndarray:
        """Corner longitudes (4, nj, ni), SW/SE/NE/NW order."""
        return self._coord("xv")

    @property
    def yv(self) -> np.ndarray:
        return self._coord("yv")

    def _set_coords(self, xc, yc, xv, yv):
        self._xc, self._yc, self._xv, self._yv = xc, yc, xv, yv


def build_domain(grid: Grid2D, mask) -> DomainSpec:
    """Assemble a DomainSpec over a grid and land mask.

    IDs are row-major 0-based; land_index lists land cells in ascending id
    order; frac is 1 on land and 0 elsewhere; area is cell_size^2 exactly
    (projected plane).
    """
    d = DomainSpec(grid, mask)
    if d.n_land == 0:
        raise ValueError("empty land domain")
    return d


def compact(field2d, d: DomainSpec) -> np.ndarray:
    """Extract land cells of a (..., nj, ni) field into (..., n_land),
    ordered by ascending gridcell id."""
    arr = np.asarray(field2d)
    nj, ni = d.grid.n_rows, d.grid.n_cols
    if arr.shape[-2:] != (nj, ni):
        raise ValueError(f"field shape {arr.shape} does not end in ({nj}, {ni})")
    flat = arr.reshape(arr.shape[:-2] + (nj * ni,))
    return flat[..., d.land_flat]


def expand(field1d, d: DomainSpec, fill=np.nan) -> np.ndarray:
    """Inverse of compact: place land values back on the 2D grid, with
    `fill` everywhere else."""
    arr = np.asarray(field1d)
    if arr.shape[-1] != d.n_land:
        raise ValueError(f"expected {d.n_land} land values, got {arr.shape[-1]}")
    nj, ni = d.grid.n_rows, d.grid.n_cols
    out = np.full(arr.shape[:-1] + (nj * ni,), fill, dtype=arr.dtype)
    out[..., d.land_flat] = arr
    return out.reshape(arr.shape[:-1] + (nj, ni))


def subset(d: DomainSpec, bbox=None, ids=None) -> DomainSpec:
    """Extract a sub-domain by projected-meter bbox (xmin, ymin, xmax, ymax)
    over cell centers, or by an explicit list of gridcell ids.

    Gridcell ids are preserved from the parent for traceability. An id
    selection keeps the bounding window, with unselected cells masked out.
    """
    g = d.grid
    if (bbox is None) == (ids is None):
        raise ValueError("exactly one of bbox or ids must be given")
    if bbox is not None:
        xmin, ymin, xmax, ymax = bbox
        cx = g.origin_x + np.arange(g.n_cols) * g.cell_size
        cy = g.origin_y + np.arange(g.n_rows) * g.cell_size
        cols = np.flatnonzero((cx >= xmin) & (cx <= xmax))
        rows = np.flatnonzero((cy >= ymin) & (cy <= ymax))
        if rows.size == 0 or cols.size == 0:
            raise ValueError("selector does not intersect the domain")
        r0, r1 = rows[0], rows[-1] + 1
        c0, c1 = cols[0], cols[-1] + 1
        sub_mask = d.mask[r0:r1, c0:c1]
    else:
        wanted = np.isin(d.gridcell_id, np.asarray(ids, dtype=np.int64))
        if not wanted.any():
            raise ValueError("selector does not intersect the domain")
        rows = np.flatnonzero(wanted.any(axis=1))
        cols = np.flatnonzero(wanted.any(axis=0))
        r0, r1 = rows[0], rows[-1] + 1
        c0, c1 = cols[0], cols[-1] + 1
        sub_mask = (d.mask & wanted)[r0:r1, c0:c1]
    sub_grid = Grid2D(
        n_rows=int(r1 - r0),
        n_cols=int(c1 - c0),
        cell_size=g.cell_size,
        origin_x=g.origin_x + c0 * g.cell_size,
        origin_y=g.origin_y + r0 * g.cell_size,
        lcc=g.lcc,
    )
    out = DomainSpec(
        sub_grid,
        sub_mask,
        gridcell_id=d.gridcell_id[r0:r1, c0:c1],
        id_space=d.id_space,
        n_copies=d.n_copies,
    )
    # Slice parent geolocation so subset coordinates match it bit-for-bit.
    out._set_coords(
        d.xc[r0:r1, c0:c1],
        d.yc[r0:r1, c0:c1],
        d.xv[:, r0:r1, c0:c1],
        d.yv[:, r0:r1, c0:c1],
    )
    return out


def replicate(d: DomainSpec, k: int) -> DomainSpec:
    """Stack k exact copies of a domain.

    Copy j of cell i gets id = j*stride + i, so the land ordering is all of
    copy 0, then copy 1, and so on; coordinates and areas tile unchanged.
    """
    if k < 1:
        raise ValueError("replication factor must be >= 1")
    stride = d.id_space * d.n_copies
    if (k - 1) * stride + int(d.gridcell_id.max()) >= 2**62:
        raise OverflowError("replication overflows the gridcell id space")
    g = d.grid
    big_grid = Grid2D(
        n_rows=g.n_rows * k,
        n_cols=g.n_cols,
        cell_size=g.cell_size,
        origin_x=g.origin_x,
        origin_y=g.origin_y,
        lcc=g.lcc,
    )
    ids = np.concatenate(
        [d.gridcell_id + np.int64(j) * stride for j in range(k)], axis=0
    )
    out = DomainSpec(
        big_grid,
        np.tile(d.mask, (k, 1)),
        gridcell_id=ids,
        id_space=d.id_space,
        n_copies=d.n_copies * k,
    )
    # Coordinates tile from the base on first access: the copies are exact
    # geographic duplicates, never re-projected from the stacked grid.
    out._tile_coords_from = (d, k)
    return out


def census(base: SubgridCensus, k: int) -> SubgridCensus:
    """Subgrid totals of a k-fold replicated domain."""
    if k < 1:
        raise ValueError("replication factor must be >= 1")
    return SubgridCensus(
        gridcells=base.gridcells * k,
        topounits=base.topounits * k,
        landunits=base.landunits * k,
        columns=base.columns * k,
        pfts=base.pfts * k,
    )


def synth_mask(n_rows: int, n_cols: int, land_fraction: float, seed: int) -> np.ndarray:
    """Deterministic random land mask with the given expected fraction."""
    if not 0.0 <= land_fraction <= 1.0:
        raise ValueError("land_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    return (rng.random((n_rows, n_cols)) < land_fraction).astype(np.int8)


# ---------------------------------------------------------------------------
# Domain file layout: dims (nj, ni, nv, gridcell); the 8 gridded variables
# plus their 7 land-compacted mirrors; projection constants and the id
# convention as global attributes.

ID_CONVENTION = "0-based row-major"


def domain_file_model(d: DomainSpec, variant: str = cdf.CDF5) -> cdf.CdfModel:
    g = d.grid
    model = cdf.CdfModel(variant=variant)
    model.dims = [
        cdf.Dim("nj", g.n_rows),
        cdf.Dim("ni", g.n_cols),
        cdf.Dim("nv", DomainSpec.N_CORNERS),
        cdf.Dim("gridcell", d.n_land),
    ]
    model.gattrs = {
        "title": "kiloland domain",
        "id_convention": ID_CONVENTION,
        "area_method": "projected-plane cell_size^2 (not ellipsoidal)",
        "cell_size_m": g.cell_size,
        "origin_x": g.origin_x,
        "origin_y": g.origin_y,
        "id_space": g.n_cells if d is None else d.id_space,
        "n_copies": d.n_copies,
        **g.lcc.to_attrs(),
    }
    F64, I32, I64 = cdf.NcType.FLOAT64, cdf.NcType.INT32, cdf.NcType.INT64
    grid2d = ("nj", "ni")
    model.vars = [
        cdf.Var("mask", I32, grid2d, {"long_name": "land mask", "units": "1"}),
        cdf.Var("frac", F64, grid2d, {"long_name": "land fraction", "units": "1"}),
        cdf.Var("area", F64, grid2d, {"units": "km^2"}),
        cdf.Var("xc", F64, grid2d, {"long_name": "cell center longitude", "units": "degrees_east"}),
        cdf.Var("yc", F64, grid2d, {"long_name": "cell center latitude", "units": "degrees_north"}),
        cdf.Var("xv", F64, ("nv",) + grid2d, {"units": "degrees_east"}),
        cdf.Var("yv", F64, ("nv",) + grid2d, {"units": "degrees_north"}),
        cdf.Var("gridcell_id", I64, grid2d, {"long_name": "global gridcell id"}),
        cdf.Var("frac_land", F64, ("gridcell",), {"units": "1"}),
        cdf.Var("area_land", F64, ("gridcell",), {"units": "km^2"}),
        cdf.Var("xc_land", F64, ("gridcell",), {"units": "degrees_east"}),
        cdf.Var("yc_land", F64, ("gridcell",), {"units": "degrees_north"}),
        cdf.Var("xv_land", F64, ("nv", "gridcell"), {"units": "degrees_east"}),
        cdf.Var("yv_land", F64, ("nv", "gridcell"), {"units": "degrees_north"}),
        cdf.Var("gridcell_id_land", I64, ("gridcell",), {"long_name": "land compaction map"}),
    ]
    return model


def write_domain(d: DomainSpec, path: str, variant: str = cdf.CDF5) -> None:
    model = domain_file_model(d, variant)
    data = {
        "mask": d.mask.astype(np.int32),
        "frac": d.frac,
        "area": d.area,
        "xc": d.xc,
        "yc": d.yc,
        "xv": d.xv,
        "yv": d.yv,
        "gridcell_id": d.gridcell_id,
        "frac_land": compact(d.frac, d),
        "area_land": compact(d.area, d),
        "xc_land": compact(d.xc, d),
        "yc_land": compact(d.yc, d),
        "xv_land": compact(d.xv, d),
        "yv_land": compact(d.yv, d),
        "gridcell_id_land": d.land_index,
    }
    with open(path, "wb") as fh:
        cdf.write_file(fh, model, data)


def _header(f: cdf.CdfFile, path: str) -> tuple:
    """(n_land, id_space, n_copies) of an open domain file; a missing
    `gridcell` dimension or attribute is a CdfError."""
    try:
        a = f.model.gattrs
        return f.model.dim("gridcell").length, int(a["id_space"]), int(a["n_copies"])
    except KeyError as e:
        raise cdf.CdfError(f"domain {path} lacks {e}") from None


def read_domain_header(path: str) -> tuple:
    """(n_land, id_space, n_copies) from a domain file's header alone."""
    with cdf.read_file(path) as f:
        return _header(f, path)


def read_domain(path: str) -> DomainSpec:
    with cdf.read_file(path) as f:
        _, id_space, n_copies = _header(f, path)
        a = f.model.gattrs
        grid = Grid2D(
            n_rows=f.model.dim("nj").length,
            n_cols=f.model.dim("ni").length,
            cell_size=float(a["cell_size_m"]),
            origin_x=float(a["origin_x"]),
            origin_y=float(a["origin_y"]),
            lcc=LccParams.from_attrs(a),
        )
        d = DomainSpec(
            grid,
            f.read("mask"),
            gridcell_id=f.read("gridcell_id"),
            id_space=id_space,
            n_copies=n_copies,
        )
        d._set_coords(f.read("xc"), f.read("yc"), f.read("xv"), f.read("yv"))
    return d
