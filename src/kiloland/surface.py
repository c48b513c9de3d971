"""Surface-property datasets at target resolution from coarse regular
lat/lon sources, plus the subgrid hierarchy constants.

Nearest-neighbor interpolation is geodesic (squared chord distance on the
unit sphere, a monotone transform of great-circle distance) with ties
resolved toward the lower flat source index, so results are reproducible
and equal to a brute-force scan. The search is exact without a spatial
index: a bound from the chord identity limits it to a few rows of the
source, each evaluated in full. Bilinear interpolation operates
on the lat/lon rectangle containing each target. Spline interpolation is
deliberately unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cdf
from .domain import DomainSpec, compact

__all__ = [
    "CoarseGrid",
    "N_MONTHS",
    "N_PFTS",
    "SOIL_LAYERS",
    "SubgridSpec",
    "SurfaceDataset",
    "build_surface",
    "interp_bilinear",
    "interp_nearest",
    "nearest_indices",
    "read_surface",
    "synth_coarse_source",
    "write_surface",
]

SOIL_LAYERS = 15
N_PFTS = 17
N_MONTHS = 12

REQUIRED_VARS = ("PCT_CLAY", "FMAX", "PCT_PFT", "MONTHLY_LAI")


@dataclass(frozen=True)
class SubgridSpec:
    """Subgrid hierarchy bounds per gridcell."""

    max_landunits: int = 5
    max_columns_per_landunit: int = 2
    soil_layers: int = SOIL_LAYERS
    max_pfts: int = N_PFTS


@dataclass
class CoarseGrid:
    """Regular lat/lon source grid; values are (..., nlat, nlon) with
    optional leading dims (month, pft, layer) carried through."""

    lat: np.ndarray
    lon: np.ndarray
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lat = np.asarray(self.lat, dtype=np.float64)
        self.lon = np.asarray(self.lon, dtype=np.float64)
        if self.lat.size == 0 or self.lon.size == 0:
            raise ValueError("empty source grid")
        for axis, name in ((self.lat, "lat"), (self.lon, "lon")):
            if axis.size > 1 and not np.all(np.diff(axis) > 0):
                raise ValueError(f"{name} axis must be strictly increasing")
        if not (np.all(np.abs(self.lat) <= 90.0) and np.all(np.isfinite(self.lon))):
            raise ValueError("lat axis must lie in [-90, 90] and lon axis be finite")
        for name, v in self.values.items():
            v = np.asarray(v)
            if v.shape[-2:] != (self.lat.size, self.lon.size):
                raise ValueError(
                    f"{name}: trailing dims {v.shape[-2:]} do not match the grid"
                )


def _unit_vectors(lat_deg, lon_deg):
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    cl = np.cos(lat)
    return np.stack([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)], axis=-1)


def chord_sq(lat1, lon1, lat2, lon2):
    """Squared 3D chord distance between points on the unit sphere."""
    a = _unit_vectors(lat1, lon1)
    b = _unit_vectors(lat2, lon2)
    d = a - b
    return (d * d).sum(axis=-1)


# A chunk holds _CHUNK_CENTERS // nlon targets, so a row visit works on two
# (targets, nlon) float64 arrays of at most 1 MiB each.
_CHUNK_CENTERS = 2**17
# Slack on the row bound: relative, and absolute for targets on or very
# near a center. It is far above the rounding error of any chord² (about
# 1e-15), so no computed minimum is ever excluded.
_REL, _ABS = 1e-9, 1e-12


def nearest_indices(src: CoarseGrid, lat, lon) -> np.ndarray:
    """Flat (row-major) index of the geodesically nearest source center per
    target; exact distance ties go to the lower flat index.

    The search is exact: every center of every row whose chord² could reach
    the minimum is evaluated with the formula of `chord_sq`. The nearest of
    the four centers bracketing a target bounds its minimum, and the first
    term of the identity chord² = 4 sin²(Δφ/2) + 4 cos φ cos φᵣ sin²(Δλ/2)
    bounds each row from below, so only the rows within the bound are
    visited, each in full."""
    lat, lon = np.broadcast_arrays(
        np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
    )
    lat, lon = lat.ravel(), lon.ravel()
    bad = ~(np.isfinite(lat) & np.isfinite(lon))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"non-finite target {i}: lat {lat[i]}, lon {lon[i]}")
    if not np.all(np.abs(lat) <= 90.0):
        raise ValueError("target latitude outside [-90, 90]")
    glat, glon = np.meshgrid(src.lat, src.lon, indexing="ij")
    grid = np.moveaxis(_unit_vectors(glat, glon), -1, 0).copy()  # (3, nlat, nlon)
    phi, lam = np.radians(src.lat), np.radians(src.lon)
    out = np.empty(lat.size, dtype=np.int64)
    step = max(1, _CHUNK_CENTERS // lam.size)
    for s in range(0, lat.size, step):
        e = s + step
        out[s:e] = _nearest_chunk(grid, phi, lam, lat[s:e], lon[s:e])
    return out


def _chord_sq_to(c, idx, t):
    """`chord_sq` between targets t (n, 3) and the centers c[k][idx] (n, ...),
    where c holds the centers' unit vector components, one component at a
    time. (c - t)² equals (t - c)² exactly, and the squares are summed left
    to right, as `chord_sq`'s sum over its last axis does, so the values
    are equal."""
    d2 = c[0][idx]
    d2 -= t[:, 0, None]
    d2 *= d2
    for k in (1, 2):
        d = c[k][idx]
        d -= t[:, k, None]
        d *= d
        d2 += d
    return d2


def _nearest_chunk(grid, phi, lam, lat, lon) -> np.ndarray:
    """`nearest_indices` for one chunk of targets; `grid` holds the unit
    vector components of the centers, `phi` and `lam` the axes in radians."""
    nlat, nlon = phi.size, lam.size
    n = lat.size
    t = _unit_vectors(lat, lon)
    phi_t = np.radians(lat)

    # An upper bound on each target's minimum: its nearest bracketing center.
    i = np.searchsorted(phi, phi_t)
    j = np.searchsorted(lam, np.radians(lon))
    rows = np.clip(np.stack([i - 1, i], axis=1), 0, nlat - 1)
    cols = np.clip(np.stack([j - 1, j], axis=1), 0, nlon - 1)
    seeds = (rows[:, :, None] * nlon + cols[:, None, :]).reshape(n, 4)
    bound = _chord_sq_to(grid.reshape(3, -1), seeds, t).min(axis=1) * (1 + _REL) + _ABS

    # Rows whose 4 sin²(Δφ/2) is within the bound: |Δφ| <= 2 asin(√(bound/4)).
    half = 2 * np.arcsin(np.sqrt(np.minimum(bound / 4, 1.0)))
    r0 = np.searchsorted(phi, phi_t - half, side="left")
    n_rows = np.searchsorted(phi, phi_t + half, side="right") - r0

    # Visit each target's rows in increasing order; argmin keeps the lowest
    # column of a row and a later row wins only if strictly nearer, so
    # exact ties keep the lower flat index.
    best = np.full(n, np.inf)
    out = np.empty(n, dtype=np.int64)
    for k in range(n_rows.max()):
        m = np.flatnonzero(n_rows > k)
        r = r0[m] + k
        d2 = _chord_sq_to(grid, r, t[m])
        col = d2.argmin(axis=1)
        d2 = d2[np.arange(m.size), col]
        nearer = d2 < best[m]
        m = m[nearer]
        best[m] = d2[nearer]
        out[m] = r[nearer] * nlon + col[nearer]
    return out


def interp_nearest(src: CoarseGrid, lat, lon) -> dict:
    """Nearest-neighbor sampling of every source variable at the targets;
    leading dims are carried through unchanged."""
    idx = nearest_indices(src, lat, lon)
    out = {}
    for name, v in src.values.items():
        v = np.asarray(v)
        flat = v.reshape(v.shape[:-2] + (-1,))
        # This gather's memory layout sets the summation order of
        # build_surface's PCT_PFT renormalization, so it fixes output bits.
        out[name] = flat[..., idx]
    return out


def interp_bilinear(src: CoarseGrid, lat, lon) -> dict:
    """Standard bilinear interpolation on the enclosing lat/lon rectangle.
    Targets must lie inside the source extent."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if src.lat.size < 2 or src.lon.size < 2:
        raise ValueError("bilinear needs at least a 2x2 source")
    if (
        lat.min() < src.lat[0]
        or lat.max() > src.lat[-1]
        or lon.min() < src.lon[0]
        or lon.max() > src.lon[-1]
    ):
        raise ValueError("bilinear target outside the source extent")
    i = np.clip(np.searchsorted(src.lat, lat, side="right") - 1, 0, src.lat.size - 2)
    j = np.clip(np.searchsorted(src.lon, lon, side="right") - 1, 0, src.lon.size - 2)
    f = (lat - src.lat[i]) / (src.lat[i + 1] - src.lat[i])
    g = (lon - src.lon[j]) / (src.lon[j + 1] - src.lon[j])
    out = {}
    for name, v in src.values.items():
        v = np.asarray(v, dtype=np.float64)
        v00 = v[..., i, j]
        v10 = v[..., i + 1, j]
        v01 = v[..., i, j + 1]
        v11 = v[..., i + 1, j + 1]
        low = v00 + (v01 - v00) * g
        high = v10 + (v11 - v10) * g
        out[name] = low + (high - low) * f
    return out


# Clamp bounds besides the [0, 100] of every PCT_ variable.
_CLAMPS = {"FMAX": (0.0, 1.0), "MONTHLY_LAI": (0.0, None)}

_METHODS = {"nearest": interp_nearest, "bilinear": interp_bilinear, "linear": interp_bilinear}


@dataclass
class SurfaceDataset:
    """Per-land-cell surface properties (1D, land-compacted) plus the
    methods used and the subgrid hierarchy constants."""

    values: dict  # var -> (..., n_land)
    methods: dict  # var -> method name
    n_land: int
    subgrid: SubgridSpec = SubgridSpec()

    def validate(self) -> None:
        for name in REQUIRED_VARS:
            if name not in self.values:
                raise ValueError(f"missing required surface variable {name}")
        if self.values["PCT_CLAY"].shape != (SOIL_LAYERS, self.n_land):
            raise ValueError("PCT_CLAY must be (layer, gridcell)")
        if self.values["FMAX"].shape != (self.n_land,):
            raise ValueError("FMAX must be (gridcell,)")
        if self.values["PCT_PFT"].shape != (N_PFTS, self.n_land):
            raise ValueError("PCT_PFT must be (pft, gridcell)")
        if self.values["MONTHLY_LAI"].shape != (N_MONTHS, N_PFTS, self.n_land):
            raise ValueError("MONTHLY_LAI must be (month, pft, gridcell)")
        for name, v in self.values.items():
            if name.startswith("PCT_") and (v.min() < 0 or v.max() > 100):
                raise ValueError(f"{name} outside [0, 100]")
        pft_sum = self.values["PCT_PFT"].sum(axis=0)
        if np.any(np.abs(pft_sum - 100.0) > 1e-6):
            raise ValueError("PCT_PFT does not sum to 100 per cell")
        if np.any(self.values["MONTHLY_LAI"] < 0):
            raise ValueError("MONTHLY_LAI must be nonnegative")
        if np.any((self.values["FMAX"] < 0) | (self.values["FMAX"] > 1)):
            raise ValueError("FMAX outside [0, 1]")


def build_surface(d: DomainSpec, src: CoarseGrid, methods: dict) -> SurfaceDataset:
    """Interpolate every source variable to the land cells of a domain.

    Percentages are clamped to [0, 100], FMAX to [0, 1], PCT_PFT is
    renormalized to sum to 100 per cell (cells with an all-zero column get
    100% of PFT 0), and MONTHLY_LAI is clamped nonnegative.
    """
    # One call per method: nearest searches the source once and bilinear
    # computes its weights once, for every variable the method serves.
    served = {}
    for name, v in src.values.items():
        method = methods.get(name)
        if method is None:
            raise ValueError(f"no interpolation method given for {name}")
        if method == "spline":
            raise NotImplementedError(
                "spline interpolation is not available; use nearest or bilinear"
            )
        if method not in _METHODS:
            raise ValueError(f"unknown interpolation method {method!r} for {name}")
        served.setdefault(_METHODS[method], {})[name] = v
    lat = compact(d.yc, d)
    lon = compact(d.xc, d)
    got = {}
    for interp, values in served.items():
        got.update(interp(CoarseGrid(src.lat, src.lon, values), lat, lon))
    out = {name: got[name] for name in src.values}
    used = {name: "bilinear" if methods[name] == "linear" else methods[name]
            for name in src.values}
    # Every array in `out` was gathered or computed here, so it is clamped
    # in place; an integer one widens to float64 first, as np.clip would.
    for name, v in out.items():
        bounds = (0.0, 100.0) if name.startswith("PCT_") else _CLAMPS.get(name)
        if bounds is not None:
            if v.dtype.kind != "f":
                v = out[name] = v.astype(np.float64)
            np.clip(v, *bounds, out=v)
    if "PCT_PFT" in out:
        pct = out["PCT_PFT"]
        total = pct.sum(axis=0)
        zero = total == 0
        if zero.any():
            pct[0, zero] = 100.0
            total = pct.sum(axis=0)
        np.multiply(pct, 100.0 / total, out=pct)
    ds = SurfaceDataset(values=out, methods=used, n_land=d.n_land)
    ds.validate()
    return ds


def synth_coarse_source(
    seed: int,
    lat_range: tuple,
    lon_range: tuple,
    spacing: float = 0.5,
    n_extra: int = 0,
) -> CoarseGrid:
    """Deterministic synthetic 0.5-degree-style source with the required
    surface variables plus `n_extra` generic ones."""
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, not {spacing}")
    if n_extra < 0:
        raise ValueError(f"n_extra must be >= 0, not {n_extra}")
    rng = np.random.default_rng([seed, 0x5F])
    lat = np.arange(lat_range[0], lat_range[1] + spacing / 2, spacing)
    # A padded range may pass a pole: the rows beyond it become the pole.
    lat = np.unique(np.clip(lat, -90.0, 90.0))
    lon = np.arange(lon_range[0], lon_range[1] + spacing / 2, spacing)
    nlat, nlon = lat.size, lon.size
    values = {}
    values["PCT_CLAY"] = np.clip(
        rng.uniform(5, 60, (SOIL_LAYERS, nlat, nlon))
        + np.linspace(0, 10, SOIL_LAYERS)[:, None, None],
        0,
        100,
    )
    values["FMAX"] = np.clip(rng.beta(2, 5, (nlat, nlon)), 0, 1)
    raw = rng.gamma(0.5, 1.0, (N_PFTS, nlat, nlon))
    values["PCT_PFT"] = 100.0 * raw / raw.sum(axis=0)
    season = 0.5 + 0.5 * np.sin(2 * np.pi * (np.arange(N_MONTHS) + 1 - 7) / 12.0)
    values["MONTHLY_LAI"] = (
        season[:, None, None, None] * rng.uniform(0, 5, (N_PFTS, nlat, nlon))
    )
    for k in range(n_extra):
        values[f"SYNTH_{k:02d}"] = rng.standard_normal((nlat, nlon))
    return CoarseGrid(lat, lon, values)


# ---------------------------------------------------------------------------
# Surface file: dims (gridcell, layer, pft, month); land-compacted variables
# with the interpolation method recorded per variable.

_DIMS_BY_SHAPE = {
    (): ("gridcell",),
    (SOIL_LAYERS,): ("layer", "gridcell"),
    (N_PFTS,): ("pft", "gridcell"),
    (N_MONTHS, N_PFTS): ("month", "pft", "gridcell"),
}


def write_surface(ds: SurfaceDataset, path: str) -> None:
    model = cdf.CdfModel()
    model.dims = [
        cdf.Dim("gridcell", ds.n_land),
        cdf.Dim("layer", SOIL_LAYERS),
        cdf.Dim("pft", N_PFTS),
        cdf.Dim("month", N_MONTHS),
    ]
    model.gattrs = {
        "title": "kiloland surface properties",
        "max_landunits": ds.subgrid.max_landunits,
        "max_columns_per_landunit": ds.subgrid.max_columns_per_landunit,
        "soil_layers": ds.subgrid.soil_layers,
        "max_pfts": ds.subgrid.max_pfts,
    }
    data = {}
    for name, v in ds.values.items():
        lead = v.shape[:-1]
        if lead not in _DIMS_BY_SHAPE:
            raise ValueError(f"{name}: unsupported leading shape {lead}")
        model.vars.append(
            cdf.Var(
                name,
                cdf.NcType.FLOAT64,
                _DIMS_BY_SHAPE[lead],
                {"interp_method": ds.methods.get(name, "unknown")},
            )
        )
        data[name] = v
    with open(path, "wb") as fh:
        cdf.write_file(fh, model, data)


def read_surface(path: str) -> SurfaceDataset:
    with cdf.read_file(path) as f:
        values = {}
        methods = {}
        for v in f.model.vars:
            values[v.name] = f.read(v.name)
            methods[v.name] = v.attrs.get("interp_method", "unknown")
        n_land = f.model.dim("gridcell").length
        a = f.model.gattrs
        subgrid = SubgridSpec(
            max_landunits=int(a["max_landunits"]),
            max_columns_per_landunit=int(a["max_columns_per_landunit"]),
            soil_layers=int(a["soil_layers"]),
            max_pfts=int(a["max_pfts"]),
        )
    return SurfaceDataset(values=values, methods=methods, n_land=n_land, subgrid=subgrid)
