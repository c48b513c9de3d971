"""Lambert conformal conic projection (two standard parallels) on a sphere
or ellipsoid, with WGS84 geographic coordinates at the interfaces.

Angles are degrees at every public interface and radians internally.
All functions accept scalars or numpy arrays and are pure, so they are safe
to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ellipsoid",
    "LccParams",
    "ProjectionDomainError",
    "SPHERE_RADIUS",
    "lcc_forward",
    "lcc_inverse",
]

# Default sphere radius, equal to the WGS84 semi-major axis.
SPHERE_RADIUS = 6_378_137.0


class ProjectionDomainError(ValueError):
    """Raised for points where the projection is undefined."""


@dataclass(frozen=True)
class Ellipsoid:
    """Reference ellipsoid; inverse_flattening = inf selects a sphere."""

    semi_major_axis: float = SPHERE_RADIUS
    inverse_flattening: float = math.inf

    @property
    def is_sphere(self) -> bool:
        return math.isinf(self.inverse_flattening)

    @property
    def eccentricity(self) -> float:
        if self.is_sphere:
            return 0.0
        f = 1.0 / self.inverse_flattening
        return math.sqrt(2.0 * f - f * f)


# Clarke 1866, used by the published worked example for this projection.
CLARKE_1866 = Ellipsoid(semi_major_axis=6_378_206.4, inverse_flattening=294.9786982)

WGS84 = Ellipsoid(semi_major_axis=6_378_137.0, inverse_flattening=298.257223563)


@dataclass(frozen=True)
class LccParams:
    """Projection constants.

    Defaults follow the Daymet convention for North America: origin
    42.5N/100W, standard parallels 25N and 60N, zero false offsets, on a
    sphere of radius 6,378,137 m.
    """

    lat_origin: float = 42.5
    lon_origin: float = -100.0
    std_parallel_1: float = 25.0
    std_parallel_2: float = 60.0
    false_easting: float = 0.0
    false_northing: float = 0.0
    ellipsoid: Ellipsoid = Ellipsoid()

    def __post_init__(self):
        if self.std_parallel_1 == -self.std_parallel_2:
            raise ValueError("standard parallels must not be opposite (cone undefined)")
        if not abs(self.lat_origin) < 90.0:
            raise ValueError("lat_origin must satisfy |lat| < 90")
        if not self.ellipsoid.semi_major_axis > 0.0:
            raise ValueError("semi_major_axis must be positive")

    def to_attrs(self) -> dict:
        """Serializable key/value form used in config files and file headers."""
        return {
            "lcc_lat_origin": self.lat_origin,
            "lcc_lon_origin": self.lon_origin,
            "lcc_sp1": self.std_parallel_1,
            "lcc_sp2": self.std_parallel_2,
            "lcc_false_easting": self.false_easting,
            "lcc_false_northing": self.false_northing,
            "lcc_semi_major_axis": self.ellipsoid.semi_major_axis,
            "lcc_inverse_flattening": self.ellipsoid.inverse_flattening,
        }

    @classmethod
    def from_attrs(cls, attrs: dict) -> "LccParams":
        return cls(
            lat_origin=float(attrs["lcc_lat_origin"]),
            lon_origin=float(attrs["lcc_lon_origin"]),
            std_parallel_1=float(attrs["lcc_sp1"]),
            std_parallel_2=float(attrs["lcc_sp2"]),
            false_easting=float(attrs["lcc_false_easting"]),
            false_northing=float(attrs["lcc_false_northing"]),
            ellipsoid=Ellipsoid(
                semi_major_axis=float(attrs.get("lcc_semi_major_axis", SPHERE_RADIUS)),
                inverse_flattening=float(attrs.get("lcc_inverse_flattening", math.inf)),
            ),
        )


class _Cone:
    """Precomputed cone constants n, F, rho0 for one LccParams."""

    def __init__(self, params: LccParams):
        self.params = params
        self.a = params.ellipsoid.semi_major_axis
        self.e = params.ellipsoid.eccentricity
        phi1 = math.radians(params.std_parallel_1)
        phi2 = math.radians(params.std_parallel_2)
        phi0 = math.radians(params.lat_origin)
        self.lam0 = math.radians(params.lon_origin)
        if phi1 == phi2:
            self.n = math.sin(phi1)
        else:
            self.n = (math.log(self._m(phi1)) - math.log(self._m(phi2))) / (
                math.log(self._t(phi1)) - math.log(self._t(phi2))
            )
        if self.n == 0.0:
            raise ValueError("degenerate cone: standard parallels define n = 0")
        self.F = self._m(phi1) / (self.n * self._t(phi1) ** self.n)
        self.rho0 = self.a * self.F * self._t(phi0) ** self.n

    def _m(self, phi: float) -> float:
        s = math.sin(phi)
        return math.cos(phi) / math.sqrt(1.0 - (self.e * s) ** 2)

    def _t(self, phi: float):
        # Conformal colatitude function; equals tan(pi/4 - phi/2) on a sphere.
        s = np.sin(phi)
        base = np.tan(np.pi / 4.0 - np.asarray(phi) / 2.0)
        if self.e == 0.0:
            return base
        corr = ((1.0 - self.e * s) / (1.0 + self.e * s)) ** (self.e / 2.0)
        return base / corr


_cone = functools.cache(_Cone)


def lcc_forward(lat, lon, params: LccParams):
    """Project WGS84 (lat, lon) in degrees to (x, y) in meters.

    The pole opposite the cone apex is outside the projection domain and
    raises ProjectionDomainError.
    """
    c = _cone(params)
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if np.any(np.abs(lat) > 90.0) or np.any(np.abs(lon) > 180.0):
        raise ValueError("latitude must be in [-90, 90] and longitude in [-180, 180]")
    opposite = lat <= -90.0 if c.n > 0 else lat >= 90.0
    if np.any(opposite):
        raise ProjectionDomainError(
            "projection undefined at the pole opposite the cone apex"
        )
    phi = np.radians(lat)
    lam = np.radians(lon)
    rho = c.a * c.F * c._t(phi) ** c.n
    theta = c.n * (lam - c.lam0)
    x = rho * np.sin(theta) + params.false_easting
    y = c.rho0 - rho * np.cos(theta) + params.false_northing
    if x.ndim == 0:
        return float(x), float(y)
    return x, y


def lcc_inverse(x, y, params: LccParams):
    """Invert the projection: (x, y) meters to (lat, lon) degrees.

    The degenerate radius-zero point maps to the cone apex latitude with
    lon = lon_origin.
    """
    c = _cone(params)
    x = np.asarray(x, dtype=np.float64) - params.false_easting
    y = c.rho0 - (np.asarray(y, dtype=np.float64) - params.false_northing)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("projected coordinates must be finite")
    sign = 1.0 if c.n > 0 else -1.0
    rho = sign * np.hypot(x, y)
    theta = np.arctan2(sign * x, sign * y)
    lam = c.lam0 + theta / c.n
    apex_lat = 90.0 if c.n > 0 else -90.0
    with np.errstate(divide="ignore"):
        t = (rho / (c.a * c.F)) ** (1.0 / c.n)
    if c.e == 0.0:
        phi = np.pi / 2.0 - 2.0 * np.arctan(t)
    else:
        phi = np.pi / 2.0 - 2.0 * np.arctan(t)
        for _ in range(12):
            es = c.e * np.sin(phi)
            phi_next = np.pi / 2.0 - 2.0 * np.arctan(
                t * ((1.0 - es) / (1.0 + es)) ** (c.e / 2.0)
            )
            if np.all(np.abs(phi_next - phi) < 1e-15):
                phi = phi_next
                break
            phi = phi_next
    lat = np.degrees(phi)
    lon = np.degrees(lam)
    at_apex = rho == 0.0
    lat = np.where(at_apex, apex_lat, lat)
    lon = np.where(at_apex, params.lon_origin, lon)
    if lat.ndim == 0:
        return float(lat), float(lon)
    return lat, lon
