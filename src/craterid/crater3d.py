"""3D representation of catalog craters on a (spherical) Moon.

A crater is a planar elliptical rim.  From a catalog record we build the
selenographic rim center, a local East-North-Up frame, the supporting plane,
the plane-to-Moon homography basis, the rim conic in plane coordinates, and
the rank-3 disk quadric that encodes the rim as a quadric envelope.
Kilometers and radians throughout; degrees only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic2d import EllipseParams, adjugate, ellipse_to_conic
from .errors import InvalidAxesError, PolarSingularityError

__all__ = [
    "LUNAR_RADIUS_KM",
    "CraterRecord",
    "CraterFrame",
    "LunarQuadric",
    "crater_center",
    "enu_frame",
    "crater_plane",
    "plane_offset",
    "build_frame",
    "disk_quadric",
    "conic_disk_quadric",
    "disk_quadric_from_plane_frame",
    "sphere_quadric",
]

LUNAR_RADIUS_KM = 1737.4

_POLE = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class CraterRecord:
    """One catalog crater.

    ``lat``/``lon`` in radians; ``a``/``b`` semi-axes in km; ``psi`` is the
    rim orientation counterclockwise from local East (radians);
    ``arc_fraction`` is the fraction of the rim supporting the catalog fit.
    """

    id: str
    lat: float
    lon: float
    a: float
    b: float
    psi: float
    arc_fraction: float = 1.0

    def __post_init__(self):
        # The catalogue CSV strips cells and skips '#' rows; the index id
        # table is tab and newline separated.
        if self.id != self.id.strip() or self.id[:1] == "#" or set(self.id) & set("\t\r\n"):
            raise ValueError(f"{self.id!r}: id has tab, CR, LF, a leading '#' or padding")
        if not all(map(math.isfinite, (self.lat, self.lon, self.a, self.b, self.psi))):
            raise ValueError(f"{self.id}: lat, lon, a, b and psi must be finite")
        if not (self.a >= self.b > 0.0):
            raise InvalidAxesError(f"{self.id}: need a >= b > 0, got {self.a}, {self.b}")
        if abs(self.lat) > np.pi / 2.0:
            raise ValueError(f"{self.id}: latitude out of range")
        if not (0.0 <= self.arc_fraction <= 1.0):
            raise ValueError(f"{self.id}: arc_fraction out of [0, 1]")

    @property
    def diameter(self) -> float:
        return 2.0 * self.a

    @property
    def ellipticity(self) -> float:
        return self.a / self.b


@dataclass(frozen=True)
class CraterFrame:
    """Derived 3D geometry of one crater; the disk quadric, the pose solve and
    the index's tangent-plane conics read the rim from ``conic``."""

    p_c: np.ndarray  # selenographic rim center, km
    e: np.ndarray
    n: np.ndarray
    u: np.ndarray
    t_em: np.ndarray  # 3x3, ENU -> selenographic
    pi: np.ndarray  # 4-vector plane coefficients
    h_m: np.ndarray  # 3x3 homography basis [t1 t2 p_c]
    conic: np.ndarray  # 3x3 rim conic in plane coordinates (axes t_em[:, :2], origin p_c)


@dataclass(frozen=True)
class LunarQuadric:
    """Reference surface as a 4x4 quadric locus."""

    q: np.ndarray
    radius: float


def crater_center(lat: float, lon: float, rho: float) -> np.ndarray:
    """Selenographic position at (lat, lon) and radial distance rho."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    cl = np.cos(lat)
    return rho * np.array([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)])


def enu_frame(p_c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Local East/North/Up unit vectors and the attitude matrix [e n u].

    Up is radial (spherical-Moon normal assumption).  Raises
    ``PolarSingularityError`` when the point is at a pole and East is
    undefined.
    """
    u = p_c / np.linalg.norm(p_c)
    ke = np.cross(_POLE, u)
    nke = np.linalg.norm(ke)
    if nke < 1e-9:
        raise PolarSingularityError("crater at a lunar pole; East undefined")
    e = ke / nke
    n = np.cross(u, e)
    n /= np.linalg.norm(n)
    t_em = np.column_stack([e, n, u])
    return e, n, u, t_em


def crater_plane(u: np.ndarray, rho: float) -> np.ndarray:
    """Plane with unit normal ``u`` at distance ``rho`` from the origin."""
    return np.append(u, -rho)


def plane_offset(rec: CraterRecord, radius: float = LUNAR_RADIUS_KM) -> float:
    """Distance of the crater plane from the Moon center.

    Uses the geometric-mean rim radius so that a circular rim of radius
    ``a`` lies exactly on the reference sphere.
    """
    eff2 = rec.a * rec.b
    if eff2 >= radius * radius:
        raise InvalidAxesError(f"{rec.id}: rim larger than the reference sphere")
    return float(np.sqrt(radius * radius - eff2))


def build_frame(rec: CraterRecord, radius: float = LUNAR_RADIUS_KM) -> CraterFrame:
    """Assemble the full 3D frame of a catalog crater."""
    rho = plane_offset(rec, radius)
    p_c = crater_center(rec.lat, rec.lon, rho)
    e, n, u, t_em = enu_frame(p_c)
    pi = crater_plane(u, rho)
    h_m = np.column_stack([t_em[:, 0], t_em[:, 1], p_c])
    conic = ellipse_to_conic(EllipseParams(a=rec.a, b=rec.b, psi=rec.psi))
    return CraterFrame(p_c=p_c, e=e, n=n, u=u, t_em=t_em, pi=pi, h_m=h_m, conic=conic)


def conic_disk_quadric(h_m: np.ndarray, conic: np.ndarray) -> np.ndarray:
    """Rank-3 4x4 quadric envelope of the plane rim ``conic`` placed in space
    by the basis ``h_m = [t1 t2 center]``.

    Planes ``pi`` tangent to the rim satisfy ``pi^T Q pi = 0``.
    """
    basis = np.vstack([h_m, np.array([0.0, 0.0, 1.0])])
    q = basis @ adjugate(conic) @ basis.T
    return 0.5 * (q + q.T)


def disk_quadric(rec: CraterRecord, radius: float = LUNAR_RADIUS_KM) -> np.ndarray:
    """Disk quadric of the crater rim: the ellipse lies in the crater's ENU
    plane with ``psi`` measured from East."""
    frame = build_frame(rec, radius)
    return conic_disk_quadric(frame.h_m, frame.conic)


def disk_quadric_from_plane_frame(
    t1: np.ndarray,
    t2: np.ndarray,
    center: np.ndarray,
    a: float,
    b: float,
    psi: float = 0.0,
) -> np.ndarray:
    """Disk quadric of an ellipse lying in an explicitly given plane frame.

    ``t1``/``t2`` are orthonormal in-plane axes and ``center`` the 3D ellipse
    center.  Useful for geometry that has no meaningful ENU frame (e.g.
    polar test configurations).
    """
    h_m = np.column_stack([t1, t2, center])
    return conic_disk_quadric(h_m, ellipse_to_conic(EllipseParams(a=a, b=b, psi=psi)))


def sphere_quadric(radius: float = LUNAR_RADIUS_KM) -> LunarQuadric:
    """Quadric locus of a sphere of the given radius about the origin."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    q = np.diag([1.0 / radius**2, 1.0 / radius**2, 1.0 / radius**2, -1.0])
    return LunarQuadric(q=q, radius=radius)
