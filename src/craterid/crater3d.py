"""3D representation of catalog craters on a (spherical) Moon.

A crater is a planar elliptical rim.  From catalog records one array pass
(:func:`crater_frames`) builds each crater's selenographic rim center, its
local East-North-Up rotation, the rim conic in the rim plane's coordinates,
and the rank-3 disk quadric that encodes the rim as a quadric envelope.
The result is one table, ``CraterFrame``, with a row per crater.
Kilometers and radians throughout; degrees only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conic2d import adjugate, axes_to_conic
from .errors import InvalidAxesError, PolarSingularityError

__all__ = [
    "LUNAR_RADIUS_KM",
    "CraterRecord",
    "CraterFrame",
    "crater_center",
    "crater_frames",
    "build_frame",
    "disk_quadric",
    "conic_disk_quadric",
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
        # table is newline separated.
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
    """Derived 3D geometry of n craters, one row each; ``frames[i]`` is the
    row of one crater and ``frames[rows]`` a sub-table.  The pose solve and
    the index's tangent-plane conics read the rim from ``conic``."""

    p_c: np.ndarray  # (n, 3) selenographic rim centers, km
    t_em: np.ndarray  # (n, 3, 3) ENU -> selenographic, columns East, North, Up
    conic: np.ndarray  # (n, 3, 3) rim conics in the rim plane (axes t_em[:, :, :2], origin p_c)
    quadric: np.ndarray  # (n, 4, 4) rank-3 disk quadrics of the rims

    def __len__(self) -> int:
        return len(self.p_c)

    def __getitem__(self, rows) -> "CraterFrame":
        return CraterFrame(self.p_c[rows], self.t_em[rows], self.conic[rows], self.quadric[rows])


def crater_center(lat: float, lon: float, rho: float) -> np.ndarray:
    """Selenographic position at (lat, lon) and radial distance rho."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    cl = np.cos(lat)
    return rho * np.array([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)])


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms ``(n, 1)`` of the rows of ``x``, each the product
    ``x_i . x_i`` that a single vector's ``np.linalg.norm`` takes."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0])


def crater_frames(
    records: Sequence[CraterRecord], radius: float = LUNAR_RADIUS_KM
) -> CraterFrame:
    """The 3D frames of catalog craters, as one table in record order.

    The rim plane lies at the geometric-mean rim radius ``sqrt(a b)`` below
    the reference sphere, so a circular rim lies exactly on it.  Up is
    radial (spherical-Moon normal assumption), East is ``pole x Up`` and
    North completes the frame; ``psi`` is measured from East.  Raises
    ``InvalidAxesError`` for a rim larger than the sphere and
    ``PolarSingularityError`` for a crater at a pole, where East is
    undefined, naming the first such record.
    """
    lat, lon, a, b, psi = np.array(
        [(r.lat, r.lon, r.a, r.b, r.psi) for r in records], dtype=float
    ).reshape(-1, 5).T
    eff2 = a * b
    too_big = eff2 >= radius * radius
    if too_big.any():
        rid = records[np.argmax(too_big)].id
        raise InvalidAxesError(f"{rid}: rim larger than the reference sphere")
    rho = np.sqrt(radius * radius - eff2)
    cl = np.cos(lat)
    # crater_center's arithmetic on arrays; it stays scalar, where it is cheap.
    p_c = rho[:, None] * np.stack([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)], axis=1)
    u = p_c / _norms(p_c)
    ke = np.cross(_POLE, u)
    nke = _norms(ke)
    polar = nke[:, 0] < 1e-9
    if polar.any():
        rid = records[np.argmax(polar)].id
        raise PolarSingularityError(f"{rid}: crater at a lunar pole; East undefined")
    e = ke / nke
    n = np.cross(u, e)
    n /= _norms(n)
    t_em = np.stack([e, n, u], axis=-1)
    conic = axes_to_conic(a, b, psi % np.pi)
    h_m = np.concatenate([t_em[:, :, :2], p_c[:, :, None]], axis=2)
    return CraterFrame(p_c=p_c, t_em=t_em, conic=conic, quadric=conic_disk_quadric(h_m, conic))


def build_frame(rec: CraterRecord, radius: float = LUNAR_RADIUS_KM) -> CraterFrame:
    """The frame of one catalog crater: a row of :func:`crater_frames`."""
    return crater_frames([rec], radius)[0]


def conic_disk_quadric(h_m: np.ndarray, conic: np.ndarray) -> np.ndarray:
    """Rank-3 4x4 quadric envelope of the plane rim ``conic`` placed in space
    by the basis ``h_m = [t1 t2 center]``; stacks ``(..., 3, 3)`` of both
    give ``(..., 4, 4)``.

    Planes ``pi`` tangent to the rim satisfy ``pi^T Q pi = 0``.
    """
    bottom = np.broadcast_to([0.0, 0.0, 1.0], h_m.shape[:-2] + (1, 3))
    basis = np.concatenate([h_m, bottom], axis=-2)
    q = basis @ adjugate(conic) @ basis.mT
    return 0.5 * (q + q.mT)


def disk_quadric(rec: CraterRecord, radius: float = LUNAR_RADIUS_KM) -> np.ndarray:
    """Disk quadric of the crater rim: the ellipse lies in the crater's ENU
    plane with ``psi`` measured from East."""
    return build_frame(rec, radius).quadric
