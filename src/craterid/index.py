"""Catalog ingestion, triad enumeration, and the searchable descriptor index.

The lunar surface is tiled into equal-area pixels; crater triads are formed
from each pixel's 3x3 neighborhood, emitted exactly once (by the pixel that
contains the triad's mean direction), ordered clockwise as a nadir camera
would see them, and described by scale-appropriate projective invariants.
Enumeration yields arrays: clockwise rows (T, 3), home pixels (T,) and
tangent frames (T, 3, 3), columns East, North and the mean direction, which
sums the member directions sorted per coordinate and so ignores record
order.  The build forms every triad's conics from the frames in stacked
chunks.  Descriptors live in an exact nearest-neighbor structure (k-d tree).

The index is columns: a sorted crater-id table ``names``, each triad's rows
into it ``triads`` (T, 3), its descriptor ``values`` (T, d) and its home
pixel ``home`` (T,).  Format 3, little-endian: ``CRIDX\\0``; version and
config length (u32); the scale config (JSON) and its SHA-256; radius (f64),
T (u64), d (u32), name count (u64) and names length (u64); the names,
newline-joined UTF-8; ``triads`` i32, ``home`` i64, ``values`` f64.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import struct
from dataclasses import asdict, dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterator

import numpy as np
from scipy.spatial import cKDTree

from .camera import Intrinsics, k_matrix, project_disk_quadric, read_text
from .conic2d import normalize_unit_det
from .crater3d import (
    LUNAR_RADIUS_KM,
    CraterFrame,
    CraterRecord,
    crater_center,
    crater_frames,
    disk_quadric,
)
from .errors import (
    CraterIdError,
    DimensionMismatchError,
    NotAnEllipseError,
    SchemaError,
    VersionMismatchError,
)
from .healpix import HealpixGrid
from .invariants import coplanar_triad, make_descriptor, noncoplanar_triad

__all__ = [
    "IndexScale",
    "LOCAL_SCALE",
    "REGIONAL_SCALE",
    "GLOBAL_SCALE",
    "TriadEntry",
    "DescriptorIndex",
    "read_csv_rows",
    "load_catalog",
    "filter_catalog",
    "enumerate_triads",
    "build_index",
    "save_index",
    "load_index",
    "clockwise_on_sphere",
]

log = logging.getLogger(__name__)

CATALOG_HEADER = [
    "id",
    "lat_deg",
    "lon_deg",
    "semimajor_km",
    "semiminor_km",
    "orient_deg_east_ccw",
    "arc_fraction",
]

_MAX_LAT_DEG = 89.99


@dataclass(frozen=True)
class IndexScale:
    """Configuration of one index tier."""

    name: str
    k: int
    d_min: float  # km, crater diameter
    d_max: float
    max_ellipticity: float
    min_arc_fraction: float
    descriptor_kind: str  # coplanar7 | noncoplanar3
    convention: str  # ordered | sorted | p2

    def __post_init__(self):
        HealpixGrid(self.k)  # raises ValueError outside the grid's range of k
        if not self.d_min < self.d_max:
            raise ValueError("d_min must be below d_max")
        if self.max_ellipticity < 1.0:
            raise ValueError("max_ellipticity must be >= 1")
        if self.descriptor_kind not in ("coplanar7", "noncoplanar3"):
            raise ValueError(f"unknown descriptor kind {self.descriptor_kind!r}")
        if self.convention not in ("ordered", "sorted", "p2"):
            raise ValueError(f"unknown convention {self.convention!r}")

    def to_json(self) -> str:
        d = asdict(self) | {"k": int(self.k), "d_min": float(self.d_min)}
        d["min_arc_fraction"] = float(self.min_arc_fraction)
        for key in ("d_max", "max_ellipticity"):  # JSON has no infinity
            d[key] = None if np.isinf(d[key]) else float(d[key])
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "IndexScale":
        d = json.loads(text)
        for key in ("d_max", "max_ellipticity"):
            d[key] = np.inf if d[key] is None else d[key]
        return cls(**d)


LOCAL_SCALE = IndexScale("local", 5, 4.0, 30.0, np.inf, 0.9, "coplanar7", "ordered")
REGIONAL_SCALE = IndexScale("regional", 3, 25.0, 125.0, 1.1, 0.9, "noncoplanar3", "ordered")
GLOBAL_SCALE = IndexScale("global", 1, 100.0, np.inf, 1.1, 0.9, "noncoplanar3", "ordered")


@dataclass(frozen=True)
class TriadEntry:
    """One indexed crater triad, a row of ``DescriptorIndex`` built on demand."""

    ids: tuple[str, str, str]  # clockwise
    values: np.ndarray
    home_pixel: int


def read_csv_rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(start line, stripped cells) of each data row of a CSV file.

    The catalogue and detections format: UTF-8 CSV as Python's ``csv`` writes
    it.  Blank rows and rows whose first cell starts with '#' are comments.
    The first other row must equal ``header`` up to case and padding, else
    ``SchemaError`` at ``file:line``.  Callers check field counts and values.
    """
    reader = csv.reader(io.StringIO(read_text(path)))
    header_seen = False
    next_line = 1
    for row in reader:
        lineno, next_line = next_line, reader.line_num + 1
        if not row or row[0].lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in row]
        if header_seen:
            yield lineno, cells
        elif [c.lower() for c in cells] == header:
            header_seen = True
        else:
            raise SchemaError(f"{path}:{lineno}: header must be {','.join(header)}")


def load_catalog(path: str | Path) -> tuple[list[CraterRecord], list[str]]:
    """Parse a :func:`read_csv_rows` file with columns ``CATALOG_HEADER``.

    Angles are degrees in the file (orientation counterclockwise from local
    East), radians in memory.  Returns the valid records plus per-row
    problems ("line N: reason"); malformed rows, and rows whose id repeats
    an earlier valid row's, are skipped, not fatal.
    """
    records: list[CraterRecord] = []
    problems: list[str] = []
    first_line: dict[str, int] = {}
    for lineno, cells in read_csv_rows(path, CATALOG_HEADER):
        if len(cells) != 7:
            problems.append(f"line {lineno}: expected 7 fields, got {len(cells)}")
            continue
        try:
            lat = float(cells[1])
            if abs(lat) > _MAX_LAT_DEG:
                raise ValueError(f"latitude {lat} too close to a pole")
            rec = CraterRecord(
                id=cells[0],
                lat=np.deg2rad(lat),
                lon=np.deg2rad(float(cells[2])),
                a=float(cells[3]),
                b=float(cells[4]),
                psi=np.deg2rad(float(cells[5])),
                arc_fraction=float(cells[6]),
            )
        except (ValueError, CraterIdError) as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        if first_line.setdefault(rec.id, lineno) != lineno:
            problems.append(f"line {lineno}: id {rec.id} repeats line {first_line[rec.id]}")
            continue
        records.append(rec)
    return records, problems


def save_catalog(records: list[CraterRecord], path: str | Path) -> None:
    """Write records in the catalog CSV schema (degrees at the boundary)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CATALOG_HEADER)
        for r in records:
            w.writerow(
                [
                    r.id,
                    f"{np.rad2deg(r.lat):.9f}",
                    f"{np.rad2deg(r.lon):.9f}",
                    f"{r.a:.6f}",
                    f"{r.b:.6f}",
                    f"{np.rad2deg(r.psi):.6f}",
                    f"{r.arc_fraction:.4f}",
                ]
            )


def filter_catalog(records: list[CraterRecord], scale: IndexScale) -> list[CraterRecord]:
    """Keep records inside the scale's diameter/ellipticity/arc gates."""
    out = []
    for r in records:
        if not (scale.d_min <= r.diameter <= scale.d_max):
            continue
        if r.ellipticity > scale.max_ellipticity:
            continue
        if r.arc_fraction <= scale.min_arc_fraction:
            continue
        out.append(r)
    return out


def _tangent_basis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """East/North-style orthonormal basis of the plane normal to ``u``."""
    pole = np.array([0.0, 0.0, 1.0])
    e = np.cross(pole, u)
    ne = np.linalg.norm(e)
    if ne < 1e-9:
        e = np.array([1.0, 0.0, 0.0])
        ne = 1.0
    e = e / ne
    n = np.cross(u, e)
    return e, n / np.linalg.norm(n)


def clockwise_on_sphere(
    centers: list[np.ndarray], mean_dir: np.ndarray
) -> list[int]:
    """Order three surface points clockwise as a nadir camera would see them.

    Image convention is +v down, so the apparent clockwise sweep corresponds
    to ascending atan2(-n.d, e.d) in the local tangent frame.  The returned
    permutation starts at the smallest angle for determinism.
    """
    e, n = _tangent_basis(mean_dir)
    centroid = sum(centers) / len(centers)
    ang = []
    for c in centers:
        d = c - centroid
        ang.append(np.arctan2(-(n @ d), e @ d))
    return list(np.argsort(ang, kind="stable"))


def _tangent_frames(means: np.ndarray) -> np.ndarray:
    """Frames ``(T, 3, 3)``, columns East, North and the unit mean direction,
    of unit directions ``means`` (T, 3): :func:`_tangent_basis` stacked."""
    pole = np.array([0.0, 0.0, 1.0])
    e = np.cross(np.broadcast_to(pole, means.shape), means)
    ne = np.linalg.norm(e, axis=1, keepdims=True)
    polar = ne[:, 0] < 1e-9
    e[polar] = [1.0, 0.0, 0.0]
    ne[polar] = 1.0
    e /= ne
    n = np.cross(means, e)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return np.stack([e, n, means], axis=-1)


def enumerate_triads(
    records: list[CraterRecord],
    scale: IndexScale,
    radius: float = LUNAR_RADIUS_KM,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric triad enumeration: ``(rows, home, frames)``.

    For each pixel, craters in its 3x3 neighborhood are combined; a triad is
    kept when (a) no two member rims can intersect (center separation above
    1.1 times the summed semi-major axes), and (b) the normalized mean of
    the member directions maps back to the reference pixel, which makes the
    emission exactly-once across the sphere.  ``rows`` (T, 3) are indices
    into ``records`` in clockwise order, ``home`` (T,) the reference pixels
    and ``frames`` (T, 3, 3) the :func:`_tangent_frames` at the means, which
    sum the member directions sorted per coordinate, whatever their order.
    """
    parts = [(np.empty((0, 3), np.intp), np.empty(0, np.int64), np.empty((0, 3)))]
    grid = HealpixGrid(scale.k)
    units = np.array([crater_center(r.lat, r.lon, 1.0) for r in records]).reshape(-1, 3)
    semis = np.array([r.a for r in records])
    # Each crater joins its own pixel's and (the neighbour relation being
    # symmetric) its neighbours' 3x3 neighbourhoods, which may hold no crater,
    # through one neighbors call for all occupied pixels.  The hoods come in
    # ascending pixel order, each with its craters ascending.
    occupied, inverse = np.unique(grid.ang2pix(units), return_inverse=True)
    hood = np.column_stack([occupied, grid.neighbors(occupied)])[inverse].ravel()
    crater = np.repeat(np.arange(len(records)), 9)
    order = np.lexsort((crater, hood))
    order = order[hood[order] >= 0]
    pixels, starts = np.unique(hood[order], return_index=True)
    for p, cand in zip(pixels.tolist(), np.split(crater[order], starts[1:])):
        if len(cand) < 3:
            continue
        cu = units[cand]
        # Pairwise non-intersection gate on angular separation.
        sep = np.arccos(np.clip(cu @ cu.T, -1.0, 1.0))
        gate = 1.1 * np.add.outer(semis[cand], semis[cand]) / radius
        ok_pair = sep > gate
        ii, jj, kk = np.array(list(combinations(range(len(cand)), 3))).T
        keep = ok_pair[ii, jj] & ok_pair[ii, kk] & ok_pair[jj, kk]
        if not np.any(keep):
            continue
        trio = np.stack([cand[ii[keep]], cand[jj[keep]], cand[kk[keep]]], axis=1)
        means = np.sort(units[trio], axis=1).sum(axis=1)
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        home = grid.ang2pix(means) == p
        parts.append((trio[home], np.full(np.count_nonzero(home), p, dtype=np.int64), means[home]))
    trio, home, means = (np.concatenate(c) for c in zip(*parts))
    frames = _tangent_frames(means)
    # Clockwise as clockwise_on_sphere orders them: East/North/mean coordinates.
    tri_units = units[trio]
    local = (tri_units - tri_units.mean(axis=1, keepdims=True)) @ frames
    order = np.argsort(np.arctan2(-local[..., 1], local[..., 0]), axis=1, kind="stable")
    return np.take_along_axis(trio, order, axis=1), home, frames


_CHUNK = 512  # triads whose conics are stacked at once, which bounds the build's memory


def _tangent_plane_conics(
    table: CraterFrame, rows: np.ndarray, frames: np.ndarray, radius: float
) -> np.ndarray:
    """Orthogonal projection of the rims of triads ``rows`` (rows of
    ``table``) onto the tangent plane at each triad's mean direction, in its
    East/North axes: ``(T, 3, 3, 3)`` det-normalized 2D conics (NaN where
    singular)."""
    axes = frames[:, None, :, :2].mT  # (T, 1, 2, 3)
    origin = radius * frames[:, None, :, 2]
    m = np.zeros(rows.shape + (3, 3))
    m[..., :2, :2] = axes @ table.t_em[rows][..., :2]  # in-plane axes -> tangent plane
    m[..., :2, 2] = (axes @ (table.p_c[rows] - origin)[..., None])[..., 0]
    m[..., 2, 2] = 1.0
    mi = np.linalg.inv(m)
    return normalize_unit_det(mi.mT @ table.conic[rows] @ mi)


_CANONICAL_VIEW_ALTITUDE_FACTOR = 3.0


def _canonical_cameras(frames: np.ndarray, radius: float) -> np.ndarray:
    """Projection matrices ``(T, 3, 4)`` of the triads' canonical cameras,
    ``projection_matrix(Intrinsics(1000, 1000), look_at_pose(r_cam, 0, East))``
    at ``r_cam = (1 + _CANONICAL_VIEW_ALTITUDE_FACTOR) radius mean``, whose
    attitude rows are -North, mean x North (-East) and -mean.  Any projective
    view yields the same non-coplanar invariants; a fixed high-altitude nadir
    view keeps the geometry well conditioned."""
    n, mean = frames[:, :, 1], frames[:, :, 2]
    t_mc = np.stack([-n, np.cross(mean, n), -mean], axis=1)
    r_cam = radius * (1.0 + _CANONICAL_VIEW_ALTITUDE_FACTOR) * mean
    ext = np.concatenate([np.broadcast_to(np.eye(3), t_mc.shape), -r_cam[:, :, None]], axis=2)
    return k_matrix(Intrinsics(dx=1000.0, dy=1000.0)) @ t_mc @ ext


@dataclass
class DescriptorIndex:
    """Searchable index over triad descriptors, held as columns.

    Triad ``t`` is the craters ``names[triads[t]]`` in stored label order,
    its descriptor ``values[t]`` and the pixel ``home[t]`` that emitted it.
    ``names`` is sorted, so the codes in ``triads`` order like the ids.  The
    k-d tree is built on ``values``.
    """

    scale: IndexScale
    names: list[str]  # sorted crater ids
    triads: np.ndarray  # (T, 3) int32 rows into names
    values: np.ndarray  # (T, d) float64
    home: np.ndarray  # (T,) int64
    radius: float = LUNAR_RADIUS_KM
    skipped: int = 0
    _tree: cKDTree | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        dim = 7 if self.scale.descriptor_kind == "coplanar7" else 3
        if self.values.ndim != 2 or self.values.shape[1] != dim:
            raise DimensionMismatchError("descriptor dimension does not match scale")
        if len(self.values):
            self._tree = cKDTree(self.values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return len(self.values)

    def _entries(self, rows: np.ndarray) -> list[TriadEntry]:
        """The triads at row numbers ``rows`` as built rows."""
        n, values = self.names, self.values.take(rows, axis=0)
        ids = [(n[a], n[b], n[c]) for a, b, c in self.triads.take(rows, axis=0).tolist()]
        return list(map(TriadEntry, ids, values, self.home.take(rows).tolist()))

    @property
    def entries(self) -> list[TriadEntry]:
        """Every triad as a ``TriadEntry``, built anew on each access.  Only the
        benchmark's oracles read it; once they read the columns, it can go."""
        return self._entries(np.arange(len(self)))

    def query(self, descriptor: np.ndarray, n: int = 1) -> list[tuple[float, TriadEntry]]:
        """Exact ``n`` nearest triads by Euclidean descriptor distance."""
        q = np.asarray(descriptor, dtype=float).reshape(-1)
        if q.shape[0] != self.dim:
            raise DimensionMismatchError(f"descriptor has dim {q.shape[0]}, index needs {self.dim}")
        if not len(self):
            return []
        dist, idx = self._tree.query(q, k=min(n, len(self)))
        return list(zip(np.atleast_1d(dist).tolist(), self._entries(np.atleast_1d(idx))))


def build_index(
    records: list[CraterRecord],
    scale: IndexScale,
    radius: float = LUNAR_RADIUS_KM,
) -> DescriptorIndex:
    """Filter the catalog, enumerate triads, and compute their descriptors.

    Triads whose invariants cannot be computed (overlapping projections,
    acosh domain failures) are skipped with a diagnostic count.  The index
    holds the ids of the triads' craters only, and orders the triads by
    home pixel, then by crater ids, whatever the order of ``records``.
    """
    usable = filter_catalog(records, scale)
    rows, home, frames = enumerate_triads(usable, scale, radius)
    coplanar = scale.descriptor_kind == "coplanar7"
    if coplanar:
        table = crater_frames(usable, radius)
    else:
        quads = np.array([disk_quadric(r, radius) for r in usable])
    kept, shift, values = [], [], []
    for start in range(0, len(rows), _CHUNK):
        part = slice(start, start + _CHUNK)
        if coplanar:
            conics = _tangent_plane_conics(table, rows[part], frames[part], radius)
        else:
            cameras = _canonical_cameras(frames[part], radius)[:, None]
            conics = project_disk_quadric(cameras, quads[rows[part]])
        for t, triad in enumerate(conics, start):
            try:
                if np.isnan(triad).any():
                    raise NotAnEllipseError("a rim is no ellipse in the triad's view")
                inv = coplanar_triad(*triad) if coplanar else noncoplanar_triad(*triad)
            except CraterIdError as exc:
                log.debug("triad %s skipped: %s", [usable[m].id for m in rows[t]], exc)
                continue
            vals, r = make_descriptor(inv, scale.convention)
            kept.append(t)
            shift.append(r)
            values.append(vals)
    # Rows rotated by the label rotation; an object array of ids sorts in Python string order.
    rotate = (np.arange(3) + np.array(shift, dtype=np.intp).reshape(-1, 1)) % 3
    ids = np.array([r.id for r in usable], dtype=object)[np.take_along_axis(rows[kept], rotate, 1)]
    names, triads = np.unique(ids, return_inverse=True)
    triads = triads.reshape(-1, 3).astype(np.int32)
    home = home[kept]
    order = np.lexsort((triads[:, 2], triads[:, 1], triads[:, 0], home))
    return DescriptorIndex(
        scale=scale,
        names=names.tolist(),
        triads=triads[order],
        values=np.array(values, dtype=float).reshape(-1, 7 if coplanar else 3)[order],
        home=home[order],
        radius=radius,
        skipped=len(rows) - len(kept),
    )


_MAGIC = b"CRIDX\x00"
_FORMAT_VERSION = 3
# radius, triad count, descriptor dimension, name count, name blob length
_HEADER = struct.Struct("<dQIQQ")


def save_index(index: DescriptorIndex, path: str | Path) -> None:
    """Serialize to the versioned binary container (bit-exact round trip)."""
    cfg = index.scale.to_json().encode("utf-8")
    names = "\n".join(index.names).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, len(cfg)))
        fh.write(cfg)
        fh.write(hashlib.sha256(cfg).digest())
        fh.write(_HEADER.pack(index.radius, len(index), index.dim, len(index.names), len(names)))
        fh.write(names)
        fh.write(index.triads.astype("<i4").tobytes())
        fh.write(index.home.astype("<i8").tobytes())
        fh.write(np.ascontiguousarray(index.values, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise VersionMismatchError("index file truncated")
    return data


def load_index(path: str | Path) -> DescriptorIndex:
    """Load an index saved by :func:`save_index`.

    Raises ``VersionMismatchError`` on bad magic, version, config hash,
    truncation, trailing bytes, a crater id table that disagrees with its
    count, or a triad code outside that table; each message names ``path``.
    """
    try:
        with open(path, "rb") as fh:
            if _read_exact(fh, len(_MAGIC)) != _MAGIC:
                raise VersionMismatchError("not a crater index file")
            version, cfg_len = struct.unpack("<II", _read_exact(fh, 8))
            if version != _FORMAT_VERSION:
                raise VersionMismatchError(f"unsupported index version {version}")
            cfg = _read_exact(fh, cfg_len)
            if hashlib.sha256(cfg).digest() != _read_exact(fh, 32):
                raise VersionMismatchError("scale config hash mismatch")
            scale = IndexScale.from_json(cfg.decode("utf-8"))
            radius, count, dim, n_names, names_len = _HEADER.unpack(_read_exact(fh, _HEADER.size))
            names_blob = _read_exact(fh, names_len)
            triads = np.frombuffer(_read_exact(fh, 12 * count), dtype="<i4").reshape(count, 3)
            home = np.frombuffer(_read_exact(fh, 8 * count), dtype="<i8")
            values = np.frombuffer(_read_exact(fh, 8 * count * dim), dtype="<f8")
            if fh.read(1):
                raise VersionMismatchError("trailing bytes in index file")
        try:
            names = names_blob.decode("utf-8").split("\n") if n_names or names_blob else []
        except UnicodeDecodeError as exc:
            raise VersionMismatchError("crater id table is not UTF-8") from exc
        if len(names) != n_names:
            raise VersionMismatchError("crater id table length mismatch")
        if count and not (triads.min() >= 0 and triads.max() < n_names):
            raise VersionMismatchError("triad crater code outside the id table")
        return DescriptorIndex(scale, names, triads, values.reshape(count, dim), home, radius)
    except CraterIdError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
