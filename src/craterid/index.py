"""Catalog ingestion, triad enumeration, and the searchable descriptor index.

The lunar surface is tiled into equal-area pixels; crater triads are formed
from each pixel's 3x3 neighborhood, emitted exactly once (by the pixel that
contains the triad's mean direction), ordered clockwise as a nadir camera
would see them, and described by scale-appropriate projective invariants.
Descriptors live in an exact nearest-neighbor structure (k-d tree).

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

from .camera import Intrinsics, look_at_pose, projection_matrix, project_disk_quadric
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CraterIdError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
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


def _clockwise_batch(tri_units: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Vectorized clockwise ordering of triad members (see
    :func:`clockwise_on_sphere`); ``tri_units`` is (T, 3, 3)."""
    pole = np.array([0.0, 0.0, 1.0])
    e = np.cross(np.broadcast_to(pole, means.shape), means)
    ne = np.linalg.norm(e, axis=1, keepdims=True)
    polar = ne[:, 0] < 1e-9
    e[polar] = [1.0, 0.0, 0.0]
    ne[polar] = 1.0
    e /= ne
    n = np.cross(means, e)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    centroid = tri_units.mean(axis=1, keepdims=True)
    d = tri_units - centroid
    ang = np.arctan2(-np.einsum("tmi,ti->tm", d, n), np.einsum("tmi,ti->tm", d, e))
    return np.argsort(ang, axis=1, kind="stable")


def enumerate_triads(
    records: list[CraterRecord],
    scale: IndexScale,
    radius: float = LUNAR_RADIUS_KM,
) -> list[tuple[tuple[int, int, int], int]]:
    """Geometric triad enumeration (indices into ``records``, home pixel).

    For each pixel, craters in its 3x3 neighborhood are combined; a triad is
    kept when (a) no two member rims can intersect (center separation above
    1.1 times the summed semi-major axes), and (b) the normalized mean of
    the member directions maps back to the reference pixel, which makes the
    emission exactly-once across the sphere.  Member indices are returned in
    clockwise order.
    """
    if len(records) < 3:
        return []
    grid = HealpixGrid(scale.k)
    units = np.array([crater_center(r.lat, r.lon, 1.0) for r in records])
    semis = np.array([r.a for r in records])
    pix = grid.ang2pix(units)
    by_pixel: dict[int, list[int]] = {}
    for idx, p in enumerate(pix):
        by_pixel.setdefault(int(p), []).append(idx)

    # A triad's home pixel may itself hold no crater, so candidate home
    # pixels are the occupied pixels plus their neighborhoods.
    home_candidates = set(by_pixel)
    for p in list(by_pixel):
        home_candidates.update(grid.neighbors(p))

    out: list[tuple[tuple[int, int, int], int]] = []
    for p in sorted(home_candidates):
        cand: list[int] = list(by_pixel.get(p, []))
        for q in grid.neighbors(p):
            cand.extend(by_pixel.get(q, []))
        cand.sort()
        nc = len(cand)
        if nc < 3:
            continue
        cu = units[cand]
        # Pairwise non-intersection gate on angular separation.
        sep = np.arccos(np.clip(cu @ cu.T, -1.0, 1.0))
        gate = 1.1 * np.add.outer(semis[cand], semis[cand]) / radius
        ok_pair = sep > gate
        ii, jj, kk = np.array(list(combinations(range(nc), 3))).T
        keep = ok_pair[ii, jj] & ok_pair[ii, kk] & ok_pair[jj, kk]
        if not np.any(keep):
            continue
        ii, jj, kk = ii[keep], jj[keep], kk[keep]
        tri_units = np.stack([cu[ii], cu[jj], cu[kk]], axis=1)
        means = tri_units.sum(axis=1)
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        home = grid.ang2pix(means) == p
        if not np.any(home):
            continue
        ii, jj, kk = ii[home], jj[home], kk[home]
        tri_units, means = tri_units[home], means[home]
        order = _clockwise_batch(tri_units, means)
        cand_arr = np.array(cand)
        trio = np.stack([cand_arr[ii], cand_arr[jj], cand_arr[kk]], axis=1)
        ordered = np.take_along_axis(trio, order, axis=1)
        out.extend((tuple(int(v) for v in row), p) for row in ordered)
    return out


def _tangent_plane_conics(frames: CraterFrame, mean_dir: np.ndarray, radius: float) -> np.ndarray:
    """Orthogonal projection of a triad's rims (a 3-row table) onto the
    tangent plane at the triad mean direction, as a stack of det-normalized
    2D conics (NaN where singular, which ``coplanar_triad`` refuses)."""
    e, n = _tangent_basis(mean_dir)
    basis = np.column_stack([e, n])
    origin = radius * mean_dir
    out = []
    for t_em, p_c, conic in zip(frames.t_em, frames.p_c, frames.conic):
        m2 = basis.T @ t_em[:, :2]  # in-plane axes -> tangent plane
        t0 = basis.T @ (p_c - origin)
        m = np.eye(3)
        m[:2, :2] = m2
        m[:2, 2] = t0
        mi = np.linalg.inv(m)
        out.append(mi.T @ conic @ mi)
    return normalize_unit_det(np.array(out))


_CANONICAL_VIEW_ALTITUDE_FACTOR = 3.0


def _canonical_view_conics(quads: np.ndarray, mean_dir: np.ndarray, radius: float) -> np.ndarray:
    """Project three disk quadrics with a canonical synthetic camera.

    Any projective view yields the same non-coplanar invariants; a fixed
    high-altitude nadir view keeps the geometry well conditioned.
    """
    e, _ = _tangent_basis(mean_dir)
    r_cam = radius * (1.0 + _CANONICAL_VIEW_ALTITUDE_FACTOR) * mean_dir
    pose = look_at_pose(r_cam, np.zeros(3), up_hint=e)
    intr = Intrinsics(dx=1000.0, dy=1000.0)
    p = projection_matrix(intr, pose)
    conics = project_disk_quadric(p, quads)
    if np.isnan(conics).any():
        raise NotAnEllipseError("a rim is no ellipse in the canonical view")
    return conics


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
    found = enumerate_triads(usable, scale, radius)
    rows = np.array([tri for tri, _ in found], dtype=np.intp).reshape(-1, 3)
    units = [crater_center(r.lat, r.lon, 1.0) for r in usable]
    coplanar = scale.descriptor_kind == "coplanar7"
    if coplanar:
        frames = crater_frames(usable, radius)
    else:
        quads = np.array([disk_quadric(r, radius) for r in usable])
    kept, shift, values = [], [], []
    for t, ((i, j, k), _) in enumerate(found):
        mean = units[i] + units[j] + units[k]
        mean = mean / np.linalg.norm(mean)
        try:
            if coplanar:
                inv = coplanar_triad(*_tangent_plane_conics(frames[rows[t]], mean, radius))
            else:
                inv = noncoplanar_triad(*_canonical_view_conics(quads[rows[t]], mean, radius))
        except CraterIdError as exc:
            log.debug("triad %s skipped: %s", [usable[m].id for m in (i, j, k)], exc)
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
    home = np.array([found[t][1] for t in kept], dtype=np.int64)
    order = np.lexsort((triads[:, 2], triads[:, 1], triads[:, 0], home))
    return DescriptorIndex(
        scale=scale,
        names=names.tolist(),
        triads=triads[order],
        values=np.array(values, dtype=float).reshape(-1, 7 if coplanar else 3)[order],
        home=home[order],
        radius=radius,
        skipped=len(found) - len(kept),
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
    count, or a triad code outside that table.
    """
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
        values = np.frombuffer(_read_exact(fh, 8 * count * dim), dtype="<f8").reshape(count, dim)
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
    return DescriptorIndex(scale, names, triads, values, home, radius)
