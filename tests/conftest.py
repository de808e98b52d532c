"""Shared fixtures and scene generators for the test suite.

The heavyweight catalogs/indexes used by the pipeline and acceptance tests
are session-scoped; everything else builds its own small geometry.
"""

from __future__ import annotations

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def acceptance_report(num, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from craterid.camera import CameraPose, Intrinsics, look_at_pose, projection_matrix
from craterid.conic2d import EllipseParams, ellipse_to_conic
from craterid.crater3d import LUNAR_RADIUS_KM, CraterRecord, conic_disk_quadric, crater_center
from craterid.index import IndexScale, build_index
from craterid.pipeline import SceneGeometry, synthetic_catalog

# Apollo-metric-like reproduction camera: 73.7 deg square FOV, 2200x2200 px.
APOLLO_DX = 1100.0 / np.tan(np.deg2rad(73.7 / 2.0))


@pytest.fixture(scope="session")
def apollo_camera() -> Intrinsics:
    return Intrinsics(
        dx=APOLLO_DX, dy=APOLLO_DX, skew=0.0, up=1099.5, vp=1099.5, rows=2200, cols=2200
    )


@pytest.fixture(scope="session")
def wide_camera() -> Intrinsics:
    # 90 deg square FOV for the high-altitude experiments.
    return Intrinsics(dx=1100.0, dy=1100.0, up=1099.5, vp=1099.5, rows=2200, cols=2200)


def random_ellipse(rng: np.random.Generator, span: float = 10.0) -> EllipseParams:
    a = rng.uniform(1.0, 3.0)
    return EllipseParams(
        a=a,
        b=a * rng.uniform(0.45, 1.0),
        xc=rng.uniform(-span, span),
        yc=rng.uniform(-span, span),
        psi=rng.uniform(0.0, np.pi),
    )


def random_plane_camera(rng: np.random.Generator, intr: Intrinsics) -> np.ndarray:
    """Homography induced by a random camera viewing the z=0 plane."""
    r = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(60, 150)])
    target = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), 0.0])
    up = np.array([rng.normal(), rng.normal(), 0.0])
    up /= np.linalg.norm(up)
    pose = look_at_pose(r, target, up_hint=up)
    p = projection_matrix(intr, pose)
    return p[:, [0, 1, 3]]


def plane_disk_quadric(t1, t2, center, a: float, b: float, psi: float = 0.0) -> np.ndarray:
    """Disk quadric of an ellipse in the plane spanned by the orthonormal axes
    ``t1``, ``t2`` about ``center``: a frame given explicitly, for geometry
    with no ENU frame (polar and sphere-cap configurations)."""
    h_m = np.column_stack([t1, t2, center])
    return conic_disk_quadric(h_m, ellipse_to_conic(EllipseParams(a=a, b=b, psi=psi)))


def sphere_cap_triad(rng: np.random.Generator, radius: float = 1.0):
    """Three disjoint circular rims on a sphere, as disk quadrics.

    Cap centers stay inside a ~30 degree region around a random axis so an
    overhead camera keeps all three safely inside its horizon.
    """
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    while True:
        offs = rng.uniform(np.deg2rad(6), np.deg2rad(28), size=3)
        azs = rng.uniform(0, 2 * np.pi, size=3)
        caps = rng.uniform(np.deg2rad(2.5), np.deg2rad(6), size=3)
        centers = [
            np.cos(o) * axis + np.sin(o) * (np.cos(az) * e1 + np.sin(az) * e2)
            for o, az in zip(offs, azs)
        ]
        ok = True
        for i in range(3):
            for j in range(i + 1, 3):
                sep = np.arccos(np.clip(centers[i] @ centers[j], -1, 1))
                if sep <= 1.5 * (caps[i] + caps[j]):
                    ok = False
        if ok:
            break
    quads = []
    for c, cap in zip(centers, caps):
        rim_r = radius * np.sin(cap)
        rho = radius * np.cos(cap)
        helper2 = np.array([0.0, 0.0, 1.0]) if abs(c[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = np.cross(helper2, c)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(c, t1)
        quads.append(plane_disk_quadric(t1, t2, rho * c, rim_r, rim_r))
    return quads, axis


def overhead_camera(
    rng: np.random.Generator, axis: np.ndarray, radius: float = 1.0
) -> np.ndarray:
    """Projection matrix of a random camera above a surface region.

    The sub-point stays within 10 degrees of the region axis and altitude
    above 1.2 radii, keeping a ~30 degree pattern well inside the horizon.
    """
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    off = rng.uniform(0, np.deg2rad(10))
    az = rng.uniform(0, 2 * np.pi)
    pos_dir = np.cos(off) * axis + np.sin(off) * (np.cos(az) * e1 + np.sin(az) * e2)
    r_cam = pos_dir * radius * rng.uniform(2.2, 3.5)
    up = np.cos(az + 1.0) * e1 + np.sin(az + 1.0) * e2
    pose = look_at_pose(r_cam, radius * axis * 0.6, up_hint=up)
    intr = Intrinsics(dx=rng.uniform(800, 1600), dy=rng.uniform(800, 1600), up=1000, vp=900)
    return projection_matrix(intr, pose)


def patch_catalog(
    n: int = 14,
    lat0_deg: float = 12.0,
    lon0_deg: float = 40.0,
    spread_km: float = 65.0,
    seed: int = 0,
) -> list[CraterRecord]:
    """Small cluster of craters around one surface point (cheap end-to-end)."""
    rng = np.random.default_rng(seed)
    recs = []
    centers = []
    radius = LUNAR_RADIUS_KM
    while len(recs) < n:
        dlat = rng.uniform(-spread_km, spread_km) / radius
        dlon = rng.uniform(-spread_km, spread_km) / (
            radius * np.cos(np.deg2rad(lat0_deg))
        )
        lat = np.deg2rad(lat0_deg) + dlat
        lon = np.deg2rad(lon0_deg) + dlon
        a = rng.uniform(3.0, 6.0)
        u = crater_center(lat, lon, 1.0)
        if any(
            np.arccos(np.clip(u @ v, -1, 1)) <= 1.5 * (a + s) / radius
            for v, s in centers
        ):
            continue
        centers.append((u, a))
        recs.append(
            CraterRecord(
                id=f"P{len(recs):03d}",
                lat=lat,
                lon=lon,
                a=a,
                b=a / rng.uniform(1.0, 1.25),
                psi=rng.uniform(0, np.pi),
                arc_fraction=0.95,
            )
        )
    return recs


PATCH_SCALE = IndexScale("patch", 2, 6.0, 12.0, np.inf, 0.9, "coplanar7", "ordered")


@pytest.fixture(scope="session")
def patch_records() -> list[CraterRecord]:
    return patch_catalog()


@pytest.fixture(scope="session")
def patch_index(patch_records):
    return build_index(patch_records, PATCH_SCALE)


@pytest.fixture(scope="session")
def patch_pose() -> CameraPose:
    r_cam = crater_center(np.deg2rad(12.0), np.deg2rad(40.0), LUNAR_RADIUS_KM + 150.0)
    return look_at_pose(r_cam, np.zeros(3), up_hint=np.array([0.0, 0.0, 1.0]))


# -- heavyweight shared scenes (pipeline + acceptance) -----------------------


@pytest.fixture(scope="session")
def local_catalog():
    return synthetic_catalog(n=8000, d_min=15.0, d_max=60.0, seed=7, max_ellipticity=1.3)


@pytest.fixture(scope="session")
def local_scale():
    return IndexScale("locals", 5, 15.0, 60.0, np.inf, 0.9, "coplanar7", "ordered")


@pytest.fixture(scope="session")
def local_index(local_catalog, local_scale):
    return build_index(local_catalog, local_scale)


@pytest.fixture(scope="session")
def local_geometry(local_catalog):
    return SceneGeometry.build(local_catalog)


@pytest.fixture(scope="session")
def global_catalog():
    return synthetic_catalog(n=260, d_min=110.0, d_max=260.0, seed=21, max_ellipticity=1.1)


@pytest.fixture(scope="session")
def global_scale():
    return IndexScale("globals", 2, 100.0, np.inf, 1.1, 0.9, "noncoplanar3", "ordered")


@pytest.fixture(scope="session")
def global_index(global_catalog, global_scale):
    return build_index(global_catalog, global_scale)
