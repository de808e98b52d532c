import numpy as np
import pytest

from craterid.conic2d import EllipseParams, ellipse_to_conic
from craterid.crater3d import (
    LUNAR_RADIUS_KM,
    CraterRecord,
    build_frame,
    conic_disk_quadric,
    crater_center,
    crater_frames,
    disk_quadric,
)
from craterid.errors import InvalidAxesError, PolarSingularityError


def _at(p: np.ndarray) -> CraterRecord:
    """A crater record whose center lies in the direction of ``p``."""
    lat = np.arcsin(p[2] / np.linalg.norm(p))
    return CraterRecord("x", lat, np.arctan2(p[1], p[0]), 5.0, 4.0, 0.3)


def test_crater_center_examples():
    r = LUNAR_RADIUS_KM
    assert np.allclose(crater_center(0.0, 0.0, r), [r, 0, 0])
    assert np.allclose(crater_center(np.pi / 2, 1.234, r), [0, 0, r], atol=1e-9)
    expect = r * np.array(
        [
            np.cos(np.pi / 6) * np.cos(np.pi / 4),
            np.cos(np.pi / 6) * np.sin(np.pi / 4),
            np.sin(np.pi / 6),
        ]
    )
    assert np.allclose(crater_center(np.pi / 6, np.pi / 4, r), expect)


def test_crater_center_norm_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        lat = rng.uniform(-np.pi / 2, np.pi / 2)
        lon = rng.uniform(-np.pi, np.pi)
        rho = rng.uniform(1.0, 2000.0)
        assert np.linalg.norm(crater_center(lat, lon, rho)) == pytest.approx(rho)


def test_enu_frame_examples():
    e, n, u = crater_frames([_at(np.array([1.0, 0.0, 0.0]))]).t_em[0].T
    assert np.allclose(e, [0, 1, 0])
    assert np.allclose(n, [0, 0, 1])
    assert np.allclose(u, [1, 0, 0])
    e, n, u = crater_frames([_at(np.array([0.0, 1.0, 0.0]))]).t_em[0].T
    assert np.allclose(e, [-1, 0, 0])
    assert np.allclose(n, [0, 0, 1])
    assert np.allclose(u, [0, 1, 0])


def test_enu_orthonormal_right_handed():
    rng = np.random.default_rng(1)
    points = [p for p in rng.normal(size=(300, 3)) if np.linalg.norm(p[:2]) >= 1e-3]
    frames = crater_frames([_at(p) for p in points])
    for t in frames.t_em:
        assert np.allclose(t.T @ t, np.eye(3), atol=1e-12)
        assert np.linalg.det(t) == pytest.approx(1.0)
        assert abs(t[2, 0]) < 1e-15  # East is horizontal


def test_enu_polar_singularity():
    with pytest.raises(PolarSingularityError):
        crater_frames([_at(np.array([0.0, 0.0, 1737.4]))])


def test_crater_plane():
    # The rim plane has the radial unit normal and lies sqrt(R^2 - ab) from
    # the Moon's center, through the rim center.
    r = LUNAR_RADIUS_KM
    f = build_frame(CraterRecord("c", 0.0, 0.0, a=10.0, b=10.0, psi=0.0), r)
    assert np.allclose(f.t_em[:, 2], [1, 0, 0])
    assert np.allclose(f.p_c, [np.sqrt(r * r - 100.0), 0, 0])


def test_center_lies_in_plane():
    rng = np.random.default_rng(2)
    recs = []
    for _ in range(100):
        lat, lon = rng.uniform(-1.2, 1.2), rng.uniform(-np.pi, np.pi)
        a, b = rng.uniform(2, 20), rng.uniform(1, 2)
        recs.append(CraterRecord("x", lat, lon, a, min(a, b), 0.0))
    frames = crater_frames(recs)
    for rec, p_c, t_em in zip(recs, frames.p_c, frames.t_em):
        rho = np.sqrt(LUNAR_RADIUS_KM**2 - rec.a * rec.b)
        assert abs(t_em[:, 2] @ p_c - rho) < 1e-9 * LUNAR_RADIUS_KM


def test_plane_offset_circular_rim_on_sphere():
    # Circular crater: rim points must lie on the sphere and in the plane.
    rec = CraterRecord("c", 0.4, 1.0, a=10.0, b=10.0, psi=0.0)
    r = LUNAR_RADIUS_KM
    f = build_frame(rec, r)
    rho = np.linalg.norm(f.p_c)
    assert rho == pytest.approx(np.sqrt(r * r - 100.0))
    for th in np.linspace(0, 2 * np.pi, 17):
        rim_local = np.array([10.0 * np.cos(th), 10.0 * np.sin(th), 0.0])
        p3 = f.p_c + f.t_em @ rim_local
        assert abs(p3 @ p3 / (r * r) - 1.0) < 1e-9
        assert abs(f.t_em[:, 2] @ p3 - rho) < 1e-9 * r


def test_disk_quadric_rank3():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = rng.uniform(2, 30)
        rec = CraterRecord(
            "r",
            rng.uniform(-1.3, 1.3),
            rng.uniform(-np.pi, np.pi),
            a,
            a * rng.uniform(0.7, 1.0),
            rng.uniform(0, np.pi),
        )
        q = disk_quadric(rec)
        sv = np.linalg.svd(q, compute_uv=False)
        assert sv[3] <= 1e-10 * sv[0]
        assert sv[2] > 1e-7 * sv[0]  # small craters sit near (ab/R^2) * sv[0]


def test_disk_quadric_tangent_planes_vanish():
    rec = CraterRecord("t", 0.0, 0.0, a=12.0, b=12.0, psi=0.0)
    q = disk_quadric(rec)
    f = build_frame(rec)
    rng = np.random.default_rng(4)
    scale = np.abs(q).max()
    tangent_forms = []
    for th in np.linspace(0, 2 * np.pi, 100, endpoint=False):
        # Rim point and rim tangent direction in 3D.
        rim = f.p_c + f.t_em @ np.array([12 * np.cos(th), 12 * np.sin(th), 0.0])
        tan = f.t_em @ np.array([-np.sin(th), np.cos(th), 0.0])
        w = rng.normal(size=3)
        normal = np.cross(tan, w)
        normal /= np.linalg.norm(normal)
        pi = np.append(normal, -normal @ rim)
        tangent_forms.append(abs(pi @ q @ pi))
        assert tangent_forms[-1] < 1e-9 * scale
    # Non-tangent probe planes near the crater give forms far above the
    # tangent residuals.
    probe_forms = []
    for _ in range(100):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        point = f.p_c + f.t_em @ np.append(rng.uniform(-12, 12, 2), 0.0)
        pi = np.append(normal, -normal @ point)
        probe_forms.append(abs(pi @ q @ pi))
    assert max(tangent_forms) < 1e-2 * np.median(probe_forms)
    # The supporting plane spans the quadric kernel: form and image vanish.
    pi_plane = np.append(f.t_em[:, 2], -f.t_em[:, 2] @ f.p_c)
    pi_plane /= np.linalg.norm(pi_plane)
    assert abs(pi_plane @ q @ pi_plane) < 1e-10 * scale
    assert np.linalg.norm(q @ pi_plane) < 1e-8 * scale


def test_disk_quadric_axis_swap_invariance():
    # The same geometric disk parameterized with axes swapped and the frame
    # rotated a quarter turn.
    t1 = np.array([0.0, 1.0, 0.0])
    t2 = np.array([0.0, 0.0, 1.0])
    c = np.array([1700.0, 0.0, 0.0])
    rim1 = ellipse_to_conic(EllipseParams(9.0, 5.0, psi=0.4))
    rim2 = ellipse_to_conic(EllipseParams(9.0, 5.0, psi=0.4 - np.pi / 2))
    q1 = conic_disk_quadric(np.column_stack([t1, t2, c]), rim1)
    q2 = conic_disk_quadric(np.column_stack([t2, -t1, c]), rim2)
    s = np.sum(q1 * q2) / np.sum(q2 * q2)
    assert np.allclose(q1, s * q2, atol=1e-9 * np.abs(q1).max())


def test_record_validation():
    with pytest.raises(InvalidAxesError):
        CraterRecord("bad", 0.0, 0.0, a=1.0, b=2.0, psi=0.0)
    with pytest.raises(ValueError):
        CraterRecord("bad", 2.0, 0.0, a=2.0, b=1.0, psi=0.0)
    with pytest.raises(ValueError):
        CraterRecord("bad", 0.0, 0.0, a=2.0, b=1.0, psi=0.0, arc_fraction=1.5)


def test_polar_crater_rejected():
    # East is undefined when the center direction is (numerically) the pole.
    rec = CraterRecord("p", np.pi / 2 - 1e-10, 0.0, 5.0, 5.0, 0.0)
    with pytest.raises(PolarSingularityError):
        build_frame(rec)


def _mixed_records(n: int = 40) -> list[CraterRecord]:
    rng = np.random.default_rng(5)
    out = []
    for i in range(n):
        a = rng.uniform(2.0, 60.0)
        out.append(
            CraterRecord(
                f"m{i}",
                rng.uniform(-1.5, 1.5),
                rng.uniform(-np.pi, np.pi),
                a,
                a / rng.uniform(1.0, 3.0),
                rng.uniform(-4.0, 4.0),  # outside [0, pi) too
            )
        )
    return out


def test_each_table_row_equals_its_one_record_table():
    # Stacking changes nothing: row i of an n-crater table is the one-record
    # table of crater i, bit for bit.
    recs = _mixed_records()
    table = crater_frames(recs)
    assert len(table) == len(recs)
    assert table.p_c.shape == (len(recs), 3) and table.quadric.shape == (len(recs), 4, 4)
    for i, rec in enumerate(recs):
        one = build_frame(rec)
        row = table[i]
        for name in ("p_c", "t_em", "conic", "quadric"):
            assert getattr(row, name).tobytes() == getattr(one, name).tobytes(), (rec.id, name)
        assert disk_quadric(rec).tobytes() == row.quadric.tobytes()
    sub = table[[3, 1]]
    assert len(sub) == 2 and sub.t_em.tobytes() == table.t_em[[3, 1]].tobytes()
    assert len(crater_frames([])) == 0


def test_table_names_the_record_that_fails():
    recs = _mixed_records(6)
    polar = CraterRecord("polar", np.pi / 2 - 1e-10, 0.0, 5.0, 5.0, 0.0)
    huge = CraterRecord("huge", 0.1, 0.2, 1800.0, 1700.0, 0.0)
    with pytest.raises(PolarSingularityError, match="polar"):
        crater_frames([*recs[:3], polar, *recs[3:]])
    with pytest.raises(InvalidAxesError, match="huge"):
        crater_frames([*recs[:2], huge, *recs[2:]])
