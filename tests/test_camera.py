import numpy as np
import pytest

from craterid.camera import (
    CameraPose,
    Intrinsics,
    crater_homography,
    crater_visible,
    k_matrix,
    look_at_pose,
    parse_camera_file,
    project_disk_quadric,
    project_point,
    projection_matrix,
    quaternion_to_matrix,
)
from craterid.conic2d import adjugate, conic_to_ellipse, normalize_unit_det
from craterid.crater3d import (
    LUNAR_RADIUS_KM,
    CraterRecord,
    build_frame,
    crater_center,
    disk_quadric,
)
from craterid.errors import BehindCameraError, DegenerateViewError, SchemaError

from conftest import APOLLO_DX


def _identity_pose():
    return CameraPose(t_mc=np.eye(3), r_m=np.zeros(3))


def test_projection_matrix_identity():
    p = projection_matrix(Intrinsics(dx=1, dy=1), _identity_pose())
    assert np.allclose(p, np.hstack([np.eye(3), np.zeros((3, 1))]))


def test_on_axis_point_hits_principal_point():
    intr = Intrinsics(dx=1000, dy=1000, up=512, vp=512)
    p = projection_matrix(intr, _identity_pose())
    assert np.allclose(project_point(p, np.array([0.0, 0.0, 10.0])), [512, 512])


def test_off_axis_point():
    intr = Intrinsics(dx=1000, dy=1000, up=512, vp=512)
    p = projection_matrix(intr, _identity_pose())
    assert np.allclose(project_point(p, np.array([1.0, 0.0, 10.0])), [612, 512])


def test_symmetric_points():
    intr = Intrinsics(dx=1000, dy=1000, up=512, vp=512)
    p = projection_matrix(intr, _identity_pose())
    u1 = project_point(p, np.array([1.0, 0.0, 10.0]))
    u2 = project_point(p, np.array([-1.0, 0.0, 10.0]))
    assert np.allclose(0.5 * (u1 + u2), [512, 512])


def test_project_matches_explicit_chain():
    rng = np.random.default_rng(0)
    intr = Intrinsics(dx=900, dy=1100, skew=2.0, up=640, vp=480)
    for _ in range(100):
        pose = look_at_pose(
            rng.normal(size=3) * 10 + np.array([0, 0, -50.0]),
            rng.normal(size=3),
            up_hint=np.array([0.0, 1.0, 0.0]),
        )
        p = projection_matrix(intr, pose)
        x = rng.normal(size=3) * 5
        xc = pose.t_mc @ (x - pose.r_m)
        if xc[2] <= 0.1:
            continue
        expect = (k_matrix(intr) @ xc)[:2] / xc[2]
        assert np.allclose(project_point(p, x), expect, atol=1e-9)


def test_behind_camera_raises():
    p = projection_matrix(Intrinsics(dx=1, dy=1), _identity_pose())
    with pytest.raises(BehindCameraError):
        project_point(p, np.array([0.0, 0.0, -5.0]))
    with pytest.raises(BehindCameraError):
        project_point(p, np.zeros(3))


def test_nadir_circular_crater_projects_to_circle():
    # Similar triangles: pixel radius = dx * r / h for a nadir view of a
    # circular crater straight below.
    r_km, h_km = 8.0, 120.0
    rec = CraterRecord("c", 0.0, 0.0, a=r_km, b=r_km, psi=0.0)
    radius = LUNAR_RADIUS_KM
    rho = np.sqrt(radius**2 - r_km**2)
    cam_r = crater_center(0.0, 0.0, rho + h_km)
    pose = look_at_pose(cam_r, np.zeros(3), up_hint=np.array([0.0, 0.0, 1.0]))
    intr = Intrinsics(dx=1500, dy=1500, up=1000, vp=1000)
    p = projection_matrix(intr, pose)
    ell = conic_to_ellipse(project_disk_quadric(p, disk_quadric(rec, radius)))
    expect_px = 1500 * r_km / h_km
    assert ell.a == pytest.approx(expect_px, rel=1e-9)
    assert ell.b == pytest.approx(expect_px, rel=1e-9)
    assert ell.xc == pytest.approx(1000, abs=1e-6)
    assert ell.yc == pytest.approx(1000, abs=1e-6)


def test_projection_consistent_with_rim_point_sampling():
    rng = np.random.default_rng(1)
    intr = Intrinsics(dx=1300, dy=1250, up=1100, vp=1000)
    for _ in range(20):
        rec = CraterRecord(
            "s",
            rng.uniform(-0.9, 0.9),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(5, 20),
            rng.uniform(4, 5),
            rng.uniform(0, np.pi),
        )
        rec = CraterRecord("s", rec.lat, rec.lon, rec.a, min(rec.a, rec.b), rec.psi)
        f = build_frame(rec)
        cam_r = f.p_c * (1.0 + rng.uniform(0.05, 0.3))
        pose = look_at_pose(cam_r, np.zeros(3), up_hint=f.t_em[:, 0])
        p = projection_matrix(intr, pose)
        locus = project_disk_quadric(p, disk_quadric(rec))
        # Independent oracle: project 64 rim points, fit the implicit conic.
        rows = []
        for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            local = np.array(
                [
                    rec.a * np.cos(th) * np.cos(rec.psi)
                    - rec.b * np.sin(th) * np.sin(rec.psi),
                    rec.a * np.cos(th) * np.sin(rec.psi)
                    + rec.b * np.sin(th) * np.cos(rec.psi),
                    0.0,
                ]
            )
            u, v = project_point(p, f.p_c + f.t_em @ local)
            rows.append([u * u, u * v, v * v, u, v, 1.0])
        _, _, vt = np.linalg.svd(np.array(rows))
        A, B, C, D, F, G = vt[-1]
        fit = normalize_unit_det(
            np.array([[A, B / 2, D / 2], [B / 2, C, F / 2], [D / 2, F / 2, G]])
        )
        delta = min(
            np.abs(fit - locus).max(), np.abs(fit + locus).max()
        )  # det-normalization leaves a possible sign pair
        assert delta <= 1e-8 * np.abs(locus).max()


def test_envelope_and_homography_routes_agree():
    rng = np.random.default_rng(2)
    intr = Intrinsics(dx=1200, dy=1200, up=800, vp=800)
    for _ in range(1000):
        rec = CraterRecord(
            "h",
            rng.uniform(-1.0, 1.0),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(4, 25),
            rng.uniform(3, 4),
            rng.uniform(0, np.pi),
        )
        rec = CraterRecord("h", rec.lat, rec.lon, rec.a, min(rec.a, rec.b), rec.psi)
        f = build_frame(rec)
        cam_r = f.p_c * rng.uniform(1.02, 1.5) + f.t_em[:, 0] * rng.uniform(-60, 60)
        pose = look_at_pose(cam_r, f.p_c, up_hint=f.t_em[:, 1])
        p = projection_matrix(intr, pose)
        q = disk_quadric(rec)
        env_route = p @ q @ p.T
        h = crater_homography(p, f)
        from craterid.conic2d import EllipseParams, ellipse_to_conic

        c_env = adjugate(ellipse_to_conic(EllipseParams(rec.a, rec.b, psi=rec.psi)))
        hom_route = h @ c_env @ h.T
        s = np.sum(env_route * hom_route) / np.sum(hom_route * hom_route)
        assert np.allclose(env_route, s * hom_route, atol=1e-8 * np.abs(env_route).max())


def test_homography_point_route_agrees_with_locus():
    rng = np.random.default_rng(3)
    intr = Intrinsics(dx=1000, dy=1000, up=500, vp=500)
    rec = CraterRecord("k", 0.2, 0.3, 10.0, 8.0, 0.5)
    f = build_frame(rec)
    pose = look_at_pose(f.p_c * 1.1 + f.t_em[:, 1] * 30, f.p_c, up_hint=f.t_em[:, 0])
    p = projection_matrix(intr, pose)
    locus = project_disk_quadric(p, disk_quadric(rec))
    h = crater_homography(p, f)
    from craterid.conic2d import EllipseParams, ellipse_to_conic

    c = ellipse_to_conic(EllipseParams(rec.a, rec.b, psi=rec.psi))
    hi = np.linalg.inv(h)
    via_h = normalize_unit_det(hi.T @ c @ hi)
    delta = min(np.abs(via_h - locus).max(), np.abs(via_h + locus).max())
    assert delta <= 1e-8


def test_scale_ambiguity_of_quadric():
    rec = CraterRecord("q", 0.1, 0.1, 9.0, 7.0, 0.3)
    f = build_frame(rec)
    pose = look_at_pose(f.p_c * 1.08, np.zeros(3), up_hint=f.t_em[:, 0])
    intr = Intrinsics(dx=1000, dy=1000, up=500, vp=500)
    p = projection_matrix(intr, pose)
    q = disk_quadric(rec)
    a1 = project_disk_quadric(p, q)
    a2 = project_disk_quadric(p, 3.7 * q)
    assert np.allclose(a1, a2, atol=1e-10 * np.abs(a1).max())


def test_degenerate_view_in_crater_plane():
    rec = CraterRecord("d", 0.0, 0.0, 10.0, 10.0, 0.0)
    f = build_frame(rec)
    # Camera inside the crater plane, looking along it.
    r_cam = f.p_c + f.t_em[:, 0] * 500.0
    pose = look_at_pose(r_cam, f.p_c, up_hint=f.t_em[:, 2])
    p = projection_matrix(Intrinsics(dx=1000, dy=1000), pose)
    with pytest.raises(DegenerateViewError):
        project_disk_quadric(p, disk_quadric(rec))


def test_visibility_far_side_and_bounds(apollo_camera):
    rec_near = CraterRecord("n", 0.0, 0.0, 10.0, 9.0, 0.1)
    rec_far = CraterRecord("f", 0.0, np.pi, 10.0, 9.0, 0.1)
    radius = LUNAR_RADIUS_KM
    cam_r = crater_center(0.0, 0.0, radius + 150.0)
    pose = look_at_pose(cam_r, np.zeros(3), up_hint=np.array([0.0, 0.0, 1.0]))
    f_near, f_far = build_frame(rec_near), build_frame(rec_far)
    assert crater_visible(pose, apollo_camera, f_near)
    assert not crater_visible(pose, apollo_camera, f_far)
    # A crater whose center projects inside the frame but whose rim crosses
    # the image edge is excluded (partial rims are not emitted).
    # At 150 km the FOV edge sits near 150*tan(36.85 deg)/R = 0.065 rad.
    found_excluded = False
    p = projection_matrix(apollo_camera, pose)
    for lat in np.linspace(0.045, 0.068, 40):
        rec_e = CraterRecord("e", lat, 0.0, 10.0, 9.0, 0.1)
        fe = build_frame(rec_e)
        vis = crater_visible(pose, apollo_camera, fe)
        try:
            ell = conic_to_ellipse(project_disk_quadric(p, disk_quadric(rec_e)))
            inside = (
                0 <= ell.xc < apollo_camera.cols and 0 <= ell.yc < apollo_camera.rows
            )
        except Exception:
            inside = False
        if inside and not vis:
            found_excluded = True  # center visible but full rim not inside
    assert found_excluded


def test_quaternion_to_matrix():
    assert np.allclose(quaternion_to_matrix([0, 0, 0, 1]), np.eye(3))
    # 90 deg about +z, scalar last.
    q = [0, 0, np.sin(np.pi / 4), np.cos(np.pi / 4)]
    r = quaternion_to_matrix(q)
    assert np.allclose(r @ np.array([1, 0, 0]), [0, 1, 0], atol=1e-12)
    with pytest.raises(ValueError):
        quaternion_to_matrix([0, 0, 0, 0])


def test_parse_camera_file(tmp_path):
    path = tmp_path / "cam.txt"
    path.write_text(
        "# comment\n"
        f"dx {APOLLO_DX}\n"
        f"dy = {APOLLO_DX}\n"
        "skew 0\nup 1099.5\nvp 1099.5\nrows 2200\ncols 2200\n"
    )
    intr = parse_camera_file(path)
    assert intr.dx == pytest.approx(APOLLO_DX)
    assert intr.rows == 2200
    bad = tmp_path / "bad.txt"
    bad.write_text("dx 100\n")
    with pytest.raises(SchemaError):
        parse_camera_file(bad)
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("dx 100 200\n")
    with pytest.raises(SchemaError):
        parse_camera_file(bad2)


def test_pose_validation():
    with pytest.raises(ValueError):
        CameraPose(t_mc=np.eye(3) * 2.0, r_m=np.zeros(3))
    with pytest.raises(ValueError):
        CameraPose(t_mc=np.diag([1.0, 1.0, -1.0]), r_m=np.zeros(3))


def test_pose_validation_bound_is_absolute():
    # np.allclose's relative term would accept (1 + 4e-6) I: T T^T is 8e-6 off I.
    with pytest.raises(ValueError):
        CameraPose(t_mc=(1.0 + 4e-6) * np.eye(3), r_m=np.zeros(3))
    rng = np.random.default_rng(11)
    for _ in range(50):
        r_m, target, up = rng.normal(size=(3, 3))
        pose = look_at_pose(r_m, target, up_hint=up)
        assert np.array_equal(CameraPose(t_mc=pose.t_mc, r_m=r_m).t_mc, pose.t_mc)


def test_stacked_projection_and_gaussian_angle_match_single_calls():
    # One (H, 3) stack of views mixing visible, edge-on, behind-camera and
    # straddling (hyperbola) projections: every element equals its one-element
    # call to 1e-12 relative, and an element is NaN exactly where that call
    # raises.
    from craterid.conic2d import EllipseParams, ellipse_to_conic
    from craterid.errors import CraterIdError, NotAnEllipseError
    from craterid.metrics import gaussian_angle

    recs = [
        CraterRecord(f"c{i}", 0.1 + 0.01 * i, 0.2, 10.0 - i, 8.0 - i, 0.3 * i) for i in range(3)
    ]
    f = build_frame(recs[0])
    east, _, up = f.t_em.T
    intr = Intrinsics(dx=1000, dy=1000, up=500, vp=500)
    poses = [
        look_at_pose(f.p_c + 150 * up, f.p_c, up_hint=east),  # nadir
        look_at_pose(f.p_c + 100 * up + 80 * east, f.p_c, up_hint=up),  # oblique
        look_at_pose(f.p_c + 500 * east, f.p_c, up_hint=up),  # in the plane of crater 0
        look_at_pose(f.p_c + 150 * up, f.p_c + 300 * up, up_hint=east),  # facing away
        look_at_pose(f.p_c + up, f.p_c + up + east, up_hint=up),  # rim 0 straddles the camera
    ]
    p = np.array([projection_matrix(intr, pose) for pose in poses])
    q = np.array([[disk_quadric(r) for r in recs]] * len(poses))
    stacked = project_disk_quadric(p[:, None], q)
    rng = np.random.default_rng(12)
    ref = np.array(
        [
            [ellipse_to_conic(EllipseParams(30, 20, *rng.uniform(0, 1000, 2), 0.4)) for _ in recs]
            for _ in poses
        ]
    )
    ref[1, 2] = np.diag([1.0, -1.0, 1.0])  # a hyperbola: not an ellipse
    angles = gaussian_angle(stacked, ref)
    assert stacked.shape == (len(poses), 3, 3, 3) and angles.shape == (len(poses), 3)
    raised = set()
    for h in range(len(poses)):
        for k in range(3):
            try:
                single = project_disk_quadric(p[h], q[h, k])
            except CraterIdError as exc:
                raised.add(type(exc))
                assert np.isnan(stacked[h, k]).all() and np.isnan(angles[h, k])
                continue
            np.testing.assert_allclose(stacked[h, k], single, rtol=1e-12, atol=0)
            try:
                d = gaussian_angle(single, ref[h, k])
            except NotAnEllipseError:
                raised.add(NotAnEllipseError)
                assert np.isnan(angles[h, k])
                continue
            assert angles[h, k] == pytest.approx(d, rel=1e-12, abs=0)
    assert raised == {DegenerateViewError, NotAnEllipseError}
    assert np.isfinite(angles).sum() >= 6
