import numpy as np
import pytest

from craterid.camera import Intrinsics, look_at_pose, project_disk_quadric, projection_matrix
from craterid.conic2d import EllipseParams, ellipse_to_conic, normalize_unit_det
from craterid.errors import AcoshDomainError, NotNormalizedError, OverlapError
from craterid.invariants import (
    coplanar_triad,
    cyclic_F,
    make_descriptor,
    noncoplanar_triad,
    pair_G,
    query_rotations,
    rotate_descriptor_values,
)

from conftest import (
    overhead_camera,
    plane_disk_quadric,
    random_ellipse,
    random_plane_camera,
    sphere_cap_triad,
)


def _norm_conic(e: EllipseParams) -> np.ndarray:
    return normalize_unit_det(ellipse_to_conic(e))


# -- coplanar -----------------------------------------------------------------


def _pair(ci: np.ndarray, cj: np.ndarray, ck: np.ndarray) -> tuple[float, float]:
    """The pair invariants (I_ij, I_ji) of conics i, j, read from the triad
    (i, j, k)."""
    inv = coplanar_triad(ci, cj, ck)
    return inv[0], inv[3]


def test_pair_identical_gives_three_three():
    c = _norm_conic(EllipseParams(2, 1, 3, -1, 0.4))
    other = _norm_conic(EllipseParams(1, 1, -4, 2))
    assert _pair(c, c, other) == pytest.approx((3.0, 3.0))


def test_pair_requires_normalization():
    c = ellipse_to_conic(EllipseParams(2, 1))
    with pytest.raises(NotNormalizedError):
        coplanar_triad(c, c, c)


def test_pair_symmetric_configuration():
    ci = _norm_conic(EllipseParams(1, 1, 0, 0))
    cj = _norm_conic(EllipseParams(1, 1, 5, 0))
    ck = _norm_conic(EllipseParams(2, 1, 2, 6, 0.3))
    i_ij, i_ji = _pair(ci, cj, ck)
    assert i_ij == pytest.approx(i_ji, rel=1e-12)


def test_pair_invariance_under_camera_homography(apollo_camera):
    rng = np.random.default_rng(0)
    for _ in range(300):
        ci = _norm_conic(random_ellipse(rng))
        cj = _norm_conic(random_ellipse(rng))
        ck = _norm_conic(random_ellipse(rng))
        h = random_plane_camera(rng, apollo_camera)
        hi = np.linalg.inv(h)
        ci2, cj2, ck2 = (normalize_unit_det(hi.T @ c @ hi) for c in (ci, cj, ck))
        before = _pair(ci, cj, ck)
        after = _pair(ci2, cj2, ck2)
        assert np.allclose(before, after, atol=1e-9, rtol=1e-9)


def test_triad_identical_invariants():
    c = _norm_conic(EllipseParams(2, 1, 3, 4, 0.5))
    inv = coplanar_triad(c, c, c)
    assert inv[0] == pytest.approx(3.0, abs=1e-9)  # I_ij
    assert inv[6] == pytest.approx(12.0, abs=1e-9)  # I_ijk


def test_triad_invariance_under_camera_homography(apollo_camera):
    rng = np.random.default_rng(1)
    for _ in range(300):
        cs = [_norm_conic(random_ellipse(rng)) for _ in range(3)]
        h = random_plane_camera(rng, apollo_camera)
        hi = np.linalg.inv(h)
        mapped = [normalize_unit_det(hi.T @ c @ hi) for c in cs]
        d = np.abs(coplanar_triad(*cs) - coplanar_triad(*mapped))
        assert d.max() < 1e-8


def test_triple_invariant_matches_net_determinant_fit():
    # Oracle: fit the 10 cubic coefficients of det(l*A + m*B + s*C) and read
    # off the l*m*s coefficient, which must equal I_ijk / 2.
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(40, 3))
    design = np.column_stack(
        [
            pts[:, 0] ** 3,
            pts[:, 0] ** 2 * pts[:, 1],
            pts[:, 0] * pts[:, 1] ** 2,
            pts[:, 1] ** 3,
            pts[:, 0] ** 2 * pts[:, 2],
            pts[:, 0] * pts[:, 2] ** 2,
            pts[:, 2] ** 3,
            pts[:, 1] ** 2 * pts[:, 2],
            pts[:, 1] * pts[:, 2] ** 2,
            pts[:, 0] * pts[:, 1] * pts[:, 2],
        ]
    )
    for _ in range(200):
        cs = [_norm_conic(random_ellipse(rng)) for _ in range(3)]
        dets = np.array(
            [np.linalg.det(l * cs[0] + m * cs[1] + s * cs[2]) for l, m, s in pts]
        )
        coef, *_ = np.linalg.lstsq(design, dets, rcond=None)
        inv = coplanar_triad(*cs)
        assert coef[-1] == pytest.approx(inv[6] / 2.0, rel=1e-8)


# -- non-coplanar -------------------------------------------------------------


def test_sphere_model_closed_form():
    # Circles cut from the unit sphere by planes x=t, y=t, z=t; the third
    # invariant has the closed form acosh(sqrt(t^4 / (2t^2 - 1)^2)).
    t = 0.8
    rim = np.sqrt(1 - t * t)
    ex, ey, ez = np.eye(3)
    quads = [
        plane_disk_quadric(ey, ez, t * ex, rim, rim),
        plane_disk_quadric(ez, ex, t * ey, rim, rim),
        plane_disk_quadric(ex, ey, t * ez, rim, rim),
    ]
    intr = Intrinsics(dx=1000, dy=1000, up=500, vp=500)
    pose = look_at_pose(np.array([1.8, 1.7, 1.9]), np.zeros(3), up_hint=ez)
    p = projection_matrix(intr, pose)
    j = noncoplanar_triad(*(project_disk_quadric(p, q) for q in quads))
    alpha3_sq = (t**2 * t**2) / ((t * t + t * t - 1.0) ** 2)
    expect = np.arccosh(np.sqrt(alpha3_sq))
    assert j[2] == pytest.approx(expect, abs=1e-6)
    # t1 = t2 = t3 makes the configuration symmetric.
    assert j[0] == pytest.approx(j[1], abs=1e-9)
    assert j[0] == pytest.approx(j[2], abs=1e-9)


def _sphere_model_conics(ts: np.ndarray, pose_seed: int = 3) -> list[np.ndarray]:
    """Images of the unit-sphere rims cut by the planes x=t1, y=t2, z=t3."""
    t1, t2, t3 = ts
    ex, ey, ez = np.eye(3)
    quads = [
        plane_disk_quadric(ey, ez, t1 * ex, np.sqrt(1 - t1 * t1), np.sqrt(1 - t1 * t1)),
        plane_disk_quadric(ez, ex, t2 * ey, np.sqrt(1 - t2 * t2), np.sqrt(1 - t2 * t2)),
        plane_disk_quadric(ex, ey, t3 * ez, np.sqrt(1 - t3 * t3), np.sqrt(1 - t3 * t3)),
    ]
    intr = Intrinsics(dx=1000, dy=1000, up=500, vp=500)
    rng = np.random.default_rng(pose_seed)
    pos = np.array([2.1, 1.9, 2.2]) + rng.normal(scale=0.05, size=3)
    pose = look_at_pose(pos, np.zeros(3), up_hint=np.array([0.0, 0.0, 1.0]))
    p = projection_matrix(intr, pose)
    return [project_disk_quadric(p, q) for q in quads]


def _sphere_model_alpha_sq(ts: np.ndarray, pose_seed: int = 3) -> np.ndarray:
    """(alpha_1^2, alpha_2^2, alpha_3^2) computed through the full pipeline."""
    j = noncoplanar_triad(*_sphere_model_conics(ts, pose_seed))
    return np.cosh(j) ** 2


def test_sphere_model_alpha_sq_closed_form():
    # alpha_k^2 = t_i^2 t_j^2 / ((t_i^2 + t_k^2 - 1)(t_j^2 + t_k^2 - 1)) for
    # pairwise disjoint rims; the general form of the t1 = t2 = t3 case above.
    t = np.array([0.75, 0.80, 0.85])
    expect = [
        (t[i] * t[j]) ** 2 / ((t[i] ** 2 + t[k] ** 2 - 1) * (t[j] ** 2 + t[k] ** 2 - 1))
        for k, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    ]
    assert expect == pytest.approx([8.0121, 5.5364, 3.4846], abs=1e-4)
    assert _sphere_model_alpha_sq(t) == pytest.approx(expect, rel=1e-8)


def test_sphere_model_intersecting_rims_raise():
    # t_i^2 + t_j^2 < 1 for every pair: the rims cross on the sphere, the
    # pencil has several real line-pair branches, and the image alone cannot
    # tell which one holds the planes' common chord.
    ts = np.array([0.55, 0.60, 0.65])
    assert all(ts[i] ** 2 + ts[j] ** 2 < 1 for i, j in ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(OverlapError):
        noncoplanar_triad(*_sphere_model_conics(ts))


def test_sphere_model_jacobian_invertible():
    # Independence witness: the finite-difference Jacobian of the three
    # squared invariants with respect to the plane offsets is invertible.
    # The offsets keep every pair of rims disjoint (t_i^2 + t_j^2 > 1), the
    # domain noncoplanar_triad is defined on.
    ts = np.array([0.75, 0.80, 0.85])
    assert all(ts[i] ** 2 + ts[j] ** 2 > 1 for i, j in ((0, 1), (0, 2), (1, 2)))
    h = 1e-5
    jac = np.zeros((3, 3))
    for col in range(3):
        up = ts.copy()
        dn = ts.copy()
        up[col] += h
        dn[col] -= h
        jac[:, col] = (_sphere_model_alpha_sq(up) - _sphere_model_alpha_sq(dn)) / (2 * h)
    assert abs(np.linalg.det(jac)) > 1e-6


def test_noncoplanar_view_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        quads, axis = sphere_cap_triad(rng)
        p1 = overhead_camera(rng, axis)
        p2 = overhead_camera(rng, axis)
        j1 = np.array(noncoplanar_triad(*(project_disk_quadric(p1, q) for q in quads)))
        j2 = np.array(noncoplanar_triad(*(project_disk_quadric(p2, q) for q in quads)))
        assert np.abs(j1 - j2).max() < 1e-8


def test_interior_angles_are_not_invariant():
    # Negative control: triangle interior angles of the three ellipse centers
    # move by much more than the invariants under a view change.
    rng = np.random.default_rng(5)
    deltas = []
    for _ in range(40):
        quads, axis = sphere_cap_triad(rng)
        angles = []
        for p in (overhead_camera(rng, axis), overhead_camera(rng, axis)):
            centers = []
            for q in quads:
                from craterid.conic2d import conic_to_ellipse

                e = conic_to_ellipse(project_disk_quadric(p, q))
                centers.append(np.array([e.xc, e.yc]))
            v1 = centers[1] - centers[0]
            v2 = centers[2] - centers[0]
            cosang = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
            angles.append(np.arccos(np.clip(cosang, -1, 1)))
        deltas.append(abs(angles[0] - angles[1]))
    assert np.median(deltas) > 1e-3


def test_overlapping_conics_raise():
    # Overlap surfaces either at line recovery or in the acosh domain check,
    # depending on how the degenerate pencil branches fall.
    c1 = ellipse_to_conic(EllipseParams(2, 1.5, 0, 0))
    c2 = ellipse_to_conic(EllipseParams(2, 1.5, 1, 0))  # overlaps c1
    c3 = ellipse_to_conic(EllipseParams(1, 1, 8, 0))
    with pytest.raises((OverlapError, AcoshDomainError)):
        noncoplanar_triad(c1, c2, c3)


# -- permutation machinery ----------------------------------------------------


def test_cyclic_F_examples():
    assert cyclic_F(5.0, 5.0, 5.0) == (15.0, 0.0, 0.0)
    f = cyclic_F(1.0, 2.0, 3.0)
    assert f[0] == pytest.approx(6.0)
    assert f[1] == pytest.approx(0.0, abs=1e-12)
    assert f[2] == pytest.approx(-2.0 * np.sqrt(3.0))


def test_cyclic_F_cycles_and_odd_flip():
    f = cyclic_F(1.0, 2.0, 3.0)
    assert cyclic_F(2.0, 3.0, 1.0) == pytest.approx(f)
    assert cyclic_F(3.0, 1.0, 2.0) == pytest.approx(f)
    swapped = cyclic_F(1.0, 3.0, 2.0)
    assert swapped[2] == pytest.approx(-f[2])
    assert swapped != pytest.approx(f)


def test_pair_G_examples():
    g1, g2, gt1, gt2 = pair_G(1, 2, 3, 1, 2, 3)
    assert g1 == pytest.approx(3.0)
    assert g2 == pytest.approx(0.0, abs=1e-12)
    _, _, t1, t2 = pair_G(4.0, 4.0, 4.0, 1.0, 7.0, 2.0)
    assert (t1, t2) == (0.0, 0.0)


def test_pair_G_common_shift_invariance():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        base = pair_G(*x, *y)
        xs, ys = np.roll(x, -1), np.roll(y, -1)
        same = pair_G(*xs, *ys)
        assert np.allclose(base[:2], same[:2], atol=1e-12)
        # shifting only one triple changes G2
        mixed = pair_G(*np.roll(x, -1), *y)
        assert abs(mixed[1] - base[1]) > 1e-12


def test_pair_G_scaling():
    x = np.array([1.0, 2.5, -0.5])
    y = np.array([0.3, 1.1, 2.2])
    s = 3.0
    b = pair_G(*x, *y)
    sc = pair_G(*(s * x), *(s * y))
    assert sc[0] == pytest.approx(s * s * b[0])  # G scales quadratically
    assert sc[2] == pytest.approx(s * b[2])  # normalized form scales linearly


# -- descriptors ---------------------------------------------------------------


def _rotated(ids, r):
    """Crater labels after the label rotation that ``make_descriptor`` returns."""
    return ids[r:] + ids[:r]


def test_descriptor_ordered_and_rotations():
    vec = (1.5, 0.7, 2.2)
    values, r = make_descriptor(vec, "ordered")
    assert np.allclose(values, vec) and r == 0
    r1 = rotate_descriptor_values(values, 1)
    assert np.allclose(r1, [0.7, 2.2, 1.5])


def test_descriptor_sorted_three():
    values, r = make_descriptor((5.0, 1.0, 3.0), "sorted")
    assert np.allclose(values, [1.0, 3.0, 5.0])
    assert _rotated(("a", "b", "c"), r) == ("b", "c", "a")


def test_descriptor_sorted_seven():
    inv = np.array([4.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    values, r = make_descriptor(inv, "sorted")
    # min of (4, 3, 5) is at position 1 -> rotate labels by one step
    assert np.allclose(values, [3.0, 5.0, 4.0, 7.0, 8.0, 6.0, 9.0])
    assert _rotated(("a", "b", "c"), r) == ("b", "c", "a")


def test_descriptor_p2_cyclic_bit_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = tuple(rng.uniform(0.2, 3.0, 3))
        d0, r0 = make_descriptor(j, "p2")
        d1, r1 = make_descriptor((j[1], j[2], j[0]), "p2")
        assert np.array_equal(d0, d1) and r0 == r1 == 0
    inv = rng.uniform(2, 9, 7)
    d0, _ = make_descriptor(inv, "p2")
    d1, _ = make_descriptor(rotate_descriptor_values(inv, 1), "p2")
    assert np.allclose(d0, d1, atol=1e-12)


def test_descriptor_p2_detects_odd_permutation():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(100):
        j = rng.uniform(0.2, 3.0, 3)
        d_even, _ = make_descriptor(tuple(j), "p2")
        d_odd, _ = make_descriptor((j[0], j[2], j[1]), "p2")
        if not np.allclose(d_even, d_odd, atol=1e-12):
            hits += 1
    assert hits == 100  # F3 != 0 almost surely for random triples


def test_descriptor_seven_p2_layout():
    inv = np.array([4.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    values, _ = make_descriptor(inv, "p2")
    assert values.shape == (7,)
    assert values[0] == pytest.approx(12.0)  # F1 of first triple
    assert values[3] == pytest.approx(21.0)  # F1 of second triple
    assert values[6] == pytest.approx(9.0)  # triple invariant


def test_ordered_cyclic_relabels_are_rotations():
    rng = np.random.default_rng(9)
    ci, cj, ck = (_norm_conic(random_ellipse(rng)) for _ in range(3))
    base, _ = make_descriptor(coplanar_triad(ci, cj, ck), "ordered")
    cyc, _ = make_descriptor(coplanar_triad(cj, ck, ci), "ordered")
    assert np.allclose(cyc, rotate_descriptor_values(base, 1))


@pytest.mark.parametrize("dim", [3, 7])
@pytest.mark.parametrize("convention", ["ordered", "sorted", "p2"])
def test_query_rotations_meet_the_stored_descriptor(convention, dim):
    # The image sees a catalogue triad (A, B, C) with its labels cycled s
    # steps.  One query must equal the stored descriptor bit for bit, at the
    # rotation r that identify uses to pair image label (r + m) % 3 with the
    # entry's m-th crater; p2 queries once, with rotation None.
    rng = np.random.default_rng(12)
    ids = ("A", "B", "C")
    for _ in range(100):
        inv = rng.uniform(-60.0, 60.0, dim)
        stored, shift = make_descriptor(inv, convention)
        stored_ids = _rotated(ids, shift)
        for s in range(3):
            image_ids = ids[s:] + ids[:s]
            queries = dict(query_rotations(rotate_descriptor_values(inv, s), convention))
            maps = [
                r for r in range(3)
                if all(image_ids[(r + m) % 3] == stored_ids[m] for m in range(3))
            ]
            assert len(maps) == 1
            key = None if convention == "p2" else maps[0]
            assert queries[key].tobytes() == stored.tobytes()
