"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` (or see the summary block at
the end of a full run).  Heavy shared scenes come from session fixtures.
"""

import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.distance import cdist

from craterid.camera import (
    Intrinsics,
    look_at_pose,
    project_disk_quadric,
    projection_matrix,
)
from craterid.conic2d import EllipseParams, conic_to_ellipse, ellipse_to_conic, normalize_unit_det
from craterid.crater3d import (
    LUNAR_RADIUS_KM,
    CraterRecord,
    crater_center,
    disk_quadric,
    disk_quadric_from_plane_frame,
)
from craterid.errors import CraterIdError
from craterid.index import DescriptorIndex, IndexScale, TriadEntry, build_index, enumerate_triads, load_index, save_index
from craterid.invariants import coplanar_triad, make_descriptor, noncoplanar_triad
from craterid.metrics import GateConfig, gate_statistic, gaussian_angle, jaccard_distance
from craterid.pipeline import (
    IdentifyRequest,
    MonteCarloConfig,
    SceneGeometry,
    identify,
    monte_carlo,
    synth_scene,
)
from craterid.pipeline import _trial_pose
from craterid.pose import ConicCorrespondence, solve_position

from conftest import (
    acceptance_report as _report,
    overhead_camera,
    random_ellipse,
    random_plane_camera,
    sphere_cap_triad,
)


# -- 1: projective invariance ---------------------------------------------------


def test_criterion_1_projective_invariance(apollo_camera):
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_j = 0.0
    n_done = 0
    while n_done < 1000:
        quads, axis = sphere_cap_triad(rng)
        try:
            p1 = overhead_camera(rng, axis)
            p2 = overhead_camera(rng, axis)
            j1 = np.array(noncoplanar_triad(*(project_disk_quadric(p1, q) for q in quads)))
            j2 = np.array(noncoplanar_triad(*(project_disk_quadric(p2, q) for q in quads)))
        except CraterIdError:
            continue
        worst_j = max(worst_j, np.abs(j1 - j2).max())
        n_done += 1

    worst_i = 0.0
    for _ in range(1000):
        # Clustered triads, like actual local crater patterns; far-flung
        # triads push the trace invariants into the thousands, where an
        # absolute 1e-8 comparison stops being meaningful.
        cs = [
            normalize_unit_det(ellipse_to_conic(random_ellipse(rng, span=5.0)))
            for _ in range(3)
        ]
        h1 = random_plane_camera(rng, apollo_camera)
        h2 = random_plane_camera(rng, apollo_camera)

        def mapped(h):
            hi = np.linalg.inv(h)
            return [normalize_unit_det(hi.T @ c @ hi) for c in cs]

        i1 = coplanar_triad(*mapped(h1))
        i2 = coplanar_triad(*mapped(h2))
        worst_i = max(worst_i, np.abs(i1 - i2).max())
    dt = time.time() - t0
    ok = worst_j <= 1e-8 and worst_i <= 1e-8 and dt < 60.0
    assert _report(
        1, ok, f"max|dJ|={worst_j:.2e}, max|dI|={worst_i:.2e}, runtime {dt:.1f}s (<60s)"
    )


# -- 2: sphere-model oracle -------------------------------------------------------


def _sphere_model_j(ts, cam_pos):
    ex, ey, ez = np.eye(3)
    frames = [(ey, ez, ex), (ez, ex, ey), (ex, ey, ez)]
    quads = []
    for t, (t1, t2, ax) in zip(ts, frames):
        rim = np.sqrt(1.0 - t * t)
        quads.append(disk_quadric_from_plane_frame(t1, t2, t * ax, rim, rim))
    intr = Intrinsics(dx=1000, dy=1000, up=500, vp=500)
    pose = look_at_pose(np.asarray(cam_pos, dtype=float), np.zeros(3), up_hint=ez)
    p = projection_matrix(intr, pose)
    return np.array(noncoplanar_triad(*(project_disk_quadric(p, q) for q in quads)))


def test_criterion_2_sphere_oracle():
    t = 0.8
    j = _sphere_model_j([t, t, t], [1.9, 1.8, 2.0])
    alpha3_sq = (t**2 * t**2) / ((t**2 + t**2 - 1.0) ** 2)
    expect = float(np.arccosh(np.sqrt(alpha3_sq)))
    err = abs(j[2] - expect)

    ts = np.array([0.55, 0.60, 0.65])
    h = 1e-5
    jac = np.zeros((3, 3))
    for col in range(3):
        up, dn = ts.copy(), ts.copy()
        up[col] += h
        dn[col] -= h
        jac[:, col] = (
            np.cosh(_sphere_model_j(up, [2.1, 1.9, 2.2])) ** 2
            - np.cosh(_sphere_model_j(dn, [2.1, 1.9, 2.2])) ** 2
        ) / (2 * h)
    det = abs(np.linalg.det(jac))
    ok = err <= 1e-6 and det > 1e-6
    assert _report(
        2, ok, f"|J3 - acosh(sqrt(alpha3^2))| = {err:.2e} (<=1e-6), |det J| = {det:.3e} (>1e-6)"
    )


# -- 3: triple-invariant polynomial-fit oracle ------------------------------------


def test_criterion_3_triple_invariant_fit():
    rng = np.random.default_rng(103)
    pts = rng.uniform(-1, 1, size=(40, 3))
    design = np.column_stack(
        [
            pts[:, 0] ** 3, pts[:, 0] ** 2 * pts[:, 1], pts[:, 0] * pts[:, 1] ** 2,
            pts[:, 1] ** 3, pts[:, 0] ** 2 * pts[:, 2], pts[:, 0] * pts[:, 2] ** 2,
            pts[:, 2] ** 3, pts[:, 1] ** 2 * pts[:, 2], pts[:, 1] * pts[:, 2] ** 2,
            pts[:, 0] * pts[:, 1] * pts[:, 2],
        ]
    )
    worst = 0.0
    for _ in range(1000):
        cs = [normalize_unit_det(ellipse_to_conic(random_ellipse(rng))) for _ in range(3)]
        dets = np.array([np.linalg.det(l * cs[0] + m * cs[1] + s * cs[2]) for l, m, s in pts])
        coef, *_ = np.linalg.lstsq(design, dets, rcond=None)
        inv = coplanar_triad(*cs)
        worst = max(worst, abs(coef[-1] - inv[6] / 2.0) / abs(coef[-1]))
    ok = worst <= 1e-8
    assert _report(3, ok, f"worst relative fit error {worst:.2e} (<=1e-8), 1000 triads")


# -- 4: metric axioms ---------------------------------------------------------------


def test_criterion_4_metric_axioms():
    rng = np.random.default_rng(104)

    def similarity(conic, s, th, tx, ty):
        c, si = np.cos(th), np.sin(th)
        m = np.array([[s * c, -s * si, tx], [s * si, s * c, ty], [0, 0, 1.0]])
        mi = np.linalg.inv(m)
        return mi.T @ conic @ mi

    ga_tri = ga_sim = -np.inf
    ga_sym_ok = ga_min_ok = True
    for _ in range(10_000):
        ca = ellipse_to_conic(random_ellipse(rng, span=3.0))
        cb = ellipse_to_conic(random_ellipse(rng, span=3.0))
        cc = ellipse_to_conic(random_ellipse(rng, span=3.0))
        dab = gaussian_angle(ca, cb)
        ga_sym_ok &= gaussian_angle(cb, ca) == dab
        ga_min_ok &= gaussian_angle(ca, ca) == 0.0
        ga_tri = max(ga_tri, dab - gaussian_angle(ca, cc) - gaussian_angle(cc, cb))
        s, th = rng.uniform(0.4, 3.0), rng.uniform(0, 2 * np.pi)
        tx, ty = rng.uniform(-20, 20, 2)
        ga_sim = max(
            ga_sim,
            abs(dab - gaussian_angle(similarity(ca, s, th, tx, ty), similarity(cb, s, th, tx, ty))),
        )

    xs = np.linspace(-8, 8, 120)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    shared = np.column_stack([xx.ravel(), yy.ravel()])
    jc_tri = jc_sim = -np.inf
    jc_sym_ok = jc_min_ok = True
    for _ in range(10_000):
        ca = ellipse_to_conic(random_ellipse(rng, span=3.0))
        cb = ellipse_to_conic(random_ellipse(rng, span=3.0))
        cc = ellipse_to_conic(random_ellipse(rng, span=3.0))
        dab = jaccard_distance(ca, cb, sample_points=shared)
        jc_sym_ok &= jaccard_distance(cb, ca, sample_points=shared) == dab
        jc_min_ok &= jaccard_distance(ca, ca, pitch=0.5) == 0.0
        jc_tri = max(
            jc_tri,
            dab
            - jaccard_distance(ca, cc, sample_points=shared)
            - jaccard_distance(cc, cb, sample_points=shared),
        )
        s, th = rng.uniform(0.4, 3.0), rng.uniform(0, 2 * np.pi)
        tx, ty = rng.uniform(-30, 30, 2)
        jc_sim = max(
            jc_sim,
            abs(
                jaccard_distance(ca, cb, pitch=0.35)
                - jaccard_distance(
                    similarity(ca, s, th, tx, ty),
                    similarity(cb, s, th, tx, ty),
                    pitch=0.35 * s,
                )
            ),
        )

    lens = 2 * np.arccos(0.5) - 0.5 * np.sqrt(3)
    expect = 1 - lens / (2 * np.pi - lens)
    dj = jaccard_distance(
        ellipse_to_conic(EllipseParams(1, 1, 0, 0)),
        ellipse_to_conic(EllipseParams(1, 1, 1, 0)),
        pitch=1 / 512,
    )
    lens_err = abs(dj - expect)

    ok = (
        ga_sym_ok and ga_min_ok and ga_tri <= 1e-9 and ga_sim <= 1e-9
        and jc_sym_ok and jc_min_ok and jc_tri <= 1e-9 and jc_sim <= 1e-9
        and lens_err <= 1e-3
    )
    assert _report(
        4,
        ok,
        "gaussian-angle: sym/min exact, tri slack "
        f"{ga_tri:.1e}, sim {ga_sim:.1e}; jaccard: sym/min exact, tri slack "
        f"{jc_tri:.1e}, sim {jc_sim:.1e}; lens err {lens_err:.1e} (<=1e-3)",
    )


# -- 5: chi-square reproduction -----------------------------------------------------
#
# Under iid N(0, s^2) errors on (a, b, u_c, v_c) the Gaussian angle obeys, to
# first order, d^2 ab / s^2 = (b/a) z1^2 + (a/b) z2^2 + (b/2a) z3^2 + (a/2b) z4^2
# with z ~ N(0, I_4).  No scalar rescaling of d^2 makes that weighted
# chi-square a chi2(4), so the gate maps d (as -2 log cos d, equal to d^2 to
# first order) through its exact survival function onto the chi2(4) scale
# (``gate_statistic``), and the criterion checks that result against chi2(4).


def test_criterion_5_chi_square_reproduction():
    t0 = time.time()
    rng = np.random.default_rng(105)
    n = 50_000
    results = []
    for (a, b) in ((60.0, 55.0), (80.0, 40.0)):  # near-circular / high ellipticity
        for sigma_img in (0.5, 1.0):
            base = ellipse_to_conic(EllipseParams(a, b, 0.0, 0.0, 0.3))
            d = np.empty(n)
            for t in range(n):
                while True:
                    da, db, du, dv = rng.normal(0.0, sigma_img, 4)
                    if a + da >= b + db > 0:
                        break
                pert = ellipse_to_conic(EllipseParams(a + da, b + db, du, dv, 0.3))
                d[t] = gaussian_angle(base, pert)
            vals = gate_statistic(d, a, b, sigma_img)
            ks = stats.kstest(vals, "chi2", args=(4,))
            results.append((a / b, sigma_img, vals.mean(), vals.var(), ks.pvalue))
    dt = time.time() - t0
    ok = all(r[4] > 0.01 for r in results) and dt < 120.0
    detail = "; ".join(
        f"a/b={r[0]:.2f} sig={r[1]}: mean={r[2]:.2f} var={r[3]:.1f} KS p={r[4]:.1e}"
        for r in results
    )
    assert _report(5, ok, f"{detail}; runtime {dt:.0f}s")


# -- 6: pose accuracy ----------------------------------------------------------------


def _pose_trial(rng, catalog, geometry, intr, altitude, sigma_img, radius=LUNAR_RADIUS_KM):
    """One random nadir scene; returns position error in meters or None."""
    pose = _trial_pose(rng, altitude, 0.0, radius)
    dets, truth = synth_scene(catalog, pose, intr, sigma_img, rng, radius, geometry)
    if len(dets) < 3:
        return None
    by_id = {r.id: r for r in catalog}
    corrs = []
    for i in list(truth)[:3]:
        det = dets[i]
        rec = by_id[truth[i]]
        corrs.append(
            ConicCorrespondence(
                image_conic=det.conic(), crater=rec, frame=geometry.by_id[rec.id][1]
            )
        )
    try:
        est = solve_position(corrs, pose.t_mc, intr)
    except CraterIdError:
        return None
    return 1000.0 * float(np.linalg.norm(est.r_m - pose.r_m))


def test_criterion_6_pose_accuracy(
    local_catalog, local_geometry, global_catalog, apollo_camera
):
    rng = np.random.default_rng(106)
    zero_errs = []
    while len(zero_errs) < 25:
        e = _pose_trial(rng, local_catalog, local_geometry, apollo_camera, 150.0, 0.0)
        if e is not None:
            zero_errs.append(e)
    zero_worst_mm = max(zero_errs) * 1000.0

    errs_150 = []
    while len(errs_150) < 100:
        e = _pose_trial(rng, local_catalog, local_geometry, apollo_camera, 150.0, 0.5)
        if e is not None:
            errs_150.append(e)
    med_150 = float(np.median(errs_150))

    geom_g = SceneGeometry.build(global_catalog)
    errs_600 = []
    while len(errs_600) < 100:
        e = _pose_trial(rng, global_catalog, geom_g, apollo_camera, 600.0, 0.5)
        if e is not None:
            errs_600.append(e)
    med_600 = float(np.median(errs_600))

    ok = zero_worst_mm <= 1.0 and 30.0 <= med_150 <= 500.0 and 150.0 <= med_600 <= 2000.0
    assert _report(
        6,
        ok,
        f"zero-noise worst {zero_worst_mm:.2e} mm (<=1); 150 km median {med_150:.0f} m "
        f"(in [30,500]); 600 km median {med_600:.0f} m (in [150,2000])",
    )


# -- 7: matching rates ----------------------------------------------------------------


def test_criterion_7_matching_rates(local_catalog, local_index, apollo_camera):
    t0 = time.time()
    cfg = MonteCarloConfig(
        catalog=local_catalog,
        indexes=[local_index],
        intrinsics=apollo_camera,
        altitude_km=150.0,
        trials=100,
        noise_px=[0.0, 0.5, 1.0, 3.0],
        off_nadir_deg=[0.0],
        seed=107,
    )
    cells = monte_carlo(cfg)
    cfg_off = MonteCarloConfig(
        catalog=local_catalog,
        indexes=[local_index],
        intrinsics=apollo_camera,
        altitude_km=150.0,
        trials=100,
        noise_px=[0.5],
        off_nadir_deg=[30.0],
        seed=107,
    )
    cells += monte_carlo(cfg_off)
    dt = time.time() - t0

    by_key = {(c.noise_px, c.off_nadir_deg): c for c in cells}
    low_noise_ok = all(
        by_key[(s, 0.0)].correct_fraction >= 0.9 for s in (0.0, 0.5, 1.0)
    )
    high_noise_ok = by_key[(3.0, 0.0)].correct_fraction >= 0.8
    zero_incorrect = sum(c.incorrect for c in cells) == 0
    off_delta = abs(
        by_key[(0.5, 30.0)].correct_fraction - by_key[(0.5, 0.0)].correct_fraction
    )
    ok = low_noise_ok and high_noise_ok and zero_incorrect and off_delta <= 0.05 and dt < 1800
    rates = ", ".join(
        f"{c.noise_px}px@{c.off_nadir_deg:.0f}deg: {c.correct}/{c.trials}"
        f" (inc {c.incorrect})"
        for c in cells
    )
    assert _report(
        7, ok, f"{rates}; off-nadir delta {off_delta:.2f} (<=0.05); runtime {dt:.0f}s (<1800)"
    )


# -- 8: index contracts ----------------------------------------------------------------


def test_criterion_8_index_contracts(local_index, tmp_path):
    rng = np.random.default_rng(108)
    mat = np.vstack([e.values for e in local_index.entries])
    n_q = 10_000
    picks = rng.integers(len(mat), size=n_q)
    queries = mat[picks] + rng.normal(0, 0.02, (n_q, mat.shape[1]))
    nn_ok = True
    for start in range(0, n_q, 256):
        block = queries[start : start + 256]
        d = cdist(block, mat)
        brute_idx = d.argmin(axis=1)
        brute_d = d[np.arange(len(block)), brute_idx]
        for q, bi, bd in zip(block, brute_idx, brute_d):
            (dist, entry), = local_index.query(q, 1)
            if not (abs(dist - bd) <= 1e-9 * max(1.0, bd)):
                nn_ok = False

    path = tmp_path / "acc.idx"
    save_index(local_index, path)
    loaded = load_index(path)
    rt_ok = len(loaded) == len(local_index) and all(
        np.array_equal(a.values, b.values) and a.ids == b.ids
        for a, b in zip(loaded.entries, local_index.entries)
    )

    from craterid.pipeline import synthetic_catalog
    from craterid.healpix import HealpixGrid

    cat200 = synthetic_catalog(n=200, d_min=80, d_max=200, seed=81, max_ellipticity=1.1)
    scale = IndexScale("x", 2, 50.0, np.inf, 1.2, 0.9, "noncoplanar3", "ordered")
    triads = enumerate_triads(cat200, scale)
    keys = [tuple(sorted(t)) for t, _ in triads]
    grid = HealpixGrid(scale.k)
    units = np.array([crater_center(r.lat, r.lon, 1.0) for r in cat200])
    pix = np.asarray(grid.ang2pix(units))
    semis = np.array([r.a for r in cat200])
    sep = np.arccos(np.clip(units @ units.T, -1, 1))
    ok_pair = sep > 1.1 * np.add.outer(semis, semis) / LUNAR_RADIUS_KM
    ii, jj, kk = np.array(list(combinations(range(200), 3))).T
    keep = ok_pair[ii, jj] & ok_pair[ii, kk] & ok_pair[jj, kk]
    ii, jj, kk = ii[keep], jj[keep], kk[keep]
    means = units[ii] + units[jj] + units[kk]
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    homes = np.asarray(grid.ang2pix(means))
    hoods = {p: {p, *grid.neighbors(p)} for p in set(homes.tolist())}
    expected = {
        (int(a), int(b), int(c))
        for a, b, c, h in zip(ii, jj, kk, homes)
        if pix[a] in hoods[h] and pix[b] in hoods[h] and pix[c] in hoods[h]
    }
    once_ok = len(keys) == len(set(keys)) and set(keys) == expected

    ok = nn_ok and rt_ok and once_ok
    assert _report(
        8,
        ok,
        f"NN==brute-force on {n_q} queries: {nn_ok}; bit-exact round trip: {rt_ok}; "
        f"exactly-once on 200-crater catalog ({len(keys)} triads): {once_ok}",
    )


# -- 9: descriptor-convention tradeoff ----------------------------------------------


def test_criterion_9_convention_tradeoff(local_catalog, local_index, local_scale, apollo_camera):
    # Sorted-convention twin of the session index: same invariants, rotated
    # per the min-first rule (exactly what build_index would produce).
    sorted_scale = IndexScale(
        local_scale.name, local_scale.k, local_scale.d_min, local_scale.d_max,
        local_scale.max_ellipticity, local_scale.min_arc_fraction,
        local_scale.descriptor_kind, "sorted",
    )
    sorted_entries = []
    for e in local_index.entries:
        d = make_descriptor(e.values, "sorted", e.ids)
        sorted_entries.append(TriadEntry(ids=d.ids, values=d.values, home_pixel=e.home_pixel))
    sorted_index = DescriptorIndex(scale=sorted_scale, entries=sorted_entries)

    geometry = SceneGeometry.build(local_catalog)
    outcomes = {"ordered": 0, "sorted": 0}
    incorrect = 0
    trials = 100
    sigma = 2.0
    for trial in range(trials):
        rng = np.random.default_rng([109, trial])
        pose = _trial_pose(rng, 150.0, 0.0, LUNAR_RADIUS_KM)
        dets, truth = synth_scene(
            local_catalog, pose, apollo_camera, sigma, rng, LUNAR_RADIUS_KM, geometry
        )
        for name, idx in (("ordered", local_index), ("sorted", sorted_index)):
            req = IdentifyRequest(
                detections=dets,
                intrinsics=apollo_camera,
                attitude=pose.t_mc,
                indexes=[idx],
                catalog=local_catalog,
                gate=GateConfig(sigma_img=sigma),
                geometry=geometry,
            )
            res = identify(req)
            if res.matched:
                if all(truth.get(d) == c for d, c in res.correspondences.items()):
                    outcomes[name] += 1
                else:
                    incorrect += 1
    ok = outcomes["ordered"] >= outcomes["sorted"] and incorrect == 0
    assert _report(
        9,
        ok,
        f"at 2px noise over {trials} shared trials: ordered {outcomes['ordered']}, "
        f"sorted {outcomes['sorted']} (ordered >= sorted); incorrect {incorrect}",
    )


# -- supporting negative control (gate necessity) ------------------------------------


def test_gate_negative_control(local_catalog, local_index, apollo_camera):
    # With verification disabled and the first NN hit accepted blindly,
    # 2-3 px noise must produce incorrect matches; the full pipeline's
    # zero-incorrect record is the gate's doing.
    geometry = SceneGeometry.build(local_catalog)
    wrong = 0
    for trial in range(40):
        rng = np.random.default_rng([110, trial])
        pose = _trial_pose(rng, 150.0, 0.0, LUNAR_RADIUS_KM)
        dets, truth = synth_scene(
            local_catalog, pose, apollo_camera, 3.0, rng, LUNAR_RADIUS_KM, geometry
        )
        if len(dets) < 3:
            continue
        req = IdentifyRequest(
            detections=dets,
            intrinsics=apollo_camera,
            attitude=pose.t_mc,
            indexes=[local_index],
            catalog=local_catalog,
            gate=GateConfig(sigma_img=3.0),
            geometry=geometry,
            verify=False,
        )
        res = identify(req)
        if res.matched and any(
            truth.get(d) != c for d, c in res.correspondences.items()
        ):
            wrong += 1
    assert wrong > 0
