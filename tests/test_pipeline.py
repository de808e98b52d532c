import dataclasses
import json
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craterid.camera import k_matrix, look_at_pose, projection_matrix
from craterid.conic2d import conic_to_ellipse
from craterid.crater3d import LUNAR_RADIUS_KM, crater_center
from craterid.errors import CraterIdError
from craterid.index import build_index
from craterid.pose import moon_conic
from craterid.metrics import GateConfig, conic_to_gaussian
from craterid.pipeline import (
    Detection,
    IdentifyRequest,
    MonteCarloCell,
    MonteCarloConfig,
    SceneGeometry,
    cells_to_jsonl,
    clockwise_image_order,
    eps_enumerate,
    format_cells,
    identify,
    load_detections,
    monte_carlo,
    save_detections,
    synth_scene,
    synthetic_catalog,
)
from craterid.pipeline import _trial_pose

from conftest import PATCH_SCALE, patch_catalog


# -- EPS enumeration -----------------------------------------------------------


def test_eps_small_counts():
    assert len(list(eps_enumerate(3))) == 1
    four = list(eps_enumerate(4))
    assert len(four) == 4
    assert sorted(four) == sorted(combinations(range(4), 3))
    assert len(list(eps_enumerate(10))) == 120


def test_eps_exactly_once_and_schedule():
    m = 9
    seen = list(eps_enumerate(m))
    assert len(seen) == len(set(seen)) == len(list(combinations(range(m), 3)))
    assert seen[0] == (0, 1, 2)
    # gap totals are non-decreasing along the stream
    totals = [c - a for a, b, c in seen]
    assert totals == sorted(totals)
    # the lexicographic prefix is not exhausted first: some high-index
    # detection appears well before the last low-index triple
    first_with_8 = next(i for i, t in enumerate(seen) if 8 in t)
    assert first_with_8 < 20


def test_eps_below_three():
    assert list(eps_enumerate(2)) == []


# -- clockwise image order -------------------------------------------------------


def test_clockwise_image_order_square():
    # +v is down, so the visually clockwise sweep from the centroid is
    # ascending atan2(dv, du).
    dets = [
        Detection(uc=1, vc=0, a=2, b=1, psi=0),  # right
        Detection(uc=0, vc=1, a=2, b=1, psi=0),  # below (image down)
        Detection(uc=-1, vc=0, a=2, b=1, psi=0),  # left
    ]
    # Centroid is (0, 1/3); centroid-relative angles are left < right < below,
    # i.e. the clockwise sweep (in image coordinates) reads left, right, below.
    order = clockwise_image_order(dets)
    assert order == [2, 0, 1]
    # permuting the list permutes the indices, not the physical sweep
    dets2 = [dets[1], dets[0], dets[2]]
    assert clockwise_image_order(dets2) == [2, 1, 0]


def test_clockwise_matches_catalog_side(patch_records, patch_pose, apollo_camera):
    # The image-side ordering of projected craters must agree with the
    # catalog-side clockwise rule for the same physical triad.
    from craterid.index import clockwise_on_sphere

    geom = SceneGeometry.build(patch_records)
    rng = np.random.default_rng(0)
    dets, truth = synth_scene(
        patch_records, patch_pose, apollo_camera, 0.0, rng, geometry=geom
    )
    assert len(dets) >= 3
    units = {r.id: crater_center(r.lat, r.lon, 1.0) for r in patch_records}
    for tri in list(combinations(range(len(dets)), 3))[:40]:
        img_order = clockwise_image_order([dets[t] for t in tri])
        img_ids = [truth[tri[o]] for o in img_order]
        centers = [units[truth[t]] for t in tri]
        mean = sum(centers)
        mean = mean / np.linalg.norm(mean)
        sph_order = clockwise_on_sphere(centers, mean)
        sph_ids = [truth[tri[o]] for o in sph_order]
        # same cyclic sequence (starting element may differ)
        assert any(
            sph_ids == [img_ids[(s + m) % 3] for m in range(3)] for s in range(3)
        )


# -- synthetic scenes ------------------------------------------------------------


def test_synth_scene_zero_noise_reprojects_exactly(patch_records, patch_pose, apollo_camera):
    rng = np.random.default_rng(1)
    dets, truth = synth_scene(patch_records, patch_pose, apollo_camera, 0.0, rng)
    assert len(dets) >= 3
    p = projection_matrix(apollo_camera, patch_pose)
    from craterid.camera import project_disk_quadric
    from craterid.crater3d import disk_quadric

    by_id = {r.id: r for r in patch_records}
    for i, det in enumerate(dets):
        rec = by_id[truth[i]]
        ell = conic_to_ellipse(project_disk_quadric(p, disk_quadric(rec)))
        assert det.a == pytest.approx(ell.a, abs=1e-9)
        assert det.uc == pytest.approx(ell.xc, abs=1e-9)


def test_synth_scene_noise_statistics(patch_records, patch_pose, apollo_camera):
    sigma = 1.5
    geom = SceneGeometry.build(patch_records)
    rng = np.random.default_rng(2)
    clean, truth0 = synth_scene(
        patch_records, patch_pose, apollo_camera, 0.0, rng, geometry=geom
    )
    deltas = []
    for trial in range(700):
        dets, truth = synth_scene(
            patch_records, patch_pose, apollo_camera, sigma,
            np.random.default_rng(trial), geometry=geom,
        )
        clean_by_id = {truth0[i]: d for i, d in enumerate(clean)}
        for i, det in enumerate(dets):
            deltas.append(det.a - clean_by_id[truth[i]].a)
    std = np.std(deltas)
    assert std == pytest.approx(sigma, rel=0.03)


def test_synth_scene_far_side_invisible(patch_records, apollo_camera):
    # Camera on the opposite side of the Moon sees nothing of the patch.
    anti = crater_center(np.deg2rad(-12.0), np.deg2rad(40.0 + 180.0), LUNAR_RADIUS_KM + 150.0)
    pose = look_at_pose(anti, np.zeros(3), up_hint=np.array([0.0, 0.0, 1.0]))
    rng = np.random.default_rng(3)
    dets, truth = synth_scene(patch_records, pose, apollo_camera, 0.0, rng)
    assert dets == []


def test_synth_scene_projects_each_crater_once(
    monkeypatch, patch_records, patch_pose, apollo_camera
):
    # Each rim is projected at most once, and the kept ones are exactly
    # those that crater_visible accepts.
    import craterid.camera as camera_mod
    import craterid.pipeline as pipeline_mod

    geom = SceneGeometry.build(patch_records)
    visible = [
        r.id
        for i, r in enumerate(geom.records)
        if camera_mod.crater_visible(patch_pose, apollo_camera, geom.frames[i])
    ]
    real = camera_mod.project_disk_quadric
    projected = []

    def counting(p, q):
        projected.append(q.tobytes())
        return real(p, q)

    monkeypatch.setattr(camera_mod, "project_disk_quadric", counting)
    monkeypatch.setattr(pipeline_mod, "project_disk_quadric", counting)
    dets, truth = synth_scene(
        patch_records, patch_pose, apollo_camera, 0.0, np.random.default_rng(0), geometry=geom
    )
    assert len(dets) >= 3
    assert len(projected) == len(set(projected))
    assert [truth[i] for i in range(len(dets))] == visible


def test_scene_geometry_builds_each_frame_once(monkeypatch, patch_records):
    import craterid.crater3d as crater3d_mod
    import craterid.pipeline as pipeline_mod

    real = crater3d_mod.crater_frames
    calls = []

    def counting(records, radius=LUNAR_RADIUS_KM):
        calls.append([r.id for r in records])
        return real(records, radius)

    monkeypatch.setattr(crater3d_mod, "crater_frames", counting)
    monkeypatch.setattr(pipeline_mod, "crater_frames", counting)
    geom = SceneGeometry.build(patch_records)
    assert calls == [[r.id for r in patch_records]]
    for rec, q in zip(patch_records, geom.frames.quadric):
        assert np.array_equal(q, crater3d_mod.disk_quadric(rec))


def test_scene_geometry_refuses_a_repeated_id(patch_records):
    twin = dataclasses.replace(patch_records[3], id=patch_records[1].id)
    with pytest.raises(CraterIdError, match=patch_records[1].id):
        SceneGeometry.build([*patch_records, twin])


def test_trial_pose_off_nadir_angle():
    rng = np.random.default_rng(4)
    for off in (0.0, 10.0, 30.0):
        pose = _trial_pose(rng, 150.0, off, LUNAR_RADIUS_KM)
        boresight = pose.t_mc[2]  # camera +z in selenographic axes
        nadir = -pose.r_m / np.linalg.norm(pose.r_m)
        ang = np.rad2deg(np.arccos(np.clip(boresight @ nadir, -1, 1)))
        assert ang == pytest.approx(off, abs=1e-9)


# -- identify ---------------------------------------------------------------------


def _patch_request(dets, pose, intr, idx, catalog, sigma=0.25, **kw):
    return IdentifyRequest(
        detections=dets,
        intrinsics=intr,
        attitude=pose.t_mc,
        indexes=[idx],
        catalog=catalog,
        gate=GateConfig(sigma_img=max(sigma, 0.05)),
        **kw,
    )


def test_identify_request_checks_its_inputs(apollo_camera):
    def request(**changes):
        fields = dict(
            detections=[Detection(100, 100, 30, 20, 0.1)] * 3,
            intrinsics=apollo_camera,
            attitude=np.eye(3),
            indexes=[],
            catalog=[],
            gate=GateConfig(sigma_img=0.5),
        )
        return IdentifyRequest(**(fields | changes))

    # With no index to search, a bad attitude used to end in no-match.
    with pytest.raises(CraterIdError, match="attitude"):
        request(attitude=2.0 * np.eye(3))
    for n in (0, -1):
        with pytest.raises(CraterIdError, match="n_candidates"):
            request(n_candidates=n)
    # A triad budget below one used to end in a silent no-match.
    for n in (0, -5):
        with pytest.raises(CraterIdError, match="max_triads"):
            request(max_triads=n)
    assert identify(request()).status == "no-match"


def test_identify_insufficient(patch_index, patch_pose, apollo_camera, patch_records):
    req = _patch_request(
        [Detection(100, 100, 30, 20, 0.1)], patch_pose, apollo_camera, patch_index, patch_records
    )
    res = identify(req)
    assert res.status == "insufficient-craters"
    assert not res.matched


def test_identify_zero_noise_correct(patch_index, patch_pose, apollo_camera, patch_records):
    rng = np.random.default_rng(5)
    dets, truth = synth_scene(patch_records, patch_pose, apollo_camera, 0.0, rng)
    res = identify(
        _patch_request(dets, patch_pose, apollo_camera, patch_index, patch_records)
    )
    assert res.matched
    assert res.correspondences
    for det_idx, crater_id in res.correspondences.items():
        assert truth[det_idx] == crater_id
    err_km = np.linalg.norm(res.r_m - patch_pose.r_m)
    assert err_km < 1e-6
    assert all(pc["stat"] <= 13.277 for pc in res.per_crater)


def test_identify_shuffle_robustness(patch_index, patch_pose, apollo_camera, patch_records):
    # Shuffling the detection list must not change which physical craters a
    # detection can match to (any verified hypothesis is truth-consistent).
    rng = np.random.default_rng(6)
    dets, truth = synth_scene(patch_records, patch_pose, apollo_camera, 0.0, rng)
    res0 = identify(
        _patch_request(dets, patch_pose, apollo_camera, patch_index, patch_records)
    )
    perm = list(rng.permutation(len(dets)))
    shuffled = [dets[p] for p in perm]
    res1 = identify(
        _patch_request(shuffled, patch_pose, apollo_camera, patch_index, patch_records)
    )
    assert res0.status == res1.status == "matched"
    for det_idx, crater_id in res1.correspondences.items():
        assert truth[perm[det_idx]] == crater_id


def test_identify_budget_respected(patch_pose, apollo_camera, patch_records):
    # An index over a different region can never verify: the search must
    # stop at the configured triad budget.
    other = synthetic_catalog(n=40, d_min=6, d_max=12, seed=99, max_ellipticity=1.2)
    other_idx = build_index(other, PATCH_SCALE)
    rng = np.random.default_rng(7)
    dets, _ = synth_scene(patch_records, patch_pose, apollo_camera, 0.0, rng)
    assert len(dets) >= 5
    req = _patch_request(
        dets, patch_pose, apollo_camera, other_idx, other, max_triads=7
    )
    res = identify(req)
    assert res.status == "no-match"
    assert res.triads_tried == 7


def test_identify_multi_scale_priority(
    patch_index, global_index, global_catalog, patch_pose, apollo_camera, patch_records
):
    # Both indexes supplied: only the correct one produces the match.
    rng = np.random.default_rng(8)
    dets, truth = synth_scene(patch_records, patch_pose, apollo_camera, 0.0, rng)
    req = IdentifyRequest(
        detections=dets,
        intrinsics=apollo_camera,
        attitude=patch_pose.t_mc,
        indexes=[global_index, patch_index],
        catalog=list(global_catalog) + list(patch_records),
        gate=GateConfig(sigma_img=0.05),
    )
    res = identify(req)
    assert res.matched
    assert res.scale_name == "patch"
    for det_idx, crater_id in res.correspondences.items():
        assert truth[det_idx] == crater_id


@pytest.mark.parametrize("stage", ["project_disk_quadric", "gaussian_angle"])
def test_batched_gate_rejects_a_failed_element(
    monkeypatch, stage, patch_index, patch_pose, apollo_camera, patch_records
):
    # Two truth hypotheses in one triad batch: the first wins, unless one of
    # its elements fails (a NaN projection) or its statistic is NaN; then the
    # second wins.
    import craterid.pipeline as pipeline_mod

    dets, truth = synth_scene(
        patch_records, patch_pose, apollo_camera, 0.0, np.random.default_rng(5)
    )
    assert len(dets) >= 4
    req = _patch_request(dets, patch_pose, apollo_camera, patch_index, patch_records)
    geometry = SceneGeometry.build(patch_records)
    conics = np.array([d.conic() for d in dets])
    kt = k_matrix(apollo_camera) @ patch_pose.t_mc
    moon_conics = moon_conic(conics, patch_pose.t_mc, apollo_camera)
    axes = np.array([(d.a, d.b) for d in dets])
    forms = (kt, moon_conics, conic_to_gaussian(conics), axes)
    first = [(k, truth[k]) for k in (0, 1, 2)]
    second = [(k, truth[k]) for k in (0, 1, 3)]

    def verify():
        return pipeline_mod._verify_triad(
            req, [first, second], geometry, *forms, LUNAR_RADIUS_KM
        )

    assert verify().correspondences == dict(first)
    real = getattr(pipeline_mod, stage)

    def first_fails(*args):
        out = np.array(real(*args))
        out[0, 1] = np.nan
        return out

    monkeypatch.setattr(pipeline_mod, stage, first_fails)
    res = verify()
    assert res.correspondences == dict(second)
    assert all(np.isfinite(pc["stat"]) and pc["stat"] <= 13.277 for pc in res.per_crater)


def test_sorted_and_p2_conventions_match(patch_records, patch_pose, apollo_camera):
    rng = np.random.default_rng(9)
    dets, truth = synth_scene(patch_records, patch_pose, apollo_camera, 0.1, rng)
    for convention in ("sorted", "p2"):
        scale = PATCH_SCALE.__class__(
            "patch", PATCH_SCALE.k, PATCH_SCALE.d_min, PATCH_SCALE.d_max,
            PATCH_SCALE.max_ellipticity, PATCH_SCALE.min_arc_fraction,
            "coplanar7", convention,
        )
        idx = build_index(patch_records, scale)
        res = identify(
            _patch_request(dets, patch_pose, apollo_camera, idx, patch_records, sigma=0.1)
        )
        assert res.matched, convention
        for det_idx, crater_id in res.correspondences.items():
            assert truth[det_idx] == crater_id, convention


# -- detections file I/O -----------------------------------------------------------


def test_detections_round_trip(tmp_path):
    dets = [
        Detection(uc=100.5, vc=200.25, a=30.0, b=20.0, psi=0.7),
        Detection(uc=900.0, vc=1500.0, a=55.5, b=54.0, psi=2.1),
    ]
    f = tmp_path / "dets.csv"
    save_detections(dets, f, truth={0: "A", 1: "B"})
    back = load_detections(f)
    assert back == dets


_coord = st.floats(-1e5, 1e5, allow_nan=False)
_axis = st.floats(1e-3, 1e4, allow_nan=False)


@settings(deadline=None, max_examples=60)
@given(
    rows=st.lists(st.tuples(_coord, _coord, _axis, _axis, st.floats(-10.0, 10.0)), max_size=6),
    truth=st.dictionaries(st.integers(0, 5), st.text(max_size=8), max_size=3),
)
def test_detections_round_trip_property(rows, truth):
    dets = [Detection(uc=u, vc=v, a=max(a, b), b=min(a, b), psi=p) for u, v, a, b, p in rows]
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "dets.csv"
        save_detections(dets, f, truth=truth)
        back = load_detections(f)
    # What load_detections returns is exactly each value as save_detections printed it.
    def printed(v, fmt=".6f"):
        return float(format(v, fmt))

    assert back == [
        Detection(printed(d.uc), printed(d.vc), printed(d.a), printed(d.b), printed(d.psi, ".9f"))
        for d in dets
    ]


@pytest.mark.parametrize(
    "row",
    ["nan,100,5,4,0.1", "100,inf,5,4,0.1", "100,100,5,4,nan", "100,100,4,5,0.1", "100,100,5,0,0.1"],
)
def test_load_detections_rejects_bad_values_at_their_line(tmp_path, row):
    f = tmp_path / "dets.csv"
    f.write_text("u_c,v_c,a_px,b_px,psi_rad\n200,200,40,30,0.1\n" + row + "\n")
    from craterid.errors import SchemaError

    with pytest.raises(SchemaError, match=f"{f}:3: "):
        load_detections(f)


def test_detections_schema_error(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("u,v\n1,2\n")
    from craterid.errors import SchemaError

    with pytest.raises(SchemaError):
        load_detections(f)


# -- monte carlo --------------------------------------------------------------------


def test_monte_carlo_deterministic(patch_index, patch_records, apollo_camera):
    cfg = MonteCarloConfig(
        catalog=patch_records,
        indexes=[patch_index],
        intrinsics=apollo_camera,
        altitude_km=150.0,
        trials=4,
        noise_px=[0.0, 0.5],
        seed=42,
    )
    cells1 = monte_carlo(cfg)
    cells2 = monte_carlo(cfg)
    assert cells_to_jsonl(cells1) == cells_to_jsonl(cells2)
    table = format_cells(cells1)
    assert "Correct" in table and len(table.splitlines()) == 4
    # The patch is a tiny region, so most random sub-points see nothing.
    for c in cells1:
        assert c.trials == 4
        assert c.correct + c.incorrect + c.no_match + c.insufficient == 4


def test_cells_to_jsonl_is_strict_json():
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    nan = float("nan")
    cells = [
        MonteCarloCell(0.5, 0.0, 2, 0, 0, 2, 0, nan, nan),
        MonteCarloCell(0.5, 30.0, 2, 2, 0, 0, 0, 12.5, 13.0),
    ]
    rows = [json.loads(line, parse_constant=refuse) for line in cells_to_jsonl(cells).splitlines()]
    assert rows[0]["median_err_m"] is None and rows[0]["rms_err_m"] is None
    assert (rows[1]["median_err_m"], rows[1]["rms_err_m"], rows[1]["correct"]) == (12.5, 13.0, 2)
    assert "nan m" in format_cells(cells)
