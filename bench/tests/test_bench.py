"""Tests of the benchmark's own oracles and tracing.

    python3 -m pytest -q bench/tests

The trial-60 test loads the cached 8,000-crater index and builds it first
if it is missing (a few minutes).
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np
import pytest

from bench import inputs, layers, oracles, workloads
from bench.spans import Tracer, child_cover
from craterid import pipeline
from craterid.crater3d import LUNAR_RADIUS_KM, crater_center
from craterid.healpix import HealpixGrid
from craterid.pipeline import MatchResult


def _scene(identifiable=True, n=4):
    return oracles.Scene(
        label="test scene",
        detections=[None] * n,
        truth={0: "A", 1: "B", 2: "C", 3: "D"},
        r_true=np.array([1887.4, 0.0, 0.0]),
        attitude=np.eye(3),
        identifiable=identifiable,
    )


def _matched(corr, offset_km=0.1):
    return MatchResult(
        status="matched", correspondences=corr, r_m=np.array([1887.4 + offset_km, 0.0, 0.0])
    )


def test_oracle_accepts_a_true_match():
    verdict, _ = oracles.judge_identify(_matched({0: "A", 1: "B", 2: "C"}), _scene())
    assert verdict == "ok"


def test_oracle_rejects_swapped_correspondence():
    verdict, reason = oracles.judge_identify(_matched({0: "B", 1: "A", 2: "C"}), _scene())
    assert verdict == "wrong" and "assigned B" in reason


def test_oracle_rejects_far_off_position():
    far = _matched({0: "A", 1: "B", 2: "C"}, offset_km=oracles.POSITION_BOUND_M / 1000.0 + 1.0)
    verdict, reason = oracles.judge_identify(far, _scene())
    assert verdict == "wrong" and "position off" in reason


def test_oracle_counts_no_match_on_identifiable_scene_as_failed():
    verdict, _ = oracles.judge_identify(MatchResult(status="no-match"), _scene(True))
    assert verdict == "failed"
    verdict, _ = oracles.judge_identify(MatchResult(status="no-match"), _scene(False))
    assert verdict == "ok"


def test_oracle_insufficient_craters_only_below_three():
    res = MatchResult(status="insufficient-craters")
    assert oracles.judge_identify(res, _scene(n=2))[0] == "ok"
    assert oracles.judge_identify(res, _scene(n=3))[0] == "wrong"
    assert oracles.judge_identify(MatchResult(status="no-match"), _scene(n=2))[0] == "wrong"


def test_indexed_triads_ignores_order_and_unknown_ids():
    class Entry:
        def __init__(self, ids):
            self.ids = ids

    class Index:
        entries = [Entry(("a", "b", "c")), Entry(("b", "d", "e"))]

    table = oracles.IndexedTriads(Index())
    assert table.any_indexed(["c", "a", "b"])
    assert table.any_indexed(["x", "e", "d", "b"])
    assert not table.any_indexed(["a", "b", "d", "x"])
    assert not table.any_indexed(["a", "b"])


def test_oracle_accepts_nadir_trial_60_no_match():
    """Criterion 7's nadir 0.5 px trial 60: 4 detections, no indexed triad."""
    cache = inputs.ensure_cache()
    nadir = workloads.WORKLOADS["identify-nadir"]
    state = nadir.setup(cache)
    table = oracles.IndexedTriads(state["index"])
    rng = np.random.default_rng([107, 1, 60])
    pose = workloads.draw_pose(rng, workloads.ALTITUDE_KM, 0.0)
    scene = workloads.make_scene("trial 60", rng, pose, state["catalog"], state["geometry"], table)
    assert len(scene.detections) == 4 and not scene.identifiable
    tally = workloads.Tally()
    workloads.identify_one(scene, state["index"], state["catalog"], state["geometry"], tally, None, 60)
    assert tally.attempted == 1 and not tally.failed and not tally.wrong


def test_draw_pose_reproduces_the_test_suite_streams():
    trial_pose = getattr(pipeline, "_trial_pose", None)
    if trial_pose is None:
        pytest.skip("pipeline no longer has _trial_pose")
    for off in (0.0, 30.0):
        for t in range(5):
            a = workloads.draw_pose(np.random.default_rng([107, 0, t]), 150.0, off)
            b = trial_pose(np.random.default_rng([107, 0, t]), 150.0, off, LUNAR_RADIUS_KM)
            assert np.array_equal(a.r_m, b.r_m) and np.array_equal(a.t_mc, b.t_mc)


def test_brute_force_prefilter_drops_no_triad():
    """The pair prefilter agrees with testing every triple outright."""
    cache = inputs.ensure_cache()
    state = workloads.IndexBuildWorkload().setup(cache)
    recs = oracles.usable_records(workloads.tile(state["tile"], radius_deg=8.0), inputs.LOCAL_SCALE)
    scale = inputs.LOCAL_SCALE
    grid = HealpixGrid(scale.k)
    units = np.array([crater_center(r.lat, r.lon, 1.0) for r in recs])
    pix = np.asarray(grid.ang2pix(units)).tolist()
    semis = np.array([r.a for r in recs])
    ok = np.arccos(np.clip(units @ units.T, -1, 1)) > 1.1 * np.add.outer(semis, semis) / LUNAR_RADIUS_KM
    plain = set()
    for i, j, k in combinations(range(len(recs)), 3):
        if not (ok[i, j] and ok[i, k] and ok[j, k]):
            continue
        m = units[i] + units[j] + units[k]
        h = int(grid.ang2pix(m / np.linalg.norm(m)))
        hood = {h, *grid.neighbors(h)}
        if {pix[i], pix[j], pix[k]} <= hood:
            plain.add((i, j, k))
    assert len(plain) > 50
    assert oracles.brute_force_triads(recs, scale) == plain


def test_child_cover_clips_and_merges_children():
    start = np.array([0.0, 1.0, 2.0, 2.5, 9.0])
    end = np.array([10.0, 3.0, 4.0, 3.0, 12.0])
    parent = np.array([-1, 0, 0, 1, 0])
    # Children of 0: [1,3], [2,4], [9,12] clipped to [9,10] -> 3 + 1 = 4.
    assert child_cover(start, end, parent).tolist() == [4.0, 0.5, 0.0, 0.0, 0.0]


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", lambda: (time.sleep(0.001), traced_leaf(), traced_leaf()))
    mark = tracer.mark()
    traced_middle()
    summary = tracer.summary(mark)["spans"]
    starts, ends = np.array(tracer.starts), np.array(tracer.ends)
    dur = ends - starts
    assert tracer.names == ["middle", "leaf", "leaf"] and tracer.parents == [-1, 0, 0]
    assert summary["middle"]["self_s"] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert summary["leaf"]["self_s"] == pytest.approx(dur[1] + dur[2], abs=1e-12)
    assert summary["middle"]["busy_s"] == pytest.approx(dur[0], abs=1e-12)


def test_missing_function_is_reported_absent():
    class Module:
        pass

    tracer = Tracer()
    tracer.install(Module, "solve_position", "pose.solve_position")
    tracer.restore()
    summary = {"spans": {}, "counts": {}}
    out = layers.layer_metrics(summary, tracer.absent, tracer.installed, 0.0)
    assert out["pose.solve_position.calls"].get("absent") is True
    assert "absent" not in out["index.query.calls"]


def test_install_and_restore_leave_the_program_unchanged():
    original = pipeline.solve_position
    tracer = Tracer()
    layers.install(tracer, 13.277)
    assert pipeline.solve_position is not original
    tracer.restore()
    assert pipeline.solve_position is original
    assert not tracer.absent
