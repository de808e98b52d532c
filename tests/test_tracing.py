"""The benchmark's traced run finds every craterid function it wraps.

``bench/layers.py`` wraps functions in the module namespaces where their
callers look them up.  A name bound in none of them makes the per-layer
metrics that need it read ``"absent"``, so this guards the names the
program's modules bind against the benchmark's list.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import layers  # noqa: E402
from bench.spans import Tracer  # noqa: E402
from craterid import pipeline  # noqa: E402


def test_every_traced_function_is_bound_somewhere():
    original = pipeline.solve_position
    tracer = Tracer()
    layers.install(tracer, 13.277)
    tracer.restore()
    assert pipeline.solve_position is original
    assert tracer.absent - tracer.installed == set()


def test_traced_identify_matches_untraced(patch_index, patch_pose, apollo_camera, patch_records):
    # The traced benchmark run wraps identify's callees; it must not change
    # the result, and its hooks (count_pose turns each solve_position result
    # into a bool) must accept what the program returns.
    import numpy as np

    from craterid.metrics import GateConfig

    dets, _ = pipeline.synth_scene(
        patch_records, patch_pose, apollo_camera, 0.25, np.random.default_rng(5)
    )
    req = pipeline.IdentifyRequest(
        detections=dets,
        intrinsics=apollo_camera,
        attitude=patch_pose.t_mc,
        indexes=[patch_index],
        catalog=patch_records,
        gate=GateConfig(sigma_img=0.25),
    )
    plain = pipeline.identify(req)
    tracer = Tracer()
    layers.install(tracer, req.gate.threshold)
    try:
        since = tracer.mark()
        traced = pipeline.identify(req)
        spans = tracer.summary(since)["spans"]
    finally:
        tracer.restore()
    assert plain.matched
    assert (traced.status, traced.correspondences, traced.per_crater) == (
        plain.status, plain.correspondences, plain.per_crater
    )
    assert (traced.triads_tried, traced.scale_name) == (plain.triads_tried, plain.scale_name)
    assert np.array_equal(traced.r_m, plain.r_m)
    assert spans["pose.solve_position"]["calls"] > 0
    assert spans["metrics.gate_statistic"]["calls"] > 0
    assert spans["index.query"]["calls"] > 0


def test_traced_index_round_gives_one_strict_metric_per_benchmark_name(
    tmp_path, patch_records, global_catalog, global_scale
):
    # The traced index-build run must end in a result line that a strict
    # JSON parser accepts: no NaN or Infinity and no "absent" metric, one
    # metric for each per-layer name of BENCHMARK.json.
    import json

    from conftest import PATCH_SCALE
    from craterid import index

    tracer = Tracer()
    layers.install(tracer, 13.277)
    try:
        since = tracer.mark()
        builds = {}
        for name, records, scale in (
            ("patch", patch_records, PATCH_SCALE),
            ("global", global_catalog[:60], global_scale),
        ):
            mark = tracer.mark()
            built = index.build_index(records, scale)
            builds[name] = tracer.summary(mark)["spans"]
            assert len(built) > 0
            index.save_index(built, tmp_path / f"{name}.idx")
            index.load_index(tmp_path / f"{name}.idx")
        summary = tracer.summary(since)
    finally:
        tracer.restore()
    out = layers.layer_metrics(summary, tracer.absent, tracer.installed, 0.0)
    json.dumps(out, allow_nan=False)
    assert [name for name, metric in out.items() if "absent" in metric] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(out) == {m["name"] for m in declared}
    for name in ("invariants.coplanar_triad.calls", "invariants.noncoplanar_triad.calls"):
        assert out[name]["value"] > 0
    # One k-d build per built and per loaded index: the tree is built in the
    # wrapped __post_init__, not in a hand-written __init__ or lazily.
    assert summary["spans"]["index.kdtree_build"]["calls"] == 4
    # Each build still calls the wrapped names, so a traced run finds them.
    for spans in builds.values():
        assert spans["index.enumerate_triads"]["calls"] >= 1
    assert builds["global"]["camera.project_disk_quadric"]["calls"] >= 1
