"""Which craterid functions the traced run wraps, and the per-layer metrics.

Layers are named by module.  A metric name ending in ``.s`` is busy time,
``.self_s`` is self time, and the other names are counts or ratios.  Each
function is wrapped where its callers look it up: ``pipeline`` and
``index`` import their callees by name, so wrapping the defining module
alone would miss those calls.
"""

from __future__ import annotations

import os

import numpy as np

from craterid import crater3d, index, pipeline, pose
from craterid.errors import CraterIdError


def install(tracer, gate_threshold: float) -> None:
    """Wrap every traced function; missing names are recorded as absent."""

    def count_build(counts, out, args, kwargs):
        counts["index.triads"] += len(out)
        counts["index.skipped"] += out.skipped

    def count_file(counts, out, args, kwargs):
        counts["index.file_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def count_pose(counts, out, args, kwargs):
        counts["pose.inside_moon"] += bool(out.inside_moon)

    def count_gate(counts, out, args, kwargs):
        counts["metrics.gate_rejects"] += bool(np.any(np.asarray(out) > gate_threshold))

    def count_identify(counts, out, args, kwargs):
        counts["pipeline.requests"] += 1
        counts["pipeline.triads_tried"] += out.triads_tried
        counts["pipeline.matches"] += out.status == "matched"

    def failures(key):
        def on_error(counts, exc):
            if isinstance(exc, CraterIdError):
                counts[key] += 1

        return on_error

    t = tracer.install
    t(index, "enumerate_triads", "index.enumerate_triads")
    t(index, "build_index", "index.build_index", after=count_build)
    t(index, "save_index", "index.save_index", after=count_file)
    t(index, "load_index", "index.load_index")
    t(index, "load_catalog", "index.load_catalog")
    t(index.DescriptorIndex, "__post_init__", "index.kdtree_build")
    t(index.DescriptorIndex, "query", "index.query")
    for module in (crater3d, index, pipeline, pose):
        t(module, "build_frame", "crater3d.build_frame")
    for module in (index, pipeline):
        t(module, "disk_quadric", "crater3d.disk_quadric")
        t(module, "project_disk_quadric", "camera.project_disk_quadric")
    t(index, "coplanar_triad", "invariants.coplanar_triad")
    t(index, "noncoplanar_triad", "invariants.noncoplanar_triad")
    t(index, "make_descriptor", "invariants.make_descriptor")
    # On the identify path the invariants are the per-triad descriptor.
    for attr in ("coplanar_triad", "noncoplanar_triad"):
        t(pipeline, attr, "invariants.descriptor", on_error=failures("invariants.descriptor_failures"))
    t(
        pipeline,
        "solve_position",
        "pose.solve_position",
        after=count_pose,
        on_error=failures("pose.failures"),
    )
    t(pipeline, "gaussian_angle", "metrics.gaussian_angle")
    t(pipeline, "gate_statistic", "metrics.gate_statistic", after=count_gate)
    t(pipeline.SceneGeometry, "build", "pipeline.SceneGeometry.build", kind="classmethod")
    t(pipeline, "synth_scene", "pipeline.synth_scene", quiet_children=True)
    t(pipeline, "identify", "pipeline.identify", after=count_identify)


def _busy(span):
    return ([span], lambda s: s["spans"].get(span, {}).get("busy_s", 0.0))


def _self(span):
    return ([span], lambda s: s["spans"].get(span, {}).get("self_s", 0.0))


def _calls(span):
    return ([span], lambda s: s["spans"].get(span, {}).get("calls", 0))


def _count(key, span):
    return ([span], lambda s: s["counts"].get(key, 0))


def _ratio(num, den, spans):
    def value(s):
        d = den(s)
        return num(s) / d if d else 0.0

    return (spans, value)


_SOLVES = _calls("pose.solve_position")[1]
_REQUESTS = _calls("pipeline.identify")[1]

# (name, unit, better, (span names it needs, value of a summary))
PER_LAYER = [
    ("index.enumerate_triads.s", "s", "lower", _busy("index.enumerate_triads")),
    ("crater3d.build_frame.calls", "count", "lower", _calls("crater3d.build_frame")),
    ("crater3d.build_frame.s", "s", "lower", _busy("crater3d.build_frame")),
    ("crater3d.disk_quadric.s", "s", "lower", _busy("crater3d.disk_quadric")),
    ("invariants.coplanar_triad.calls", "count", "lower", _calls("invariants.coplanar_triad")),
    ("invariants.coplanar_triad.s", "s", "lower", _busy("invariants.coplanar_triad")),
    ("invariants.noncoplanar_triad.calls", "count", "lower", _calls("invariants.noncoplanar_triad")),
    ("invariants.noncoplanar_triad.s", "s", "lower", _busy("invariants.noncoplanar_triad")),
    ("invariants.make_descriptor.s", "s", "lower", _busy("invariants.make_descriptor")),
    ("index.kdtree_build.s", "s", "lower", _busy("index.kdtree_build")),
    ("index.build_index.s", "s", "lower", _busy("index.build_index")),
    ("index.build_index.self_s", "s", "lower", _self("index.build_index")),
    ("index.triads", "count", "higher", _count("index.triads", "index.build_index")),
    ("index.skipped", "count", "lower", _count("index.skipped", "index.build_index")),
    ("index.save_index.s", "s", "lower", _busy("index.save_index")),
    ("index.file_bytes", "B", "lower", _count("index.file_bytes", "index.save_index")),
    ("index.load_catalog.s", "s", "lower", _busy("index.load_catalog")),
    ("index.load_index.s", "s", "lower", _busy("index.load_index")),
    ("pipeline.SceneGeometry.build.s", "s", "lower", _busy("pipeline.SceneGeometry.build")),
    ("pipeline.triads_tried", "count", "lower", _count("pipeline.triads_tried", "pipeline.identify")),
    ("invariants.descriptor.calls", "count", "lower", _calls("invariants.descriptor")),
    ("invariants.descriptor.s", "s", "lower", _busy("invariants.descriptor")),
    (
        "invariants.descriptor_failures",
        "count",
        "lower",
        _count("invariants.descriptor_failures", "invariants.descriptor"),
    ),
    ("index.query.calls", "count", "lower", _calls("index.query")),
    ("index.query.s", "s", "lower", _busy("index.query")),
    ("pose.solve_position.calls", "count", "lower", _calls("pose.solve_position")),
    ("pose.solve_position.s", "s", "lower", _busy("pose.solve_position")),
    ("pose.failures", "count", "lower", _count("pose.failures", "pose.solve_position")),
    ("pose.inside_moon", "count", "lower", _count("pose.inside_moon", "pose.solve_position")),
    ("camera.project_disk_quadric.calls", "count", "lower", _calls("camera.project_disk_quadric")),
    ("camera.project_disk_quadric.s", "s", "lower", _busy("camera.project_disk_quadric")),
    ("metrics.gaussian_angle.s", "s", "lower", _busy("metrics.gaussian_angle")),
    ("metrics.gate_statistic.calls", "count", "lower", _calls("metrics.gate_statistic")),
    ("metrics.gate_statistic.s", "s", "lower", _busy("metrics.gate_statistic")),
    ("metrics.gate_rejects", "count", "lower", _count("metrics.gate_rejects", "metrics.gate_statistic")),
    ("pipeline.identify.self_s", "s", "lower", _self("pipeline.identify")),
    (
        "pipeline.hypotheses_per_request",
        "ratio",
        "lower",
        _ratio(_SOLVES, _REQUESTS, ["pose.solve_position", "pipeline.identify"]),
    ),
    (
        "pipeline.matches_per_hypothesis",
        "ratio",
        "higher",
        _ratio(
            lambda s: s["counts"].get("pipeline.matches", 0),
            _SOLVES,
            ["pose.solve_position", "pipeline.identify"],
        ),
    ),
    ("pipeline.synth_scene.s", "s", "lower", _busy("pipeline.synth_scene")),
]

OVERHEAD = ("trace.overhead_pct", "%", "lower")


def layer_metrics(summary: dict, absent: set, installed: set, overhead_pct: float) -> dict:
    """Every per-layer metric.

    A metric is marked absent when a span it needs was installed nowhere,
    because every function recorded under that name is gone.
    """
    out = {}
    absent = absent - installed
    for name, unit, _better, (needs, value) in PER_LAYER:
        if absent.intersection(needs):
            out[name] = {"value": 0, "unit": unit, "absent": True}
        else:
            v = value(summary)
            out[name] = {"value": v, "unit": unit}
    out[OVERHEAD[0]] = {"value": overhead_pct, "unit": OVERHEAD[1]}
    return out
