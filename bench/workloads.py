"""The three workloads: inputs, set-up, one round of operations, checks.

Every workload runs from one process and one thread.  Identify requests
form a closed loop with one client: the next request starts when the
previous one returns.  Scene generation and every check run outside the
timed intervals.

Each workload's inputs are fixed, so every run attempts the same
operations and the share of failed operations is the same on every seed.
``--seed`` sets the order of the operations: the order of the identify
requests, and the order of the catalogue records handed to ``build_index``.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from craterid import index as cindex
from craterid import pipeline
from craterid.camera import look_at_pose
from craterid.crater3d import LUNAR_RADIUS_KM, crater_center
from craterid.index import IndexScale
from craterid.metrics import GateConfig

from . import inputs, oracles

ALTITUDE_KM = 150.0
SIGMA_IMG = 0.5
GATE = GateConfig(sigma_img=SIGMA_IMG)


def draw_pose(rng: np.random.Generator, altitude: float, off_nadir_deg: float,
              radius: float = LUNAR_RADIUS_KM):
    """Random sub-point camera at ``altitude``, nadir or tilted.

    Draws from ``rng`` in the order of the test suite's Monte Carlo trials,
    so ``default_rng([107, cell, trial])`` gives the scenes of acceptance
    criterion 7.
    """
    z = rng.uniform(-1.0, 1.0)
    lon = rng.uniform(-np.pi, np.pi)
    u = crater_center(np.arcsin(z), lon, 1.0)
    r_cam = (radius + altitude) * u
    helper = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.95 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, u)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    az = rng.uniform(0.0, 2.0 * np.pi)
    up = np.cos(az) * e1 + np.sin(az) * e2
    if off_nadir_deg == 0.0:
        return look_at_pose(r_cam, np.zeros(3), up_hint=up)
    tilt = np.deg2rad(off_nadir_deg)
    az2 = rng.uniform(0.0, 2.0 * np.pi)
    t_dir = np.cos(az2) * e1 + np.sin(az2) * e2
    boresight = -np.cos(tilt) * u + np.sin(tilt) * t_dir
    return look_at_pose(r_cam, r_cam + boresight * (altitude + radius), up_hint=up)


def make_scene(label, rng, pose, catalog, geometry, table: oracles.IndexedTriads) -> oracles.Scene:
    dets, truth = pipeline.synth_scene(
        catalog, pose, inputs.APOLLO_CAMERA, SIGMA_IMG, rng, LUNAR_RADIUS_KM, geometry
    )
    return oracles.Scene(
        label=label,
        detections=dets,
        truth=truth,
        r_true=pose.r_m,
        attitude=pose.t_mc,
        identifiable=table.any_indexed(truth.values()),
    )


@dataclass
class Tally:
    """Operations attempted and judged, with their times."""

    attempted: int = 0
    failed: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    position_err_m: list = field(default_factory=list)

    def judge_identify(self, result, scene) -> None:
        self.attempted += 1
        verdict, reason = oracles.judge_identify(result, scene)
        if verdict == "failed":
            self.failed.append(reason)
        elif verdict == "wrong":
            self.wrong.append(reason)
        elif result.status == "matched":
            self.position_err_m.append(oracles.position_error_m(result, scene))


def identify_one(scene, index, catalog, geometry, tally: Tally, tracer, request_id, timed=True):
    req = pipeline.IdentifyRequest(
        detections=scene.detections,
        intrinsics=inputs.APOLLO_CAMERA,
        attitude=scene.attitude,
        indexes=[index],
        catalog=catalog,
        gate=GATE,
        geometry=geometry,
    )
    if tracer is not None:
        tracer.request_id = request_id
    t0 = time.perf_counter()
    result = pipeline.identify(req)
    dt = time.perf_counter() - t0
    if timed:
        tally.op_s.append(dt)
    tally.judge_identify(result, scene)


def _quiet(tracer):
    return tracer.paused() if tracer is not None else nullcontext()


# -- identify workloads -----------------------------------------------------


@dataclass(frozen=True)
class IdentifyWorkload:
    """Scenes ``default_rng([*stream, t])`` for ``t`` in ``trials``."""

    name: str
    off_nadir_deg: float
    stream: tuple
    trials: range

    def setup(self, cache: Path):
        """What each ``craterid identify`` call pays before matching."""
        catalog, problems = cindex.load_catalog(cache / inputs.CATALOG_FILE)
        if problems:
            raise RuntimeError(f"cached catalogue has problems: {problems[:3]}")
        index = cindex.load_index(cache / inputs.INDEX_FILE)
        geometry = pipeline.SceneGeometry.build(catalog, index.radius)
        return {"catalog": catalog, "index": index, "geometry": geometry,
                "index_bytes": (cache / inputs.INDEX_FILE).stat().st_size}

    def prepare(self, state, seed: int, tracer) -> None:
        """Scenes, their truth, and the request order drawn from ``seed``."""
        with _quiet(tracer):
            table = oracles.IndexedTriads(state["index"])
        scenes = []
        for t in self.trials:
            rng = np.random.default_rng([*self.stream, t])
            pose = draw_pose(rng, ALTITUDE_KM, self.off_nadir_deg)
            label = f"{self.name} trial {t} (default_rng({[*self.stream, t]}))"
            scenes.append(make_scene(label, rng, pose, state["catalog"], state["geometry"], table))
        state["scenes"] = scenes
        state["order"] = np.random.default_rng(seed).permutation(len(scenes)).tolist()

    def round(self, state, tally: Tally, tracer) -> None:
        for i in state["order"]:
            identify_one(state["scenes"][i], state["index"], state["catalog"],
                         state["geometry"], tally, tracer, request_id=i)

    def index_mb(self, state) -> float:
        return state["index_bytes"] / 1e6

    def details(self, state) -> dict:
        scenes = state["scenes"]
        return {
            "scenes": len(scenes),
            "identifiable": sum(sc.identifiable for sc in scenes),
            "fewer_than_3_detections": sum(len(sc.detections) < 3 for sc in scenes),
        }


# -- index-build workload ---------------------------------------------------

# The coplanar input is the cached local catalogue cut to a cap, so its
# crater density is that of the identify index; the non-coplanar input is
# the first craters of the test suite's global catalogue.
TILE_CENTER_DEG = (12.0, 40.0)
TILE_RADIUS_DEG = 20.0
GLOBAL_SCALE = IndexScale("globals", 2, 100.0, np.inf, 1.1, 0.9, "noncoplanar3", "ordered")
SMOKE_SCENES = 12
NN_QUERIES = 300
VIEW_TRIADS = 20


def tile(records, center_deg=TILE_CENTER_DEG, radius_deg=TILE_RADIUS_DEG):
    c = crater_center(*np.deg2rad(center_deg), 1.0)
    cos_r = np.cos(np.deg2rad(radius_deg))
    return [r for r in records if crater_center(r.lat, r.lon, 1.0) @ c >= cos_r]


class IndexBuildWorkload:
    name = "index-build"

    def setup(self, cache: Path):
        """Read the catalogues the builds start from and cut the tile."""
        local, p1 = cindex.load_catalog(cache / inputs.CATALOG_FILE)
        glob, p2 = cindex.load_catalog(cache / inputs.GLOBAL_CATALOG_FILE)
        if p1 or p2:
            raise RuntimeError(f"cached catalogue has problems: {(p1 + p2)[:3]}")
        return {"tile": tile(local), "global": glob}

    def prepare(self, state, seed: int, tracer) -> None:
        rng = np.random.default_rng(seed)
        state["tile_in"] = [state["tile"][i] for i in rng.permutation(len(state["tile"]))]
        state["global_in"] = [state["global"][i] for i in rng.permutation(len(state["global"]))]
        state["workdir"] = tempfile.TemporaryDirectory(prefix=".work-", dir=inputs.CACHE_ROOT)
        state["first_bytes"] = None
        state["index_bytes"] = 0
        state["build_s"] = {"tile": 0.0, "global": 0.0}
        state["triads"] = {"tile": 0, "global": 0}
        with _quiet(tracer):
            state["tile_geometry"] = pipeline.SceneGeometry.build(state["tile"])
            state["expected"] = {
                kind: oracles.brute_force_triads(oracles.usable_records(state[kind], scale), scale)
                for kind, scale in (("tile", inputs.LOCAL_SCALE), ("global", GLOBAL_SCALE))
            }
        state["order"] = rng.permutation(SMOKE_SCENES).tolist()

    @staticmethod
    def _smoke_pose(rng: np.random.Generator):
        """Nadir camera over the inner third of the tile."""
        c = crater_center(*np.deg2rad(TILE_CENTER_DEG), 1.0)
        e1 = np.cross([0.0, 0.0, 1.0], c)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(c, e1)
        off = np.deg2rad(TILE_RADIUS_DEG / 3.0) * np.sqrt(rng.uniform())
        az, roll = rng.uniform(0.0, 2.0 * np.pi, 2)
        u = np.cos(off) * c + np.sin(off) * (np.cos(az) * e1 + np.sin(az) * e2)
        up = np.cos(roll) * e1 + np.sin(roll) * e2
        return look_at_pose((LUNAR_RADIUS_KM + ALTITUDE_KM) * u, np.zeros(3), up)

    def round(self, state, tally: Tally, tracer) -> None:
        work = Path(state["workdir"].name)
        paths = {"tile": work / "tile.idx", "global": work / "global.idx"}
        scales = {"tile": inputs.LOCAL_SCALE, "global": GLOBAL_SCALE}
        built, loaded = {}, {}
        t0 = time.perf_counter()
        for kind in ("tile", "global"):
            t1 = time.perf_counter()
            built[kind] = cindex.build_index(state[f"{kind}_in"], scales[kind])
            state["build_s"][kind] += time.perf_counter() - t1
            state["triads"][kind] += len(built[kind])
            cindex.save_index(built[kind], paths[kind])
            loaded[kind] = cindex.load_index(paths[kind])
        tally.op_s.append(time.perf_counter() - t0)
        with _quiet(tracer):
            self._check(state, built, loaded, paths, tally)
            self._smoke(state, loaded["tile"], tally)

    def _check(self, state, built, loaded, paths, tally: Tally) -> None:
        saved = {k: p.read_bytes() for k, p in paths.items()}
        state["index_bytes"] = sum(len(b) for b in saved.values())
        problems = []
        for kind in ("tile", "global"):
            tally.attempted += 1
            problems.append(oracles.check_round_trip(built[kind], loaded[kind]))
        if state["first_bytes"] is None:
            state["first_bytes"] = saved
            rng = np.random.default_rng(108)
            for kind, scale in (("tile", inputs.LOCAL_SCALE), ("global", GLOBAL_SCALE)):
                usable = oracles.usable_records(state[kind], scale)
                problems.append(oracles.check_triads(loaded[kind], usable, state["expected"][kind]))
                problems.append(oracles.check_nearest_neighbours(loaded[kind], rng, NN_QUERIES))
            problems.append(
                oracles.check_view_invariance(loaded["global"], state["global"], rng, VIEW_TRIADS)
            )
        elif saved != state["first_bytes"]:
            problems.append("index-build: saved bytes differ between rounds")
        tally.wrong.extend(p for p in problems if p)

    def _smoke(self, state, tile_index, tally: Tally) -> None:
        """Identify nadir scenes of the tile with the index just loaded."""
        if "smoke" not in state:
            table = oracles.IndexedTriads(tile_index)
            state["smoke"] = []
            for k in range(SMOKE_SCENES):
                rng = np.random.default_rng([2009, 1228, k])
                pose = self._smoke_pose(rng)
                state["smoke"].append(make_scene(
                    f"index-build smoke scene {k}", rng, pose, state["tile"],
                    state["tile_geometry"], table))
        for i in state["order"]:
            identify_one(state["smoke"][i], tile_index, state["tile"], state["tile_geometry"],
                         tally, None, request_id=i, timed=False)

    def index_mb(self, state) -> float:
        return state["index_bytes"] / 1e6

    def details(self, state) -> dict:
        """The build rates of each descriptor kind, for the log."""
        return {
            "coplanar_build_per_s": state["triads"]["tile"] / state["build_s"]["tile"],
            "noncoplanar_build_per_s": state["triads"]["global"] / state["build_s"]["global"],
            "tile_craters": len(state["tile"]),
            "global_craters": len(state["global"]),
        }


WORKLOADS = {
    "index-build": IndexBuildWorkload(),
    # Criterion 7's nadir 0.5 px cell: Monte Carlo cell 1 of seed 107.
    "identify-nadir": IdentifyWorkload("identify-nadir", 0.0, (107, 1), range(0, 130)),
    # Criterion 7's 30 deg off-nadir cell: cell 0 of its own run at seed 107.
    "identify-oblique": IdentifyWorkload("identify-oblique", 30.0, (107, 0), range(0, 20)),
}
