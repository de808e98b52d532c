"""End-to-end lost-in-space identification and the synthetic experiment harness.

``identify`` walks detection triads in a pattern-shifting order, queries one
or more descriptor indexes, and verifies each candidate correspondence by
solving for the camera position, reprojecting the catalog rims, and gating
every crater on the chi-square rim-distance statistic.  The first verified
hypothesis wins; an exhausted search is an explicit no-match.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .camera import (
    CameraPose,
    Intrinsics,
    pose_above,
    projection_matrix,
    project_disk_quadric,
    rim_inside_image,
)
from .conic2d import EllipseParams, conic_to_ellipse, ellipse_to_conic, normalize_unit_det
from .crater3d import (
    LUNAR_RADIUS_KM,
    CraterRecord,
    build_frame,
    crater_center,
    disk_quadric_from_plane_frame,
)
from .errors import CraterIdError, InvalidAxesError, SchemaError
from .index import DescriptorIndex, read_csv_rows
from .invariants import coplanar_triad, noncoplanar_triad, query_rotations
from .metrics import GateConfig, gaussian_angle, gate_statistic
from .pose import ConicCorrespondence, solve_position

__all__ = [
    "Detection",
    "IdentifyRequest",
    "MatchResult",
    "eps_enumerate",
    "clockwise_image_order",
    "identify",
    "synth_scene",
    "synthetic_catalog",
    "MonteCarloConfig",
    "MonteCarloCell",
    "monte_carlo",
    "load_detections",
    "save_detections",
]


@dataclass(frozen=True)
class Detection:
    """Pixel-frame ellipse fit of one detected crater rim."""

    uc: float
    vc: float
    a: float
    b: float
    psi: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.uc, self.vc, self.a, self.b, self.psi))):
            raise ValueError("detection fields must be finite")
        if not (self.a >= self.b > 0.0):
            raise InvalidAxesError(f"need a >= b > 0, got a={self.a}, b={self.b}")

    def conic(self) -> np.ndarray:
        return ellipse_to_conic(
            EllipseParams(a=self.a, b=self.b, xc=self.uc, yc=self.vc, psi=self.psi)
        )


@dataclass(frozen=True)
class SceneGeometry:
    """Precomputed per-crater 3D geometry, reusable across trials."""

    records: tuple[CraterRecord, ...]
    frames: tuple
    quadrics: tuple[np.ndarray, ...]
    centers: np.ndarray  # (n, 3) km
    normals: np.ndarray  # (n, 3)
    by_id: dict

    @classmethod
    def build(
        cls, records: Sequence[CraterRecord], radius: float = LUNAR_RADIUS_KM
    ) -> "SceneGeometry":
        frames = [build_frame(r, radius) for r in records]
        quads = [
            disk_quadric_from_plane_frame(f.t_em[:, 0], f.t_em[:, 1], f.p_c, r.a, r.b, r.psi)
            for r, f in zip(records, frames)
        ]
        by_id = {r.id: (r, f, q) for r, f, q in zip(records, frames, quads)}
        return cls(
            records=tuple(records),
            frames=tuple(frames),
            quadrics=tuple(quads),
            centers=np.array([f.p_c for f in frames]),
            normals=np.array([f.u for f in frames]),
            by_id=by_id,
        )


@dataclass
class IdentifyRequest:
    """Inputs to one identification attempt."""

    detections: Sequence[Detection]
    intrinsics: Intrinsics
    attitude: np.ndarray  # selenographic -> camera
    indexes: Sequence[DescriptorIndex]
    catalog: Sequence[CraterRecord]
    gate: GateConfig
    n_candidates: int = 3
    max_triads: int = 2000
    verify: bool = True  # False accepts the first NN hit (diagnostics only)
    geometry: SceneGeometry | None = None


@dataclass
class MatchResult:
    status: str  # matched | no-match | insufficient-craters
    correspondences: dict[int, str] = field(default_factory=dict)
    r_m: np.ndarray | None = None
    per_crater: list[dict] = field(default_factory=list)
    triads_tried: int = 0
    scale_name: str | None = None

    @property
    def matched(self) -> bool:
        return self.status == "matched"


def eps_enumerate(m: int) -> Iterator[tuple[int, int, int]]:
    """Every 3-combination of range(m), exactly once, in a spread-first order.

    Gap pairs (g1, g2) are swept by increasing total spread so early triples
    mix low and high detection indices instead of exhausting a lexicographic
    prefix.
    """
    if m < 3:
        return
    for total in range(2, 2 * m):
        for g1 in range(1, total):
            g2 = total - g1
            if g1 > m - 2 or g2 > m - 2:
                continue
            for i in range(0, m - total):
                yield (i, i + g1, i + g1 + g2)


def clockwise_image_order(dets: Sequence[Detection]) -> list[int]:
    """Order three detections clockwise about their centroid.

    With +v down, the visually clockwise sweep is ascending atan2 of the
    centroid-relative coordinates; the result starts at the smallest angle.
    """
    cu = sum(d.uc for d in dets) / len(dets)
    cv = sum(d.vc for d in dets) / len(dets)
    ang = [np.arctan2(d.vc - cv, d.uc - cu) for d in dets]
    return list(np.argsort(ang, kind="stable"))


def _observation_descriptor(index: DescriptorIndex, conics: list[np.ndarray]) -> np.ndarray:
    """Scale-appropriate invariant vector for three clockwise image conics."""
    if index.scale.descriptor_kind == "coplanar7":
        return coplanar_triad(*[normalize_unit_det(c) for c in conics])
    return noncoplanar_triad(*conics)


def _verify_hypothesis(
    req: IdentifyRequest,
    obs_order: list[int],
    rotation: int,
    entry_ids: tuple[str, str, str],
    geometry: SceneGeometry,
    conics: list[np.ndarray],
    radius: float,
) -> MatchResult | None:
    """Pose + reprojection verification of one label assignment."""
    assign: dict[int, str] = {}
    corrs = []
    quads = []
    dets_for = []
    for m in range(3):
        det_idx = obs_order[(rotation + m) % 3]
        cid = entry_ids[m]
        item = geometry.by_id.get(cid)
        if item is None:
            return None
        rec, frame, quad = item
        assign[det_idx] = cid
        corrs.append(
            ConicCorrespondence(
                image_conic=conics[(rotation + m) % 3], crater=rec, frame=frame
            )
        )
        quads.append(quad)
        dets_for.append(req.detections[det_idx])
    try:
        est = solve_position(corrs, req.attitude, req.intrinsics, radius)
    except CraterIdError:
        return None
    if est.inside_moon:
        return None
    if not req.verify:
        return MatchResult(
            status="matched",
            correspondences=assign,
            r_m=est.r_m,
            per_crater=[],
        )
    pose = CameraPose(t_mc=req.attitude, r_m=est.r_m)
    p = projection_matrix(req.intrinsics, pose)
    try:
        d = np.array(
            [
                gaussian_angle(project_disk_quadric(p, quad), corr.image_conic)
                for corr, quad in zip(corrs, quads)
            ]
        )
    except CraterIdError:
        return None
    stat = gate_statistic(
        d, [det.a for det in dets_for], [det.b for det in dets_for], req.gate.sigma_img
    )
    if np.any(stat > req.gate.threshold):
        return None
    per_crater = [
        {"crater_id": corr.crater.id, "d_ga": float(dk), "stat": float(sk)}
        for corr, dk, sk in zip(corrs, d, stat)
    ]
    return MatchResult(
        status="matched", correspondences=assign, r_m=est.r_m, per_crater=per_crater
    )


def identify(req: IdentifyRequest) -> MatchResult:
    """Match observed crater rims against the supplied indexes."""
    if len(req.detections) < 3:
        return MatchResult(status="insufficient-craters")
    geometry = req.geometry or SceneGeometry.build(
        req.catalog, req.indexes[0].radius if req.indexes else LUNAR_RADIUS_KM
    )
    conic_cache = [d.conic() for d in req.detections]
    tried = 0
    for triple in eps_enumerate(len(req.detections)):
        if tried >= req.max_triads:
            break
        tried += 1
        dets3 = [req.detections[t] for t in triple]
        order_local = clockwise_image_order(dets3)
        obs_order = [triple[o] for o in order_local]
        conics = [conic_cache[t] for t in obs_order]
        for index in req.indexes:
            try:
                base = _observation_descriptor(index, conics)
            except CraterIdError:
                continue
            for rotation, query_vec in query_rotations(base, index.scale.convention):
                hits = index.query(query_vec, req.n_candidates)
                if not req.verify:
                    # Negative-control mode: accept the first NN hit.
                    hits = hits[:1]
                for _dist, entry in hits:
                    rotations = (rotation,) if rotation is not None else (0, 1, 2)
                    for r in rotations:
                        result = _verify_hypothesis(
                            req, obs_order, r, entry.ids, geometry, conics, index.radius
                        )
                        if result is not None:
                            result.triads_tried = tried
                            result.scale_name = index.scale.name
                            return result
    return MatchResult(status="no-match", triads_tried=tried)


# ---------------------------------------------------------------------------
# Synthetic scenes and Monte Carlo harness
# ---------------------------------------------------------------------------


def synth_scene(
    records: Sequence[CraterRecord],
    pose: CameraPose,
    intr: Intrinsics,
    sigma_img: float,
    rng: np.random.Generator,
    radius: float = LUNAR_RADIUS_KM,
    geometry: SceneGeometry | None = None,
) -> tuple[list[Detection], dict[int, str]]:
    """Project all fully visible catalog rims and perturb the fits.

    The four fit parameters (a, b, uc, vc) receive independent N(0,
    sigma_img^2) noise; orientation is left untouched.  Returns detections
    plus the ground-truth detection-to-crater map.
    """
    geom = geometry or SceneGeometry.build(records, radius)
    p = projection_matrix(intr, pose)
    # Cheap batched prefilter: crater faces the camera and its center
    # projects inside the frame; the exact full-rim test runs on survivors.
    facing = np.einsum("ni,ni->n", geom.normals, pose.r_m[None, :] - geom.centers) > 0.0
    hom = geom.centers @ p[:, :3].T + p[:, 3]
    in_front = hom[:, 2] > 0.0
    cand = facing & in_front
    if intr.rows > 0 and intr.cols > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            uc = hom[:, 0] / hom[:, 2]
            vc = hom[:, 1] / hom[:, 2]
        cand &= (uc >= -0.5) & (uc <= intr.cols - 0.5)
        cand &= (vc >= -0.5) & (vc <= intr.rows - 0.5)

    detections: list[Detection] = []
    truth: dict[int, str] = {}
    for i in np.flatnonzero(cand):
        rec = geom.records[i]
        try:
            ell = conic_to_ellipse(project_disk_quadric(p, geom.quadrics[i]))
        except CraterIdError:
            continue
        if not rim_inside_image(ell, intr):
            continue
        da = db = du = dv = 0.0
        if sigma_img > 0:
            for _ in range(64):
                da, db, du, dv = rng.normal(0.0, sigma_img, 4)
                if ell.a + da >= ell.b + db > 0:
                    break
            else:
                continue
        det = Detection(
            uc=ell.xc + du, vc=ell.yc + dv, a=ell.a + da, b=ell.b + db, psi=ell.psi
        )
        truth[len(detections)] = rec.id
        detections.append(det)
    return detections, truth


def synthetic_catalog(
    n: int,
    d_min: float,
    d_max: float,
    seed: int,
    max_ellipticity: float = 1.3,
    max_lat_deg: float = 82.0,
    radius: float = LUNAR_RADIUS_KM,
    sep_factor: float = 1.4,
) -> list[CraterRecord]:
    """Random non-intersecting crater field for experiments.

    Centers are uniform on the sphere (clipped away from the poles),
    diameters log-uniform in [d_min, d_max], ellipticity uniform up to the
    bound.  Pairwise center separation is forced above ``sep_factor`` times
    the summed semi-major axes so every triad passes the enumeration gate.
    """
    rng = np.random.default_rng(seed)
    recs: list[CraterRecord] = []
    units = np.zeros((n, 3))
    semis = np.zeros(n)
    count = 0
    attempts = 0
    max_lat = np.deg2rad(max_lat_deg)
    while count < n and attempts < 200 * n:
        attempts += 1
        z = rng.uniform(np.sin(-max_lat), np.sin(max_lat))
        lat = np.arcsin(z)
        lon = rng.uniform(-np.pi, np.pi)
        d = np.exp(rng.uniform(np.log(d_min), np.log(d_max)))
        a = d / 2.0
        b = a / rng.uniform(1.0, max_ellipticity)
        u = crater_center(lat, lon, 1.0)
        if count:
            cosang = np.clip(units[:count] @ u, -1.0, 1.0)
            gates = sep_factor * (a + semis[:count]) / radius
            if np.any(np.arccos(cosang) <= gates):
                continue
        recs.append(
            CraterRecord(
                id=f"S{count:05d}",
                lat=lat,
                lon=lon,
                a=a,
                b=b,
                psi=rng.uniform(0.0, np.pi),
                arc_fraction=0.95,
            )
        )
        units[count] = u
        semis[count] = a
        count += 1
    if count < n:
        raise CraterIdError(f"could only place {count} of {n} craters")
    return recs


def _trial_pose(
    rng: np.random.Generator,
    altitude: float,
    off_nadir_deg: float,
    radius: float,
) -> CameraPose:
    """Random sub-point pose at fixed altitude, nadir or tilted boresight."""
    z = rng.uniform(-1.0, 1.0)
    lon = rng.uniform(-np.pi, np.pi)
    u = crater_center(np.arcsin(z), lon, 1.0)
    az = rng.uniform(0.0, 2.0 * np.pi)
    if off_nadir_deg == 0.0:
        return pose_above(u, altitude, radius, az)
    az2 = rng.uniform(0.0, 2.0 * np.pi)
    return pose_above(u, altitude, radius, az, np.deg2rad(off_nadir_deg), az2)


@dataclass
class MonteCarloConfig:
    """One experiment: a set of (noise, pointing) cells over a common catalog."""

    catalog: Sequence[CraterRecord]
    indexes: Sequence[DescriptorIndex]
    intrinsics: Intrinsics
    altitude_km: float
    trials: int
    noise_px: Sequence[float]
    off_nadir_deg: Sequence[float] = (0.0,)
    seed: int = 0
    n_candidates: int = 3
    max_triads: int = 2000
    gate_threshold: float = 13.277


@dataclass
class MonteCarloCell:
    noise_px: float
    off_nadir_deg: float
    trials: int
    correct: int
    incorrect: int
    no_match: int
    insufficient: int
    median_err_m: float
    rms_err_m: float

    @property
    def correct_fraction(self) -> float:
        return self.correct / self.trials if self.trials else 0.0


# Floor on the gate's sigma_img, so zero-noise cells keep a finite gate.
_MIN_GATE_SIGMA = 0.05


def monte_carlo(cfg: MonteCarloConfig, radius: float = LUNAR_RADIUS_KM) -> list[MonteCarloCell]:
    """Run the randomized matching experiment and tally per-cell outcomes.

    Deterministic under ``cfg.seed``: each (cell, trial) derives its own RNG
    stream, so per-trial scenes are identical across index conventions.
    """
    cells: list[MonteCarloCell] = []
    geometry = SceneGeometry.build(cfg.catalog, radius)
    cell_specs = [(s, o) for o in cfg.off_nadir_deg for s in cfg.noise_px]
    for ci, (sigma, off) in enumerate(cell_specs):
        correct = incorrect = no_match = insufficient = 0
        errors_m: list[float] = []
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, ci, trial])
            pose = _trial_pose(rng, cfg.altitude_km, off, radius)
            dets, truth = synth_scene(
                cfg.catalog, pose, cfg.intrinsics, sigma, rng, radius, geometry
            )
            req = IdentifyRequest(
                detections=dets,
                intrinsics=cfg.intrinsics,
                attitude=pose.t_mc,
                indexes=cfg.indexes,
                catalog=cfg.catalog,
                gate=GateConfig(
                    sigma_img=max(sigma, _MIN_GATE_SIGMA),
                    threshold=cfg.gate_threshold,
                ),
                n_candidates=cfg.n_candidates,
                max_triads=cfg.max_triads,
                geometry=geometry,
            )
            result = identify(req)
            if result.status == "insufficient-craters":
                insufficient += 1
            elif result.status == "no-match":
                no_match += 1
            elif all(truth.get(d) == cid for d, cid in result.correspondences.items()):
                correct += 1
                errors_m.append(1000.0 * float(np.linalg.norm(result.r_m - pose.r_m)))
            else:
                incorrect += 1
        cells.append(
            MonteCarloCell(
                noise_px=sigma,
                off_nadir_deg=off,
                trials=cfg.trials,
                correct=correct,
                incorrect=incorrect,
                no_match=no_match,
                insufficient=insufficient,
                median_err_m=float(np.median(errors_m)) if errors_m else float("nan"),
                rms_err_m=float(np.sqrt(np.mean(np.square(errors_m))))
                if errors_m
                else float("nan"),
            )
        )
    return cells


def format_cells(cells: Sequence[MonteCarloCell]) -> str:
    """Human-readable results table."""
    head = (
        f"{'Noise':>6} {'Off-nadir':>9} {'Correct':>8} {'Incorrect':>9} "
        f"{'No Match':>9} {'<3 Craters':>10} {'Median Err':>12} {'RMS Err':>12}"
    )
    lines = [head, "-" * len(head)]
    for c in cells:
        lines.append(
            f"{c.noise_px:>6.2f} {c.off_nadir_deg:>9.1f} {c.correct:>8d} "
            f"{c.incorrect:>9d} {c.no_match:>9d} {c.insufficient:>10d} "
            f"{c.median_err_m:>10.1f} m {c.rms_err_m:>10.1f} m"
        )
    return "\n".join(lines)


def cells_to_jsonl(cells: Sequence[MonteCarloCell]) -> str:
    """Line-delimited machine-readable records, keyed by the cell's field names."""
    return "\n".join(json.dumps(asdict(c), sort_keys=True) for c in cells) + "\n"


# ---------------------------------------------------------------------------
# Detections file I/O
# ---------------------------------------------------------------------------

DETECTIONS_HEADER = ["u_c", "v_c", "a_px", "b_px", "psi_rad"]


def load_detections(path: str | Path) -> list[Detection]:
    """Rim fits from a :func:`craterid.index.read_csv_rows` file with columns
    ``DETECTIONS_HEADER`` (pixels, radians); a bad row raises ``SchemaError``."""
    out: list[Detection] = []
    for lineno, cells in read_csv_rows(path, DETECTIONS_HEADER):
        if len(cells) != 5:
            raise SchemaError(f"{path}:{lineno}: expected 5 fields")
        try:
            uc, vc, a, b, psi = map(float, cells)
            out.append(Detection(uc=uc, vc=vc, a=a, b=b, psi=psi))
        except (ValueError, CraterIdError) as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
    return out


def save_detections(
    detections: Sequence[Detection],
    path: str | Path,
    truth: dict[int, str] | None = None,
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if truth:
            fh.write("# truth: " + json.dumps(truth, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(DETECTIONS_HEADER)
        for d in detections:
            w.writerow(
                [f"{d.uc:.6f}", f"{d.vc:.6f}", f"{d.a:.6f}", f"{d.b:.6f}", f"{d.psi:.9f}"]
            )
