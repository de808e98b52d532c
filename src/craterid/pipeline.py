"""End-to-end lost-in-space identification and the synthetic experiment harness.

``identify`` walks detection triads in a pattern-shifting order and queries
one or more descriptor indexes.  Each (triad, index) gives a list of
candidate correspondences, the hypotheses, in a fixed order: query
rotation, then k-d hit, then label rotation.  Each hypothesis is solved for
the camera position; the solutions outside the Moon are then verified
together, as one array batch: the catalog rims are reprojected with one
call, compared with the detections by Gaussian angle, and gated on the
chi-square rim-distance statistic.  The first hypothesis in order that
passes wins; an exhausted search is an explicit no-match.  What is fixed
for a request (``K T``, the detection conics, their unit-determinant,
Moon-frame and Gaussian forms) is computed once.  The catalog's geometry is
one crater table (``SceneGeometry``, built in one array pass); a hypothesis
becomes row numbers once, and the pose solve and the projection read those
rows.
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
    k_matrix,
    pose_above,
    projection_matrix,
    project_disk_quadric,
    rim_inside_image,
)
from .conic2d import EllipseParams, conic_to_ellipse, ellipse_to_conic, normalize_unit_det
from .crater3d import LUNAR_RADIUS_KM, CraterFrame, CraterRecord, crater_center, crater_frames
from .errors import CraterIdError, InvalidAxesError, SchemaError
from .index import DescriptorIndex, read_csv_rows
from .invariants import coplanar_triad, noncoplanar_triad, query_rotations
from .metrics import (
    GateConfig,
    GaussianEllipse,
    conic_to_gaussian,
    gate_statistic,
    gaussian_angle,
)
from .pose import moon_conic, solve_position

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
    """The catalog's crater table, reusable across trials: ``frames`` has
    one row per record, and ``row`` maps a crater id to its row."""

    records: tuple[CraterRecord, ...]
    frames: CraterFrame
    row: dict[str, int]

    @classmethod
    def build(
        cls, records: Sequence[CraterRecord], radius: float = LUNAR_RADIUS_KM
    ) -> "SceneGeometry":
        row: dict[str, int] = {}
        for i, r in enumerate(records):
            if row.setdefault(r.id, i) != i:
                raise CraterIdError(f"crater id {r.id} repeats in the catalog")
        return cls(records=tuple(records), frames=crater_frames(records, radius), row=row)


@dataclass
class IdentifyRequest:
    """Inputs to one identification attempt; construction checks ``n_candidates``,
    ``max_triads`` and the attitude (``CameraPose``'s rotation rule), raising
    ``CraterIdError``."""

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

    def __post_init__(self):
        if self.n_candidates < 1:
            raise CraterIdError("n_candidates (--n-candidates) must be at least 1")
        if self.max_triads < 1:
            raise CraterIdError("max_triads (--max-triads) must be at least 1")
        try:
            self.attitude = CameraPose(t_mc=self.attitude, r_m=np.zeros(3)).t_mc
        except ValueError as exc:
            raise CraterIdError(f"attitude: {exc}") from exc


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


def _observation_descriptor(
    index: DescriptorIndex, conics: np.ndarray, unit_conics: np.ndarray
) -> np.ndarray:
    """Scale-appropriate invariant vector for three clockwise image conics,
    given as they are and determinant-normalized."""
    if index.scale.descriptor_kind == "coplanar7":
        return coplanar_triad(*unit_conics)
    return noncoplanar_triad(*conics)


def _verify_triad(
    req: IdentifyRequest,
    hypotheses: list[list[tuple[int, str]]],
    geometry: SceneGeometry,
    kt: np.ndarray,
    moon_conics: np.ndarray,
    gaussians: GaussianEllipse,
    axes: np.ndarray,
    radius: float,
) -> MatchResult | None:
    """The first of one triad's hypotheses, in order, that passes.

    A hypothesis is a list of (detection index, crater id) pairs.  ``kt`` is
    the request's ``K T``; ``moon_conics``, ``gaussians`` and ``axes`` (the
    fit a, b) are its detections' forms, indexed by detection.  Each
    hypothesis gets one ``solve_position``; the solutions outside the Moon
    are verified as one batch: one projection of all their rims, one
    Gaussian-angle call and one gate call on ``(H, 3)`` arrays.  A
    hypothesis passes when every statistic is valid and within the
    threshold.  ``req.verify`` off accepts the first solution outside the
    Moon.
    """
    # Each hypothesis's detection indices and table rows (-1: not in the
    # catalog), as (H, 3) arrays; then the hypotheses solved outside the Moon.
    det_idx = np.array([[k for k, _ in pairs] for pairs in hypotheses], dtype=np.intp)
    rows = np.array(
        [[geometry.row.get(cid, -1) for _, cid in pairs] for pairs in hypotheses], dtype=np.intp
    ).reshape(-1, 3)
    kept, r_m = [], []
    for h in np.flatnonzero((rows >= 0).all(axis=1)).tolist():
        try:
            est = solve_position(moon_conics[det_idx[h]], geometry.frames[rows[h]], radius)
        except CraterIdError:
            continue
        if est.inside_moon:
            continue
        if not req.verify:
            return MatchResult(status="matched", correspondences=dict(hypotheses[h]), r_m=est.r_m)
        kept.append(h)
        r_m.append(est.r_m)
    if not kept:
        return None
    det_idx, r_m = det_idx[kept], np.array(r_m)
    quads = geometry.frames.quadric[rows[kept]]
    # P = K T [I | -r] per hypothesis.
    p = np.concatenate(
        [np.broadcast_to(kt, (len(kept), 3, 3)), -(r_m @ kt.T)[:, :, None]], axis=2
    )
    rims = conic_to_gaussian(project_disk_quadric(p[:, None], quads))
    dets = GaussianEllipse(y=gaussians.y[det_idx], shape=gaussians.shape[det_idx])
    d = gaussian_angle(rims, dets)
    fit = axes[det_idx]
    stat = gate_statistic(d, fit[..., 0], fit[..., 1], req.gate.sigma_img)
    passed = np.flatnonzero(np.all(stat <= req.gate.threshold, axis=1))
    if not passed.size:
        return None
    h = passed[0]
    pairs = hypotheses[kept[h]]
    per_crater = [
        {"crater_id": cid, "d_ga": float(dk), "stat": float(sk)}
        for (_, cid), dk, sk in zip(pairs, d[h], stat[h])
    ]
    return MatchResult(
        status="matched", correspondences=dict(pairs), r_m=r_m[h], per_crater=per_crater
    )


def identify(req: IdentifyRequest) -> MatchResult:
    """Match observed crater rims against the supplied indexes."""
    if len(req.detections) < 3:
        return MatchResult(status="insufficient-craters")
    geometry = req.geometry or SceneGeometry.build(
        req.catalog, req.indexes[0].radius if req.indexes else LUNAR_RADIUS_KM
    )
    conics = np.array([d.conic() for d in req.detections])
    # What a request's detections give every triad, computed once.
    unit_conics = normalize_unit_det(conics)
    kt = k_matrix(req.intrinsics) @ req.attitude
    moon_conics = moon_conic(conics, req.attitude, req.intrinsics)
    gaussians = conic_to_gaussian(conics)
    axes = np.array([(d.a, d.b) for d in req.detections])
    tried = 0
    for triple in eps_enumerate(len(req.detections)):
        if tried >= req.max_triads:
            break
        tried += 1
        obs_order = [triple[o] for o in clockwise_image_order([req.detections[t] for t in triple])]
        for index in req.indexes:
            try:
                base = _observation_descriptor(index, conics[obs_order], unit_conics[obs_order])
            except CraterIdError:
                continue
            hypotheses = []
            for rotation, query_vec in query_rotations(base, index.scale.convention):
                hits = index.query(query_vec, req.n_candidates)
                if not req.verify:
                    # Negative-control mode: accept the first NN hit.
                    hits = hits[:1]
                for _dist, entry in hits:
                    for r in (rotation,) if rotation is not None else (0, 1, 2):
                        hypotheses.append(
                            [(obs_order[(r + m) % 3], cid) for m, cid in enumerate(entry.ids)]
                        )
            result = _verify_triad(
                req, hypotheses, geometry, kt, moon_conics, gaussians, axes, index.radius
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
    centers = geom.frames.p_c
    up = geom.frames.t_em[:, :, 2]
    facing = np.einsum("ni,ni->n", up, pose.r_m[None, :] - centers) > 0.0
    hom = centers @ p[:, :3].T + p[:, 3]
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
            ell = conic_to_ellipse(project_disk_quadric(p, geom.frames.quadric[i]))
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
    """Line-delimited JSON records, keyed by the cell's field names; the NaN
    errors of a cell without a correct match are written as null."""

    rows = ({k: None if math.isnan(v) else v for k, v in asdict(c).items()} for c in cells)
    return "\n".join(json.dumps(r, sort_keys=True, allow_nan=False) for r in rows) + "\n"


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
        w = csv.writer(fh)
        if truth:  # one CSV cell, so a quote in an id cannot open a field over the next rows
            w.writerow(["# truth: " + json.dumps(truth, sort_keys=True)])
        w.writerow(DETECTIONS_HEADER)
        for d in detections:
            w.writerow(
                [f"{d.uc:.6f}", f"{d.vc:.6f}", f"{d.a:.6f}", f"{d.b:.6f}", f"{d.psi:.9f}"]
            )
