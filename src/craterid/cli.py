"""Command-line toolkit: index construction, identification, simulation,
Monte Carlo experiments, and metric self-tests.

Exit codes: 0 success/matched, 2 no match, 3 insufficient input, 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import LUNAR_RADIUS_KM
from .camera import (
    CAMERA_KEYS,
    parse_camera_file,
    pose_above,
    quaternion_to_matrix,
    read_key_values,
    read_text,
)
from .conic2d import EllipseParams, ellipse_to_conic
from .crater3d import crater_center
from .errors import CraterIdError
from .index import (
    GLOBAL_SCALE,
    LOCAL_SCALE,
    REGIONAL_SCALE,
    CATALOG_HEADER,
    IndexScale,
    build_index,
    load_catalog,
    load_index,
    save_index,
)
from .metrics import GateConfig, gaussian_angle, jaccard_distance
from .pipeline import (
    DETECTIONS_HEADER,
    IdentifyRequest,
    MonteCarloConfig,
    cells_to_jsonl,
    format_cells,
    identify,
    load_detections,
    monte_carlo,
    save_detections,
    synth_scene,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_MATCH = 2
EXIT_INSUFFICIENT = 3

_PRESETS = {"local": LOCAL_SCALE, "regional": REGIONAL_SCALE, "global": GLOBAL_SCALE}

_CATALOG_HELP = "catalogue CSV: " + ",".join(CATALOG_HEADER)
_DETECTIONS_HELP = "rim fits CSV: " + ",".join(DETECTIONS_HEADER)
_CAMERA_HELP = "camera file, 'key value' lines: " + ", ".join(CAMERA_KEYS)


def _parse_attitude(spec: str) -> np.ndarray:
    """Attitude from 'qx,qy,qz,qw' (scalar-last) or 9 row-major numbers,
    either inline or in a file; ``IdentifyRequest`` checks the rotation."""
    text = read_text(spec) if Path(spec).exists() else spec
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
        if len(vals) in (4, 9):
            return quaternion_to_matrix(vals) if len(vals) == 4 else np.reshape(vals, (3, 3))
    except ValueError as exc:
        raise CraterIdError(f"bad attitude {spec!r}: {exc}") from exc
    raise CraterIdError("attitude needs 4 (quaternion) or 9 (matrix) numbers")


def _load_catalog(path: str) -> list:
    """Catalogue records; its skipped rows become warnings on stderr."""
    records, problems = load_catalog(path)
    for p in problems:
        print(f"warning: {path}: {p}", file=sys.stderr)
    return records


def _load_indexes(paths: list[str], catalog: list, catalog_path: str) -> list:
    """The indexes, refused with ``CraterIdError`` unless each crater id of
    theirs is a catalogue id (an index built from another catalogue)."""
    known = {r.id for r in catalog}
    indexes = [load_index(p) for p in paths]
    for path, index in zip(paths, indexes):
        missing = [cid for cid in index.names if cid not in known]
        if missing:
            n, first = len(missing), missing[0]
            raise CraterIdError(f"{path}: {n} crater ids not in {catalog_path} (first: {first})")
    return indexes


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# Monte Carlo config keys, named as the MonteCarloConfig fields they set.
_MC_KEYS = dict(altitude_km=float, trials=int, noise_px=_floats, off_nadir_deg=_floats,
                seed=int, n_candidates=int, max_triads=int, gate_threshold=float)
_MC_REQUIRED = ("altitude_km", "trials", "noise_px")
_CONFIG_HELP = (
    f"config, 'key value' lines: {', '.join(_MC_KEYS)} (lists comma-separated); "
    f"required: {', '.join(_MC_REQUIRED)}"
)


# build-index options, named as the IndexScale fields they set.
_SCALE_FIELDS = (
    "k", "d_min", "d_max", "max_ellipticity", "min_arc_fraction", "descriptor_kind", "convention"
)
# Defaults of a scale that is not a preset; it must set the other fields.
_CUSTOM_DEFAULTS = dict(max_ellipticity=np.inf, min_arc_fraction=0.9, convention="ordered")


def _scale_from_args(args) -> IndexScale:
    """The preset's (or a custom scale's) defaults, overridden by every option
    given; a ``d_max`` <= 0 means unbounded."""
    preset = _PRESETS.get(args.scale)
    fields = asdict(preset) if preset else dict(_CUSTOM_DEFAULTS, name=args.scale)
    fields.update((f, getattr(args, f)) for f in _SCALE_FIELDS if getattr(args, f) is not None)
    missing = [f for f in _SCALE_FIELDS if f not in fields]
    if missing:
        flags = {"descriptor_kind": "kind"}
        names = ", ".join("--" + flags.get(f, f).replace("_", "-") for f in missing)
        raise CraterIdError(f"custom scale needs {names}")
    if fields["d_max"] <= 0:
        fields["d_max"] = np.inf
    try:
        return IndexScale(**fields)
    except ValueError as exc:
        raise CraterIdError(f"bad scale {args.scale!r}: {exc}") from exc


def _cmd_build_index(args) -> int:
    records = _load_catalog(args.catalog)
    scale = _scale_from_args(args)
    index = build_index(records, scale, radius=args.radius)
    save_index(index, args.out)
    print(
        f"{scale.name}: {len(index)} triads from {len(records)} craters "
        f"({index.skipped} skipped) -> {args.out}"
    )
    return EXIT_OK


def _cmd_identify(args) -> int:
    try:
        gate = GateConfig(sigma_img=args.sigma_img, threshold=args.threshold)
    except ValueError as exc:
        raise CraterIdError(f"--sigma-img and --threshold: {exc}") from exc
    catalog = _load_catalog(args.catalog)
    req = IdentifyRequest(
        detections=load_detections(args.detections),
        intrinsics=parse_camera_file(args.camera),
        attitude=_parse_attitude(args.attitude),
        indexes=_load_indexes(args.index, catalog, args.catalog),
        catalog=catalog,
        gate=gate,
        n_candidates=args.n_candidates,
        max_triads=args.max_triads,
    )
    result = identify(req)
    report = {
        "status": result.status,
        "correspondences": {str(k): v for k, v in sorted(result.correspondences.items())},
        "position_km": None if result.r_m is None else [float(v) for v in result.r_m],
        "per_crater": result.per_crater,
        "triads_tried": result.triads_tried,
        "scale": result.scale_name,
    }
    line = json.dumps(report, sort_keys=True)
    if args.report:
        Path(args.report).write_text(line + "\n")
    print(line)
    if result.status == "matched":
        return EXIT_OK
    if result.status == "insufficient-craters":
        return EXIT_INSUFFICIENT
    return EXIT_NO_MATCH


def _cmd_simulate(args) -> int:
    catalog = _load_catalog(args.catalog)
    intr = parse_camera_file(args.camera)
    sub = crater_center(np.deg2rad(args.lat), np.deg2rad(args.lon), 1.0)
    az = np.deg2rad(args.azimuth)
    pose = pose_above(sub, args.altitude, args.radius, az, np.deg2rad(args.off_nadir), az)
    rng = np.random.default_rng(args.seed)
    dets, truth = synth_scene(catalog, pose, intr, args.sigma_img, rng, args.radius)
    if not dets:
        print("no visible craters from this pose", file=sys.stderr)
        return EXIT_INSUFFICIENT
    save_detections(dets, args.out, truth=truth)
    print(f"{len(dets)} detections -> {args.out}")
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    settings = read_key_values(args.config, _MC_KEYS, _MC_REQUIRED)
    catalog = _load_catalog(args.catalog)
    intr = parse_camera_file(args.camera)
    indexes = _load_indexes(args.index, catalog, args.catalog)
    cfg = MonteCarloConfig(catalog=catalog, indexes=indexes, intrinsics=intr, **settings)
    cells = monte_carlo(cfg)
    print(format_cells(cells))
    if args.report:
        Path(args.report).write_text(cells_to_jsonl(cells))
    return EXIT_OK


def _cmd_metrics_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.cases
    failures = 0

    def random_conic():
        a = rng.uniform(1.0, 4.0)
        return ellipse_to_conic(
            EllipseParams(
                a=a,
                b=a * rng.uniform(0.4, 1.0),
                xc=rng.uniform(-5, 5),
                yc=rng.uniform(-5, 5),
                psi=rng.uniform(0, np.pi),
            )
        )

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    worst_sym = worst_tri = 0.0
    for _ in range(n):
        ca, cb, cc = random_conic(), random_conic(), random_conic()
        dab = gaussian_angle(ca, cb)
        worst_sym = max(worst_sym, abs(dab - gaussian_angle(cb, ca)))
        worst_tri = max(
            worst_tri, dab - gaussian_angle(ca, cc) - gaussian_angle(cc, cb)
        )
    check(f"gaussian-angle symmetry (worst {worst_sym:.2e})", worst_sym == 0.0)
    check(f"gaussian-angle triangle (worst slack {worst_tri:.2e})", worst_tri <= 1e-9)
    check("gaussian-angle minimality", gaussian_angle(ca, ca) == 0.0)
    dj = jaccard_distance(
        ellipse_to_conic(EllipseParams(1, 1, 0, 0)),
        ellipse_to_conic(EllipseParams(1, 1, 1, 0)),
        pitch=1 / 512,
    )
    lens = 2 * np.arccos(0.5) - 0.5 * np.sqrt(3)
    check(
        f"jaccard unit-circle lens ({dj:.5f})",
        abs(dj - (1 - lens / (2 * np.pi - lens))) < 1e-3,
    )
    return EXIT_OK if failures == 0 else EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="craterid", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-index", help="build a descriptor index from a catalog CSV")
    b.add_argument("--catalog", required=True, help=_CATALOG_HELP)
    b.add_argument("--out", required=True)
    b.add_argument(
        "--scale", default="local",
        help="local|regional|global (a preset; options override its values) or a custom name",
    )
    b.add_argument("--k", type=int)
    b.add_argument("--d-min", type=float, dest="d_min", help="smallest rim diameter, km")
    b.add_argument(
        "--d-max", type=float, dest="d_max", help="largest rim diameter, km; <= 0 means unbounded"
    )
    b.add_argument("--max-ellipticity", type=float, dest="max_ellipticity")
    b.add_argument("--min-arc-fraction", type=float, dest="min_arc_fraction")
    b.add_argument("--kind", choices=["coplanar7", "noncoplanar3"], dest="descriptor_kind")
    b.add_argument("--convention", choices=["ordered", "sorted", "p2"])
    b.add_argument("--radius", type=float, default=LUNAR_RADIUS_KM)
    b.set_defaults(func=_cmd_build_index)

    i = sub.add_parser("identify", help="match a detections file against indexes")
    i.add_argument("--detections", required=True, help=_DETECTIONS_HELP)
    i.add_argument("--camera", required=True, help=_CAMERA_HELP)
    i.add_argument("--attitude", required=True, help="qx,qy,qz,qw or 9 matrix values or file")
    i.add_argument("--index", action="append", required=True)
    i.add_argument("--catalog", required=True, help=_CATALOG_HELP)
    i.add_argument(
        "--sigma-img", type=float, default=0.5, dest="sigma_img",
        help="rim-fit noise, px, on each of a, b, uc, vc",
    )
    i.add_argument(
        "--threshold", type=float, default=13.277,
        help="bound on the chi2(4)-equivalent gate statistic",
    )
    i.add_argument("--n-candidates", type=int, default=3, dest="n_candidates")
    i.add_argument("--max-triads", type=int, default=2000, dest="max_triads")
    i.add_argument("--report")
    i.set_defaults(func=_cmd_identify)

    s = sub.add_parser("simulate", help="render detections from a catalog and pose")
    s.add_argument("--catalog", required=True, help=_CATALOG_HELP)
    s.add_argument("--camera", required=True, help=_CAMERA_HELP)
    s.add_argument("--lat", type=float, required=True, help="sub-point latitude, deg")
    s.add_argument("--lon", type=float, required=True, help="sub-point longitude, deg")
    s.add_argument("--altitude", type=float, required=True, help="km")
    s.add_argument("--off-nadir", type=float, default=0.0, dest="off_nadir", help="deg")
    s.add_argument("--azimuth", type=float, default=0.0, help="deg")
    s.add_argument("--sigma-img", type=float, default=0.0, dest="sigma_img")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--radius", type=float, default=LUNAR_RADIUS_KM)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)

    m = sub.add_parser("montecarlo", help="run the randomized matching experiment")
    m.add_argument("--catalog", required=True, help=_CATALOG_HELP)
    m.add_argument("--camera", required=True, help=_CAMERA_HELP)
    m.add_argument("--index", action="append", required=True)
    m.add_argument("--config", required=True, help=_CONFIG_HELP)
    m.add_argument("--report", help="write JSONL records here")
    m.set_defaults(func=_cmd_montecarlo)

    t = sub.add_parser("metrics-selftest", help="run the distance-metric axiom suites")
    t.add_argument("--cases", type=int, default=2000)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=_cmd_metrics_selftest)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CraterIdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
