"""Calibrated perspective camera and analytic conic projection.

Conventions: +z along the boresight, +u right (columns), +v down (rows),
integer pixel coordinates at pixel centers.  The projection matrix for an
absolute pose is ``P = K T [I | -r]`` with ``T`` the selenographic-to-camera
attitude and ``r`` the selenographic camera position.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conic2d import (
    EllipseParams,
    adjugate,
    conic_to_ellipse,
    is_proper_ellipse,
    normalize_unit_det,
)
from .crater3d import CraterFrame
from .errors import (
    BehindCameraError,
    CraterIdError,
    DegenerateViewError,
    NotAnEllipseError,
    SchemaError,
    SingularHomographyError,
)

__all__ = [
    "Intrinsics",
    "CameraPose",
    "k_matrix",
    "projection_matrix",
    "project_point",
    "project_disk_quadric",
    "crater_homography",
    "crater_visible",
    "rim_inside_image",
    "look_at_pose",
    "pose_above",
    "quaternion_to_matrix",
    "read_text",
    "read_key_values",
    "CAMERA_KEYS",
    "parse_camera_file",
]


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole calibration: focal ratios, skew, principal point, image size."""

    dx: float
    dy: float
    skew: float = 0.0
    up: float = 0.0
    vp: float = 0.0
    rows: int = 0
    cols: int = 0

    def __post_init__(self):
        if self.dx <= 0.0 or self.dy <= 0.0:
            raise ValueError("focal ratios must be positive")


@dataclass(frozen=True)
class CameraPose:
    """Absolute pose: attitude (selenographic -> camera) and position (km)."""

    t_mc: np.ndarray
    r_m: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_mc, dtype=float)
        if t.shape != (3, 3):
            raise ValueError("attitude must be 3x3")
        # An absolute bound: allclose's relative term would let (1 + 4e-6) I pass.
        if not np.abs(t @ t.T - np.eye(3)).max() <= 1e-9 or np.linalg.det(t) < 0.0:
            raise ValueError("attitude must be a proper rotation (T T^T = I to 1e-9, det T > 0)")
        object.__setattr__(self, "t_mc", t)
        object.__setattr__(self, "r_m", np.asarray(self.r_m, dtype=float).reshape(3))


def k_matrix(intr: Intrinsics) -> np.ndarray:
    return np.array(
        [
            [intr.dx, intr.skew, intr.up],
            [0.0, intr.dy, intr.vp],
            [0.0, 0.0, 1.0],
        ]
    )


def projection_matrix(intr: Intrinsics, pose: CameraPose) -> np.ndarray:
    """3x4 camera projection matrix ``K T [I | -r]``."""
    ext = np.hstack([np.eye(3), -pose.r_m.reshape(3, 1)])
    return k_matrix(intr) @ pose.t_mc @ ext


def project_point(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pixel coordinates of a 3D point; raises if not in front of the camera."""
    uh = p @ np.append(x, 1.0)
    if uh[2] <= 1e-12:
        raise BehindCameraError("point not strictly in front of the camera")
    return uh[:2] / uh[2]


def project_disk_quadric(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Image conic locus of a disk quadric, determinant-normalized.

    The envelope maps as ``A* = P Q P^T``; the locus is its adjugate.  Raises
    ``DegenerateViewError`` when the projection collapses (camera in the
    crater plane) and ``NotAnEllipseError`` when the apparent contour is not
    an ellipse (crater seen edge-on or from behind).  Stacks of cameras
    ``(..., 3, 4)`` and quadrics ``(..., 4, 4)`` broadcast; there an element
    that would raise is NaN instead.
    """
    env = p @ q @ p.mT
    env = 0.5 * (env + env.mT)
    locus = adjugate(env)
    ok = is_proper_ellipse(locus)
    if env.ndim == 2 and not ok:
        sv = np.linalg.svd(env, compute_uv=False)
        if sv[0] == 0.0 or sv[2] <= 1e-9 * sv[0]:
            raise DegenerateViewError("projected envelope is rank deficient")
        raise NotAnEllipseError("projected contour is not a proper ellipse")
    if ok.all():
        return normalize_unit_det(locus)
    # Only proper ellipses are normalized.
    proper = ok[..., None, None]
    return np.where(proper, normalize_unit_det(np.where(proper, locus, np.eye(3))), np.nan)


def crater_homography(p: np.ndarray, frame: CraterFrame) -> np.ndarray:
    """Homography from the crater's in-plane coordinates to image pixels;
    ``frame`` is one row of a crater table."""
    h = p @ np.vstack([np.column_stack([frame.t_em[:, :2], frame.p_c]), [0.0, 0.0, 1.0]])
    if abs(np.linalg.det(h)) < 1e-12 * np.linalg.norm(h, ord="fro") ** 3:
        raise SingularHomographyError("view direction lies in the crater plane")
    return h


def crater_visible(pose: CameraPose, intr: Intrinsics, frame: CraterFrame) -> bool:
    """Full-ellipse visibility test of one row ``frame`` of a crater table.

    True when the crater faces the camera and the complete projected rim
    bounding box lies inside the image bounds (when the intrinsics carry a
    size).  Partially visible rims are treated as not visible.
    """
    if frame.t_em[:, 2] @ (pose.r_m - frame.p_c) <= 0.0:
        return False
    p = projection_matrix(intr, pose)
    # Behind-camera check on the rim center.
    xh = p @ np.append(frame.p_c, 1.0)
    if xh[2] <= 0.0:
        return False
    try:
        ell = conic_to_ellipse(project_disk_quadric(p, frame.quadric))
    except CraterIdError:
        return False
    return rim_inside_image(ell, intr)


def rim_inside_image(ell: EllipseParams, intr: Intrinsics) -> bool:
    """True when the whole image ellipse lies inside the image bounds, or
    when the intrinsics carry no image size."""
    if intr.rows <= 0 or intr.cols <= 0:
        return True
    # Axis-aligned half-extents of the projected ellipse.
    sp, cp = np.sin(ell.psi), np.cos(ell.psi)
    wu = np.sqrt((ell.a * cp) ** 2 + (ell.b * sp) ** 2)
    wv = np.sqrt((ell.a * sp) ** 2 + (ell.b * cp) ** 2)
    return (
        ell.xc - wu >= -0.5
        and ell.xc + wu <= intr.cols - 0.5
        and ell.yc - wv >= -0.5
        and ell.yc + wv <= intr.rows - 0.5
    )


def look_at_pose(r_m: np.ndarray, target: np.ndarray, up_hint: np.ndarray) -> CameraPose:
    """Pose whose boresight points from ``r_m`` toward ``target``.

    ``up_hint`` fixes the roll: the camera +y (image down) axis is aligned
    against it as closely as orthogonality allows.
    """
    r_m = np.asarray(r_m, dtype=float)
    z = np.asarray(target, dtype=float) - r_m
    z = z / np.linalg.norm(z)
    up = np.asarray(up_hint, dtype=float)
    x = np.cross(-up, z)
    nx = np.linalg.norm(x)
    if nx < 1e-12:
        raise ValueError("up_hint parallel to the boresight")
    x /= nx
    y = np.cross(z, x)
    return CameraPose(t_mc=np.vstack([x, y, z]), r_m=r_m)


def pose_above(
    u: np.ndarray, altitude: float, radius: float, azimuth: float,
    tilt: float = 0.0, tilt_azimuth: float = 0.0,
) -> CameraPose:
    """Camera ``altitude`` above unit sub-point ``u``; a non-zero ``tilt`` leans the
    boresight from nadir.  Azimuths (rad) turn from ``e1 = helper x u`` to ``u x e1``."""
    r_cam = (radius + altitude) * u
    helper = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.95 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, u)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    up = np.cos(azimuth) * e1 + np.sin(azimuth) * e2
    if tilt == 0.0:
        return look_at_pose(r_cam, np.zeros(3), up_hint=up)
    t_dir = np.cos(tilt_azimuth) * e1 + np.sin(tilt_azimuth) * e2
    boresight = -np.cos(tilt) * u + np.sin(tilt) * t_dir
    return look_at_pose(r_cam, r_cam + boresight * (altitude + radius), up_hint=up)


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a scalar-last unit quaternion [qx, qy, qz, qw]."""
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    x, y, z, w = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def read_text(path: str | Path) -> str:
    """Contents of the UTF-8 text file ``path``, the encoding of every text
    input; ``CraterIdError`` naming the file if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CraterIdError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CraterIdError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc


def read_key_values(path: str | Path, parsers: dict, required: tuple[str, ...]) -> dict:
    """``{key: parsers[key](value)}`` of a key-value text file.

    The camera file and the Monte Carlo config: one ``key value`` or
    ``key=value`` per line, the value being the rest of the line; '#' starts
    a comment.  A repeated key keeps its last value.  An unknown key, a line
    without a value or a value its parser rejects raises ``SchemaError`` at
    ``file:line``; so does a missing ``required`` key, naming the file.
    """
    values = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("=", " ", 1).split(None, 1)
        if len(parts) != 2:
            raise SchemaError(f"{path}:{lineno}: expected 'key value', got {raw!r}")
        key, val = parts
        if key not in parsers:
            raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](val)
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    missing = [k for k in required if k not in values]
    if missing:
        raise SchemaError(f"{path}: missing key(s) {', '.join(missing)}")
    return values


CAMERA_KEYS = ("dx", "dy", "skew", "up", "vp", "rows", "cols")


def parse_camera_file(path: str | Path) -> Intrinsics:
    """Intrinsics from a :func:`read_key_values` file that sets every field:
    focal lengths ``dx``, ``dy``, ``skew`` and principal point ``up``, ``vp``
    in pixels, image ``rows`` and ``cols`` (truncated to integers)."""
    values = read_key_values(path, dict.fromkeys(CAMERA_KEYS, float), CAMERA_KEYS)
    return Intrinsics(**(values | {"rows": int(values["rows"]), "cols": int(values["cols"])}))
