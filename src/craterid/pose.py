"""Least-squares camera position from matched image/catalog conics.

With known attitude and intrinsics, each crater constrains the camera
position through the homography relation between its image conic and its
in-plane catalog conic.  The correspondences are a stack of
:func:`moon_conic` forms of the image conics and the ``CraterFrame`` table of
the matching craters, row for row.  The per-crater relative scale comes
first from the position-independent 2x2 block; the stacked 2-row linear
blocks are then solved by orthogonal factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Intrinsics, k_matrix
from .crater3d import LUNAR_RADIUS_KM, CraterFrame
from .errors import DegenerateBlockError, RankDeficientGeometryError

__all__ = ["PositionEstimate", "moon_conic", "solve_position"]


@dataclass(frozen=True)
class PositionEstimate:
    """Solved selenographic camera position."""

    r_m: np.ndarray
    inside_moon: bool


def moon_conic(image_conic: np.ndarray, t_mc: np.ndarray, intr: Intrinsics) -> np.ndarray:
    """Image conic in Moon axes, ``T^T K^T C K T`` symmetrized; it depends on
    the detection and the attitude, not on the camera position.  A stack of
    image conics ``(..., 3, 3)`` gives a stack."""
    kmat = k_matrix(intr)
    b = t_mc.T @ kmat.T @ image_conic @ kmat @ t_mc
    return 0.5 * (b + b.mT)


def _scale_and_block(
    b: np.ndarray, t_em: np.ndarray, conic: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Homography scales ``(n,)`` and 2x3 position blocks ``(n, 2, 3)`` of n
    craters, from their Moon-frame conics, frame rotations ``CraterFrame.t_em``
    and plane conics ``CraterFrame.conic``, each stacked ``(n, 3, 3)``."""
    plane_axes = t_em[:, :, :2]
    block = plane_axes.mT @ b
    # Frobenius products of 2x2 blocks, as (n, 1, 4) @ (n, 4, 1) products.
    lhs = conic[:, :2, :2].reshape(-1, 1, 4)
    denom = (lhs @ lhs.mT)[:, 0, 0]
    if denom.min() < 1e-14:
        raise DegenerateBlockError("catalog conic block is numerically zero")
    return (lhs @ (block @ plane_axes).reshape(-1, 4, 1))[:, 0, 0] / denom, block


def solve_position(
    moon_conics: np.ndarray, frames: CraterFrame, radius: float = LUNAR_RADIUS_KM
) -> PositionEstimate:
    """Camera position from the Moon-frame conics ``(n, 3, 3)`` of n >= 2
    craters and their n-row frame table.

    Stacks the per-crater 2x3 blocks and solves the over-determined system
    in the least-squares sense.  ``inside_moon`` flags estimates within a
    1 km guard band of the reference sphere; callers treat those as
    physically inadmissible.
    """
    if len(frames) < 2:
        raise ValueError("need at least two correspondences")
    scale, block = _scale_and_block(moon_conics, frames.t_em, frames.conic)
    rhs = (block @ frames.p_c[:, :, None])[:, :, 0] - scale[:, None] * frames.conic[:, :2, 2]
    r_m, _, rank, _ = np.linalg.lstsq(block.reshape(-1, 3), rhs.reshape(-1), rcond=None)
    if rank < 3:
        raise RankDeficientGeometryError("crater geometry does not determine position")
    return PositionEstimate(r_m=r_m, inside_moon=bool(np.linalg.norm(r_m) <= radius + 1.0))
