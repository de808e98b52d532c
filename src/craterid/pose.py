"""Least-squares camera position from matched image/catalog conics.

With known attitude and intrinsics, each crater constrains the camera
position through the homography relation between its image conic and its
in-plane catalog conic.  A correspondence is a pair (:func:`moon_conic` of
the image conic, ``CraterFrame``).  The per-crater relative scale comes first
from the position-independent 2x2 block; the stacked 2-row linear blocks are
then solved by orthogonal factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import Intrinsics, k_matrix
from .crater3d import LUNAR_RADIUS_KM, CraterFrame
from .errors import DegenerateBlockError, RankDeficientGeometryError

__all__ = ["PositionEstimate", "moon_conic", "solve_position"]

_S = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # plane-coordinate selector
_K3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PositionEstimate:
    """Solved selenographic camera position."""

    r_m: np.ndarray
    inside_moon: bool


def moon_conic(image_conic: np.ndarray, t_mc: np.ndarray, intr: Intrinsics) -> np.ndarray:
    """Image conic in Moon axes, ``T^T K^T C K T`` symmetrized; it depends on
    the detection and the attitude, not on the camera position."""
    kmat = k_matrix(intr)
    b = t_mc.T @ kmat.T @ image_conic @ kmat @ t_mc
    return 0.5 * (b + b.T)


def _scale_and_block(b: np.ndarray, frame: CraterFrame) -> tuple[float, np.ndarray]:
    """Homography scale and 2x3 position block of one crater."""
    block = _S.T @ frame.t_em.T @ b
    lhs = _S.T @ frame.conic @ _S
    rhs = block @ frame.t_em @ _S
    denom = float(np.sum(lhs * lhs))
    if denom < 1e-14:
        raise DegenerateBlockError("catalog conic block is numerically zero")
    return float(np.sum(lhs * rhs)) / denom, block


def solve_position(
    pairs: Sequence[tuple[np.ndarray, CraterFrame]],
    radius: float = LUNAR_RADIUS_KM,
) -> PositionEstimate:
    """Camera position from two or more (Moon-frame conic, frame) pairs.

    Stacks the per-crater 2x3 blocks and solves the over-determined system
    in the least-squares sense.  ``inside_moon`` flags estimates within a
    1 km guard band of the reference sphere; callers treat those as
    physically inadmissible.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two correspondences")
    rows = []
    rhs = []
    for b, frame in pairs:
        s_hat, block = _scale_and_block(b, frame)
        rows.append(block)
        rhs.append(block @ frame.p_c - s_hat * (_S.T @ frame.conic @ _K3))
    r_m, _, rank, _ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    if rank < 3:
        raise RankDeficientGeometryError("crater geometry does not determine position")
    return PositionEstimate(r_m=r_m, inside_moon=bool(np.linalg.norm(r_m) <= radius + 1.0))
