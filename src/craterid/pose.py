"""Least-squares camera position from matched image/catalog conics.

With known attitude and intrinsics, each crater correspondence constrains
the camera position through the homography relation between its image conic
and its in-plane catalog conic.  The per-crater relative scale is estimated
first from the position-independent 2x2 block, then the stacked 2-row
linear blocks are solved by orthogonal factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import Intrinsics, k_matrix
from .conic2d import EllipseParams, ellipse_to_conic
from .crater3d import LUNAR_RADIUS_KM, CraterFrame, CraterRecord, build_frame
from .errors import DegenerateBlockError, RankDeficientGeometryError

__all__ = ["ConicCorrespondence", "PositionEstimate", "estimate_scale", "solve_position"]

_S = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # plane-coordinate selector
_K3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ConicCorrespondence:
    """Observed image conic matched to a catalog crater."""

    image_conic: np.ndarray
    crater: CraterRecord
    frame: CraterFrame

    @classmethod
    def from_record(
        cls, image_conic: np.ndarray, crater: CraterRecord, radius: float = LUNAR_RADIUS_KM
    ) -> "ConicCorrespondence":
        return cls(image_conic=image_conic, crater=crater, frame=build_frame(crater, radius))

    def plane_conic(self) -> np.ndarray:
        """Catalog rim conic in the crater's own plane coordinates."""
        return ellipse_to_conic(
            EllipseParams(a=self.crater.a, b=self.crater.b, psi=self.crater.psi)
        )


@dataclass(frozen=True)
class PositionEstimate:
    """Solved selenographic camera position."""

    r_m: np.ndarray
    inside_moon: bool


def _b_matrix(image_conic: np.ndarray, t_mc: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    b = t_mc.T @ kmat.T @ image_conic @ kmat @ t_mc
    return 0.5 * (b + b.T)


def _scale_and_block(corr: ConicCorrespondence, t_mc: np.ndarray, kmat: np.ndarray) -> tuple:
    """Homography scale, 2x3 position block and plane conic of one crater."""
    b = _b_matrix(corr.image_conic, t_mc, kmat)
    c = corr.plane_conic()
    block = _S.T @ corr.frame.t_em.T @ b
    lhs = _S.T @ c @ _S
    rhs = block @ corr.frame.t_em @ _S
    denom = float(np.sum(lhs * lhs))
    if denom < 1e-14:
        raise DegenerateBlockError("catalog conic block is numerically zero")
    return float(np.sum(lhs * rhs)) / denom, block, c


def estimate_scale(
    corr: ConicCorrespondence, t_mc: np.ndarray, intr: Intrinsics
) -> float:
    """Least-squares homography scale from the position-independent block."""
    return _scale_and_block(corr, t_mc, k_matrix(intr))[0]


def solve_position(
    corrs: Sequence[ConicCorrespondence],
    t_mc: np.ndarray,
    intr: Intrinsics,
    radius: float = LUNAR_RADIUS_KM,
) -> PositionEstimate:
    """Camera position from two or more conic correspondences.

    Stacks the per-crater 2x3 blocks and solves the over-determined system
    in the least-squares sense.  ``inside_moon`` flags estimates within a
    1 km guard band of the reference sphere; callers treat those as
    physically inadmissible.
    """
    if len(corrs) < 2:
        raise ValueError("need at least two correspondences")
    kmat = k_matrix(intr)
    rows = []
    rhs = []
    for corr in corrs:
        s_hat, block, c = _scale_and_block(corr, t_mc, kmat)
        rows.append(block)
        rhs.append(block @ corr.frame.p_c - s_hat * (_S.T @ c @ _K3))
    r_m, _, rank, _ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    if rank < 3:
        raise RankDeficientGeometryError("crater geometry does not determine position")
    return PositionEstimate(r_m=r_m, inside_moon=bool(np.linalg.norm(r_m) <= radius + 1.0))
