"""Ellipse-pair distance metrics and the match acceptance gate.

Both metrics satisfy minimality, symmetry, the triangle inequality, and
invariance under a common similarity transform of the two ellipses:

* Gaussian angle: read each ellipse as the 1-sigma contour of a bivariate
  normal and take the arccos of the normalized density inner product
  (closed form).
* Jaccard distance: one minus intersection-over-union of the two interiors,
  estimated by counting sample points on a regular grid.

The acceptance gate assumes the ``synth_scene`` noise model: the fitted
(a, b, u_c, v_c) of a rim carry independent N(0, sigma_img^2) errors and
the orientation is exact.  To first order the Gaussian angle d between the
true and the perturbed rim then obeys

    d^2 ab / sigma_img^2 = (b/a) z1^2 + (a/b) z2^2 + (b/2a) z3^2 + (a/2b) z4^2

with z ~ N(0, I_4): a *weighted* chi-square, not chi2(4) for any scalar
rescaling of d.  The gate applies that law to -2 log cos d, which equals
d^2 to first order, is exactly quadratic in the center offset, and grows
without bound as d nears pi/2, where d^2 saturates; on d^2, two unrelated
rims (d = pi/2) of a very elongated detection fell inside the law's wide
tail.  ``gate_statistic`` maps it through the exact survival function of
the weighted chi-square onto the chi2(4) scale, so a chi2(4) quantile
threshold rejects its nominal share of true matches at every ellipticity.

``conic_to_gaussian`` and ``gaussian_angle`` also take stacks and work
element by element; where a single ellipse or pair raises, a stack holds
NaN, which no gate threshold accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri, exprel

from .conic2d import conic_center, is_proper_ellipse
from .errors import EmptyUnionError, NotAnEllipseError, NumericAnomalyError

__all__ = [
    "GaussianEllipse",
    "GateConfig",
    "conic_to_gaussian",
    "gaussian_angle",
    "jaccard_distance",
    "gaussian_angle_sf",
    "gate_statistic",
]

CHI2_4_P99 = 13.277


@dataclass(frozen=True)
class GaussianEllipse:
    """Center and positive-definite shape matrix of an ellipse.

    ``(u - y)^T Y (u - y) = 1`` on the rim; eigenvalues of ``Y`` are the
    inverse squared semi-axes.  A stack holds ``y`` as ``(..., 2)`` and
    ``shape`` as ``(..., 2, 2)``, NaN where the conic was not an ellipse.
    """

    y: np.ndarray
    shape: np.ndarray  # (..., 2, 2)


@dataclass(frozen=True)
class GateConfig:
    """Acceptance gate parameters.

    ``sigma_img`` is the rim-fit noise in pixels: independent N(0,
    sigma_img^2) errors on (a, b, u_c, v_c), the ``synth_scene`` model.
    ``threshold`` bounds the chi2(4)-equivalent ``gate_statistic``; the
    default 99th percentile of chi2 with 4 dof rejects 1% of true matches.
    """

    sigma_img: float
    threshold: float = CHI2_4_P99

    def __post_init__(self):
        if self.sigma_img <= 0.0 or self.threshold <= 0.0:
            raise ValueError("sigma_img and threshold must be positive")


def conic_to_gaussian(c: np.ndarray) -> GaussianEllipse:
    """Scale-free conversion of an ellipse conic to center + shape matrix."""
    c = np.asarray(c, dtype=float)
    ok = is_proper_ellipse(c)
    if c.ndim == 2 and not ok:
        raise NotAnEllipseError("conic is not a proper ellipse")
    y = conic_center(c)
    u = c[..., :2, :2]
    with np.errstate(divide="ignore", invalid="ignore"):
        shape = u / (_quad_form(y, u) - c[..., 2, 2])[..., None, None]
    # Positive definiteness is guaranteed for a proper ellipse; guard anyway.
    ok = ok & (shape[..., 0, 0] > 0.0) & (_det2(shape) > 0.0)
    if c.ndim == 2 and not ok:
        raise NotAnEllipseError("shape matrix is not positive definite")
    shape = 0.5 * (shape + shape.mT)
    return GaussianEllipse(
        y=np.where(ok[..., None], y, np.nan), shape=np.where(ok[..., None, None], shape, np.nan)
    )


def _det2(m: np.ndarray):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _inv2(m: np.ndarray) -> np.ndarray:
    adj = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], axis=-1)
    return adj.reshape(m.shape) / _det2(m)[..., None, None]


def _quad_form(x: np.ndarray, m: np.ndarray):
    """``x^T m x`` of 2-vectors ``(..., 2)`` and 2x2 matrices ``(..., 2, 2)``."""
    x0, x1 = x[..., 0], x[..., 1]
    xm0 = x0 * m[..., 0, 0] + x1 * m[..., 1, 0]
    return xm0 * x0 + (x0 * m[..., 0, 1] + x1 * m[..., 1, 1]) * x1


def gaussian_angle(ci, cj):
    """Gaussian-angle distance between two ellipses, in radians.

    Each operand is a conic (``(..., 3, 3)``) or its ``GaussianEllipse``;
    stacks broadcast and give an array.  A single pair raises
    ``NotAnEllipseError`` for a conic that is not a proper ellipse and
    ``NumericAnomalyError`` when the arccos argument leaves [0, 1]; a stack
    holds NaN there.
    """
    gi = ci if isinstance(ci, GaussianEllipse) else conic_to_gaussian(ci)
    gj = cj if isinstance(cj, GaussianEllipse) else conic_to_gaussian(cj)
    yi, yj = gi.shape, gj.shape
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = 4.0 * np.sqrt(_det2(yi) * _det2(yj)) / _det2(yi + yj)
        # Y_i (Y_i + Y_j)^-1 Y_j == (Y_i^-1 + Y_j^-1)^-1; the latter evaluates
        # bitwise-identically under operand swap, keeping the metric symmetric.
        arg = factor * np.exp(-0.5 * _quad_form(gi.y - gj.y, _inv2(_inv2(yi) + _inv2(yj))))
    same = (gi.y == gj.y).all(axis=-1) & (yi == yj).all(axis=(-2, -1))
    valid = same | ((-1e-12 <= arg) & (arg <= 1.0 + 1e-12))
    d = np.where(same, 0.0, np.arccos(np.clip(arg, 0.0, 1.0)))
    if np.ndim(d) == 0:
        if not valid:
            raise NumericAnomalyError(f"arccos argument {arg} outside [0, 1]")
        return float(d)
    return np.where(valid, d, np.nan)


def _interior_sign(c: np.ndarray, center: np.ndarray) -> float:
    xh = np.array([center[0], center[1], 1.0])
    v = xh @ c @ xh
    return -1.0 if v > 0.0 else 1.0


def _inside(c: np.ndarray, sign: float, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    form = (
        c[0, 0] * x * x
        + 2.0 * c[0, 1] * x * y
        + c[1, 1] * y * y
        + 2.0 * c[0, 2] * x
        + 2.0 * c[1, 2] * y
        + c[2, 2]
    )
    return sign * form < 0.0


def jaccard_distance(
    ci: np.ndarray,
    cj: np.ndarray,
    pitch: float | None = None,
    sample_points: np.ndarray | None = None,
) -> float:
    """Grid-sampled Jaccard distance between two ellipse interiors.

    Sample points lie on a regular grid of spacing ``pitch`` covering the
    joint bounding box.  The grid is anchored to the pair (origin at the
    midpoint of the two centers, x axis along the line joining them) so the
    estimate is invariant under a common similarity transform whenever
    ``pitch`` scales with the figure; ``pitch`` defaults to 1/256 of the
    geometric-mean semi-axis scale.  ``sample_points`` (N x 2) overrides the
    grid entirely, e.g. to share one sample set among several pairwise
    comparisons (on a shared sample set the result is an exact metric).
    """
    gi, gj = conic_to_gaussian(ci), conic_to_gaussian(cj)
    si = _interior_sign(ci, gi.y)
    sj = _interior_sign(cj, gj.y)

    if sample_points is None:
        mid = 0.5 * (gi.y + gj.y)
        axis = gj.y - gi.y
        sep = np.linalg.norm(axis)
        scale = (np.linalg.det(gi.shape) * np.linalg.det(gj.shape)) ** (-0.125)
        ex = axis / sep if sep > 1e-9 * scale else np.array([1.0, 0.0])
        ey = np.array([-ex[1], ex[0]])
        if pitch is None:
            pitch = scale / 256.0
        if pitch <= 0.0:
            raise ValueError("pitch must be positive")
        # Half-spans in the pair frame via the ellipse support function;
        # the grid is symmetric about the midpoint, so swapping the operands
        # (which flips ex and ey) reproduces the same sample set exactly.
        spans = []
        for g in (gi, gj):
            cov = _inv2(g.shape)
            off = g.y - mid
            spans.append(
                (
                    abs(off @ ex) + np.sqrt(ex @ cov @ ex),
                    abs(off @ ey) + np.sqrt(ey @ cov @ ey),
                )
            )
        half_x, half_y = (max(s[0] for s in spans), max(s[1] for s in spans))
        nx = int(np.ceil(half_x / pitch))
        ny = int(np.ceil(half_y / pitch))
        gx = pitch * np.arange(-nx, nx + 1)
        gy = pitch * np.arange(-ny, ny + 1)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        sample_points = mid + xx.reshape(-1, 1) * ex + yy.reshape(-1, 1) * ey

    in_i = _inside(ci, si, sample_points)
    in_j = _inside(cj, sj, sample_points)
    union = np.count_nonzero(in_i | in_j)
    if union == 0:
        raise EmptyUnionError("no grid samples inside either ellipse")
    both = np.count_nonzero(in_i & in_j)
    return 1.0 - both / union


# Midpoint nodes over half a period of the polar angle (the integrand is
# even about pi/2).  It is smooth and periodic, so the rule converges
# geometrically: 16 nodes give a relative error under 1e-12 for a/b <= 2
# and under 1e-5 at a/b = 10.
_SF_NODES = 16
_SF_COS2 = np.cos((np.arange(_SF_NODES) + 0.5) * 0.5 * np.pi / _SF_NODES) ** 2
_SF_CHUNK = 4096


def _weighted_chi2_sf(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P(Q > x) for Q = r z1^2 + z2^2/r + (r z3^2 + z4^2/r)/2, z ~ N(0, I_4).

    Each pair r z^2 + z'^2/r equals R g(phi) in polar form, with R ~
    Exp(mean 2), phi uniform and g(phi) = r cos^2(phi) + sin^2(phi)/r.
    Given both angles, Q is a sum of two exponentials with means m1 =
    2 g(phi1) and m2 = g(phi2), whose survival function is closed form; the
    result averages it over a fixed grid of angles.  Every term is positive,
    so the relative accuracy holds far into the tail.
    """
    g = r[:, None] * _SF_COS2 + (1.0 - _SF_COS2) / r[:, None]
    m1 = 2.0 * g[:, :, None]
    m2 = g[:, None, :]
    hi = np.maximum(m1, m2)
    xx = x[:, None, None]
    # (hi e^{-x/hi} - lo e^{-x/lo}) / (hi - lo), rewritten without the
    # cancellation as lo -> hi: e^{-x/hi} (1 + (x/hi) (1 - e^{-delta})/delta).
    t = xx / hi
    delta = xx / np.minimum(m1, m2) - t
    return (np.exp(-t) * (1.0 + t * exprel(-delta))).mean(axis=(1, 2))


def gaussian_angle_sf(d, a, b, sigma_img: float):
    """P(D > d) for the Gaussian angle D of a true match with semi-axes (a, b).

    Applies the first-order weighted chi-square law of ``d^2 ab /
    sigma_img^2`` under the gate's noise model to ``-2 log cos d`` in place
    of d^2 (see the module docstring).  Accepts broadcastable arrays;
    scalars in, float out.
    """
    d, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (d, a, b)))
    if np.any(a <= 0.0) or np.any(b <= 0.0) or sigma_img <= 0.0:
        raise ValueError("semi-axes and sigma_img must be positive")
    x = (-2.0 * np.log(np.cos(np.minimum(d, 0.5 * np.pi))) * a * b / sigma_img**2).ravel()
    r = (b / a).ravel()
    out = np.empty_like(x)
    for s in range(0, x.size, _SF_CHUNK):
        out[s : s + _SF_CHUNK] = _weighted_chi2_sf(x[s : s + _SF_CHUNK], r[s : s + _SF_CHUNK])
    return out.reshape(d.shape) if d.ndim else float(out[0])


def gate_statistic(d, a, b, sigma_img: float):
    """Chi2(4)-equivalent gate statistic of Gaussian-angle distances.

    The chi2(4) value with the same tail probability as d under the gate's
    noise model, so ``GateConfig.threshold`` keeps its chi2(4) meaning at
    every ellipticity.  Going through the survival function avoids the
    cancellation of 1 - CDF; a tail probability that underflows (beyond
    about 1500 on the d^2 ab / sigma_img^2 scale for a circular rim) maps
    to inf.  Accepts broadcastable arrays; scalars in, float out.
    """
    stat = chdtri(4.0, gaussian_angle_sf(d, a, b, sigma_img))
    return stat if np.ndim(stat) else float(stat)

