"""Algebra of 2D conics.

Conics are represented by 3x3 real symmetric matrices of ambiguous scale
(plain ``numpy`` arrays).  A point ``(x, y)`` lies on the conic when
``[x, y, 1] C [x, y, 1]^T = 0``; the adjugate of ``C`` plays the same role
for tangent lines.  Lines are length-3 arrays, also of ambiguous scale.

``is_proper_ellipse``, ``conic_center``, ``conic_det``, ``adjugate``,
``normalize_unit_det`` and the degenerate-pencil functions also take stacks
``(..., 3, 3)`` (and lines ``(..., 3)``); where a single conic raises, a
stack marks the element False or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousSeparationError,
    CraterIdError,
    InvalidAxesError,
    NotAnEllipseError,
    SingularConicError,
    WrongEigenvalueBranchError,
)

__all__ = [
    "EllipseParams",
    "ellipse_to_conic",
    "axes_to_conic",
    "conic_to_ellipse",
    "conic_center",
    "is_proper_ellipse",
    "adjugate",
    "normalize_unit_det",
    "degenerate_pencil_eigenvalues",
    "split_degenerate_conic",
    "line_between_conics",
    "pencil_separating_line",
]


@dataclass(frozen=True)
class EllipseParams:
    """Explicit ellipse parameters.

    ``psi`` is measured counterclockwise from the +x axis of whatever frame
    the ellipse lives in and is reduced to [0, pi) on construction.
    """

    a: float
    b: float
    xc: float = 0.0
    yc: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        if not (self.a >= self.b > 0.0):
            raise InvalidAxesError(f"need a >= b > 0, got a={self.a}, b={self.b}")
        object.__setattr__(self, "psi", float(self.psi) % np.pi)


def ellipse_to_conic(e: EllipseParams) -> np.ndarray:
    """Implicit 3x3 conic locus matrix of an ellipse.

    The returned scale is the one for which interior points give a negative
    quadratic form and ``B^2 - 4AC = -4 a^2 b^2`` holds exactly.
    """
    return axes_to_conic(e.a, e.b, e.psi, e.xc, e.yc)


def axes_to_conic(a, b, psi, xc=0.0, yc=0.0) -> np.ndarray:
    """:func:`ellipse_to_conic` of unchecked parameters, ``psi`` already in
    [0, pi); arrays of them, of one shape, give a stack ``(..., 3, 3)``."""
    sp, cp = np.sin(psi), np.cos(psi)
    a2, b2 = a * a, b * b
    A = a2 * sp * sp + b2 * cp * cp
    B = 2.0 * (b2 - a2) * cp * sp
    C = a2 * cp * cp + b2 * sp * sp
    D = -2.0 * A * xc - B * yc
    F = -B * xc - 2.0 * C * yc
    G = A * xc * xc + B * xc * yc + C * yc * yc - a2 * b2
    out = np.array([[A, B / 2.0, D / 2.0], [B / 2.0, C, F / 2.0], [D / 2.0, F / 2.0, G]])
    return out if out.ndim == 2 else np.ascontiguousarray(np.moveaxis(out, (0, 1), (-2, -1)))


def is_proper_ellipse(c: np.ndarray):
    """True where ``c`` describes a real, non-degenerate ellipse.

    Checks the ellipse discriminant and the classical realness condition
    ``det(C) * (A + C) < 0``; both are invariant under the ambiguous conic
    scale (including its sign).  A non-finite conic is not an ellipse.
    """
    c = np.asarray(c, dtype=float)
    finite = np.isfinite(c).all(axis=(-2, -1))
    if not (finite if c.ndim == 2 else finite.all()):
        c = np.where(finite[..., None, None], c, 0.0)  # the zero matrix is no ellipse
    A, C = c[..., 0, 0], c[..., 1, 1]
    B = 2.0 * c[..., 0, 1]
    return (B * B - 4.0 * A * C < 0.0) & (np.linalg.det(c) * (A + C) < 0.0)


def conic_center(c: np.ndarray) -> np.ndarray:
    """Euclidean center of a central conic (scale-free)."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        y = conic_center(c[None])[0]
        if not np.isfinite(y).all():
            raise NotAnEllipseError("conic has no finite center")
        return y
    u = c[..., :2, :2]
    u_det = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    # A non-finite entry of U makes its determinant non-finite.
    central = np.isfinite(u_det) & (u_det != 0.0)
    if central.all():
        return np.linalg.solve(u, -c[..., :2, 2:])[..., 0]
    y = np.linalg.solve(np.where(central[..., None, None], u, np.eye(2)), -c[..., :2, 2:])
    return np.where(central[..., None], y[..., 0], np.nan)


def conic_to_ellipse(c: np.ndarray) -> EllipseParams:
    """Recover explicit ellipse parameters from a conic locus matrix.

    Inverse of :func:`ellipse_to_conic` up to the ambiguous conic scale.
    Raises ``NotAnEllipseError`` for degenerate or non-elliptical input.
    """
    c = np.asarray(c, dtype=float)
    if not is_proper_ellipse(c):
        raise NotAnEllipseError("matrix is not a proper ellipse")
    center = conic_center(c)
    U = c[:2, :2]
    # Value of the quadratic form at the center; the centered conic is
    # (x - xc)^T U (x - xc) + g0 = 0.
    xc_h = np.array([center[0], center[1], 1.0])
    g0 = xc_h @ c @ xc_h
    if g0 == 0.0:
        raise NotAnEllipseError("conic degenerates to a point")
    evals, evecs = np.linalg.eigh(U / -g0)
    if evals[1] < 0.0:
        # Opposite overall sign convention (scale ambiguity); flip.
        evals = -evals[::-1]
        evecs = evecs[:, ::-1]
    if evals[0] <= 0.0:
        raise NotAnEllipseError("conic is not an ellipse (indefinite center form)")
    # eigh sorts ascending, so the first eigenvalue gives the major axis.
    a = 1.0 / np.sqrt(evals[0])
    b = 1.0 / np.sqrt(evals[1])
    if np.isclose(a, b, rtol=1e-12, atol=0.0):
        psi = 0.0
    else:
        psi = np.arctan2(evecs[1, 0], evecs[0, 0])
    return EllipseParams(a=a, b=b, xc=center[0], yc=center[1], psi=psi)


def conic_det(c: np.ndarray):
    """Determinant of a central conic, evaluated without cancellation.

    The determinant is invariant under translation to the conic center,
    where the matrix is block diagonal: det = det(U) * (c22 + w . y).  For
    pixel-frame conics with large center coordinates this is many digits
    more accurate than a direct 3x3 determinant.  A conic without a center
    gets the direct determinant.
    """
    if c.ndim == 2:
        return float(conic_det(c[None])[0])
    u_det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
    y = conic_center(c)
    d = u_det * (c[..., 2, 2] + c[..., 0, 2] * y[..., 0] + c[..., 1, 2] * y[..., 1])
    central = u_det != 0.0
    if not central.all():
        with np.errstate(invalid="ignore"):
            d = np.where(central, d, np.linalg.det(c))
    return d


def adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 3x3 matrix, valid for singular input.

    Satisfies ``m @ adjugate(m) == det(m) * I``.  Written out explicitly;
    this sits on the hot path of index construction.  The names below are
    the entries of ``m.T``, whose leading axes index the 3x3 entries (the
    stack axes follow, reversed), so one matrix costs scalar work.  The
    cofactor formulas are symmetric under transposition, and the final
    ``.T`` gives the adjugate of ``m`` with the stack axes back in front, in
    C order as the matrix products that follow expect for their rounding.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(m).T
    adj_t = np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    )
    return np.ascontiguousarray(adj_t.T)


def normalize_unit_det(c: np.ndarray) -> np.ndarray:
    """Rescale a conic so its determinant is exactly +1 (to roundoff).

    A second scaling pass polishes the determinant of badly conditioned
    matrices (pixel-frame conics can span many orders of magnitude).  A
    singular or non-finite conic raises ``SingularConicError``; in a stack it
    becomes NaN.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        out = normalize_unit_det(c[None])[0]
        if np.isnan(out).any():
            raise SingularConicError("cannot determinant-normalize a singular conic")
        return out
    d = conic_det(c)
    good = (d != 0.0) & np.isfinite(d)
    out = c * np.cbrt(1.0 / np.where(good, d, np.nan))[..., None, None]
    d2 = conic_det(out)
    polish = (np.abs(d2 - 1.0) > 1e-13) & (d2 > 0.0)
    return out * np.where(polish, np.cbrt(1.0 / d2), 1.0)[..., None, None] if polish.any() else out


def _refuse(single: bool, bad, error: type[CraterIdError], message: str) -> None:
    """The scalar-in, scalar-out rule of the stacked functions: a single
    element for which ``bad`` holds raises ``error``; a stack carries on, and
    the function marks the element NaN."""
    if single and bad:
        raise error(message)


def degenerate_pencil_eigenvalues(ai: np.ndarray, aj: np.ndarray) -> np.ndarray:
    """The three scalars lambda with det(lambda*ai + aj) = 0.

    Computed as the eigenvalues of ``(-ai)^-1 aj``; entries may be complex.
    A singular ``ai`` raises ``SingularConicError``, as does a pencil that is
    not finite; in a stack the element's three entries are NaN.
    """
    ai, aj = np.asarray(ai, dtype=float), np.asarray(aj, dtype=float)
    single = ai.ndim == 2
    with np.errstate(invalid="ignore", over="ignore"):
        det = np.linalg.det(ai)
    # An exact zero pivot, which makes solve raise, makes the determinant 0.
    ok = np.isfinite(det) & (det != 0.0)
    _refuse(single, ~ok, SingularConicError, "first conic of the pencil is singular")
    m = np.linalg.solve(-np.where(ok[..., None, None], ai, np.eye(3)), aj)
    ok &= np.isfinite(m).all(axis=(-2, -1))
    _refuse(single, ~ok, SingularConicError, "pencil of the two conics is not finite")
    lams = np.linalg.eigvals(np.where(ok[..., None, None], m, 0.0))
    return np.where(ok[..., None], lams, np.nan)


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    x, y, z = np.moveaxis(v, -1, 0)
    o = np.zeros_like(x)
    return np.stack([np.stack(r, axis=-1) for r in ((o, -z, y), (z, o, -x), (-y, x, o))], axis=-2)


def _pick(m: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
    """Entry ``index`` of each element of ``m`` along ``axis``."""
    index = index.reshape(index.shape + (1,) * (m.ndim - index.ndim))
    return np.take_along_axis(m, index, axis).squeeze(axis)


def split_degenerate_conic(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a rank-2 conic into its two real lines ``g`` and ``h``.

    ``b`` must be proportional to ``g h^T + h g^T``.  The intersection point
    of the two lines is recovered from the adjugate (whose diagonal must be
    non-positive for a real line pair), then the rank-1 matrix
    ``b + [z]_x = 2 g h^T`` yields the lines themselves.  A complex line pair
    raises ``WrongEigenvalueBranchError``; in a stack its lines are NaN.
    """
    b = np.asarray(b, dtype=float)
    badj = adjugate(b)
    diag = np.diagonal(badj, axis1=-2, axis2=-1)
    k = np.argmax(np.abs(diag), axis=-1)
    dk = _pick(diag, k, -1)
    scale = np.abs(badj).max(axis=(-2, -1))
    bad = (dk > 1e-12 * scale) | (scale == 0.0)
    _refuse(b.ndim == 2, bad, WrongEigenvalueBranchError,
            "adjugate diagonal is not non-positive: complex line pair")
    # A double line has a vanishing adjugate, and b itself is already rank 1.
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where((dk < 0.0)[..., None], -_pick(badj, k, -1) / np.sqrt(-dk)[..., None], 0.0)
    d = b + _cross_matrix(z)
    i, j = np.divmod(np.argmax(np.abs(d).reshape(d.shape[:-2] + (9,)), axis=-1), 3)
    g, h = _pick(d, j, -1), _pick(d, i, -2)
    return np.where(bad[..., None], np.nan, g), np.where(bad[..., None], np.nan, h)


def line_between_conics(
    g: np.ndarray, h: np.ndarray, ai: np.ndarray, aj: np.ndarray
) -> np.ndarray:
    """Pick whichever of ``g``, ``h`` strictly separates the two ellipse
    centers.  ``AmbiguousSeparationError`` when neither or both do, and
    ``NotAnEllipseError`` for a conic without a center; NaN in a stack."""
    g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    single = g.ndim == 1
    centers = conic_center(np.stack([ai, aj], axis=-3))
    bad = ~np.isfinite(centers).all(axis=(-2, -1))
    _refuse(single, bad, NotAnEllipseError, "conic has no finite center")
    c = np.concatenate([centers, np.ones(centers.shape[:-1] + (1,))], axis=-1)
    lines = np.stack([g, h], axis=-2)
    side = lines @ c.mT  # (..., line, center)
    band = (1e-12 * np.linalg.norm(lines, axis=-1))[..., None]
    band = band * np.linalg.norm(c, axis=-1)[..., None, :]
    with np.errstate(invalid="ignore"):
        clear = (np.abs(side) > band).all(axis=-1)
        splits = clear & ((side[..., 0] > 0.0) != (side[..., 1] > 0.0))
    bad |= splits[..., 0] == splits[..., 1]
    _refuse(single, bad, AmbiguousSeparationError,
            "neither or both lines separate the centers (overlapping input?)")
    return np.where(bad[..., None], np.nan, np.where(splits[..., :1], g, h))


def pencil_separating_line(ai: np.ndarray, aj: np.ndarray) -> np.ndarray:
    """Line passing between two non-overlapping ellipses.

    Runs the degenerate-pencil recipe end to end: find the pencil eigenvalue
    whose degenerate member splits into a real line pair, split it, and keep
    the line that separates the two centers.  A non-intersecting pair has
    exactly one real-line-pair branch; finding several means the ellipses
    overlap, which is rejected rather than silently mis-resolved.  Every
    branch of every element is split at once; where a single pair raises, a
    stack gives a NaN line.
    """
    ai, aj = np.asarray(ai, dtype=float), np.asarray(aj, dtype=float)
    single = ai.ndim == 2
    lams = degenerate_pencil_eigenvalues(ai, aj)
    real = np.abs(lams.imag) <= 1e-8 * (1.0 + np.abs(lams))
    _refuse(single, ~real.any(axis=-1), WrongEigenvalueBranchError, "pencil has no real eigenvalue")
    with np.errstate(invalid="ignore"):
        branch = lams.real[..., None, None] * ai[..., None, :, :] + aj[..., None, :, :]
    g, h = split_degenerate_conic(branch)
    splits = real & ~np.isnan(g).any(axis=-1)
    count = splits.sum(axis=-1)
    _refuse(single, count == 0, WrongEigenvalueBranchError, "no pencil branch yields real lines")
    _refuse(single, count > 1, AmbiguousSeparationError,
            "several real line-pair branches: conics intersect")
    first = np.argmax(splits, axis=-1)
    line = line_between_conics(_pick(g, first, -2), _pick(h, first, -2), ai, aj)
    return np.where((count == 1)[..., None], line, np.nan)
