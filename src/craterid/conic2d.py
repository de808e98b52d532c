"""Algebra of 2D conics.

Conics are represented by 3x3 real symmetric matrices of ambiguous scale
(plain ``numpy`` arrays).  A point ``(x, y)`` lies on the conic when
``[x, y, 1] C [x, y, 1]^T = 0``; the adjugate of ``C`` plays the same role
for tangent lines.  Lines are length-3 arrays, also of ambiguous scale.

``is_proper_ellipse``, ``conic_center``, ``conic_det``, ``adjugate`` and
``normalize_unit_det`` also take stacks ``(..., 3, 3)``; where a single conic
raises, a stack marks the element False or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousSeparationError,
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


def degenerate_pencil_eigenvalues(ai: np.ndarray, aj: np.ndarray) -> np.ndarray:
    """The three scalars lambda with det(lambda*ai + aj) = 0.

    Computed as the eigenvalues of ``(-ai)^-1 aj``; entries may be complex.
    """
    try:
        m = np.linalg.solve(-ai, aj)
    except np.linalg.LinAlgError as exc:
        raise SingularConicError("first conic of the pencil is singular") from exc
    return np.linalg.eigvals(m)


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def split_degenerate_conic(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a rank-2 conic into its two real lines ``g`` and ``h``.

    ``b`` must be proportional to ``g h^T + h g^T``.  The intersection point
    of the two lines is recovered from the adjugate (whose diagonal must be
    non-positive for a real line pair), then the rank-1 matrix
    ``b + [z]_x = 2 g h^T`` yields the lines themselves.
    """
    badj = adjugate(b)
    diag = np.diagonal(badj)
    k = int(np.argmax(np.abs(diag)))
    scale = np.abs(badj).max()
    if diag[k] > 1e-12 * scale or scale == 0.0:
        raise WrongEigenvalueBranchError(
            "adjugate diagonal is not non-positive: complex line pair"
        )
    if diag[k] < 0.0:
        z = -badj[:, k] / np.sqrt(-diag[k])
    else:
        # Double line: the adjugate vanishes and b itself is already rank 1.
        z = np.zeros(3)
    d = b + _cross_matrix(z)
    i, j = np.unravel_index(np.argmax(np.abs(d)), d.shape)
    g = d[:, j].copy()
    h = d[i, :].copy()
    return g, h


def line_between_conics(
    g: np.ndarray, h: np.ndarray, ai: np.ndarray, aj: np.ndarray
) -> np.ndarray:
    """Pick whichever of ``g``, ``h`` strictly separates the two ellipse centers."""
    centers = conic_center(np.array([ai, aj]))
    if not np.isfinite(centers).all():
        raise NotAnEllipseError("conic has no finite center")
    ci, cj = np.append(centers, [[1.0], [1.0]], axis=1)

    def separates(line: np.ndarray) -> bool:
        si = line @ ci
        sj = line @ cj
        band = 1e-12 * np.linalg.norm(line)
        if abs(si) <= band * np.linalg.norm(ci) or abs(sj) <= band * np.linalg.norm(cj):
            return False
        return (si > 0.0) != (sj > 0.0)

    g_ok, h_ok = separates(g), separates(h)
    if g_ok == h_ok:
        raise AmbiguousSeparationError(
            "neither or both lines separate the centers (overlapping input?)"
        )
    return g if g_ok else h


def pencil_separating_line(ai: np.ndarray, aj: np.ndarray) -> np.ndarray:
    """Line passing between two non-overlapping ellipses.

    Runs the degenerate-pencil recipe end to end: find the pencil eigenvalue
    whose degenerate member splits into a real line pair, split it, and keep
    the line that separates the two centers.  A non-intersecting pair has
    exactly one real-line-pair branch; finding several means the ellipses
    overlap, which is rejected rather than silently mis-resolved.
    """
    lams = degenerate_pencil_eigenvalues(ai, aj)
    real = [lam.real for lam in lams if abs(lam.imag) <= 1e-8 * (1.0 + abs(lam))]
    if not real:
        raise WrongEigenvalueBranchError("pencil has no real eigenvalue")
    splits = []
    for lam in sorted(real, key=abs, reverse=True):
        bmat = lam * ai + aj
        try:
            splits.append(split_degenerate_conic(bmat))
        except WrongEigenvalueBranchError:
            continue
    if not splits:
        raise WrongEigenvalueBranchError("no pencil branch yields real lines")
    if len(splits) > 1:
        raise AmbiguousSeparationError(
            "several real line-pair branches: conics intersect"
        )
    return line_between_conics(*splits[0], ai, aj)
