"""Projective invariants of conic triads and descriptor assembly.

Two families, each returned as a float array:

* coplanar triads: ``[I_ij, I_jk, I_ki, I_ji, I_kj, I_ik, I_ijk]``, six
  pairwise trace invariants plus one triple trace invariant, computed from
  determinant-normalized locus matrices;
* non-coplanar triads on a common quadric surface: ``[J_i, J_j, J_k]``,
  three Cayley-Klein line distances, computed from the pencil-recovered
  lines between each conic pair and the conic envelopes.

Descriptors come in three conventions (ordered / sorted / p2); the p2 forms
are additionally invariant to cyclic relabeling of the three craters.
:func:`make_descriptor` gives the stored form of a catalogue triad and
:func:`query_rotations` the query forms of an image triad.

The kernels follow ``conic2d``'s stack rule: three single conics ``(3, 3)``
give a vector, and three stacks ``(T, 3, 3)`` give one row per triad,
``(T, 7)`` or ``(T, 3)``.  Where the single call raises, the row is NaN.
:func:`make_descriptor` takes rows ``(T, d)`` and gives ``(values, r)``
with ``r`` of shape ``(T,)``.
"""

from __future__ import annotations

import numpy as np

from .conic2d import (
    _refuse,
    adjugate,
    conic_center,
    conic_det,
    normalize_unit_det,
    pencil_separating_line,
)
from .errors import (
    AcoshDomainError,
    NotAnEllipseError,
    NotNormalizedError,
    OverlapError,
    SingularConicError,
)

__all__ = [
    "coplanar_triad",
    "noncoplanar_triad",
    "cayley_klein_distance",
    "cyclic_F",
    "pair_G",
    "make_descriptor",
    "rotate_descriptor_values",
    "query_rotations",
]

_DET_TOL = 1e-9

# Conic pairs (i, j), (j, k), (k, i), (j, i), (k, j), (i, k) of the pair
# invariants trace(adj(first) @ second), then the triple invariant's
# (adj(j + k) - adj(j - k), i); the adjugates are stacked i, j, k and then
# adj(j + k) - adj(j - k).
_ADJ = [0, 1, 2, 1, 2, 0, 3]
_CONIC = [1, 2, 0, 0, 1, 2, 0]


def coplanar_triad(ai: np.ndarray, aj: np.ndarray, ak: np.ndarray) -> np.ndarray:
    """``[I_ij, I_jk, I_ki, I_ji, I_kj, I_ik, I_ijk]`` of a determinant-normalized
    coplanar triad (i, j, k).

    A conic whose determinant differs from +1 raises ``NotNormalizedError``,
    one without a center ``NotAnEllipseError``.  The traces are evaluated in
    a centered, unit-scale frame: a similarity transform is a homography, so
    the invariants are untouched, and it avoids the cancellation that
    pixel-frame coordinates otherwise cause.  A conic singular in that frame
    raises ``SingularConicError``.
    """
    triad = np.array([ai, aj, ak])  # (3, ..., 3, 3): the member axis first
    single = triad.ndim == 3
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        bad = ~(np.abs(conic_det(triad) - 1.0) <= _DET_TOL).all(axis=0)
        _refuse(single, bad, NotNormalizedError, "conic determinant differs from +1")
        centers = conic_center(triad)
        bad |= ~np.isfinite(centers).all(axis=(0, -1))
        _refuse(single, bad, NotAnEllipseError, "conic has no finite center")
        mid = centers.mean(axis=0)
        spread = np.linalg.norm(centers - mid, axis=-1).max(axis=0)
        t = np.zeros(mid.shape[:-1] + (3, 3))
        t[..., 0, 0] = t[..., 1, 1] = np.maximum(spread, 1e-12)
        t[..., :2, 2] = mid
        t[..., 2, 2] = 1.0
        a = normalize_unit_det(t.mT @ triad @ t)
        bad |= np.isnan(a).any(axis=(0, -2, -1))
        _refuse(single, bad, SingularConicError, "cannot determinant-normalize a singular conic")
        adj = adjugate(np.array([a[0], a[1], a[2], a[1] + a[2], a[1] - a[2]]))
        adj = np.concatenate([adj[:3], adj[3:4] - adj[4:]])
        out = np.einsum("p...ab,p...ba->...p", adj[_ADJ], a[_CONIC])
    return out if single else np.where(bad[..., None], np.nan, out)


def cayley_klein_distance(envelope: np.ndarray, l1: np.ndarray, l2: np.ndarray):
    """Hyperbolic distance between two lines relative to a conic envelope.

    ``acosh`` of the normalized envelope bilinear form.  The absolute value
    makes the result independent of the arbitrary line and conic scales.
    Line quadratic forms of mixed sign, or a ratio below 1 (overlapping
    geometry), raise ``AcoshDomainError``; a stack ``(..., 3, 3)`` of
    envelopes with lines ``(..., 3)`` gives NaN there.
    """
    l1, l2 = np.asarray(l1, dtype=float)[..., None, :], np.asarray(l2, dtype=float)[..., None, :]
    single = l1.ndim == 2
    with np.errstate(invalid="ignore", over="ignore"):
        num = (l1 @ envelope @ l2.mT)[..., 0, 0]
        den2 = (l1 @ envelope @ l1.mT)[..., 0, 0] * (l2 @ envelope @ l2.mT)[..., 0, 0]
        bad = ~(den2 > 0.0)
        _refuse(single, bad, AcoshDomainError, "line quadratic forms have mixed sign")
        ratio = np.abs(num) / np.sqrt(den2)
        bad |= ~(ratio >= 1.0 - 1e-9)
    _refuse(single, bad, AcoshDomainError, "cosh ratio below 1: overlapping geometry")
    j = np.arccosh(np.where(bad, 1.0, np.maximum(ratio, 1.0)))
    return float(j) if single else np.where(bad, np.nan, j)


def noncoplanar_triad(ai: np.ndarray, aj: np.ndarray, ak: np.ndarray) -> np.ndarray:
    """Cayley-Klein invariants ``[J_i, J_j, J_k]`` of three image conics.

    The conics must be pairwise non-overlapping projections of rims lying on
    a common quadric surface.  Raises ``OverlapError`` when the separating
    lines cannot be recovered, ``AcoshDomainError`` when a distance is
    undefined.  Every pair of every triad goes through one pencil solve.
    """
    triad = np.array([ai, aj, ak])  # (3, ..., 3, 3): the member axis first
    single = triad.ndim == 3
    # The lines l_ij, l_ik, l_jk.
    lines = pencil_separating_line(triad[[0, 0, 1]], triad[[1, 2, 2]])
    bad = np.isnan(lines).any(axis=(0, -1))
    _refuse(single, bad, OverlapError, "cannot recover pair lines: conics overlap")
    j = cayley_klein_distance(adjugate(triad), lines[[0, 0, 1]], lines[[1, 2, 2]])
    bad = np.isnan(j).any(axis=0)
    _refuse(single, bad, AcoshDomainError, "Cayley-Klein ratio outside the acosh domain")
    return j if single else np.where(bad[..., None], np.nan, np.moveaxis(j, 0, -1))


def _lex_min_rotation(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Canonical cyclic representative, so float rounding cannot distinguish
    two cyclic relabelings of the same triple."""
    return min((x, y, z), (y, z, x), (z, x, y))


def cyclic_F(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Three rational functions invariant under cyclic permutation.

    F1 is fully symmetric; (F2, F3) separate the two cyclic classes and are
    extended continuously to 0 at x = y = z.  All three scale linearly with
    the input triple.  Results are bit-identical across cyclic relabelings
    of the input.
    """
    x, y, z = _lex_min_rotation(x, y, z)
    f1 = x + y + z
    den = x * x + y * y + z * z - (x * y + y * z + z * x)
    if den == 0.0:
        return f1, 0.0, 0.0
    num2 = (
        2.0 * (x**3 + y**3 + z**3)
        + 12.0 * x * y * z
        - 3.0 * (x * x * y + y * y * x + y * y * z + z * z * y + z * z * x + x * x * z)
    )
    num3 = -3.0 * np.sqrt(3.0) * (x - y) * (y - z) * (z - x)
    return f1, num2 / den, num3 / den


def pair_G(
    x1: float, y1: float, z1: float, x2: float, y2: float, z2: float
) -> tuple[float, float, float, float]:
    """Joint cyclic invariants (G1, G2, Gt1, Gt2) of two coupled triples.

    (G1, G2) are unchanged only when both triples undergo the *same* cyclic
    shift; they scale quadratically.  (Gt1, Gt2) are the fourth-root
    normalized versions that scale linearly, extended to 0 when either
    triple is constant.  Results are bit-identical across common cyclic
    relabelings.
    """
    (x1, y1, z1, x2, y2, z2) = min(
        (x1, y1, z1, x2, y2, z2),
        (y1, z1, x1, y2, z2, x2),
        (z1, x1, y1, z2, x2, y2),
    )
    g1 = 1.5 * (x1 * x2 + y1 * y2 + z1 * z2) - 0.5 * (x1 + y1 + z1) * (x2 + y2 + z2)
    det = np.linalg.det(np.array([[1.0, 1.0, 1.0], [x1, y1, z1], [x2, y2, z2]]))
    g2 = -0.5 * np.sqrt(3.0) * det
    s1 = (x1 - y1) ** 2 + (y1 - z1) ** 2 + (z1 - x1) ** 2
    s2 = (x2 - y2) ** 2 + (y2 - z2) ** 2 + (z2 - x2) ** 2
    if s1 == 0.0 or s2 == 0.0:
        return g1, g2, 0.0, 0.0
    root = (s1 * s2) ** 0.25
    return g1, g2, g1 / root, g2 / root


# Row r relabels the craters r steps: positions [r, r+1, r+2] mod 3 of the
# first three invariants, the same on 3-5, and the triple invariant 6 fixed.
_ROTATIONS = np.array([[0, 1, 2, 3, 4, 5, 6], [1, 2, 0, 4, 5, 3, 6], [2, 0, 1, 5, 3, 4, 6]])


def rotate_descriptor_values(values: np.ndarray, r: int | list[int]) -> np.ndarray:
    """Descriptor vector after cyclically relabeling the craters ``r`` steps;
    a list of rotations gives one row per rotation."""
    values = np.asarray(values, dtype=float)
    if values.shape not in ((3,), (7,)):
        raise ValueError("descriptor must have 3 or 7 elements")
    return values[_ROTATIONS[r, : len(values)]]


def make_descriptor(values: np.ndarray, convention: str) -> tuple[np.ndarray, int | np.ndarray]:
    """Stored descriptor of a catalogue triad with invariants ``values``, and
    the label rotation ``r``: the stored crater labels are the clockwise
    labels rotated ``r`` steps, ``ids[r:] + ids[:r]``.

    ``values`` is a :func:`noncoplanar_triad` 3-vector or a
    :func:`coplanar_triad` 7-vector.  ordered keeps it as is; sorted rotates
    the crater labels so the smallest of the first three invariants leads;
    p2 maps it to its cyclic-invariant form, ``F(J)`` for three elements and
    ``[F(t1), F1(t2), Gt(t1, t2), I_ijk]`` for seven.  Only sorted rotates.
    Rows ``(T, d)`` give descriptors ``(T, d)`` and rotations ``(T,)``.
    """
    vec = np.array(values, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] not in (3, 7):
        raise ValueError("invariants must have 3 or 7 elements")
    if not np.all(np.isfinite(vec)):
        raise ValueError("invariants must be finite")
    rows = vec.reshape(-1, vec.shape[-1])
    r = np.zeros(len(rows), dtype=np.intp)
    if convention == "sorted":
        r = np.argmin(rows[:, :3], axis=1)
        rows = np.take_along_axis(rows, _ROTATIONS[r, : rows.shape[1]], axis=1)
    elif convention == "p2" and rows.shape[1] == 3:
        rows = np.array([cyclic_F(*row) for row in rows]).reshape(rows.shape)
    elif convention == "p2":
        rows = np.array(
            [[*cyclic_F(*v[:3]), cyclic_F(*v[3:6])[0], *pair_G(*v[:6])[2:], v[6]] for v in rows]
        ).reshape(rows.shape)
    elif convention != "ordered":
        raise ValueError(f"unknown convention {convention!r}")
    return (rows, r) if vec.ndim == 2 else (rows[0], int(r[0]))


def query_rotations(
    values: np.ndarray, convention: str
) -> list[tuple[int | None, np.ndarray]]:
    """(rotation, query vector) pairs for an image triad with invariants ``values``.

    ``rotation`` is the cyclic offset of the image labels that the query
    assumes: the query vector equals :func:`make_descriptor` of the
    catalogue triad whose labels are the image labels rotated that many
    steps.  ordered tries 0, 1, 2; sorted tries the min-first rotation first
    and the other two as retries for when noise displaced the anchor
    invariant.  p2 makes one query with rotation ``None``: it cannot pin the
    rotation down, so verification tries all three.
    """
    vec = np.asarray(values, dtype=float)
    if convention == "p2":
        return [(None, make_descriptor(vec, convention)[0])]
    if convention == "ordered":
        first = 0
    elif convention == "sorted":
        first = int(np.argmin(vec[:3]))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    rotations = [(first + off) % 3 for off in range(3)]
    return list(zip(rotations, rotate_descriptor_values(vec, rotations)))

