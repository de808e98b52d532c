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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conic2d import (
    adjugate,
    conic_center,
    conic_det,
    normalize_unit_det,
    pencil_separating_line,
)
from .errors import AcoshDomainError, NotNormalizedError, OverlapError

__all__ = [
    "TriadDescriptor",
    "coplanar_pair",
    "coplanar_triad",
    "noncoplanar_triad",
    "cayley_klein_distance",
    "cyclic_F",
    "pair_G",
    "make_descriptor",
    "p2_nine_descriptor",
    "rotate_descriptor_values",
    "query_rotations",
]

_DET_TOL = 1e-9


def _check_unit_det(*conics: np.ndarray) -> None:
    for c in conics:
        if abs(conic_det(c) - 1.0) > _DET_TOL:
            raise NotNormalizedError("conic determinant differs from +1")


def _condition_frame(conics: list[np.ndarray]) -> list[np.ndarray]:
    """Re-express conics in a centered, unit-scale frame.

    A similarity transform is a homography, so the invariants are untouched;
    evaluating the traces near the origin at unit scale avoids the
    cancellation that pixel-frame coordinates otherwise cause.
    """
    centers = [conic_center(c) for c in conics]
    mid = np.mean(centers, axis=0)
    spread = max(float(np.linalg.norm(c - mid)) for c in centers)
    scale = max(spread, 1e-12)
    t = np.array([[scale, 0.0, mid[0]], [0.0, scale, mid[1]], [0.0, 0.0, 1.0]])
    return [normalize_unit_det(t.T @ c @ t) for c in conics]


def coplanar_pair(ai: np.ndarray, aj: np.ndarray) -> tuple[float, float]:
    """The two trace invariants of a determinant-normalized conic pair."""
    _check_unit_det(ai, aj)
    ai, aj = _condition_frame([ai, aj])
    i_ij = float(np.trace(adjugate(ai) @ aj))
    i_ji = float(np.trace(adjugate(aj) @ ai))
    return i_ij, i_ji


def coplanar_triad(ai: np.ndarray, aj: np.ndarray, ak: np.ndarray) -> np.ndarray:
    """``[I_ij, I_jk, I_ki, I_ji, I_kj, I_ik, I_ijk]`` of a determinant-normalized
    coplanar triad (i, j, k)."""
    _check_unit_det(ai, aj, ak)
    ai, aj, ak = _condition_frame([ai, aj, ak])
    adj_i, adj_j, adj_k = adjugate(ai), adjugate(aj), adjugate(ak)
    return np.array(
        [
            np.trace(adj_i @ aj),
            np.trace(adj_j @ ak),
            np.trace(adj_k @ ai),
            np.trace(adj_j @ ai),
            np.trace(adj_k @ aj),
            np.trace(adj_i @ ak),
            np.trace((adjugate(aj + ak) - adjugate(aj - ak)) @ ai),
        ]
    )


def cayley_klein_distance(
    envelope: np.ndarray, l1: np.ndarray, l2: np.ndarray
) -> float:
    """Hyperbolic distance between two lines relative to a conic envelope.

    ``acosh`` of the normalized envelope bilinear form.  The absolute value
    makes the result independent of the arbitrary line and conic scales.
    """
    num = l1 @ envelope @ l2
    d1 = l1 @ envelope @ l1
    d2 = l2 @ envelope @ l2
    den2 = d1 * d2
    if den2 <= 0.0:
        raise AcoshDomainError("line quadratic forms have mixed sign")
    ratio = abs(num) / np.sqrt(den2)
    if ratio < 1.0 - 1e-9:
        raise AcoshDomainError(f"cosh ratio {ratio} below 1: overlapping geometry")
    return float(np.arccosh(max(ratio, 1.0)))


def noncoplanar_triad(ai: np.ndarray, aj: np.ndarray, ak: np.ndarray) -> np.ndarray:
    """Cayley-Klein invariants ``[J_i, J_j, J_k]`` of three image conics.

    The conics must be pairwise non-overlapping projections of rims lying on
    a common quadric surface.  Raises ``OverlapError`` when the separating
    lines cannot be recovered.
    """
    try:
        l_ij = pencil_separating_line(ai, aj)
        l_ik = pencil_separating_line(ai, ak)
        l_jk = pencil_separating_line(aj, ak)
    except Exception as exc:
        raise OverlapError(f"cannot recover pair lines: {exc}") from exc
    j_i = cayley_klein_distance(adjugate(ai), l_ij, l_ik)
    j_j = cayley_klein_distance(adjugate(aj), l_ij, l_jk)
    j_k = cayley_klein_distance(adjugate(ak), l_ik, l_jk)
    return np.array([j_i, j_j, j_k])


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


@dataclass(frozen=True)
class TriadDescriptor:
    """Searchable descriptor of one crater triad.

    ``ids`` are the three crater labels in clockwise image order, already
    rotated to match ``values`` for the sorted convention.
    """

    values: np.ndarray
    convention: str  # ordered | sorted | p2
    ids: tuple[str, str, str]


def rotate_descriptor_values(values: np.ndarray, r: int) -> np.ndarray:
    """Descriptor vector after cyclically relabeling the craters ``r`` steps."""
    values = np.asarray(values, dtype=float)
    if values.shape == (3,):
        return np.roll(values, -r)
    if values.shape == (7,):
        return np.concatenate([np.roll(values[:3], -r), np.roll(values[3:6], -r), values[6:]])
    raise ValueError("descriptor must have 3 or 7 elements")


def make_descriptor(
    values: np.ndarray, convention: str, ids: tuple[str, str, str]
) -> TriadDescriptor:
    """Stored descriptor of a catalogue triad with invariants ``values``.

    ``values`` is a :func:`noncoplanar_triad` 3-vector or a
    :func:`coplanar_triad` 7-vector.  ordered keeps it as is; sorted rotates
    the crater labels so the smallest of the first three invariants leads;
    p2 maps it to its cyclic-invariant form, ``F(J)`` for three elements and
    ``[F(t1), F1(t2), Gt(t1, t2), I_ijk]`` for seven.
    """
    vec = np.array(values, dtype=float)
    if vec.shape not in ((3,), (7,)):
        raise ValueError("invariants must have 3 or 7 elements")
    if not np.all(np.isfinite(vec)):
        raise ValueError("invariants must be finite")
    if convention == "ordered":
        return TriadDescriptor(vec, convention, ids)
    if convention == "sorted":
        r = int(np.argmin(vec[:3]))
        return TriadDescriptor(rotate_descriptor_values(vec, r), convention, ids[r:] + ids[:r])
    if convention == "p2":
        if len(vec) == 3:
            return TriadDescriptor(np.array(cyclic_F(*vec)), convention, ids)
        _, _, gt1, gt2 = pair_G(*vec[:6])
        p2 = [*cyclic_F(*vec[:3]), cyclic_F(*vec[3:6])[0], gt1, gt2, vec[6]]
        return TriadDescriptor(np.array(p2), convention, ids)
    raise ValueError(f"unknown convention {convention!r}")


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
        return [(None, make_descriptor(vec, convention, ("", "", "")).values)]
    if convention == "ordered":
        first = 0
    elif convention == "sorted":
        first = int(np.argmin(vec[:3]))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    rotations = [(first + off) % 3 for off in range(3)]
    return [(r, rotate_descriptor_values(vec, r)) for r in rotations]


def p2_nine_descriptor(values: np.ndarray) -> np.ndarray:
    """Nine-element p2 alternative of a coplanar 7-vector:
    [F(t1), F(t2), Gt(t1, t2), I_ijk]."""
    _, _, gt1, gt2 = pair_G(*values[:6])
    return np.array([*cyclic_F(*values[:3]), *cyclic_F(*values[3:6]), gt1, gt2, values[6]])
