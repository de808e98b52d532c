"""Checks of the program's outputs that do not reuse those outputs.

Identify outcomes are judged against the scene generator's truth: the true
camera position and the detection-to-crater map that ``synth_scene``
returns.  Index builds are checked against a brute-force enumeration, a
numpy brute-force nearest-neighbour search, a save/load round trip and the
viewpoint invariance of the non-coplanar descriptors.

Each check returns ``None`` when the output is right, or a one-line
description of what is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from craterid.camera import Intrinsics, look_at_pose, project_disk_quadric, projection_matrix
from craterid.crater3d import LUNAR_RADIUS_KM, crater_center, disk_quadric
from craterid.healpix import HealpixGrid
from craterid.invariants import noncoplanar_triad

# A matched position must lie within this distance of the true camera
# position.  Correct matches at 150 km and 0.5 px fall within 0.5 km at
# nadir and 3.7 km at 30 degrees off nadir; a wrong assignment puts the
# camera hundreds of km away or more.
POSITION_BOUND_M = 10_000.0

# Relative tolerance of the second-view check of non-coplanar descriptors.
# The invariants are exact for rims on one quadric: circular rims on the
# sphere agree to 3e-12.  Elliptical rims (a/b up to 1.1 in the global
# catalogue) are not sections of the sphere, and their descriptors move by
# up to 0.9% (median 0.18%) between views; a crater order or value mix-up
# moves them by tens of percent.
VIEW_RTOL = 0.03


# -- identify ---------------------------------------------------------------


class IndexedTriads:
    """The index's id table as one integer key per unordered crater triad."""

    def __init__(self, index):
        names = sorted({cid for e in index.entries for cid in e.ids})
        self.code = {cid: i for i, cid in enumerate(names)}
        self.n = len(names)
        tri = np.array([[self.code[c] for c in e.ids] for e in index.entries], dtype=np.int64)
        self.keys = np.unique(self._key(np.sort(tri.reshape(-1, 3), axis=1)))

    def _key(self, tri: np.ndarray) -> np.ndarray:
        return (tri[:, 0] * self.n + tri[:, 1]) * self.n + tri[:, 2]

    def any_indexed(self, crater_ids) -> bool:
        """True when three of ``crater_ids`` form a triad of the index."""
        codes = sorted({self.code[c] for c in crater_ids if c in self.code})
        if len(codes) < 3:
            return False
        keys = self._key(np.array(list(combinations(codes, 3)), dtype=np.int64))
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return bool(np.any(self.keys[pos] == keys))


@dataclass(frozen=True)
class Scene:
    """One identify request's inputs and the generator's truth."""

    label: str
    detections: list
    truth: dict  # detection index -> crater id
    r_true: np.ndarray  # km, selenographic
    attitude: np.ndarray
    identifiable: bool


def judge_identify(result, scene: Scene) -> tuple[str, str | None]:
    """Classify one identify outcome as ("ok" | "failed" | "wrong", reason).

    A scene is identifiable when three of its truly detected craters form
    an indexed triad.  ``no-match`` on an identifiable scene is a miss: the
    operation failed.  A match whose assignment or position disagrees with
    the truth, or any other inconsistent outcome, is a wrong answer.
    """
    n = len(scene.detections)
    status = result.status
    if status == "insufficient-craters":
        if n < 3:
            return "ok", None
        return "wrong", f"{scene.label}: insufficient-craters with {n} detections"
    if n < 3:
        return "wrong", f"{scene.label}: {status} with only {n} detections"
    if status == "no-match":
        if scene.identifiable:
            return "failed", f"{scene.label}: no-match on an identifiable scene"
        return "ok", None
    if status != "matched":
        return "wrong", f"{scene.label}: unknown status {status!r}"
    if len(result.correspondences) < 3:
        return "wrong", f"{scene.label}: matched with {len(result.correspondences)} craters"
    for det, cid in sorted(result.correspondences.items()):
        if scene.truth.get(det) != cid:
            return "wrong", (
                f"{scene.label}: detection {det} assigned {cid}, truth {scene.truth.get(det)}"
            )
    err_m = position_error_m(result, scene)
    if not err_m <= POSITION_BOUND_M:
        return "wrong", f"{scene.label}: position off by {err_m:.0f} m"
    return "ok", None


def position_error_m(result, scene: Scene) -> float:
    return 1000.0 * float(np.linalg.norm(np.asarray(result.r_m) - scene.r_true))


# -- index build ------------------------------------------------------------


def usable_records(records, scale):
    """The scale's diameter, ellipticity and arc gates, restated."""
    return [
        r
        for r in records
        if scale.d_min <= 2.0 * r.a <= scale.d_max
        and r.a / r.b <= scale.max_ellipticity
        and r.arc_fraction > scale.min_arc_fraction
    ]


def brute_force_triads(records, scale, radius: float = LUNAR_RADIUS_KM) -> set:
    """Every triad the index must emit, as sorted index triples.

    The rule of acceptance criterion 8: all three rims pairwise disjoint
    (center separation above 1.1 times the summed semi-major axes) and all
    three craters inside the 3x3 pixel neighbourhood of the pixel that holds
    the triad's mean direction.  Triples are tested exhaustively; pairs that
    no neighbourhood can hold together are dropped first, which removes no
    triple the rule would keep.
    """
    n = len(records)
    if n < 3:
        return set()
    grid = HealpixGrid(scale.k)
    units = np.array([crater_center(r.lat, r.lon, 1.0) for r in records])
    semis = np.array([r.a for r in records])
    pix = np.asarray(grid.ang2pix(units))
    hood_cache: dict[int, set] = {}

    def hood(p: int) -> set:
        if p not in hood_cache:
            hood_cache[p] = {p, *grid.neighbors(p)}
        return hood_cache[p]

    sep = np.arccos(np.clip(units @ units.T, -1.0, 1.0))
    disjoint = sep > 1.1 * np.add.outer(semis, semis) / radius
    # Two craters share some neighbourhood only if their pixels are at most
    # two neighbour steps apart.
    reach2 = {}
    for p in set(pix.tolist()):
        reach2[p] = set().union(*(hood(q) for q in hood(p)))
    together = np.array([[q in reach2[p] for q in pix.tolist()] for p in pix.tolist()])
    pair_ok = disjoint & together
    expected = set()
    for i in range(n - 2):
        rest = np.arange(i + 1, n)
        jj, kk = np.triu_indices(len(rest), k=1)
        jj, kk = rest[jj], rest[kk]
        keep = pair_ok[i, jj] & pair_ok[i, kk] & pair_ok[jj, kk]
        jj, kk = jj[keep], kk[keep]
        if not len(jj):
            continue
        means = units[i] + units[jj] + units[kk]
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        homes = np.atleast_1d(grid.ang2pix(means))
        for j, k, h in zip(jj.tolist(), kk.tolist(), homes.tolist()):
            hd = hood(h)
            if pix[i] in hd and pix[j] in hd and pix[k] in hd:
                expected.add((i, j, k))
    return expected


def check_triads(index, usable, expected: set) -> str | None:
    """Emitted triads: each once, each expected, and none missing."""
    pos = {r.id: i for i, r in enumerate(usable)}
    got = [tuple(sorted(pos[c] for c in e.ids)) for e in index.entries]
    if len(got) != len(set(got)):
        return f"{index.scale.name}: a triad is emitted more than once"
    extra = set(got) - expected
    if extra:
        return f"{index.scale.name}: {len(extra)} emitted triads break the enumeration rule"
    if len(got) + index.skipped != len(expected):
        return (
            f"{index.scale.name}: {len(got)} emitted + {index.skipped} skipped"
            f" != {len(expected)} brute-force triads"
        )
    return None


def check_round_trip(built, loaded) -> str | None:
    """``load_index(save_index(x))`` equals ``x`` bit for bit."""
    if len(built) != len(loaded) or built.scale != loaded.scale:
        return f"{built.scale.name}: round trip changed length or scale"
    if built.radius != loaded.radius:
        return f"{built.scale.name}: round trip changed the radius"
    for a, b in zip(built.entries, loaded.entries):
        if a.ids != b.ids or a.home_pixel != b.home_pixel:
            return f"{built.scale.name}: round trip changed triad {a.ids}"
        if a.values.tobytes() != b.values.tobytes():
            return f"{built.scale.name}: round trip changed the values of {a.ids}"
    return None


def check_nearest_neighbours(index, rng: np.random.Generator, n_queries: int) -> str | None:
    """``query(q, 1)`` returns the brute-force nearest entry for noisy queries."""
    mat = np.vstack([e.values for e in index.entries])
    picks = rng.integers(len(mat), size=n_queries)
    queries = mat[picks] + rng.normal(0.0, 0.02, mat[picks].shape) * np.abs(mat[picks])
    for q in queries:
        d2 = np.einsum("ij,ij->i", mat - q, mat - q)
        best = int(np.argmin(d2))
        ((dist, entry),) = index.query(q, 1)
        bd = float(np.sqrt(d2[best]))
        if not abs(dist - bd) <= 1e-9 * max(1.0, bd):
            return f"{index.scale.name}: k-d distance {dist} != brute force {bd}"
        own = float(np.linalg.norm(entry.values - q))
        if not abs(own - bd) <= 1e-9 * max(1.0, bd):
            return f"{index.scale.name}: k-d returned {entry.ids}, brute force {index.entries[best].ids}"
    return None


def check_view_invariance(
    index, records, rng: np.random.Generator, n_triads: int, rtol: float = VIEW_RTOL
) -> str | None:
    """Non-coplanar descriptors recomputed from a second, random view.

    The three rims of a stored triad are projected by a camera 3 to 5
    radii out, tilted from the triad's direction by a normal draw of about
    10 degrees and with a random roll; the invariants of the projected
    rims, in the stored crater order, must equal the stored descriptor
    within ``rtol``.
    """
    by_id = {r.id: r for r in records}
    radius = index.radius
    intr = Intrinsics(dx=1500.0, dy=1500.0)
    picks = rng.choice(len(index.entries), size=min(n_triads, len(index.entries)), replace=False)
    for t in picks.tolist():
        entry = index.entries[t]
        recs = [by_id[c] for c in entry.ids]
        mean = sum(crater_center(r.lat, r.lon, 1.0) for r in recs)
        mean /= np.linalg.norm(mean)
        tilt = rng.normal(size=3) * np.deg2rad(10.0) / np.sqrt(3.0)
        pos = mean + tilt - (tilt @ mean) * mean
        pos = radius * rng.uniform(3.0, 5.0) * pos / np.linalg.norm(pos)
        up = rng.normal(size=3)
        pose = look_at_pose(pos, np.zeros(3), up_hint=up)
        p = projection_matrix(intr, pose)
        conics = [project_disk_quadric(p, disk_quadric(r, radius)) for r in recs]
        again = np.array(noncoplanar_triad(*conics))
        if not np.allclose(again, entry.values, rtol=rtol, atol=0.0):
            return (
                f"{index.scale.name}: triad {entry.ids} reads {again.tolist()} from a second"
                f" view, stored {entry.values.tolist()}"
            )
    return None
