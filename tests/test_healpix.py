import numpy as np
import pytest

from craterid.healpix import _FACEARRAY, _SWAPARRAY, _XOFFSET, _YOFFSET, HealpixGrid, npix


def ring_ang2pix(k: int, vec: np.ndarray) -> np.ndarray:
    """Independent RING-scheme pixel assignment (test oracle).

    Implemented from the published ring formulas; shares no pixel-numbering
    code with the production NESTED path, so agreement of the induced
    partitions is a genuine cross-check.
    """
    nside = 1 << k
    v = np.atleast_2d(np.asarray(vec, dtype=float))
    z = v[:, 2] / np.linalg.norm(v, axis=1)
    phi = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2 * np.pi)
    tt = np.mod(phi * (2.0 / np.pi), 4.0)
    out = np.empty(len(v), dtype=np.int64)

    eq = np.abs(z) <= 2.0 / 3.0
    if np.any(eq):
        temp1 = nside * (0.5 + tt[eq])
        temp2 = nside * (0.75 * z[eq])
        jp = (temp1 - temp2).astype(np.int64)
        jm = (temp1 + temp2).astype(np.int64)
        ir = nside + 1 + jp - jm  # ring index within the equatorial belt
        kshift = 1 - (ir & 1)
        t1 = jp + jm - nside + kshift + 1
        ip = np.mod(t1 >> 1, 4 * nside)
        ncap = 2 * nside * (nside - 1)
        out[eq] = ncap + (ir - 1) * 4 * nside + ip

    po = ~eq
    if np.any(po):
        zp = z[po]
        ttp = tt[po]
        ntt = np.minimum(ttp.astype(np.int64), 3)
        tp = ttp - ntt
        tmp = nside * np.sqrt(3.0 * (1.0 - np.abs(zp)))
        jp = (tp * tmp).astype(np.int64)
        jm = ((1.0 - tp) * tmp).astype(np.int64)
        ir = jp + jm + 1  # ring counted from the pole
        ip = np.mod((ttp * ir).astype(np.int64), 4 * ir)
        north = zp >= 0
        res = np.where(
            north, 2 * ir * (ir - 1) + ip, 12 * nside * nside - 2 * ir * (ir + 1) + ip
        )
        out[po] = res
    return out


def uniform_dirs(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.uniform(-1, 1, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    s = np.sqrt(1 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def test_npix_values():
    assert npix(1) == 48
    assert npix(3) == 768
    assert npix(5) == 12288
    assert HealpixGrid(0).npix == 12
    with pytest.raises(ValueError):
        npix(-1)


def test_base_face_layout():
    g = HealpixGrid(0)
    assert g.ang2pix(np.array([0.0, 0.0, 1.0])) == 0  # north cap, phi=0
    assert g.ang2pix(np.array([0.0, 0.0, -1.0])) == 8  # south cap, phi=0
    assert g.ang2pix(np.array([1.0, 0.0, 0.0])) == 4  # equator, phi=0
    assert g.ang2pix(np.array([0.0, 1.0, 0.0])) == 5  # equator, phi=90


def test_every_pixel_hit():
    rng = np.random.default_rng(0)
    dirs = uniform_dirs(rng, 1_000_000)
    for k in range(6):
        g = HealpixGrid(k)
        hit = np.zeros(g.npix, dtype=bool)
        hit[g.ang2pix(dirs)] = True
        assert hit.all(), f"k={k}: {np.count_nonzero(~hit)} pixels never hit"


def test_equal_area_occupancy():
    rng = np.random.default_rng(1)
    k = 2
    g = HealpixGrid(k)
    n = 10_000_000
    counts = np.zeros(g.npix, dtype=np.int64)
    for _ in range(10):
        dirs = uniform_dirs(rng, n // 10)
        counts += np.bincount(g.ang2pix(dirs), minlength=g.npix)
    p = 1.0 / g.npix
    sigma = np.sqrt(n * p * (1 - p))
    dev = np.abs(counts - n * p) / sigma
    assert dev.max() < 5.0, f"worst occupancy deviation {dev.max():.2f} sigma"


def test_partition_matches_ring_scheme():
    # The two numbering schemes must induce the same partition of the sphere.
    rng = np.random.default_rng(2)
    for k in (0, 1, 3, 5):
        g = HealpixGrid(k)
        base = uniform_dirs(rng, 4000)
        # Pair each direction with a nearby one to hammer pixel boundaries.
        step = 2.0 / (1 << k) / 3.0
        near = base + step * uniform_dirs(rng, 4000)
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        nest_eq = g.ang2pix(base) == g.ang2pix(near)
        ring_eq = ring_ang2pix(k, base) == ring_ang2pix(k, near)
        assert np.array_equal(nest_eq, ring_eq)


def test_nested_hierarchy():
    # In the NESTED scheme the pixel id at resolution k is the id at k+1
    # shifted down two bits.
    rng = np.random.default_rng(3)
    dirs = uniform_dirs(rng, 100_000)
    for k in range(5):
        a = HealpixGrid(k).ang2pix(dirs)
        b = HealpixGrid(k + 1).ang2pix(dirs)
        assert np.array_equal(a, b >> 2)


def test_ang2pix_deterministic():
    rng = np.random.default_rng(4)
    dirs = uniform_dirs(rng, 1000)
    g = HealpixGrid(4)
    assert np.array_equal(g.ang2pix(dirs), g.ang2pix(dirs.copy()))


def test_neighbor_symmetry_and_irreflexivity():
    for k in (1, 2, 3):
        g = HealpixGrid(k)
        rows = g.neighbors(np.arange(g.npix))
        neigh = {p: set(row[row >= 0].tolist()) for p, row in enumerate(rows)}
        for p, ns in neigh.items():
            assert p not in ns
            for q in ns:
                assert p in neigh[q], f"k={k}: {p} -> {q} not symmetric"


def test_neighbor_counts():
    for k in (1, 2, 3, 4):
        g = HealpixGrid(k)
        counts = np.count_nonzero(g.neighbors(np.arange(g.npix)) >= 0, axis=1)
        assert counts.max() == 8
        assert np.count_nonzero(counts == 7) == 24  # polar face corners
        assert np.count_nonzero(counts < 7) == 0


def _walk_neighbors(g: HealpixGrid, pix: int) -> list[int]:
    """Neighbor ids of one pixel by stepping in each of the 8 directions with
    Python integers and branches (test reference for the array form)."""
    ns = g.nside

    def unspread(v):
        return sum(((v >> (2 * b)) & 1) << b for b in range(g.k))

    def spread(v):
        return sum(((v >> b) & 1) << (2 * b) for b in range(g.k))

    face, ipf = divmod(pix, ns * ns)
    ix, iy = unspread(ipf), unspread(ipf >> 1)
    out = []
    for dx, dy in zip(_XOFFSET.tolist(), _YOFFSET.tolist()):
        x, y, block = ix + dx, iy + dy, 4
        if x < 0:
            x, block = x + ns, block - 1
        elif x >= ns:
            x, block = x - ns, block + 1
        if y < 0:
            y, block = y + ns, block - 3
        elif y >= ns:
            y, block = y - ns, block + 3
        nb_face = face
        if block != 4:
            nb_face = int(_FACEARRAY[block][face])
            if nb_face < 0:
                continue
            bits = int(_SWAPARRAY[block][face >> 2])
            if bits & 1:
                x = ns - x - 1
            if bits & 2:
                y = ns - y - 1
            if bits & 4:
                x, y = y, x
        q = nb_face * ns * ns + spread(x) + (spread(y) << 1)
        if q != pix and q not in out:
            out.append(q)
    return out


def test_neighbor_array_form():
    # One ascending row per pixel, -1 where there is no pixel: the same ids as
    # the single-pixel list and as the reference walk, none of them twice.
    for k in range(5):
        g = HealpixGrid(k)
        rows = g.neighbors(np.arange(g.npix))
        assert rows.shape == (g.npix, 8) and rows.dtype == np.int64
        assert np.all(np.diff(rows, axis=1) >= 0)
        for p, row in enumerate(rows):
            valid = row[row >= 0].tolist()
            assert len(set(valid)) == len(valid)
            single = g.neighbors(p)
            assert all(type(q) is int for q in single)
            assert single == valid == sorted(_walk_neighbors(g, p))
    # Each base pixel borders 6 others: two of its 8 blocks are missing.
    assert np.all(np.count_nonzero(HealpixGrid(0).neighbors(np.arange(12)) >= 0, axis=1) == 6)


def test_neighbors_contain_all_adjacent_samples():
    # Any two very close directions map to the same or adjacent pixels.
    rng = np.random.default_rng(5)
    g = HealpixGrid(3)
    base = uniform_dirs(rng, 3000)
    eps = 1e-4
    near = base + eps * uniform_dirs(rng, 3000)
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    pa = g.ang2pix(base)
    pb = g.ang2pix(near)
    for a, b in zip(pa, pb):
        if a != b:
            assert b in g.neighbors(int(a))


def test_pixel_id_range_and_validation():
    g = HealpixGrid(2)
    rng = np.random.default_rng(6)
    ids = g.ang2pix(uniform_dirs(rng, 10000))
    assert ids.min() >= 0 and ids.max() < g.npix
    with pytest.raises(ValueError):
        g.neighbors(g.npix)
    with pytest.raises(ValueError):
        g.neighbors(np.array([0, 5, g.npix, 7]))
    with pytest.raises(ValueError):
        g.neighbors(np.array([3, -1]))
    with pytest.raises(ValueError):
        HealpixGrid(-1)
