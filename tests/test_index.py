import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import craterid.index as index_mod
from craterid.crater3d import CraterRecord, crater_center
from craterid.errors import DimensionMismatchError, SchemaError, VersionMismatchError
from craterid.healpix import HealpixGrid
from craterid.index import (
    GLOBAL_SCALE,
    LOCAL_SCALE,
    REGIONAL_SCALE,
    IndexScale,
    build_index,
    clockwise_on_sphere,
    enumerate_triads,
    filter_catalog,
    load_catalog,
    load_index,
    save_catalog,
    save_index,
)
from craterid.pipeline import synthetic_catalog

from conftest import PATCH_SCALE, patch_catalog


# -- catalog I/O ---------------------------------------------------------------

HEADER = "id,lat_deg,lon_deg,semimajor_km,semiminor_km,orient_deg_east_ccw,arc_fraction\n"


def test_load_catalog_basic(tmp_path):
    f = tmp_path / "cat.csv"
    f.write_text(HEADER + "# a comment\nC1, 10.0, 20.0, 5.0, 4.0, 30.0, 0.95\n")
    records, problems = load_catalog(f)
    assert problems == []
    (rec,) = records
    assert rec.id == "C1"
    assert rec.lat == pytest.approx(np.deg2rad(10.0))
    assert rec.lon == pytest.approx(np.deg2rad(20.0))
    assert (rec.a, rec.b) == (5.0, 4.0)
    assert rec.psi == pytest.approx(np.deg2rad(30.0))
    assert rec.arc_fraction == 0.95


def test_load_catalog_rejects_bad_rows(tmp_path):
    f = tmp_path / "cat.csv"
    f.write_text(
        HEADER
        + "C1, 10, 20, 5, 4, 30, 0.95\n"
        + "C2, 10, 20, 4, 5, 30, 0.95\n"  # b > a
        + "C3, 95, 20, 5, 4, 30, 0.95\n"  # bad latitude
        + "C4, 10, 20, 5, 4, 30\n"  # short row
        + "C5, 89.995, 0, 5, 4, 0, 0.95\n"  # too close to the pole
    )
    records, problems = load_catalog(f)
    assert [r.id for r in records] == ["C1"]
    assert len(problems) == 4
    assert all("line" in p for p in problems)
    assert any("line 3" in p for p in problems)


def test_load_catalog_empty_and_header_only(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    records, problems = load_catalog(f)
    assert records == [] and problems == []
    f2 = tmp_path / "h.csv"
    f2.write_text(HEADER)
    records, problems = load_catalog(f2)
    assert records == [] and problems == []


def test_load_catalog_header_error(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("id,lat,lon\nC1,1,2\n")
    with pytest.raises(SchemaError):
        load_catalog(f)


def test_load_catalog_rejects_ids_the_index_cannot_hold(tmp_path):
    f = tmp_path / "cat.csv"
    f.write_text(
        HEADER
        + "C1, 10, 20, 5, 4, 30, 0.95\n"
        + '"A\tB", 11, 20, 5, 4, 30, 0.95\n'  # tab separates the index's id cells
        + '"A\nB", 12, 20, 5, 4, 30, 0.95\n'  # newline separates its id rows
        + "C2, 13, 20, 5, 4, 30, 0.95\n"
    )
    records, problems = load_catalog(f)
    assert [r.id for r in records] == ["C1", "C2"]
    assert [p.split(":")[0] for p in problems] == ["line 3", "line 4"]
    for bad in ("A\tB", "A\rB", "A\nB", "#A", " A", "A "):
        with pytest.raises(ValueError):
            CraterRecord(bad, 0.1, 0.2, 5.0, 4.0, 0.0)


def test_load_catalog_refuses_repeated_ids(tmp_path):
    f = tmp_path / "cat.csv"
    f.write_text(
        HEADER
        + "C1, 10, 20, 5, 4, 30, 0.95\n"
        + "C2, 11, 20, 5, 4, 30, 0.95\n"
        + "C1, 12, 20, 5, 4, 30, 0.95\n"
    )
    records, problems = load_catalog(f)
    assert [r.id for r in records] == ["C1", "C2"]
    assert records[0].lat == pytest.approx(np.deg2rad(10.0))  # the first row is kept
    assert problems == ["line 4: id C1 repeats line 2"]


def test_load_catalog_rejects_non_finite_values(tmp_path):
    f = tmp_path / "cat.csv"
    f.write_text(
        HEADER
        + "C1, nan, 20, 5, 4, 30, 0.95\n"
        + "C2, 10, inf, 5, 4, 30, 0.95\n"
        + "C3, 10, 20, 5, 4, nan, 0.95\n"
        + "C4, 10, 20, 5, 4, 30, 0.95\n"
    )
    records, problems = load_catalog(f)
    assert [r.id for r in records] == ["C4"]
    assert [p.split(":")[0] for p in problems] == ["line 2", "line 3", "line 4"]
    for field in ("lat", "lon", "a", "b", "psi"):
        values = {**dict(lat=0.1, lon=0.2, a=5.0, b=4.0, psi=0.0), field: np.inf}
        with pytest.raises(ValueError):
            CraterRecord("C", **values)


@st.composite
def _catalog_records(draw):
    recs = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.floats(1e-3, 500.0))
        try:
            rec = CraterRecord(
                id=draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)),
                lat=np.deg2rad(draw(st.floats(-89.9, 89.9))),
                lon=np.deg2rad(draw(st.floats(-180.0, 180.0))),
                a=a,
                b=draw(st.floats(1e-3, a)),
                psi=np.deg2rad(draw(st.floats(0.0, 180.0))),
                arc_fraction=draw(st.floats(0.0, 1.0)),
            )
        except ValueError:
            reject()  # an id CraterRecord refuses
        recs.append(rec)
    return recs


@settings(deadline=None, max_examples=80)
@given(_catalog_records())
def test_catalog_round_trip_property(recs):
    # What load_catalog returns is exactly the record as printed by save_catalog;
    # a record whose id repeats an earlier one is skipped with a problem line.
    def printed(v, fmt):
        return float(format(v, fmt))

    first: dict[str, int] = {}
    repeats = []
    for i, r in enumerate(recs):  # record i is on line i + 2, below the header
        if first.setdefault(r.id, i) != i:
            repeats.append(f"line {i + 2}: id {r.id} repeats line {first[r.id] + 2}")
    expected = [
        CraterRecord(
            id=r.id,
            lat=np.deg2rad(printed(np.rad2deg(r.lat), ".9f")),
            lon=np.deg2rad(printed(np.rad2deg(r.lon), ".9f")),
            a=printed(r.a, ".6f"),
            b=printed(r.b, ".6f"),
            psi=np.deg2rad(printed(np.rad2deg(r.psi), ".6f")),
            arc_fraction=printed(r.arc_fraction, ".4f"),
        )
        for i, r in enumerate(recs)
        if first[r.id] == i
    ]
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "cat.csv"
        save_catalog(recs, f)
        back, problems = load_catalog(f)
    assert problems == repeats
    assert back == expected


def test_catalog_round_trip(tmp_path):
    cat = patch_catalog(n=8, seed=3)
    f = tmp_path / "rt.csv"
    save_catalog(cat, f)
    back, problems = load_catalog(f)
    assert problems == []
    for a, b in zip(cat, back):
        assert a.id == b.id
        assert a.lat == pytest.approx(b.lat, abs=1e-10)
        assert a.a == pytest.approx(b.a, abs=1e-6)


# -- filtering -----------------------------------------------------------------


def _rec(id_, a, b, arc=0.95):
    from craterid.crater3d import CraterRecord

    return CraterRecord(id_, 0.1, 0.2, a, b, 0.0, arc)


def test_filter_diameter_gates():
    recs = [_rec("small", 2.5, 2.4), _rec("mid", 14.0, 13.0), _rec("big", 70.0, 68.0)]
    local = filter_catalog(recs, LOCAL_SCALE)  # diameters 4..30
    assert [r.id for r in local] == ["small", "mid"]
    regional = filter_catalog(recs, REGIONAL_SCALE)  # diameters 25..125
    assert [r.id for r in regional] == ["mid"]  # diam 28; 140 is out of range
    global_ = filter_catalog(recs, GLOBAL_SCALE)  # diameter over 100
    assert [r.id for r in global_] == ["big"]


def test_filter_ellipticity_and_arc():
    recs = [
        _rec("round", 30.0, 29.0),
        _rec("oval", 30.0, 24.0),  # a/b = 1.25 > 1.1
        _rec("weak", 30.0, 29.0, arc=0.85),
    ]
    out = filter_catalog(recs, REGIONAL_SCALE)
    assert [r.id for r in out] == ["round"]
    # local scale has no ellipticity bound
    assert len(filter_catalog(recs, LOCAL_SCALE)) == 0  # diameter 60 > 30


def test_scale_validation():
    with pytest.raises(ValueError):
        IndexScale("x", 3, 30.0, 10.0, 1.1, 0.9, "coplanar7", "ordered")
    with pytest.raises(ValueError):
        IndexScale("x", 3, 10.0, 30.0, 0.5, 0.9, "coplanar7", "ordered")
    with pytest.raises(ValueError):
        IndexScale("x", 3, 10.0, 30.0, 1.1, 0.9, "other", "ordered")
    with pytest.raises(ValueError):
        IndexScale("x", 3, 10.0, 30.0, 1.1, 0.9, "coplanar7", "rand")


@pytest.mark.parametrize(
    "field, value",
    [
        ("d_min", np.nan), ("d_min", -np.inf), ("d_max", np.nan), ("max_ellipticity", np.nan),
        ("min_arc_fraction", np.nan), ("min_arc_fraction", 5.0), ("min_arc_fraction", -0.1),
    ],
)
def test_scale_refuses_non_finite_and_out_of_range_fields(field, value):
    # NaN and -inf would reach the index header as JSON that strict readers
    # refuse; an arc fraction outside [0, 1] is no fraction.
    fields = dict(name="x", k=3, d_min=10.0, d_max=30.0, max_ellipticity=1.1,
                  min_arc_fraction=0.9, descriptor_kind="coplanar7", convention="ordered")
    with pytest.raises(ValueError, match=field):
        IndexScale(**(fields | {field: value}))


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1737.4])
def test_build_refuses_a_bad_radius(patch_records, radius):
    with pytest.raises(ValueError, match="radius"):
        build_index(patch_records, PATCH_SCALE, radius=radius)


# -- triad enumeration -----------------------------------------------------------


def test_enumeration_exactly_once_by_global_counting():
    # Oracle: brute-force every 3-combination, apply the same gates, and
    # compare against the per-pixel enumeration.
    cat = synthetic_catalog(n=200, d_min=80, d_max=200, seed=11, max_ellipticity=1.1)
    scale = IndexScale("t", 2, 50.0, np.inf, 1.2, 0.9, "noncoplanar3", "ordered")
    rows, _, _ = enumerate_triads(cat, scale)
    seen = set()
    for tri in rows.tolist():
        key = tuple(sorted(tri))
        assert key not in seen, "triad emitted twice"
        seen.add(key)

    grid = HealpixGrid(scale.k)
    units = np.array([crater_center(r.lat, r.lon, 1.0) for r in cat])
    pix = np.asarray(grid.ang2pix(units))
    semis = np.array([r.a for r in cat])
    from itertools import combinations

    radius = index_mod.LUNAR_RADIUS_KM
    # Vectorized one-pass oracle over every 3-combination.
    sep = np.arccos(np.clip(units @ units.T, -1, 1))
    ok_pair = sep > 1.1 * np.add.outer(semis, semis) / radius
    ii, jj, kk = np.array(list(combinations(range(len(cat)), 3))).T
    keep = ok_pair[ii, jj] & ok_pair[ii, kk] & ok_pair[jj, kk]
    ii, jj, kk = ii[keep], jj[keep], kk[keep]
    means = units[ii] + units[jj] + units[kk]
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    homes = np.asarray(grid.ang2pix(means))
    hoods = {p: {p, *grid.neighbors(p)} for p in range(grid.npix)}
    expected = {
        (int(a), int(b), int(c))
        for a, b, c, h in zip(ii, jj, kk, homes)
        if pix[a] in hoods[h] and pix[b] in hoods[h] and pix[c] in hoods[h]
    }
    assert seen == expected
    assert len(expected) > 50


def test_enumeration_clockwise_and_home_pixel():
    cat = patch_catalog(n=10, seed=5)
    rows, homes, _ = enumerate_triads(cat, PATCH_SCALE)
    assert len(rows)
    grid = HealpixGrid(PATCH_SCALE.k)
    units = [crater_center(r.lat, r.lon, 1.0) for r in cat]
    for tri, home in zip(rows.tolist(), homes.tolist()):
        mean = units[tri[0]] + units[tri[1]] + units[tri[2]]
        mean /= np.linalg.norm(mean)
        assert int(grid.ang2pix(mean)) == home
        assert clockwise_on_sphere([units[t] for t in tri], mean) == [0, 1, 2]


def test_enumeration_intersection_gate():
    # Two craters too close to each other never share a triad.
    from craterid.crater3d import CraterRecord

    radius = index_mod.LUNAR_RADIUS_KM
    sep = 1.5 * (20.0 + 20.0) / radius  # comfortably separated pair
    close = 0.9 * (20.0 + 20.0) / radius  # intersecting pair
    recs = [
        CraterRecord("a", 0.0, 0.0, 20.0, 19.0, 0.0),
        CraterRecord("b", 0.0, close, 20.0, 19.0, 0.0),
        CraterRecord("c", sep, 0.0, 20.0, 19.0, 0.0),
        CraterRecord("d", sep, sep, 20.0, 19.0, 0.0),
    ]
    scale = IndexScale("t", 1, 30.0, 50.0, 1.2, 0.9, "coplanar7", "ordered")
    rows, _, _ = enumerate_triads(recs, scale)
    for tri in rows.tolist():
        assert not ({0, 1} <= set(tri))


def test_fewer_than_three_records():
    scale = IndexScale("t", 2, 1.0, 100.0, 2.0, 0.5, "coplanar7", "ordered")
    for records in ([], [_rec("one", 5, 4)]):
        rows, home, frames = enumerate_triads(records, scale)
        assert (rows.shape, home.shape, frames.shape) == ((0, 3), (0,), (0, 3, 3))


def test_enumeration_frames_do_not_depend_on_record_order():
    # Each triad's frame is orthonormal with the normalized member sum as
    # its third column, and a shuffled catalogue gives the same triads (its
    # rows mapped back), home pixels and frame bytes.
    cat = synthetic_catalog(n=200, d_min=80, d_max=200, seed=11, max_ellipticity=1.1)
    scale = IndexScale("t", 2, 50.0, np.inf, 1.2, 0.9, "noncoplanar3", "ordered")
    rows, home, frames = enumerate_triads(cat, scale)
    assert len(rows) > 50
    assert np.abs(frames.mT @ frames - np.eye(3)).max() < 1e-12
    units = np.array([crater_center(r.lat, r.lon, 1.0) for r in cat])
    mean = units[rows].sum(axis=1)
    mean /= np.linalg.norm(mean, axis=1, keepdims=True)
    assert np.abs(frames[:, :, 2] - mean).max() < 1e-15
    perm = np.random.default_rng(4).permutation(len(cat))
    rows2, home2, frames2 = enumerate_triads([cat[i] for i in perm], scale)

    def keyed(rows, home, frames):
        return sorted(zip(home.tolist(), map(tuple, rows.tolist()), (f.tobytes() for f in frames)))

    assert keyed(rows, home, frames) == keyed(perm[rows2], home2, frames2)


def test_canonical_cameras_equal_look_at_pose():
    # The build's stacked canonical cameras are projection_matrix of
    # look_at_pose, also where East falls back to the x axis at a pole.
    from craterid.camera import Intrinsics, look_at_pose, projection_matrix

    near_poles = [[4e-10, -3e-10, 1.0], [0.0, 0.0, -1.0]]
    means = np.vstack([np.random.default_rng(8).normal(size=(40, 3)), near_poles])
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    frames = index_mod._tangent_frames(means)
    assert np.array_equal(frames[-2:, :, 0], [[1.0, 0.0, 0.0]] * 2)
    radius = index_mod.LUNAR_RADIUS_KM
    stacked = index_mod._canonical_cameras(frames, radius)
    r_cam = radius * (1.0 + index_mod._CANONICAL_VIEW_ALTITUDE_FACTOR) * means
    for p, r, east in zip(stacked, r_cam, frames[:, :, 0]):
        pose = look_at_pose(r, np.zeros(3), up_hint=east)
        ref = projection_matrix(Intrinsics(1000.0, 1000.0), pose)
        assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()


# -- descriptor index -----------------------------------------------------------


def test_self_query_distance_zero(patch_index):
    for entry in patch_index.entries:
        hits = patch_index.query(entry.values, 1)
        assert hits[0][0] == 0.0
        assert hits[0][1].ids == entry.ids


def test_query_matches_brute_force(patch_index):
    rng = np.random.default_rng(0)
    mat = np.vstack([e.values for e in patch_index.entries])
    for _ in range(500):
        q = mat[rng.integers(len(mat))] + rng.normal(0, 0.05, mat.shape[1])
        hits = patch_index.query(q, 4)
        brute = np.sort(np.linalg.norm(mat - q, axis=1))[:4]
        assert np.allclose([h[0] for h in hits], brute, rtol=1e-12)


def test_query_n_larger_than_index(patch_index):
    hits = patch_index.query(patch_index.entries[0].values, len(patch_index) + 50)
    assert len(hits) == len(patch_index)


def test_query_dimension_mismatch(patch_index):
    with pytest.raises(DimensionMismatchError):
        patch_index.query(np.zeros(3), 1)


def test_build_determinism(tmp_path):
    cat = patch_catalog(n=10, seed=9)
    i1 = build_index(cat, PATCH_SCALE)
    i2 = build_index(cat, PATCH_SCALE)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(i1, p1)
    save_index(i2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_round_trip(tmp_path, patch_index):
    path = tmp_path / "patch.idx"
    save_index(patch_index, path)
    loaded = load_index(path)
    assert len(loaded) == len(patch_index)
    assert loaded.scale == patch_index.scale
    assert loaded.names == patch_index.names
    assert np.array_equal(loaded.triads, patch_index.triads)
    assert np.array_equal(loaded.home, patch_index.home)
    assert loaded.values.tobytes() == patch_index.values.tobytes()  # bit exact
    # query parity
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = patch_index.values[rng.integers(len(patch_index))] + rng.normal(
            0, 0.1, patch_index.dim
        )
        h1 = patch_index.query(q, 3)
        h2 = loaded.query(q, 3)
        assert [x[0] for x in h1] == [x[0] for x in h2]
        assert [x[1].ids for x in h1] == [x[1].ids for x in h2]


def test_load_rejects_corruption(tmp_path, patch_index):
    path = tmp_path / "patch.idx"
    save_index(patch_index, path)
    blob = bytearray(path.read_bytes())
    # bad magic
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"XX" + bytes(blob[2:]))
    with pytest.raises(VersionMismatchError):
        load_index(bad)
    # bad version
    v = bytearray(blob)
    v[6] = 99
    bad.write_bytes(bytes(v))
    with pytest.raises(VersionMismatchError):
        load_index(bad)
    # truncated
    bad.write_bytes(bytes(blob[: len(blob) - 16]))
    with pytest.raises(VersionMismatchError):
        load_index(bad)
    # corrupted config -> hash mismatch
    c = bytearray(blob)
    c[20] ^= 0xFF
    bad.write_bytes(bytes(c))
    with pytest.raises(VersionMismatchError):
        load_index(bad)
    # Offsets of the fixed header after the config and of the blocks.
    (cfg_len,) = struct.unpack_from("<I", blob, 10)
    head = 14 + cfg_len + 32
    _, count, _, n_names, names_len = struct.unpack_from("<dQIQQ", blob, head)
    triads_at = head + 36 + names_len
    assert n_names == len(patch_index.names) and count == len(patch_index)
    # a triad code at or past the name count, or negative
    for code in (n_names, -1):
        t = bytearray(blob)
        struct.pack_into("<i", t, triads_at + 4 * 3 * (count // 2) + 4, code)
        bad.write_bytes(bytes(t))
        with pytest.raises(VersionMismatchError, match="outside the id table"):
            load_index(bad)
    # a name count that disagrees with the newline-separated names
    for wrong in (n_names - 1, n_names + 1):
        n = bytearray(blob)
        struct.pack_into("<Q", n, head + 20, wrong)
        bad.write_bytes(bytes(n))
        with pytest.raises(VersionMismatchError, match="id table length"):
            load_index(bad)
    # names that are not UTF-8
    u = bytearray(blob)
    u[head + 36] = 0xFF
    bad.write_bytes(bytes(u))
    with pytest.raises(VersionMismatchError, match="not UTF-8"):
        load_index(bad)
    # a file cut inside the triads block
    bad.write_bytes(bytes(blob[: triads_at + 6 * count]))
    with pytest.raises(VersionMismatchError, match="truncated"):
        load_index(bad)


def test_empty_crater_id_round_trips(tmp_path):
    # CraterRecord allows the id ""; it is the first name of the table.
    cat = patch_catalog(n=10, seed=9)
    cat[0] = replace(cat[0], id="")
    built = build_index(cat, PATCH_SCALE)
    assert built.names[0] == "" and np.any(built.triads == 0)
    save_index(built, tmp_path / "e.idx")
    loaded = load_index(tmp_path / "e.idx")
    assert loaded.names == built.names
    assert np.array_equal(loaded.triads, built.triads)
    row = int(np.flatnonzero((built.triads == 0).any(axis=1))[0])
    ((dist, entry),) = loaded.query(built.values[row], 1)
    assert dist == 0.0 and "" in entry.ids


def test_build_ignores_record_order(tmp_path, patch_records):
    shuffled = [patch_records[i] for i in np.random.default_rng(3).permutation(len(patch_records))]
    assert shuffled != patch_records
    save_index(build_index(patch_records, PATCH_SCALE), tmp_path / "a.idx")
    save_index(build_index(shuffled, PATCH_SCALE), tmp_path / "b.idx")
    assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()


def test_canonical_view_independence(monkeypatch, patch_records):
    # Rebuilding a non-coplanar index with a different synthetic camera
    # altitude must not change the descriptors.  Exact invariance requires
    # rims exactly on the reference sphere, i.e. circular craters; mildly
    # elliptical rims carry the documented quadric-surface approximation.
    from craterid.crater3d import CraterRecord

    circular = [
        CraterRecord(r.id, r.lat, r.lon, r.a, r.a, r.psi, r.arc_fraction)
        for r in patch_records
    ]
    scale = IndexScale("nc", 2, 6.0, 12.0, 1.5, 0.9, "noncoplanar3", "ordered")
    i1 = build_index(circular, scale)
    monkeypatch.setattr(index_mod, "_CANONICAL_VIEW_ALTITUDE_FACTOR", 1.2)
    i2 = build_index(circular, scale)
    assert len(i1) == len(i2) and len(i1) > 0
    for a, b in zip(i1.entries, i2.entries):
        assert a.ids == b.ids
        assert np.allclose(a.values, b.values, atol=1e-8)
    # Mildly elliptical rims: view dependence stays small but nonzero.
    oval = [r for r in patch_records if r.ellipticity <= 1.1] or [
        CraterRecord(r.id, r.lat, r.lon, r.a, r.a / 1.08, r.psi, r.arc_fraction)
        for r in patch_records
    ]
    i3 = build_index(oval, scale)
    monkeypatch.setattr(index_mod, "_CANONICAL_VIEW_ALTITUDE_FACTOR", 3.0)
    i4 = build_index(oval, scale)
    for a, b in zip(i3.entries, i4.entries):
        assert np.allclose(a.values, b.values, atol=1e-3)


def test_reduction_versus_all_combinations():
    # A 31-crater global-style catalog must index far fewer triads than
    # C(31, 3) = 4495.
    cat = synthetic_catalog(n=31, d_min=110, d_max=300, seed=13, max_ellipticity=1.1)
    rows, _, _ = enumerate_triads(cat, GLOBAL_SCALE)
    assert 0 < len(rows) <= 4495 / 5
