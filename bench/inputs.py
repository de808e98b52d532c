"""Inputs shared by the identify workloads: a catalogue CSV and its index.

The 8,000-crater local index takes minutes to build, so it is built once
per source tree, outside every timed run, into ``.bench_cache/<key>/`` at
the repository root.  ``key`` hashes every file of ``src/craterid`` and the
parameters below, so a change to the program or to the inputs builds a new
entry.  The catalogue is written to CSV first and the index is built from
the catalogue as read back from that CSV, so the two agree exactly: the
identify workloads load both files the way ``craterid identify`` does.

``python3 bench/run.py --rebuild-cache`` rebuilds the entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from craterid.camera import Intrinsics
from craterid.index import IndexScale, build_index, load_catalog, save_catalog, save_index
from craterid.pipeline import synthetic_catalog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "craterid"
CACHE_ROOT = ROOT / ".bench_cache"

# The local catalogue and scale of the test suite's acceptance criteria 7-9.
LOCAL_CATALOG = {"n": 8000, "d_min": 15.0, "d_max": 60.0, "seed": 7, "max_ellipticity": 1.3}
LOCAL_SCALE = IndexScale("locals", 5, 15.0, 60.0, np.inf, 0.9, "coplanar7", "ordered")
# The first 110 craters of the test suite's global catalogue (seed 21).
GLOBAL_CATALOG = {"n": 110, "d_min": 110.0, "d_max": 260.0, "seed": 21, "max_ellipticity": 1.1}

# Apollo-metric-like camera of the acceptance criteria: 73.7 deg square FOV.
_APOLLO_DX = 1100.0 / np.tan(np.deg2rad(73.7 / 2.0))
APOLLO_CAMERA = Intrinsics(
    dx=_APOLLO_DX, dy=_APOLLO_DX, skew=0.0, up=1099.5, vp=1099.5, rows=2200, cols=2200
)

CATALOG_FILE = "catalog.csv"
GLOBAL_CATALOG_FILE = "global.csv"
INDEX_FILE = "local.idx"
META_FILE = "meta.json"


def cache_key() -> str:
    """Hash of the program's sources and of the input parameters."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    h.update(json.dumps([LOCAL_CATALOG, GLOBAL_CATALOG], sort_keys=True).encode())
    h.update(LOCAL_SCALE.to_json().encode())
    return h.hexdigest()[:20]


def cache_dir() -> Path:
    return CACHE_ROOT / cache_key()


def ensure_cache(rebuild: bool = False) -> Path:
    """Return the cache entry for this source tree, building it if needed."""
    target = cache_dir()
    if (target / META_FILE).is_file() and not rebuild:
        return target
    CACHE_ROOT.mkdir(exist_ok=True)
    tmp = CACHE_ROOT / f".tmp-{target.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        t0 = time.perf_counter()
        save_catalog(synthetic_catalog(**GLOBAL_CATALOG), tmp / GLOBAL_CATALOG_FILE)
        save_catalog(synthetic_catalog(**LOCAL_CATALOG), tmp / CATALOG_FILE)
        records, problems = load_catalog(tmp / CATALOG_FILE)
        if problems:
            raise RuntimeError(f"catalogue read back with problems: {problems[:3]}")
        t1 = time.perf_counter()
        index = build_index(records, LOCAL_SCALE)
        t2 = time.perf_counter()
        save_index(index, tmp / INDEX_FILE)
        meta = {
            "key": target.name,
            "craters": len(records),
            "triads": len(index),
            "skipped": index.skipped,
            "catalog_s": t1 - t0,
            "build_index_s": t2 - t1,
        }
        (tmp / META_FILE).write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        # Entries of other source trees are stale; one entry is kept.
        for old in CACHE_ROOT.iterdir():
            if old != tmp:
                shutil.rmtree(old, ignore_errors=True)
        os.replace(tmp, target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return target
