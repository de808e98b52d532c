"""Benchmark of craterid: index build, nadir and oblique identification.

    python3 bench/run.py --workload identify-nadir --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --rebuild-cache

Runs one workload from one process and one thread for at least
``--seconds`` seconds of whole rounds, checks every output, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from a run that alternates
untraced and traced rounds.  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def run_untraced(workload, cache, seed: int, seconds: float, tally):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous set-up before measuring the next
        t0 = time.perf_counter()
        state = workload.setup(cache)
        setup_s.append(time.perf_counter() - t0)
    workload.prepare(state, seed, None)
    start = time.perf_counter()
    while True:
        workload.round(state, tally, None)
        if time.perf_counter() - start >= seconds:
            break
    ops = tally.op_s
    if not tally.position_err_m:
        raise SystemExit("error: no correct match, so no position error to report")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(ops, 90)), "ms"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "position_err_m_p50": (statistics.median(tally.position_err_m), "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "index_mb": (workload.index_mb(state), "MB"),
    }
    return state, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_traced(workload, cache, seed: int, seconds: float, tally, trace_path: Path):
    """One traced set-up, then untraced and traced rounds in turn.

    Per-layer values are the traced set-up plus the mean traced round.  The
    overhead compares the traced rounds' wall time with the untraced ones'.
    """
    from bench import layers
    from bench.spans import Tracer
    from bench.workloads import GATE

    tracer = Tracer()
    layers.install(tracer, GATE.threshold)
    mark = tracer.mark()
    try:
        state = workload.setup(cache)
        workload.prepare(state, seed, tracer)
    finally:
        tracer.restore()
    setup = tracer.summary(mark)
    rounds = []
    wall = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                layers.install(tracer, GATE.threshold)
                mark = tracer.mark()
            t0 = time.perf_counter()
            try:
                workload.round(state, tally, tracer if traced else None)
            finally:
                tracer.restore()
            wall[traced] += time.perf_counter() - t0
            if traced:
                rounds.append(tracer.summary(mark))
        if time.perf_counter() - start >= seconds:
            break
    with tracer.paused():
        tracer.save(trace_path)
    summary = _combine(setup, rounds)
    overhead = 100.0 * (wall[True] / wall[False] - 1.0)
    return layers.layer_metrics(summary, tracer.absent, tracer.installed, overhead)


def _combine(setup: dict, rounds: list[dict]) -> dict:
    """Set-up summary plus the mean of the round summaries."""
    n = len(rounds)
    spans = {k: dict(v) for k, v in setup["spans"].items()}
    counts = dict(setup["counts"])
    for r in rounds:
        for name, s in r["spans"].items():
            t = spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key, v in s.items():
                t[key] += v / n
        for key, v in r["counts"].items():
            counts[key] = counts.get(key, 0) + v / n
    for t in spans.values():
        t["calls"] = _exact(t["calls"])
    return {"spans": spans, "counts": {k: _exact(v) for k, v in counts.items()}}


def _exact(v):
    """Counts repeat exactly between rounds; keep them integers."""
    return int(round(v)) if abs(v - round(v)) < 1e-9 else v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rebuild-cache", action="store_true",
                        help="rebuild the cached catalogue and index, then exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "craterid" / "__init__.py").is_file():
        print(f"error: no craterid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import inputs
    from bench.workloads import WORKLOADS, Tally

    if args.rebuild_cache:
        print(inputs.ensure_cache(rebuild=True))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    cache = inputs.ensure_cache()
    workload = WORKLOADS[args.workload]
    tally = Tally()
    try:
        if args.trace:
            trace_path = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.npz"
            metrics = run_traced(workload, cache, args.seed, args.seconds, tally, trace_path)
            print(f"spans written to {trace_path}", file=sys.stderr)
        else:
            state, metrics = run_untraced(workload, cache, args.seed, args.seconds, tally)
            print(f"details: {json.dumps(workload.details(state))}", file=sys.stderr)
    finally:
        for reason in tally.failed:
            print(f"FAILED: {reason}", file=sys.stderr)
        for reason in tally.wrong:
            print(f"WRONG: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
