"""The benchmark's traced run finds every craterid function it wraps.

``bench/layers.py`` wraps functions in the module namespaces where their
callers look them up.  A name bound in none of them makes the per-layer
metrics that need it read ``"absent"``, so this guards the names the
program's modules bind against the benchmark's list.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import layers  # noqa: E402
from bench.spans import Tracer  # noqa: E402
from craterid import pipeline  # noqa: E402


def test_every_traced_function_is_bound_somewhere():
    original = pipeline.solve_position
    tracer = Tracer()
    layers.install(tracer, 13.277)
    tracer.restore()
    assert pipeline.solve_position is original
    assert tracer.absent - tracer.installed == set()
