"""Spans and counts recorded around craterid's public functions.

The program is not changed: ``Tracer.install`` replaces each function by a
recording wrapper in the module namespace where its callers look it up
(``pipeline`` binds ``solve_position``, ``gaussian_angle`` and the other
callees at import) and ``Tracer.restore`` puts the originals back.  A name
that no longer exists is recorded as absent instead of failing the run.

A span is (name, start, end, parent span, request id).  Spans stay in
memory and are written out by ``save`` when the run ends.  Counts are
recorded by the same wrappers, at the same call boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.outer: list[bool] = []  # no enclosing span of the same name
        self.counts: Counter = Counter()
        self.request_id = -1
        self.absent: set[str] = set()
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, after=None, on_error=None, quiet_children=False):
        """``fn`` recording one span per call.

        ``after(counts, result, args, kwargs)`` and ``on_error(counts, exc)``
        add counts at the call boundary.  ``quiet_children`` records nothing
        below this span (input generation, whose calls are not the
        workload's).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request_id)
            self.outer.append(self._open[name] == 0)
            self.ends.append(0.0)
            self._stack.append(i)
            self._open[name] += 1
            self._paused += quiet_children
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                self.ends[i] = time.perf_counter()
                self._paused -= quiet_children
                self._open[name] -= 1
                self._stack.pop()
            if after is not None:
                after(self.counts, out, args, kwargs)
            return out

        return traced

    def install(self, owner, attr: str, name: str, kind: str = "function", **hooks) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``kind`` is "function" (module attribute or plain method) or
        "classmethod".
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return
        if kind == "classmethod":
            wrapped = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            wrapped = self.wrap(name, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        self.installed.add(name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run oracle and bookkeeping code without recording it."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- reading ------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to summarise from: span count and a copy of the counts."""
        return len(self.names), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Per span name: calls, busy seconds and self seconds since ``since``.

        Busy time counts only spans with no enclosing span of the same name,
        so recursion is not counted twice.  Self time is a span's duration
        minus the part of its interval that its child spans cover.
        """
        lo, counts0 = since
        start = np.array(self.starts[lo:])
        end = np.array(self.ends[lo:])
        parent = np.array(self.parents[lo:], dtype=np.int64) - lo
        dur = end - start
        covered = child_cover(start, end, parent)
        out: dict[str, dict] = {}
        for k, name in enumerate(self.names[lo:]):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            if self.outer[lo + k]:
                s["busy_s"] += dur[k]
            s["self_s"] += dur[k] - covered[k]
        counts = Counter(self.counts)
        counts.subtract(counts0)
        return {"spans": out, "counts": dict(counts)}

    def save(self, path: Path) -> None:
        """Write every span as columns of a compressed ``.npz`` file."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_table=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            request=np.array(self.requests, dtype=np.int64),
        )


def child_cover(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Seconds of each span's interval covered by the union of its children.

    ``parent`` holds positions into the same arrays; -1 (or any negative
    value) marks a root.  Children are clipped to their parent's interval
    and overlapping children are counted once.
    """
    covered = np.zeros(len(start))
    children: dict[int, list[int]] = {}
    for k, p in enumerate(parent.tolist()):
        if p >= 0:
            children.setdefault(p, []).append(k)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        total = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: start[k]):
            a = max(start[k], reach)
            b = min(end[k], hi)
            if b > a:
                total += b - a
                reach = b
        covered[p] = total
    return covered
