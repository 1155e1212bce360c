"""What a run records: checked outcomes, speed probes and in-memory spans.

A span is (name, tag, start, end, parent index).  ``name`` is
``<layer>.<function>`` for a call into the library and ``bench.<what>`` for
the benchmark's own grouping (a pass, a surface, a CLI round).  ``tag``
distinguishes calls of one function on different inputs (a surface size,
a local-graph mode).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("surface", "pants_graphs", "ends", "curves", "complexes", "morphisms", "verify", "cli")
_DETAIL_CAP = 20


# Wall seconds of each speed probe on an idle 2-core virtual machine; they
# only fix the scale of the scaled times.
LOOP_S = 0.008
INTERPRETER_S = 0.05


def reference():
    """A fixed pure-Python load (breadth-first searches over a dict of
    lists), timed next to the in-process workloads."""
    n = 2003
    adj = {i: sorted({(i * 7 + 1) % n, (i * 13 + 5) % n, (i + 1) % n, (i - 1) % n})
           for i in range(n)}
    total = 0
    for start in range(0, n, 400):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
    return total


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def loop_slowness():
    """How slow the machine runs in-process Python code right now: the
    median of three ``reference()`` wall times over ``LOOP_S``."""
    return statistics.median(_timed(reference) for _ in range(3)) / LOOP_S


def interpreter_slowness(env):
    """How slow the machine starts Python right now: a bare
    ``python -c pass`` child's wall time over ``INTERPRETER_S``.  It tracks
    import-bound work (CLI calls, set-up) better than ``reference()``."""
    return _timed(subprocess.run, [sys.executable, "-c", "pass"], env=env,
                  check=True, timeout=60) / INTERPRETER_S


class Ops(list):
    """Wall seconds of each operation.

    With a ``slowness`` probe, the machine's speed is sampled before the
    first operation and after every one, so each operation lies between two
    samples; ``factors[i]`` turns ``self[i]`` into seconds at the nominal
    speed.
    """

    def __init__(self, slowness=None):
        super().__init__()
        self.slowness = slowness
        self.samples = []
        self.factors = []
        self.sampling_s = 0.0
        if slowness:
            self._sample()

    def _sample(self):
        start = time.perf_counter()
        self.samples.append(self.slowness())
        self.sampling_s += time.perf_counter() - start

    def append(self, seconds):
        super().append(seconds)
        if self.slowness:
            before = self.samples[-1]
            self._sample()
            self.factors.append(2 / (before + self.samples[-1]))


def child_env(src):
    """Environment of every measured child: curvelab from ``src`` and the
    default worker pool (``CURVELAB_THREADS`` removed)."""
    env = dict(os.environ)
    env.pop("CURVELAB_THREADS", None)
    env["PYTHONPATH"] = str(src)
    return env


class Tally:
    """Checked operations of a run.

    Every operation whose result is checked counts as attempted; a mismatch
    or an exception counts as failed and the run goes on.  A failure that
    ``known`` marks as a defect recorded at the seed commit does not make
    the run incorrect; any other failure does.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.details = []

    def check(self, ok, what, known=False):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not known:
            self.unexpected += 1
        if len(self.details) < _DETAIL_CAP:
            self.details.append({"what": what, "known_defect": known})

    @property
    def correct(self):
        return self.unexpected == 0


class Tracer:
    """Records spans when ``enabled``; otherwise every method is a pass-through."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def call(self, name, tag, fn, *args, **kwargs):
        """Call ``fn`` and, when tracing, record it as a leaf span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, tag, start, time.perf_counter(), parent))

    def record(self, name, tag, start, end):
        """Record a span timed by the caller (a child process, for instance)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((name, tag, start, end, parent))

    @contextmanager
    def span(self, name, tag=None):
        """A span that encloses further spans."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, tag, start, time.perf_counter(), parent)

    def busy(self):
        """Total duration per span name and per ``name.tag``."""
        out = defaultdict(float)
        for name, tag, start, end, _ in self.spans:
            out[name] += end - start
            if tag is not None:
                out[f"{name}.{tag}"] += end - start
        return out

    def self_times(self):
        """Self time per layer: span duration minus the part its children cover.

        Children never overlap (the benchmark is single-threaded and waits for
        every child process), so the covered part is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, _, start, end, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return out

    def dump(self):
        return [
            {"name": n, "tag": t, "start": s, "end": e, "parent": p}
            for n, t, s, e, p in self.spans
        ]
