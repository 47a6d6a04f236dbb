"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces a public function at the module attribute its caller
looks up (for example ``mfldproj.experiments.sample_projector``, which
``distortion_distribution`` calls) with a wrapper that records one span
per call, and puts the original back afterwards.  Spans stay in memory;
the caller writes them out.  Nothing inside the package changes.

A span is (name, start, end, parent, run) plus the process CPU time it
covers and the tracemalloc peak above its starting allocation.  A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute looked up by the caller, span name).  The span name
# is the layer that defines the function, so one name can cover several
# bindings: sample_projector is called from experiments and from cones.
BINDINGS = (
    ("mfldproj.harness", "run", "harness.run"),
    ("mfldproj.experiments", "m_star_empirical", "experiments.m_star_empirical"),
    ("mfldproj.experiments", "distortion_distribution", "experiments.distortion_distribution"),
    ("mfldproj.experiments", "sample_manifold", "sampling.sample_manifold"),
    ("mfldproj.experiments", "sample_projector", "projections.sample_projector"),
    ("mfldproj.cones", "verify_chordal_guarantee", "cones.verify_chordal_guarantee"),
    ("mfldproj.cones", "verify_tangential_guarantee", "cones.verify_tangential_guarantee"),
    ("mfldproj.cones", "sample_projector", "projections.sample_projector"),
    ("mfldproj.cones", "vector_distortion", "projections.vector_distortion"),
    ("mfldproj.cones", "random_subspace", "projections.random_subspace"),
    ("mfldproj.cones", "subspace_distortion", "projections.subspace_distortion"),
    ("mfldproj.bounds", "m_star_bound", "bounds.m_star_bound"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    cpu_s: float = 0.0
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Recorder:
    """Open-span stack and finished spans of one traced run."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[tuple[int, float, int]] = []  # (span index, cpu at start, peak seen)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                i, cpu0, seen = self._stack[-1]
                self._stack[-1] = (i, cpu0, max(seen, peak))
            tracemalloc.reset_peak()
            parent = self._stack[-1][0] if self._stack else None
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
            self._stack.append((idx, time.process_time(), cur))
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, peak = tracemalloc.get_traced_memory()
                _, cpu0, seen = self._stack.pop()
                seen = max(seen, peak)
                span = self.spans[idx]
                span.end = end
                span.cpu_s = time.process_time() - cpu0
                span.peak_bytes = seen - cur
                if self._stack:
                    i, pcpu, pseen = self._stack[-1]
                    self._stack[-1] = (i, pcpu, max(pseen, seen))

        return traced


@contextmanager
def tracing(run: str, bindings=BINDINGS):
    """Wrap every binding for the duration of the block; yield the span list.

    tracemalloc runs inside the block so each span can report its peak
    allocation; it is stopped and every original function restored on exit.
    """
    rec = _Recorder(run)
    saved = []
    tracemalloc.start()
    try:
        for module_name, attr, name in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(original, name))
        yield rec.spans
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        tracemalloc.stop()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, CPU seconds and the
    largest peak allocation in MiB."""
    agg: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "peak_mb": 0.0})
        a["calls"] += 1
        a["s"] += s.duration
        a["self_s"] += self_s
        a["cpu_s"] += s.cpu_s
        a["peak_mb"] = max(a["peak_mb"], s.peak_bytes / 2**20)
    return agg
