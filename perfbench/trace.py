"""In-memory spans around calls into the vtalarm package.

The tracer wraps public functions and methods from the outside: module
functions are replaced in every ``vtalarm`` module namespace that binds
them (``cli`` imports names with ``from .features import ...``, so
patching only the defining module would miss those calls), and methods
are replaced on their class. Nothing in the package changes on disk,
and :meth:`Tracer.installed` restores every original on exit.

A span records its name, start, end, parent span and the run id. Spans
stay in memory until :meth:`Tracer.write` dumps them at the end of the
run. Self time is a span's duration minus the union of the intervals
its direct children cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    run_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """What to wrap: ``target`` is ``module:function`` or ``module:Class.method``.

    ``peak`` turns tracemalloc on for the span and records the peak bytes
    allocated inside it; ``attrs`` is called as ``attrs(result, args,
    kwargs)`` and returns extra span attributes (row counts, bytes read).
    """

    name: str
    target: str
    peak: bool = False
    attrs: Callable | None = None


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, peak: bool = False):
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, name, self.clock(), run_id=self.run_id)
        self.spans.append(record)
        self._stack.append(record)
        if peak:
            tracemalloc.start()
        try:
            yield record
        finally:
            if peak:
                record.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            record.end = self.clock()
            self._stack.pop()

    def _wrapper(self, probe: Probe, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(probe.name, peak=probe.peak) as record:
                result = fn(*args, **kwargs)
                if probe.attrs is not None:
                    record.attrs.update(probe.attrs(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, probes):
        """Wrap every probe's target for the duration of the block."""
        undo = []
        try:
            for probe in probes:
                module_name, attr = probe.target.split(":")
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrapper(probe, original))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrapper(probe, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "vtalarm" and getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                row = {"id": s.span_id, "parent": s.parent_id, "name": s.name, "start": s.start,
                       "end": s.end, "run_id": s.run_id, "self_s": selfs[s.span_id], **s.attrs}
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the direct children's intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in sorted(children.get(s.span_id, [])):
            start, end = max(start, s.start), min(end, s.end)
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.span_id] = s.duration - covered
    return out


@dataclass
class SpanStats:
    calls: int
    total_s: float
    median_s: float
    median_self_s: float
    attrs: dict


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: call count, total and median duration, median self
    time and summed numeric attributes (``peak_bytes`` takes the maximum)."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for name, group in by_name.items():
        attrs: dict = {}
        for s in group:
            for key, value in s.attrs.items():
                attrs[key] = max(attrs.get(key, value), value) if key == "peak_bytes" else attrs.get(key, 0) + value
        out[name] = SpanStats(
            calls=len(group),
            total_s=sum(s.duration for s in group),
            median_s=statistics.median(s.duration for s in group),
            median_self_s=statistics.median(selfs[s.span_id] for s in group),
            attrs=attrs,
        )
    return out
