"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under src/ is changed. While an operation is instrumented, the
names densegaze.pipeline calls (render_gt_density, saccade, run_gaze,
merge_run) are rebound to wrappers that open a span, and the adapter's
detect is shadowed by an instance attribute. The wrapper defines no
detect_batch, so run_gaze keeps the call path it has untraced.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext

from densegaze import pipeline

# Names run_pipeline looks up in its module globals, and their span names.
PIPELINE_CALLS = {
    "render_gt_density": "density.render_gt_density",
    "saccade": "saccade.saccade",
    "run_gaze": "gaze.run_gaze",
    "merge_run": "merge.merge_run",
}


class Tracer:
    """Keeps spans in memory: name, start, end, parent and operation id.

    Times are seconds from the tracer's creation. Parents follow a
    per-thread stack; detect calls made by run_gaze's worker threads take
    the open run_gaze span as their parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._gaze_span: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, op: int | None, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter() - self._origin
        try:
            yield span_id
        finally:
            end = time.perf_counter() - self._origin
            stack.pop()
            record = {"id": span_id, "name": name, "op": op, "parent": parent, "start": start, "end": end}
            with self._lock:
                self.spans.append(record)

    @contextmanager
    def instrument(self, adapter, op: int):
        """Wrap the pipeline's layer calls and adapter.detect for one operation."""
        originals = {name: getattr(pipeline, name) for name in PIPELINE_CALLS}

        def wrap(fn, span_name):
            def traced(*args, **kwargs):
                with self.span(span_name, op) as span_id:
                    if span_name == "gaze.run_gaze":
                        self._gaze_span = span_id
                    return fn(*args, **kwargs)

            return traced

        inner_detect = adapter.detect

        def detect(np_patch):
            with self.span("gaze.detect", op, parent=self._gaze_span):
                return inner_detect(np_patch)

        for name, span_name in PIPELINE_CALLS.items():
            setattr(pipeline, name, wrap(originals[name], span_name))
        adapter.detect = detect
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(pipeline, name, fn)
            del adapter.detect
            self._gaze_span = None


def maybe_span(tracer: Tracer | None, name: str, op: int | None):
    """A span when tracing, otherwise a no-op context."""
    return tracer.span(name, op) if tracer is not None else nullcontext()


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval its children cover."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children
    )
    covered = 0.0
    cursor = span["start"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return (span["end"] - span["start"]) - covered


def op_layer_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds for the spans of one operation.

    Durations of same-named spans are summed; detect spans, which may run
    concurrently, sum to the adapter's busy time.
    """
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"])
    for s in spans:
        if s["name"] == "pipeline.run_pipeline":
            children = [c for c in spans if c["parent"] == s["id"]]
            totals["pipeline.self"] = totals.get("pipeline.self", 0.0) + self_time(s, children)
    return totals
