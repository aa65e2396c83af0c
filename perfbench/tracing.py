"""In-memory spans around the program's public layer boundaries.

:func:`install` wraps public functions of each layer at run time, from
this file, so the program itself carries no tracing code. Each call
becomes one span: ``(span_id, parent_id, name, start, end, request_id,
images)``. Spans on one thread nest through a thread-local stack; a span
opened with a request id passes it to every span below it. Spans stay in
memory until :meth:`Tracer.dump` writes them out.

:func:`self_times` and :func:`account` turn spans into per-layer self
time plus an explicit unaccounted residual.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

#: Span name prefix -> the layer its self time is charged to.
LAYERS = {
    "server.": "server",
    "wire.": "wire",
    "workers.": "workers",
    "pipeline.": "pipeline",
    "ensemble.": "ensemble",
    "detector.": "detectors",
    "audit.": "audit",
    "calibrate.": "calibrate",
    "harness.": "harness",
}

_ID, _PARENT, _NAME, _START, _END, _REQUEST, _IMAGES = range(7)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS.items():
        if name.startswith(prefix):
            return layer
    raise KeyError(f"span {name!r} belongs to no layer")


class Tracer:
    """Records spans; safe to use from many threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, *, request_id=None, images=1):
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        request_id = request_id if request_id is not None else inherited
        span_id = next(self._ids)
        stack.append((span_id, request_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append((span_id, parent, name, start, end, request_id, images))

    def wrap(self, owner, attr: str, name, *, request_id=None, images=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        *name* is a span name or a function of the call's positional
        arguments; *request_id* and *images* likewise read the arguments.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(
                name(args) if callable(name) else name,
                original,
                args,
                kwargs,
                request_id=request_id(args) if request_id else None,
                images=images(args) if images else 1,
            )

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every layer the benchmark reports on."""
    import repro.serving.pipeline as pipeline_module
    import repro.serving.server as server_module
    import repro.serving.wire as wire_module
    import repro.serving.workers as workers_module
    from repro.core.detector import Detector
    from repro.core.ensemble import DetectionEnsemble
    from repro.serving.audit import AuditLog
    from repro.serving.pipeline import ProtectedPipeline
    from repro.serving.server import DetectionServer
    from repro.serving.workers import WorkerPool

    def header_id(args):
        return (args[3].get("X-Request-Id") or "").strip() or None

    def batch_size(args):
        return len(args[1])

    def method(prefix):
        return lambda args: f"{prefix}.{args[0].method}"

    tracer.wrap(DetectionServer, "handle_http_request", "server.request",
                request_id=header_id)
    tracer.wrap(DetectionServer, "score_single", "server.score")
    # Modules that imported the decoder by name hold their own reference.
    for module in (wire_module, server_module, workers_module):
        tracer.wrap(module, "decode_image_payload", "wire.decode")
    tracer.wrap(WorkerPool, "submit", "workers.submit")
    tracer.wrap(ProtectedPipeline, "submit", "pipeline.submit")
    tracer.wrap(ProtectedPipeline, "submit_batch", "pipeline.submit_batch",
                images=batch_size)
    tracer.wrap(pipeline_module, "resize", "pipeline.resize")
    tracer.wrap(DetectionEnsemble, "detect_from", "ensemble.detect")
    tracer.wrap(DetectionEnsemble, "detect_batch", "ensemble.detect", images=batch_size)
    tracer.wrap(DetectionEnsemble, "calibrate", "calibrate.ensemble")
    tracer.wrap(Detector, "detect_from", method("detector"))
    tracer.wrap(Detector, "detect_batch", method("detector"), images=batch_size)
    tracer.wrap(Detector, "calibrate", method("calibrate"))
    tracer.wrap(AuditLog, "append", "audit.append")
    tracer.wrap(AuditLog, "quarantine", "audit.quarantine")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list) -> dict[int, float]:
    """``span_id -> self time`` in seconds: a span's duration minus the
    part of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[_PARENT] is not None:
            children[span[_PARENT]].append((span[_START], span[_END]))
    return {
        span[_ID]: (span[_END] - span[_START])
        - _covered(span[_START], span[_END], children.get(span[_ID], []))
        for span in spans
    }


def account(spans: list, client_ms: dict[str, float]) -> dict[str, float]:
    """Mean per-request self time of each layer, in ms, plus the residual.

    Only requests in *client_ms* (request id -> client latency) count.
    ``unaccounted`` is client latency minus the request's root spans, so
    for every request the layers and the residual add up to its client
    latency; the means therefore add up to the mean client latency.
    """
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    roots: dict[str, float] = defaultdict(float)
    for span in spans:
        request = span[_REQUEST]
        if request not in client_ms:
            continue
        totals[layer_of(span[_NAME])] += selfs[span[_ID]] * 1000.0
        if span[_PARENT] is None:
            roots[request] += (span[_END] - span[_START]) * 1000.0
    count = len(client_ms)
    if not count:
        return {}
    out = {layer: value / count for layer, value in totals.items()}
    out["unaccounted"] = sum(
        latency - roots.get(request, 0.0) for request, latency in client_ms.items()
    ) / count
    return out


def per_image_ms(spans: list, name: str) -> float:
    """Mean duration per image of every span called *name*, in ms."""
    matching = [s for s in spans if s[_NAME] == name]
    images = sum(s[_IMAGES] for s in matching)
    if not images:
        return 0.0
    return sum(s[_END] - s[_START] for s in matching) * 1000.0 / images


def per_call_ms(spans: list, name: str) -> tuple[float, int]:
    """Mean duration per call of spans called *name* (ms), and the count."""
    durations = [s[_END] - s[_START] for s in spans if s[_NAME] == name]
    if not durations:
        return 0.0, 0
    return sum(durations) * 1000.0 / len(durations), len(durations)


def by_request(spans: list, name: str) -> dict[str, float]:
    """``request_id -> total duration (ms)`` of spans called *name*."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if span[_NAME] == name and span[_REQUEST] is not None:
            out[span[_REQUEST]] += (span[_END] - span[_START]) * 1000.0
    return dict(out)


def images_of(spans: list, prefix: str) -> int:
    """Images covered by spans whose name starts with *prefix*."""
    return sum(s[_IMAGES] for s in spans if s[_NAME].startswith(prefix))
