"""Span recording for the traced run, from outside the program.

Spans are taken at the layer boundaries the benchmark can reach without
editing ``src/``:

* around the public calls the benchmark makes (sampler entry points,
  ``SamplerSession.submit``/``drain``/``update``, ``ClusterSession.sample``/
  ``update``);
* around ``ExecutionBackend.execute``, through :class:`TracedBackend`, a
  delegating backend passed as ``backend=`` (also to ``serve(...)`` and
  ``LocalCluster(backend=...)``);
* around ``condition()`` of the Algorithm-1 families, by wrapping the class
  method for the duration of the traced pass (:func:`traced_condition`).

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence

from repro.engine import ExecutionBackend, resolve_backend


class Tracer:
    """In-memory span store: name, start, end, parent and request id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request_of: Dict[int, object] = {}
        #: parent for spans opened on threads the benchmark did not start
        #: (drain threads, shard-node server threads): the main thread's open span
        self.main_span: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: object = None, **attrs) -> Iterator[Dict[str, object]]:
        """Open a span; the yielded record takes extra attributes until it ends."""
        stack = self._stack()
        parent = stack[-1] if stack else self.main_span
        span_id = next(self._ids)
        if request is None and parent is not None:
            request = self._request_of.get(parent)
        self._request_of[span_id] = request
        on_main = threading.current_thread() is threading.main_thread()
        stack.append(span_id)
        if on_main:
            previous, self.main_span = self.main_span, span_id
        record = {"id": span_id, "name": name, "parent": parent, "request": request}
        record.update(attrs)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if on_main:
                self.main_span = previous
            with self._lock:
                self.spans.append(record)

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        children: Dict[int, List[Dict[str, object]]] = {}
        for record in self.spans:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        result = {}
        for record in self.spans:
            start, end = record["start"], record["end"]
            covered, cursor = 0.0, start
            for child in sorted(children.get(record["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(child["start"], cursor), min(child["end"], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[record["id"]] = (end - start) - covered
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), handle)


class TracedBackend(ExecutionBackend):
    """Delegating backend: one ``engine.execute`` span per executed batch.

    Routing is left to the process-wide default (the ``auto`` planner), so
    samples are unchanged; the span records the batch label, its query count
    and the backend ``auto`` actually picked.
    """

    name = "traced"

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.inner = resolve_backend(None)

    def execute(self, batch, *, tracker=None):
        with self.tracer.span("engine.execute", label=batch.label, kind=batch.kind,
                              queries=batch.n_queries) as record:
            result = self.inner.execute(batch, tracker=tracker)
            record["backend"] = result.backend
        return result

    def traits(self):
        return self.inner.traits()

    def shipping_bytes(self, batch) -> int:
        return self.inner.shipping_bytes(batch)

    # execute() is fully delegated; the abstract hooks are never reached
    def _counting(self, batch, tracker):  # pragma: no cover
        raise NotImplementedError

    def _joint_marginals(self, batch, tracker):  # pragma: no cover
        raise NotImplementedError

    def _log_principal_minors(self, batch, tracker):  # pragma: no cover
        raise NotImplementedError


@contextlib.contextmanager
def traced_condition(tracer: Tracer, classes: Dict[str, type]) -> Iterator[None]:
    """Record a ``dpp.condition`` span per ``cls.condition`` call, per family."""
    originals = {family: cls.condition for family, cls in classes.items()}

    def wrap(family: str, method):
        def condition(self, include):
            with tracer.span("dpp.condition", family=family):
                return method(self, include)
        return condition

    for family, cls in classes.items():
        cls.condition = wrap(family, originals[family])
    try:
        yield
    finally:
        for family, cls in classes.items():
            cls.condition = originals[family]


#: Algorithm-1 round labels the engine metrics are keyed by; batches of kind
#: ``projection_step`` (HKPV phase 2, fused or not) count as "projection-step"
ROUND_CLASSES = ("conditional-marginals", "joint-marginals", "fallback-marginals",
                 "projection-step")
AUTO_TARGETS = ("vectorized", "threads", "process")


def round_class(record: Dict[str, object]) -> Optional[str]:
    if record.get("kind") == "projection_step":
        return "projection-step"
    return record["label"] if record["label"] in ROUND_CLASSES else None


def summarize(tracer: Tracer, ops: int, algorithm1: Sequence[str]) -> Dict[str, float]:
    """Per-layer seconds (and counts) per workload operation, from the spans."""
    by_id = {record["id"]: record for record in tracer.spans}
    self_time = tracer.self_times()
    out: Dict[str, float] = collections.defaultdict(float)
    backend_time: Dict[str, float] = collections.defaultdict(float)
    for record in tracer.spans:
        name = record["name"]
        duration = record["end"] - record["start"]
        if name.startswith("core.sample."):
            family = name[len("core.sample."):]
            if family in algorithm1:
                out["core.self_s"] += self_time[record["id"]]
            elif family == "planar_matching":
                out["planar.sample_s"] += duration
            elif family == "lowrank_kdpp":
                out["lowrank.sample_s"] += duration
        elif name == "engine.execute":
            backend_time[record.get("backend")] += duration
            label = round_class(record)
            if label is not None:
                out[f"engine.execute_s.{label}"] += duration
                out[f"engine.execute_calls.{label}"] += 1
                out[f"engine.queries.{label}"] += record["queries"]
        elif name == "dpp.condition":
            parent = by_id.get(record["parent"])
            # conditioning the sampler loop asks for; conditioning inside an
            # oracle answer is already part of that round's execute time
            if parent is not None and parent["name"].startswith("core.sample."):
                out[f"dpp.condition_s.{record['family']}"] += duration
        elif name == "service.drain":
            out["service.drain_s"] += duration
    per_op = {key: value / max(ops, 1) for key, value in out.items()}
    total = sum(backend_time.values())
    for backend in AUTO_TARGETS:
        per_op[f"engine.backend_share.{backend}"] = backend_time[backend] / total if total else 0.0
    return per_op
