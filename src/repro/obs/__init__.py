"""``repro.obs`` — unified observability for the whole serving stack.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.trace.Tracer` back every instrumented layer:

* every engine backend wraps round execution in a span
  (``repro_rounds_total``, ``repro_round_seconds``, per-round trace records);
* the planner records each routing decision and the measured wall time of
  every routed round against the EWMA it was routed on;
* the scheduler reports fusion width, queue wait, and drain latency;
* the factorization caches and kernel registries re-export their existing
  counters through registry *collectors* (no double bookkeeping);
* cluster nodes time every wire op and clients count replica failovers;
* the intermediate sampler emits acceptance/skip/escalation events with the
  computable acceptance certificate.

PR 10 adds **request-scoped distributed tracing** on top: a deterministic
:class:`~repro.obs.context.TraceContext` born at
``SamplerSession.sample()`` / ``ClusterSession.submit()`` flows through
the fused scheduler (span links from each fused round back to every
submitter's request span), across cluster protocol frames (optional
``trace`` field; shard nodes open server-side child spans) and into
process-pool worker chunks via ``BatchPayload.trace``.  Request latencies
feed an :class:`~repro.obs.slo.SLOTracker` (streaming p50/p95/p99 per
kernel family and per cluster op, P² estimator) and a
:class:`~repro.obs.slo.FlightRecorder` that keeps the complete span tree
of any request slower than a configurable budget, exportable as Chrome
trace-event JSON (:mod:`repro.obs.export`).

Everything is **off by default** and costs one boolean check per hook when
off.  ``enable()`` / ``disable()`` flip metrics+tracing together;
``configure(slo=True)`` arms latency quantiles and
``configure(flight_budget=0.040)`` arms the flight recorder at 40 ms.

Export: :func:`snapshot` (JSON-serializable) and
:func:`render_prometheus` (Prometheus text exposition, scrapable from any
HTTP handler that serves the string), plus ``python -m repro.obs`` for
JSON/Prometheus/Chrome-trace dumps without writing code.

This module imports nothing from ``repro.engine`` / ``repro.service`` /
``repro.cluster`` — instrumented modules import *it* (lazily where needed),
never the other way around, so there are no import cycles.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Union

from repro.obs.context import (Span, TraceContext, activate, context_from_wire,
                               current_context, new_context, reset_ids)
from repro.obs.export import (chrome_trace, chrome_trace_events,
                              dump_chrome_trace)
from repro.obs.metrics import (CollectedMetric, Counter, Gauge, Histogram,
                               MetricsRegistry, RATIO_BUCKETS, SIZE_BUCKETS,
                               TIME_BUCKETS)
from repro.obs.rollup import CACHE_TOTAL_KEYS, cluster_rollup, session_stats
from repro.obs.slo import FlightRecorder, SLOTracker
from repro.obs.trace import Tracer

__all__ = [
    "MetricsRegistry", "Tracer",
    "SLOTracker", "FlightRecorder", "TraceContext", "Span",
    "Counter", "Gauge", "Histogram", "CollectedMetric",
    "registry", "tracer", "slo", "flight_recorder",
    "enabled", "tracing", "enable", "disable", "configure", "reset",
    "snapshot", "render_prometheus",
    "chrome_trace", "chrome_trace_events", "dump_chrome_trace",
    "session_stats", "cluster_rollup", "CACHE_TOTAL_KEYS",
    "family_of",
    "current_context", "activate", "context_from_wire",
    "start_span", "end_span", "span", "round_context",
    "request", "request_begin", "request_end", "end_request_span",
    "record_worker_span", "record_request_latency",
    "record_round", "record_plan", "observe_round_cost",
    "record_fusion", "record_queue_wait", "record_drain",
    "record_batch_counts", "record_intermediate",
    "record_cluster_op", "record_failover",
    "record_kernel_update", "record_update_delta",
    "register_cache", "register_kernel_registry",
]

_REGISTRY = MetricsRegistry(enabled=False)
_TRACER = Tracer(capacity=1024, enabled=False)
_SLO = SLOTracker(enabled=False)
_FLIGHT = FlightRecorder(capacity=16)

# --------------------------------------------------------------------- #
# metric catalog (eager: instruments are free until enabled)
# --------------------------------------------------------------------- #
_ROUNDS = _REGISTRY.counter(
    "repro_rounds_total", "Engine rounds executed", ("backend", "kind"))
_ROUND_SECONDS = _REGISTRY.histogram(
    "repro_round_seconds", "Wall time per engine round", ("backend", "kind"),
    TIME_BUCKETS)
_ROUND_QUERIES = _REGISTRY.histogram(
    "repro_round_queries", "Oracle queries per engine round", ("kind",),
    SIZE_BUCKETS)
_PLANNER_ROUNDS = _REGISTRY.counter(
    "repro_planner_rounds_total", "Rounds routed by the auto planner",
    ("chosen",))
_PLANNER_RATIO = _REGISTRY.histogram(
    "repro_planner_prediction_ratio",
    "Actual/predicted wall time of planner-routed rounds", ("backend",),
    RATIO_BUCKETS)
_SCHED_DRAINS = _REGISTRY.counter(
    "repro_scheduler_drains_total", "Scheduler drain calls")
_SCHED_FUSED = _REGISTRY.counter(
    "repro_scheduler_fused_rounds_total", "Fusion barriers flushed")
_SCHED_SUBMITTED = _REGISTRY.counter(
    "repro_scheduler_submitted_batches_total",
    "Per-request batches parked at the fusion barrier")
_SCHED_EXECUTED = _REGISTRY.counter(
    "repro_scheduler_executed_batches_total",
    "Fused batches actually executed")
_FUSION_WIDTH = _REGISTRY.histogram(
    "repro_scheduler_fusion_width", "Requests merged per fusion barrier", (),
    SIZE_BUCKETS)
_QUEUE_WAIT = _REGISTRY.histogram(
    "repro_scheduler_queue_wait_seconds",
    "Submit-to-execution latency of scheduled requests", (), TIME_BUCKETS)
_DRAIN_SECONDS = _REGISTRY.histogram(
    "repro_scheduler_drain_seconds", "Wall time per scheduler drain", (),
    TIME_BUCKETS)
_INTER_PROPOSALS = _REGISTRY.counter(
    "repro_intermediate_proposals_total",
    "Intermediate-sampling proposal outcomes", ("outcome",))
_INTER_ESCALATIONS = _REGISTRY.counter(
    "repro_intermediate_escalations_total",
    "Candidate-pool escalations (beta doublings)")
_INTER_CERT = _REGISTRY.histogram(
    "repro_intermediate_acceptance_certificate",
    "Computable acceptance certificate exp(-logdet) per proposal", (),
    RATIO_BUCKETS)
_INTER_POOL = _REGISTRY.histogram(
    "repro_intermediate_pool_size", "Candidate pool size per proposal", (),
    SIZE_BUCKETS)
_CLUSTER_OP_SECONDS = _REGISTRY.histogram(
    "repro_cluster_node_op_seconds", "Shard-node handler latency per op",
    ("op",), TIME_BUCKETS)
_CLUSTER_REQUESTS = _REGISTRY.counter(
    "repro_cluster_node_requests_total", "Shard-node requests handled",
    ("op",))
_CLUSTER_FAILOVERS = _REGISTRY.counter(
    "repro_cluster_client_failovers_total",
    "Client-side replica failovers")
_KERNEL_UPDATES = _REGISTRY.counter(
    "repro_kernel_updates_total",
    "Incremental kernel updates applied", ("kind", "decision"))
_UPDATE_DEPTH = _REGISTRY.histogram(
    "repro_kernel_update_depth",
    "Fingerprint-chain depth at each applied update", (), SIZE_BUCKETS)
_UPDATE_SECONDS = _REGISTRY.histogram(
    "repro_kernel_update_seconds",
    "Wall time per incremental update (patch or refactorization)",
    ("decision",), TIME_BUCKETS)
_UPDATE_DELTA_BYTES = _REGISTRY.histogram(
    "repro_cluster_update_delta_bytes",
    "Delta payload bytes shipped per cluster kernel update", (),
    SIZE_BUCKETS)

# --------------------------------------------------------------------- #
# singletons & switches
# --------------------------------------------------------------------- #
_SWITCH_LOCK = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-wide per-round tracer."""
    return _TRACER


def slo() -> SLOTracker:
    """The process-wide streaming SLO quantile tracker."""
    return _SLO


def flight_recorder() -> FlightRecorder:
    """The process-wide slow-request flight recorder."""
    return _FLIGHT


def enabled() -> bool:
    """Whether metrics collection is currently on."""
    return _REGISTRY.enabled


def tracing() -> bool:
    """Whether request/round tracing is currently on."""
    return _TRACER.enabled


#: sentinel distinguishing "leave the flight budget alone" from "disarm"
_UNSET = object()


def enable(*, trace: bool = True, slo: Optional[bool] = None,
           flight_budget: object = _UNSET) -> None:
    """Turn on metrics (and by default tracing); optionally arm SLO
    quantiles and the flight recorder."""
    configure(metrics=True, trace=trace, slo=slo, flight_budget=flight_budget)


def disable() -> None:
    """Turn off metrics, tracing, SLO, and the flight recorder."""
    configure(metrics=False, trace=False, slo=False, flight_budget=None)


def configure(*, metrics: Optional[bool] = None, trace: Optional[bool] = None,
              slo: Optional[bool] = None,
              flight_budget: object = _UNSET) -> Dict[str, object]:
    """Flip individual observability switches; ``None`` leaves one as-is.

    Returns the resulting switch state.  ``slo`` arms streaming request/op
    latency quantiles.  ``flight_budget`` arms the flight recorder at a
    latency budget in seconds (``0.0`` captures every traced request); pass
    ``None`` to disarm; leave unset to keep the current budget.
    """
    with _SWITCH_LOCK:
        if metrics is not None:
            _REGISTRY.enabled = bool(metrics)
        if trace is not None:
            _TRACER.enabled = bool(trace)
        if slo is not None:
            _SLO.enabled = bool(slo)
        if flight_budget is not _UNSET:
            if flight_budget is None:
                _FLIGHT.disarm()
            else:
                _FLIGHT.arm(float(flight_budget))  # type: ignore[arg-type]
        return {"metrics": _REGISTRY.enabled, "trace": _TRACER.enabled,
                "slo": _SLO.enabled,
                "flight_budget": _FLIGHT.budget}


def reset() -> None:
    """Zero all metric values, trace records, SLO state, flight captures,
    and the deterministic trace-id counter.

    Switches (including the flight budget) and registered
    instruments/collectors are left untouched.
    """
    _REGISTRY.reset()
    _TRACER.clear()
    _SLO.reset()
    _FLIGHT.clear()
    reset_ids()


def snapshot() -> Dict[str, object]:
    """One JSON-serializable dump of metrics + trace + SLO + flight state."""
    return {
        "metrics": _REGISTRY.snapshot(),
        "trace": {"enabled": _TRACER.enabled, "capacity": _TRACER.capacity,
                  "dropped_spans": _TRACER.dropped_spans,
                  "records": _TRACER.records()},
        "slo": _SLO.slo_state(),
        "flight": _FLIGHT.flight_state(),
    }


def render_prometheus() -> str:
    """The metrics registry in Prometheus text exposition format."""
    return _REGISTRY.render_prometheus()


# --------------------------------------------------------------------- #
# request-scoped spans (PR 10)
# --------------------------------------------------------------------- #
def _link_wire(link: Union[TraceContext, Dict[str, str]]) -> Dict[str, str]:
    if isinstance(link, TraceContext):
        return link.as_wire()
    return dict(link)


def start_span(name: str, *, category: str, family: Optional[str] = None,
               parent: Optional[TraceContext] = None,
               links: Optional[List[Union[TraceContext, Dict[str, str]]]] = None,
               start: Optional[float] = None,
               **attrs: object) -> Optional[Span]:
    """Open a span (``None`` when tracing is off — every consumer of the
    return value must tolerate ``None``).

    The span is a child of ``parent`` when given, else of the ambient
    context from :func:`current_context`, else a fresh trace root.
    ``start`` overrides the start instant (``perf_counter`` clock) for
    spans whose work began before the span object could be created, e.g.
    queue waits measured from a ticket's ``submitted_at``.
    """
    if not _TRACER.enabled:
        return None
    parent_context = parent if parent is not None else current_context()
    return Span(
        context=new_context(parent_context), name=name, category=category,
        start=time.perf_counter() if start is None else float(start),
        family=family,
        links=[_link_wire(link) for link in links] if links else None,
        attrs=dict(attrs))


def end_span(span: Optional[Span], *, end: Optional[float] = None,
             **attrs: object) -> None:
    """Record a completed span into the tracer (no-op for ``None``)."""
    if span is None:
        return
    finish = time.perf_counter() if end is None else float(end)
    fields = dict(span.attrs)
    fields.update(attrs)
    if span.family is not None:
        fields.setdefault("family", span.family)
    _TRACER.record_span(
        name=span.name, category=span.category,
        trace_id=span.context.trace_id, span_id=span.context.span_id,
        parent_id=span.context.parent_id, start=span.start,
        duration=max(0.0, finish - span.start), links=span.links, **fields)


@contextlib.contextmanager
def span(name: str, *, category: str, **kwargs: object) -> Iterator[Optional[Span]]:
    """``start_span`` + context activation + ``end_span`` around a block."""
    handle = start_span(name, category=category, **kwargs)  # type: ignore[arg-type]
    if handle is None:
        yield None
        return
    try:
        with activate(handle.context):
            yield handle
    finally:
        end_span(handle)


def round_context() -> Optional[TraceContext]:
    """A child context for an engine round about to execute.

    ``None`` unless tracing is on *and* the round runs inside a traced
    request — standalone rounds keep their flat (un-id'd) records.
    """
    if not _TRACER.enabled:
        return None
    parent = current_context()
    if parent is None:
        return None
    return parent.child()


def record_worker_span(fields: Dict[str, object]) -> None:
    """Record a span dict reported back by a process-pool worker chunk.

    Workers build plain dicts (their interpreter has its own obs
    singletons, all dark); the parent process stamps any missing ``start``
    and records them here once the round result is in hand.
    """
    if not _TRACER.enabled:
        return
    fields = dict(fields)
    name = str(fields.pop("name", "worker-chunk"))
    category = str(fields.pop("category", "worker_chunk"))
    _TRACER.record_span(
        name=name, category=category,
        trace_id=fields.pop("trace_id", None),  # type: ignore[arg-type]
        span_id=fields.pop("span_id", None),  # type: ignore[arg-type]
        parent_id=fields.pop("parent_id", None),  # type: ignore[arg-type]
        start=fields.pop("start", None),  # type: ignore[arg-type]
        duration=fields.pop("duration", None),  # type: ignore[arg-type]
        **fields)


def record_request_latency(family: str, seconds: float) -> None:
    """Feed one end-to-end request latency into the family SLO stream."""
    _SLO.observe_request(family, seconds)


def _maybe_capture_flight(span_handle: Span, duration: float) -> None:
    """Capture the span tree if the recorder is armed and over budget.

    Must run *after* the root span's ``end_span`` so the capture includes
    it.  Only trace roots capture — a child ending over budget belongs to
    its root's capture.
    """
    budget = _FLIGHT.budget
    if budget is None or not _TRACER.enabled:
        return
    if span_handle.context.parent_id is not None or duration <= budget:
        return
    _FLIGHT.capture(
        trace_id=span_handle.context.trace_id,
        root_span_id=span_handle.context.span_id,
        name=span_handle.name, family=span_handle.family, duration=duration,
        records=_TRACER.trace_tree(span_handle.context.trace_id))


def end_request_span(span_handle: Optional[Span], *,
                     end: Optional[float] = None, **attrs: object) -> None:
    """End a *request-root* span opened with :func:`start_span`: record it,
    then offer it to the flight recorder.  SLO accounting is separate
    (:func:`record_request_latency`) because it must run even when tracing
    is off and this function received ``None``."""
    if span_handle is None:
        return
    finish = time.perf_counter() if end is None else float(end)
    end_span(span_handle, end=finish, **attrs)
    _maybe_capture_flight(span_handle, max(0.0, finish - span_handle.start))


#: nesting depth of ``request()`` scopes in the current context — only the
#: outermost (depth 0 → root) feeds SLO quantiles and the flight recorder,
#: so ``scheduler._run_one`` wrapping ``session.sample`` counts once.
_REQUEST_DEPTH: "ContextVar[int]" = ContextVar("repro_obs_request_depth",
                                               default=0)


class _RequestToken:
    """Handle pairing ``request_begin`` with ``request_end``.

    Owned by the requesting thread; never shared — no lock."""

    __slots__ = ("span", "family", "start", "root", "_depth_token")

    def __init__(self, span: Span, family: Optional[str], start: float,
                 root: bool, depth_token: object):
        self.span = span
        self.family = family
        self.start = start
        self.root = root
        self._depth_token = depth_token


def request_begin(name: str, *, family: Optional[str] = None,
                  start: Optional[float] = None,
                  parent: Optional[TraceContext] = None,
                  links: Optional[List[Union[TraceContext, Dict[str, str]]]] = None,
                  **attrs: object) -> Optional[_RequestToken]:
    """Open request-level accounting; ``None`` when tracing and SLO are
    both off.  The caller must pass the token to :func:`request_end` and
    should execute the request body under ``activate(token.span.context)``
    (or use the :func:`request` context manager, which does both)."""
    if not (_TRACER.enabled or _SLO.enabled):
        return None
    begin = time.perf_counter() if start is None else float(start)
    depth = _REQUEST_DEPTH.get()
    depth_token = _REQUEST_DEPTH.set(depth + 1)
    parent_context = parent if parent is not None else current_context()
    span_handle = Span(
        context=new_context(parent_context), name=name, category="request",
        start=begin, family=family,
        links=[_link_wire(link) for link in links] if links else None,
        attrs=dict(attrs))
    # root = the user-facing entry point: not nested in another request
    # scope *and* not continuing a propagated context (a shard node running
    # a client's request must not SLO-count it a second time)
    return _RequestToken(span=span_handle, family=family, start=begin,
                         root=(depth == 0 and parent_context is None),
                         depth_token=depth_token)


def request_end(token: Optional[_RequestToken], *,
                error: Optional[BaseException] = None,
                **attrs: object) -> None:
    """Close request-level accounting: record the span, and — for root
    requests only — feed the family SLO stream and the flight recorder."""
    if token is None:
        return
    finish = time.perf_counter()
    duration = max(0.0, finish - token.start)
    _REQUEST_DEPTH.reset(token._depth_token)
    if error is not None:
        token.span.attrs["error"] = type(error).__name__
    token.span.attrs.update(attrs)
    if _TRACER.enabled:
        end_span(token.span, end=finish)
    if token.root:
        if token.family is not None:
            _SLO.observe_request(token.family, duration)
        if _TRACER.enabled:
            _maybe_capture_flight(token.span, duration)


@contextlib.contextmanager
def request(name: str, *, family: Optional[str] = None,
            start: Optional[float] = None,
            parent: Optional[TraceContext] = None,
            links: Optional[List[Union[TraceContext, Dict[str, str]]]] = None,
            **attrs: object) -> Iterator[Optional[_RequestToken]]:
    """Scope one request: span + ambient context + SLO/flight accounting."""
    token = request_begin(name, family=family, start=start, parent=parent,
                          links=links, **attrs)
    if token is None:
        yield None
        return
    error: Optional[BaseException] = None
    try:
        with activate(token.span.context):
            yield token
    except BaseException as exc:
        error = exc
        raise
    finally:
        request_end(token, error=error)


# --------------------------------------------------------------------- #
# hot-path hooks (each starts with one boolean check when disabled)
# --------------------------------------------------------------------- #
def family_of(batch) -> str:
    """Distribution-family label of an OracleBatch (class name or 'matrix')."""
    distribution = getattr(batch, "distribution", None)
    if distribution is not None:
        return type(distribution).__name__
    return "matrix"


def record_round(batch, result, *, backend: Optional[str] = None,
                 queue_wait: Optional[float] = None,
                 predicted_seconds: Optional[float] = None,
                 context: Optional[TraceContext] = None) -> None:
    """Span for one executed engine round (called by every backend).

    ``context`` — when the round ran inside a traced request — stamps the
    round record with trace/span/parent ids so it joins the request tree
    (the round record *is* the round's span; no duplicate is emitted).
    """
    if not (_REGISTRY.enabled or _TRACER.enabled):
        return
    name = backend if backend is not None else result.backend
    kind = batch.kind
    queries = int(result.n_queries)
    if _REGISTRY.enabled:
        _ROUNDS.inc(backend=name, kind=kind)
        _ROUND_SECONDS.observe(result.wall_time, backend=name, kind=kind)
        _ROUND_QUERIES.observe(float(queries), kind=kind)
    if _TRACER.enabled:
        ids: Dict[str, object] = {}
        if context is not None:
            ids["trace_id"] = context.trace_id
            ids["span_id"] = context.span_id
            if context.parent_id is not None:
                ids["parent_id"] = context.parent_id
        _TRACER.record_round(
            label=batch.label, kind=kind, family=family_of(batch),
            backend=name, queries=queries, wall_time=result.wall_time,
            queue_wait=queue_wait, predicted_seconds=predicted_seconds,
            **ids)


def record_plan(decision) -> None:
    """One auto-planner routing decision (a PlanDecision-shaped object)."""
    if _REGISTRY.enabled:
        _PLANNER_ROUNDS.inc(chosen=decision.chosen)
    if _TRACER.enabled:
        _TRACER.event("plan", kind=decision.kind, label=decision.label,
                      queries=decision.queries, chosen=decision.chosen,
                      reason=decision.reason,
                      estimates=dict(decision.estimates))


def observe_round_cost(backend: str, predicted_seconds: float,
                       actual_seconds: float) -> None:
    """Measured wall time of one planner-routed round against the EWMA it
    was routed on (the prediction-error histogram)."""
    if _REGISTRY.enabled and predicted_seconds > 0 and actual_seconds >= 0:
        _PLANNER_RATIO.observe(actual_seconds / predicted_seconds,
                               backend=backend)


def record_fusion(width: int) -> None:
    """One fusion-barrier flush merging ``width`` parked requests."""
    if not _REGISTRY.enabled:
        return
    _SCHED_FUSED.inc()
    _FUSION_WIDTH.observe(float(width))


def record_queue_wait(seconds: float) -> None:
    if _REGISTRY.enabled:
        _QUEUE_WAIT.observe(seconds)


def record_drain(seconds: float, requests: int) -> None:
    """One completed scheduler drain of ``requests`` tickets."""
    if _REGISTRY.enabled:
        _SCHED_DRAINS.inc()
        _DRAIN_SECONDS.observe(seconds)
    if _TRACER.enabled:
        _TRACER.event("drain", seconds=seconds, requests=requests)


def record_batch_counts(submitted: int, executed: int) -> None:
    """Barrier-level batch accounting merged after one drain wave."""
    if not _REGISTRY.enabled:
        return
    if submitted:
        _SCHED_SUBMITTED.inc(submitted)
    if executed:
        _SCHED_EXECUTED.inc(executed)


def record_intermediate(outcome: str, *, certificate: Optional[float] = None,
                        pool: Optional[int] = None,
                        beta: Optional[float] = None,
                        attempt: Optional[int] = None) -> None:
    """One intermediate-sampling proposal outcome.

    ``outcome`` ∈ {accepted, rejected, skipped_trace, skipped_certificate,
    direct}; escalations (beta doublings) are counted whenever a
    skip/rejection escalates the pool.  Recording never touches the
    sampler's random stream.
    """
    if _REGISTRY.enabled:
        _INTER_PROPOSALS.inc(outcome=outcome)
        if outcome in ("rejected", "skipped_trace", "skipped_certificate"):
            _INTER_ESCALATIONS.inc()
        if certificate is not None:
            _INTER_CERT.observe(certificate)
        if pool is not None:
            _INTER_POOL.observe(float(pool))
    if _TRACER.enabled:
        _TRACER.event("intermediate", outcome=outcome, certificate=certificate,
                      pool=pool, beta=beta, attempt=attempt)


def record_cluster_op(op: str, seconds: float) -> None:
    """One shard-node wire op handled in ``seconds``."""
    _SLO.observe_op(op, seconds)
    if not _REGISTRY.enabled:
        return
    _CLUSTER_REQUESTS.inc(op=op)
    _CLUSTER_OP_SECONDS.observe(seconds, op=op)


def record_kernel_update(kind: str, decision: str, depth: int,
                         seconds: Optional[float] = None) -> None:
    """One incremental kernel update applied by a registry/session.

    ``decision`` ∈ {patched, recomputed}: whether cached artifacts were
    carried over via the O(n·k)/O(n²) update identities or the planner's
    break-even policy (or an evicted predecessor) forced a cold
    refactorization.
    """
    if _REGISTRY.enabled:
        _KERNEL_UPDATES.inc(kind=kind, decision=decision)
        _UPDATE_DEPTH.observe(float(depth))
        if seconds is not None:
            _UPDATE_SECONDS.observe(seconds, decision=decision)
    if _TRACER.enabled:
        _TRACER.event("kernel_update", kind=kind, decision=decision,
                      depth=depth, seconds=seconds)


def record_update_delta(nbytes: int) -> None:
    """Delta payload size of one cluster-shipped kernel update."""
    if _REGISTRY.enabled:
        _UPDATE_DELTA_BYTES.observe(float(nbytes))


def record_failover(fingerprint: Optional[str] = None) -> None:
    """One client-side replica failover."""
    if _REGISTRY.enabled:
        _CLUSTER_FAILOVERS.inc()
    if _TRACER.enabled:
        _TRACER.event("failover", fingerprint=fingerprint)


# --------------------------------------------------------------------- #
# collectors: re-export cache/registry counters without double bookkeeping
# --------------------------------------------------------------------- #
_CACHES: "weakref.WeakSet" = weakref.WeakSet()
_KERNEL_REGISTRIES: "weakref.WeakSet" = weakref.WeakSet()


def register_cache(cache) -> None:
    """Track a FactorizationCache for the summed cache collector (weakref)."""
    _CACHES.add(cache)


def register_kernel_registry(kernel_registry) -> None:
    """Track a KernelRegistry for the registration-census collector."""
    _KERNEL_REGISTRIES.add(kernel_registry)


def _collect_caches() -> List[CollectedMetric]:
    """Sum CacheStats counters across live caches (reads attrs directly —
    no TTL sweeps, no lock contention beyond one dict read per cache)."""
    caches = list(_CACHES)
    if not caches:
        return []
    totals = {"hits": 0, "misses": 0, "evictions": 0, "size_evictions": 0,
              "expired": 0, "invalidations": 0, "update_patched": 0,
              "update_recomputed": 0}
    entries = 0
    for cache in caches:
        stats = cache.stats
        for key in totals:
            totals[key] += getattr(stats, key)
        entries += len(cache)
    rows = [
        CollectedMetric(
            name=f"repro_cache_{key}_total", kind="counter",
            help=f"Factorization-cache {key.replace('_', ' ')} (all caches)",
            samples=[({}, float(value))])
        for key, value in totals.items()
    ]
    rows.append(CollectedMetric(
        name="repro_cache_entries", kind="gauge",
        help="Resident factorization-cache entries (all caches)",
        samples=[({}, float(entries))]))
    return rows


def _collect_kernel_registries() -> List[CollectedMetric]:
    registries = list(_KERNEL_REGISTRIES)
    if not registries:
        return []
    registered = 0
    ephemeral = 0
    for kernel_registry in registries:
        census = kernel_registry.census()
        registered += census["registered"]
        ephemeral += census["ephemeral"]
    return [
        CollectedMetric(name="repro_registry_kernels", kind="gauge",
                        help="Registered kernels (all registries)",
                        samples=[({}, float(registered))]),
        CollectedMetric(name="repro_registry_ephemeral_kernels", kind="gauge",
                        help="Ephemeral registrations (all registries)",
                        samples=[({}, float(ephemeral))]),
    ]


def _collect_obs_internals() -> List[CollectedMetric]:
    """Tracer loss accounting, flight-recorder census, and SLO quantiles."""
    rows = [
        CollectedMetric(
            name="repro_tracer_dropped_spans_total", kind="counter",
            help="Trace records lost to ring-buffer overwrite",
            samples=[({}, float(_TRACER.dropped_spans))]),
        CollectedMetric(
            name="repro_flight_recorder_captures_total", kind="counter",
            help="Over-budget requests captured by the flight recorder",
            samples=[({}, float(_FLIGHT.captured_total))]),
    ]
    for name, kind, help_text, samples in _SLO.collect():
        rows.append(CollectedMetric(name=name, kind=kind, help=help_text,
                                    samples=samples))
    return rows


_REGISTRY.register_collector(_collect_caches)
_REGISTRY.register_collector(_collect_kernel_registries)
_REGISTRY.register_collector(_collect_obs_internals)
