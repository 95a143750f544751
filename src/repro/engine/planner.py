"""Measured execution routing: ``backend="auto"``.

The paper charges a batch of independent counting queries as one adaptive
round however it is executed (Proposition 13), so choosing a backend is pure
wall-clock engineering: it never changes *what* a round computes, and
``backend="auto"`` — the process-wide default installed by
:mod:`repro.engine.config` — produces byte-identical fixed-seed samples to
every forced backend.

:class:`RoundPlanner` routes the planned kinds (``counting``,
``joint_marginals``, ``log_principal_minors``) between the two backends that
win measured rounds: ``vectorized`` (stacked NumPy in-process, no dispatch
cost) and ``process`` (worker processes over shared memory, which pay an IPC
round trip but give GIL-bound oracle work and large determinants parallel
lanes).  ``threads`` and ``serial`` stay available as forced backends; on
measurement they never beat both of these.

Routing follows measured :attr:`~repro.engine.batch.OracleBatchResult.wall_time`,
not a priced estimate.  Rounds are keyed by (batch kind, distribution family,
power-of-two query bucket):

* a cold key runs on ``vectorized``;
* once the key's in-process EWMA reaches :data:`PROCESS_FLOOR_S`, the
  router tries ``process`` once;
* from then on it follows the lower EWMA and re-measures the loser every
  :data:`RETRY_EVERY`-th round of the key, so drift cannot lock in a stale
  choice;
* a round that had to start the worker pool is never recorded — spin-up is
  a one-off, not the backend's steady-state cost.

``marginal_vector`` and ``projection_step`` rounds are *fixed-route* kinds
(one numerical route on every backend), so they — and empty batches — go
straight to ``vectorized`` without reading any measurement.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro import obs
from repro.engine.backends import ExecutionBackend
from repro.engine.batch import OracleBatch, OracleBatchResult
from repro.pram.cost import DEFAULT_COST_MODEL, CostModel, OracleCostHint
from repro.pram.tracker import Tracker

__all__ = ["PlanDecision", "RoundPlanner", "AutoBackend", "should_refactorize",
           "shape_bucket"]

#: batch kinds the planner routes; the other kinds are fixed-route
PLANNED_KINDS = ("counting", "joint_marginals", "log_principal_minors")

#: the in-process default and the pooled challenger
IN_PROCESS = "vectorized"
POOLED = "process"

#: in-process seconds a key must reach before ``process`` is tried: below
#: this the IPC round trip alone eats any parallel gain
PROCESS_FLOOR_S = 2e-3

#: every this-many rounds of a key, the currently slower backend runs once
RETRY_EVERY = 32

#: weight of each new measurement in a key's per-backend EWMA
EWMA_WEIGHT = 0.25


def shape_bucket(queries: int) -> int:
    """Bucket a batch width to the next power of two (1, 2, 4, ... 1024...)."""
    q = max(1, int(queries))
    return 1 << (q - 1).bit_length()


def should_refactorize(hint: OracleCostHint, *,
                       model: CostModel = DEFAULT_COST_MODEL,
                       cap: int = 64) -> bool:
    """Patch-vs-recompute policy for incremental kernel updates.

    ``True`` when ``hint.update_depth`` (the mutation's position in the
    fingerprint chain) has reached the work-unit break-even depth
    (:meth:`~repro.pram.cost.CostModel.update_break_even_depth`) — the point
    where the cumulative cost of ``O(n²)`` secular patches has paid for one
    cold ``O(n³)`` refactorization, making the refresh (which also resets
    accumulated patch rounding) amortized-free.  Factor-backed
    (``rank``-set) kernels patch exactly, so they refactorize only at the
    ``cap``.  This is the decision behind ``refactor="auto"`` on
    :meth:`repro.service.registry.KernelRegistry.apply_update` and the
    session/cluster ``update()`` facades.
    """
    return int(hint.update_depth) >= model.update_break_even_depth(hint, cap=cap)


@dataclass(frozen=True)
class PlanDecision:
    """One routing decision (kept in :attr:`RoundPlanner.decisions`)."""

    kind: str
    label: str
    queries: int
    chosen: str
    #: the key's measured EWMA seconds per backend when the round was routed
    estimates: Dict[str, float] = field(default_factory=dict)
    #: why the batch skipped routing ("fixed-route", "empty") if it did
    reason: str = ""
    #: distribution family label (class name, or "matrix" for minor batches)
    family: str = ""


@dataclass
class _KeyStats:
    """Measurements of one routing key (guarded by the planner's lock)."""

    rounds: int = 0
    ewma: Dict[str, float] = field(default_factory=dict)


class RoundPlanner:
    """Routes each batch to ``vectorized`` or ``process`` by measured wall time.

    ``backends`` optionally maps backend names to instances, overriding the
    shared name registry (tests inject recording stubs here); by default the
    pooled candidate resolves to the same executor explicit
    ``backend="process"`` callers use.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_stats", "decisions")}

    def __init__(self, *, backends: Optional[Dict[str, ExecutionBackend]] = None,
                 record: int = 64):
        self._backends = dict(backends) if backends is not None else None
        self._lock = threading.Lock()
        self._stats: Dict[Tuple[str, str, int], _KeyStats] = {}
        self.decisions: Deque[PlanDecision] = deque(maxlen=record)

    def _backend(self, name: str) -> ExecutionBackend:
        if self._backends is not None:
            return self._backends[name]
        from repro.engine.config import resolve_backend

        return resolve_backend(name)

    @staticmethod
    def _route(stats: _KeyStats) -> str:
        local = stats.ewma.get(IN_PROCESS)
        pooled = stats.ewma.get(POOLED)
        if local is None or (pooled is None and local < PROCESS_FLOOR_S):
            return IN_PROCESS
        if pooled is None:
            return POOLED
        winner, loser = ((IN_PROCESS, POOLED) if local <= pooled
                         else (POOLED, IN_PROCESS))
        return loser if stats.rounds % RETRY_EVERY == 0 else winner

    def plan(self, batch: OracleBatch) -> Tuple[ExecutionBackend, PlanDecision]:
        """The backend ``batch`` should run on, with its decision."""
        family = obs.family_of(batch)
        reason = ("fixed-route" if batch.kind not in PLANNED_KINDS
                  else "empty" if not batch.subsets else "")
        chosen, estimates = IN_PROCESS, {}
        with self._lock:
            if not reason:
                key = (batch.kind, family, shape_bucket(batch.n_queries))
                stats = self._stats.setdefault(key, _KeyStats())
                stats.rounds += 1
                chosen = self._route(stats)
                estimates = dict(stats.ewma)
            decision = PlanDecision(kind=batch.kind, label=batch.label,
                                    queries=batch.n_queries, chosen=chosen,
                                    estimates=estimates, reason=reason,
                                    family=family)
            self.decisions.append(decision)
        obs.record_plan(decision)
        return self._backend(decision.chosen), decision

    def choose(self, batch: OracleBatch) -> ExecutionBackend:
        """The backend ``batch`` should run on (see :meth:`plan`)."""
        return self.plan(batch)[0]

    def observe(self, decision: PlanDecision, result: OracleBatchResult) -> None:
        """Fold a routed round's measured wall time into its key's EWMA.

        Fixed-route and empty decisions carry no key and are ignored.  The
        prediction-ratio histogram compares the EWMA the round was routed on
        against the new measurement.
        """
        if decision.reason:
            return
        predicted = decision.estimates.get(decision.chosen)
        if predicted is not None:
            obs.observe_round_cost(decision.chosen, predicted, result.wall_time)
        key = (decision.kind, decision.family, shape_bucket(decision.queries))
        with self._lock:
            ewma = self._stats.setdefault(key, _KeyStats()).ewma
            previous = ewma.get(decision.chosen)
            ewma[decision.chosen] = (result.wall_time if previous is None else
                                     previous + EWMA_WEIGHT * (result.wall_time - previous))

    @property
    def last_decision(self) -> Optional[PlanDecision]:
        with self._lock:
            return self.decisions[-1] if self.decisions else None


class AutoBackend(ExecutionBackend):
    """The planner as a backend: every batch runs where it measured fastest.

    This is what ``backend="auto"`` (the process-wide default) resolves to.
    Explicit ``backend=`` arguments bypass it entirely — forcing a backend
    is always honored — and the chosen inner backend stamps its own name on
    the :class:`OracleBatchResult`, so reports show where a round actually
    ran; :attr:`planner` keeps the recent :class:`PlanDecision` log.
    """

    name = "auto"

    def __init__(self, planner: Optional[RoundPlanner] = None):
        self.planner = planner if planner is not None else RoundPlanner()

    def execute(self, batch: OracleBatch, *, tracker: Optional[Tracker] = None) -> OracleBatchResult:
        backend, decision = self.planner.plan(batch)
        warm = backend.warm
        result = backend.execute(batch, tracker=tracker)
        if warm:
            self.planner.observe(decision, result)
        return result

    # the abstract hooks are never reached — execute() is fully delegated
    def _counting(self, batch):  # pragma: no cover
        raise NotImplementedError

    def _joint_marginals(self, batch):  # pragma: no cover
        raise NotImplementedError

    def _log_principal_minors(self, batch):  # pragma: no cover
        raise NotImplementedError
