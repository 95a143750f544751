"""cluster-mutating: one closed-loop client reading and updating a 2-node ring.

``LocalCluster(nodes=2, replication=2)`` serves eight warm dense symmetric
kernels (n = 200) through ``serve_cluster``.  Reads are
``ClusterSession.sample(k=8, method="spectral")``, round-robin over the
kernels; every :data:`UPDATE_EVERY`-th op is a rank-1 ``update()`` of kernel 0,
which is also read, so reads of it land on patched factorizations.  The
client holds one connection per node.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

import repro
from repro.dpp.spectral import sample_kdpp_spectral
from repro.linalg.updates import KernelUpdate
from repro.workloads.kernels import random_psd_ensemble

from common import Op, Outcome, cpu_s, maybe_span, seed_for, subset_digest

KERNELS, N, K = 8, 200, 8
UPDATE_EVERY = 4
UPDATE_WEIGHT = 0.05
HOT = 0
#: ``refactor="auto"`` patches a dense n = 200 chain until this depth and
#: recomputes every update from there on (the planner's cap on patch depth)
PATCH_DEPTH_CAP = 64
#: the warm-up pass: the sequence's first ops, through two updates past the
#: patch-to-recompute switch, so the timed phase sees only the steady mix
WARM_UP_OPS = UPDATE_EVERY * (PATCH_DEPTH_CAP + 2)
#: every SPOT_CHECK-th read is compared with a direct sample_kdpp_spectral
SPOT_CHECK = 10
#: ops per throughput window; any WINDOW_OPS consecutive ops hold the same
#: mix (24 updates and 9 reads of each kernel)
WINDOW_OPS = 96


class ClusterMutating:
    latency_kinds = ("read",)
    open_loop_kinds = ()

    def __init__(self, seed: int, *, backend=None, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.matrices = [random_psd_ensemble(N, seed=seed_for(seed, 40, i)) for i in range(KERNELS)]
        self.cluster = repro.LocalCluster(nodes=2, replication=2, backend=backend)
        self.sessions = [repro.serve_cluster(L, cluster=self.cluster) for L in self.matrices]
        start = time.perf_counter()
        for session in self.sessions:
            session.warm()
        self.warm_s = time.perf_counter() - start
        self.initial = [L.copy() for L in self.matrices]
        #: every op in order, replayed on single-node twins by wire_split()
        self.log: List[tuple] = []
        self.read_rpc: List[float] = []
        self.update_rpc: List[float] = []
        self._op_index = 0
        self._reads = 0

    def _step(self, outcome: Outcome) -> Tuple[float, float]:
        """One op of the fixed sequence; returns the wall and CPU seconds spent
        on checks."""
        index = self._op_index
        self._op_index += 1
        if index % UPDATE_EVERY == UPDATE_EVERY - 1:
            u = np.random.default_rng(seed_for(self.seed, 50, index)).standard_normal(N) / np.sqrt(N)
            session = self.sessions[HOT]
            expected = session.epoch + 1
            start = time.perf_counter()
            with maybe_span(self.tracer, "cluster.update"):
                entry = session.update(u, weight=UPDATE_WEIGHT)
            latency = time.perf_counter() - start
            self.update_rpc.append(latency)
            outcome.ops.append(Op("update", latency, entry.epoch == expected))
            outcome.digests.append(entry.fingerprint[:16])
            start, cpu = time.perf_counter(), time.process_time()
            self.log.append(("update", u))
            self.matrices[HOT] = KernelUpdate.rank_one(u, weight=UPDATE_WEIGHT).apply(
                self.matrices[HOT], "symmetric")
            return time.perf_counter() - start, time.process_time() - cpu
        kernel = self._reads % KERNELS
        read = self._reads
        self._reads += 1
        seed = seed_for(self.seed, 60, index)
        start = time.perf_counter()
        with maybe_span(self.tracer, "cluster.sample"):
            result = self.sessions[kernel].sample(k=K, seed=seed, method="spectral")
        latency = time.perf_counter() - start
        self.read_rpc.append(latency)
        items = [int(i) for i in result.subset]
        ok = len(items) == K and len(set(items)) == K and all(0 <= i < N for i in items)
        outcome.ops.append(Op("read", latency, ok, rounds=result.report.rounds))
        outcome.digests.append(subset_digest(result.subset))
        start, cpu = time.perf_counter(), time.process_time()
        self.log.append(("read", kernel, seed, latency, result.subset))
        if read % SPOT_CHECK == 0:
            outcome.checks_attempted += 1
            if sample_kdpp_spectral(self.matrices[kernel], K, seed) != result.subset:
                outcome.checks_failed += 1
        return time.perf_counter() - start, time.process_time() - cpu

    # ------------------------------------------------------------------ #
    def warm_up(self) -> List[str]:
        outcome = Outcome()
        while self._op_index < WARM_UP_OPS:
            self._step(outcome)
        self.read_rpc.clear()
        self.update_rpc.clear()
        return outcome.digests

    def run(self, seconds: Optional[float] = None, *, ops: Optional[int] = None) -> Outcome:
        """Closed loop for ``seconds`` of measured wall (or exactly ``ops`` ops).

        Time spent in the benchmark's own checks is taken off the clock.
        """
        outcome = Outcome()
        start = time.perf_counter()
        paused = paused_cpu = 0.0
        window_start, window_paused = start, 0.0
        window_cpu, window_paused_cpu = cpu_s(), 0.0
        while (ops is None and time.perf_counter() - start - paused < seconds) or \
                (ops is not None and len(outcome.ops) < ops):
            wall, cpu = self._step(outcome)
            paused += wall
            paused_cpu += cpu
            if len(outcome.ops) % WINDOW_OPS == 0:
                now, cpu = time.perf_counter(), cpu_s()
                ok = sum(op.ok for op in outcome.ops[-WINDOW_OPS:])
                outcome.window_rates.append(ok / (now - window_start - (paused - window_paused)))
                outcome.cpu_window_rates.append(
                    ok / (cpu - window_cpu - (paused_cpu - window_paused_cpu)))
                window_start, window_paused = now, paused
                window_cpu, window_paused_cpu = cpu, paused_cpu
        outcome.wall_s = time.perf_counter() - start - paused
        return outcome

    def wire_split(self, outcome: Outcome) -> float:
        """Mean read RPC minus the same-seed read of a single-node twin.

        Replays the logged ops on ``serve()`` sessions that get the same
        updates; every twin read must also return the cluster's sample.
        """
        registry = repro.KernelRegistry()
        twins = [repro.serve(L, registry=registry) for L in self.initial]
        wire = []
        try:
            for session in twins:
                session.warm()
            for position, entry in enumerate(self.log):
                if entry[0] == "update":
                    twins[HOT].update(entry[1], weight=UPDATE_WEIGHT)
                    continue
                _, kernel, seed, latency, subset = entry
                start = time.perf_counter()
                local = twins[kernel].sample(k=K, seed=seed, method="spectral")
                if position >= WARM_UP_OPS:
                    wire.append(latency - (time.perf_counter() - start))
                outcome.checks_attempted += 1
                outcome.checks_failed += local.subset != subset
        finally:
            for session in twins:
                session.close()
        return float(np.mean(wire)) if wire else 0.0

    def layer_metrics(self) -> dict:
        info = self.cluster.cluster_info()
        cache = info["cache"]
        lookups = cache["hits"] + cache["misses"]
        decisions = [record.decision
                     for node in self.cluster.nodes.values()
                     for record in node.registry.get(self.sessions[HOT].name).update_log]
        return {
            "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "service.cache_bytes": float(cache["nbytes"]),
            "service.update_patched_ratio":
                decisions.count("patched") / len(decisions) if decisions else 0.0,
            "service.warm_s": self.warm_s,
            "cluster.read_rpc_s": float(np.mean(self.read_rpc)) if self.read_rpc else 0.0,
            "cluster.update_rpc_s": float(np.mean(self.update_rpc)) if self.update_rpc else 0.0,
            "cluster.failovers": float(info["failovers"]),
            "cluster.node_evictions": float(cache["evictions"]),
        }

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.cluster.shutdown()
