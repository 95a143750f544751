"""serve-spectral: HKPV draws on four warm kernels, open loop then saturated.

One load-generating thread.  In the open loop, Poisson traffic at the nominal
rate, each tick submits every request that has come due to
its kernel's ``SamplerSession`` (``method="spectral"``, k = 8), then drains
each session that has work; the drain fuses the requests' projection-step
rounds.  Latency is timed from the request's due time, so a stalled tick
delays every request behind it.

The offered rate fixes how many requests the open loop completes, so its
throughput says nothing about the program.  ``throughput_ops`` and
``cpu_throughput_ops`` come from a second, saturated phase instead: the same
kind of request stream, closed loop and back to back (submit one request,
drain its session), timed in windows of :data:`WINDOW` requests.

The nominal rate was set once, at the commit that introduced this benchmark,
to about half the capacity measured on a 2-CPU x86 host with one BLAS thread
(~250 req/s through the saturated submit/drain loop).  The ladder is fixed and
reaches past that capacity; ``max_rate_rps`` is its highest rung whose p90
latency stays under :data:`LATENCY_LIMIT_S` while the generator keeps up.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

import repro
from repro.dpp.spectral import sample_kdpp_spectral
from repro.workloads.kernels import random_psd_ensemble

from common import Op, Outcome, cpu_s, maybe_span, quantile, seed_for, subset_digest

NOMINAL_RATE = 120.0
LADDER = (40.0, 80.0, 120.0, 160.0, 200.0, 240.0, 280.0, 320.0)
RUNG_S = 1.5
LATENCY_LIMIT_S = 0.1
KERNELS, N, K = 4, 200, 8
#: every SPOT_CHECK-th request is compared with a direct sample_kdpp_spectral
SPOT_CHECK = 10
#: requests per throughput window of the saturated phase
WINDOW = 100


class ServeSpectral:
    latency_kinds = ("read",)
    #: ops timed from their due time, so mostly queueing: left out of the
    #: traced run's overhead comparison
    open_loop_kinds = ("read",)

    def __init__(self, seed: int, *, backend=None, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.kernels = [random_psd_ensemble(N, seed=seed_for(seed, 10, i)) for i in range(KERNELS)]
        self.registry = repro.KernelRegistry()
        self.sessions = [repro.serve(L, registry=self.registry, backend=backend)
                         for L in self.kernels]
        start = time.perf_counter()
        for session in self.sessions:
            session.warm()
        self.warm_s = time.perf_counter() - start
        self.queue_waits: List[float] = []
        self.lags: List[float] = []

    def schedule(self, rate: float, duration: float, stream: int) -> List[Tuple[float, int, int]]:
        """Poisson arrivals conditioned on their count: ``rate * duration``
        uniform due times, sorted, as ``(due offset, kernel, sampler seed)``.

        Fixing the count keeps the offered load, and so throughput, from
        varying with the seed; given the count, Poisson arrival times are
        exactly such uniform order statistics.
        """
        rng = np.random.default_rng(seed_for(self.seed, 20, stream))
        count = int(round(rate * duration))
        due = np.sort(rng.uniform(0.0, duration, size=count))
        kernels = rng.integers(0, KERNELS, size=count)
        return [(float(t), int(kernel), seed_for(self.seed, 30, stream, i))
                for i, (t, kernel) in enumerate(zip(due, kernels))]

    def open_loop(self, schedule, outcome: Outcome, *, spot_checks: Optional[list] = None) -> None:
        start = time.perf_counter()
        digests = [""] * len(schedule)
        position = 0
        while position < len(schedule):
            wait = schedule[position][0] - (time.perf_counter() - start)
            if wait > 0:
                time.sleep(wait)
            now = time.perf_counter() - start
            tick = []
            while position < len(schedule) and schedule[position][0] <= now:
                due, kernel, seed = schedule[position]
                self.lags.append(time.perf_counter() - start - due)
                with maybe_span(self.tracer, "service.submit"):
                    ticket = self.sessions[kernel].submit(k=K, seed=seed, method="spectral")
                tick.append((position, due, kernel, seed, ticket))
                position += 1
            for index, session in enumerate(self.sessions):
                mine = [entry for entry in tick if entry[2] == index]
                if not mine:
                    continue
                drain_start = time.perf_counter()
                self.queue_waits.extend(drain_start - entry[4].submitted_at for entry in mine)
                try:
                    with maybe_span(self.tracer, "service.drain"):
                        session.drain()
                except Exception:  # counted per request below through ticket.result
                    pass
                done = time.perf_counter() - start
                for request, due, kernel, seed, ticket in mine:
                    op, subset = self._finish("read", ticket, done - due)
                    outcome.ops.append(op)
                    digests[request] = op.digest
                    if spot_checks is not None and request % SPOT_CHECK == 0:
                        spot_checks.append((kernel, seed, subset))
        outcome.wall_s = time.perf_counter() - start
        outcome.digests.extend(digests)

    def saturated(self, outcome: Outcome, spot_checks: list, *, seconds: float,
                  requests: Optional[int] = None) -> None:
        """Closed loop for ``seconds`` (or exactly ``requests``): submit the
        stream's next request, then drain its session."""
        rng = np.random.default_rng(seed_for(self.seed, 70))
        start = window_start = time.perf_counter()
        window_cpu = cpu_s()
        done = 0
        while (requests is None and time.perf_counter() - start < seconds) or \
                (requests is not None and done < requests):
            kernel, seed = int(rng.integers(KERNELS)), seed_for(self.seed, 80, done)
            began = time.perf_counter()
            with maybe_span(self.tracer, "service.submit"):
                ticket = self.sessions[kernel].submit(k=K, seed=seed, method="spectral")
            try:
                with maybe_span(self.tracer, "service.drain"):
                    self.sessions[kernel].drain()
            except Exception:  # counted through ticket.result
                pass
            op, subset = self._finish("closed", ticket, time.perf_counter() - began)
            outcome.ops.append(op)
            outcome.digests.append(op.digest)
            if done % SPOT_CHECK == 0:
                spot_checks.append((kernel, seed, subset))
            done += 1
            if done % WINDOW == 0:
                now, cpu = time.perf_counter(), cpu_s()
                ok = sum(op.ok for op in outcome.ops[-WINDOW:])
                outcome.window_rates.append(ok / (now - window_start))
                outcome.cpu_window_rates.append(ok / (cpu - window_cpu))
                window_start, window_cpu = now, cpu

    @staticmethod
    def _finish(kind: str, ticket, latency: float) -> Tuple[Op, tuple]:
        """The request's op record (validity, rounds, digest) and its sample."""
        result = ticket.result
        subset = () if result is None else tuple(result.subset)
        items = [int(i) for i in subset]
        ok = len(items) == K and len(set(items)) == K and all(0 <= i < N for i in items)
        return Op(kind, latency, ok, rounds=None if result is None else result.report.rounds,
                  digest=subset_digest(subset)), subset

    # ------------------------------------------------------------------ #
    def warm_up(self) -> List[str]:
        outcome = Outcome()
        self.open_loop([(0.0, kernel, seed_for(self.seed, 5, kernel)) for kernel in range(KERNELS)],
                       outcome)
        self.queue_waits.clear()
        self.lags.clear()
        return outcome.digests

    def run(self, seconds: float, *, ops: Optional[int] = None) -> Outcome:
        """The open loop at the nominal rate, then ``seconds`` of the saturated
        phase; ``ops`` replays only the first ``ops`` operations of the two."""
        schedule = self.schedule(NOMINAL_RATE, seconds, stream=0)[:ops]
        outcome = Outcome()
        spot_checks: list = []
        self.open_loop(schedule, outcome, spot_checks=spot_checks)
        self.saturated(outcome, spot_checks, seconds=seconds,
                       requests=None if ops is None else ops - len(schedule))
        for kernel, seed, subset in spot_checks:
            outcome.checks_attempted += 1
            if sample_kdpp_spectral(self.kernels[kernel], K, seed) != subset:
                outcome.checks_failed += 1
        return outcome

    def max_rate(self) -> Tuple[float, List[str]]:
        """Climb the fixed ladder; stop at the first rung that misses the limit."""
        best, lines = 0.0, []
        for rung, rate in enumerate(LADDER):
            outcome = Outcome()
            self.lags.clear()
            schedule = self.schedule(rate, RUNG_S, stream=1000 + rung)
            self.open_loop(schedule, outcome)
            latencies = [op.latency_s if op.ok else float("inf") for op in outcome.ops]
            p90 = quantile(latencies, 0.9)
            tail = self.lags[-max(1, len(self.lags) // 4):]
            keeps_up = float(np.mean(tail)) <= LATENCY_LIMIT_S
            passed = p90 <= LATENCY_LIMIT_S and keeps_up
            lines.append(f"ladder rate {rate:g} req/s: p90 {p90:.4f} s over {len(latencies)} requests, "
                         f"tail lag {np.mean(tail):.4f} s -> {'pass' if passed else 'miss'}")
            if not passed:
                break
            best = rate
        self.lags.clear()
        return best, lines

    def layer_metrics(self) -> dict:
        stats = [session.stats for session in self.sessions]
        schedulers = [s["scheduler"] for s in stats if "scheduler" in s]
        submitted = sum(s["submitted_batches"] for s in schedulers)
        executed = sum(s["executed_batches"] for s in schedulers)
        cache = stats[0]["cache"]
        lookups = cache["hits"] + cache["misses"]
        return {
            "service.fusion_width": submitted / executed if executed else 0.0,
            "service.queue_wait_s": float(np.mean(self.queue_waits)) if self.queue_waits else 0.0,
            "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "service.cache_bytes": float(stats[0]["cached_artifacts_bytes"]),
            "service.warm_s": self.warm_s,
            "bench.generator_lag_s": float(np.mean(self.lags)) if self.lags else 0.0,
        }

    def close(self) -> None:
        for session in self.sessions:
            session.close()
