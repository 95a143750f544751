"""theorem-mix: one closed-loop caller drawing from five theorem samplers.

Each cycle draws a fixed count from every family, interleaved, through the
public entry points with the default ``backend="auto"``.  The counts were set
once, at the commit that introduced this benchmark, from per-draw wall times
measured on a 2-CPU x86 host (Thm 10 ~1.6 s, Thm 8 ~1.3 s, Thm 9 ~0.27 s,
Thm 11 ~0.95 s, intermediate ~0.095 s), so that each family takes roughly an
equal share of a cycle's wall.  They are constants: a faster family shows up
as a larger throughput, not as a different mix.  A run measures at least
:data:`MIN_CYCLES` whole cycles, so every family is drawn several times, and
each cycle is one throughput window.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import repro
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricKDPP
from repro.planar.graphs import grid_graph
from repro.pram.tracker import Tracker, use_tracker
from repro.workloads.kernels import (
    clustered_ensemble,
    random_low_rank_factor_ensemble,
    random_npsd_ensemble,
    random_psd_ensemble,
)

from common import Op, Outcome, chain_digest, cpu_s, maybe_span, seed_for, subset_digest

FAMILIES = ("symmetric_kdpp", "nonsymmetric_kdpp", "partition_dpp",
            "planar_matching", "lowrank_kdpp")
DRAWS_PER_CYCLE = {"symmetric_kdpp": 1, "nonsymmetric_kdpp": 1, "partition_dpp": 6,
                   "planar_matching": 2, "lowrank_kdpp": 16}
#: families driven by Algorithm 1, whose ``condition()`` the traced pass spans
ALGORITHM1 = {"symmetric_kdpp": SymmetricKDPP, "nonsymmetric_kdpp": NonsymmetricKDPP,
              "partition_dpp": PartitionDPP}
SYMMETRIC_K, NONSYMMETRIC_K, PARTITION_COUNTS, LOWRANK_K = 40, 16, (4, 4), 8
LOWRANK_N, LOWRANK_RANK, GRID = 100_000, 50, 12
#: whole cycles a timed run measures at the least, however short ``seconds``
MIN_CYCLES = 3


def cycle_plan(seed: int, cycle: int) -> List[Tuple[str, int]]:
    """The cycle's draws as ``(family, sampler seed)``, families interleaved."""
    plan = []
    for draw in range(max(DRAWS_PER_CYCLE.values())):
        for index, family in enumerate(FAMILIES):
            if draw < DRAWS_PER_CYCLE[family]:
                plan.append((family, seed_for(seed, cycle, index, draw)))
    return plan


class TheoremMix:
    latency_kinds = tuple(FAMILIES)
    open_loop_kinds = ()

    def __init__(self, seed: int, *, backend=None, tracer=None):
        self.seed = seed
        self.backend = backend
        self.tracer = tracer
        self.L10 = random_psd_ensemble(200, rank=60, seed=seed_for(seed, 1))
        self.L8 = random_npsd_ensemble(80, seed=seed_for(seed, 2))
        self.L9, self.parts = clustered_ensemble([12, 12], seed=seed_for(seed, 3))
        self.graph = grid_graph(GRID, GRID)
        factor, _ = random_low_rank_factor_ensemble(LOWRANK_N, LOWRANK_RANK, seed=seed_for(seed, 4))
        self.kernel = repro.LowRankKernel(factor)
        self._edges = {frozenset(edge) for edge in self.graph.edges()}
        self._vertices = set(self.graph.vertices())
        self._part_sets = [set(part) for part in self.parts]
        self.reports: Dict[str, list] = {family: [] for family in FAMILIES}

    def probe_instances(self):
        return {"symmetric_kdpp": (self.L10, SYMMETRIC_K),
                "nonsymmetric_kdpp": (self.L8, NONSYMMETRIC_K),
                "partition_dpp": (self.L9, self.parts, PARTITION_COUNTS),
                "lowrank_kdpp": (self.kernel, LOWRANK_K)}

    # ------------------------------------------------------------------ #
    def draw(self, family: str, seed: int, backend=None):
        """One public-entry-point call; returns ``(subset, SamplerReport)``."""
        backend = backend if backend is not None else self.backend
        if family == "symmetric_kdpp":
            result = repro.sample_symmetric_kdpp_parallel(self.L10, SYMMETRIC_K, seed=seed,
                                                          backend=backend)
        elif family == "nonsymmetric_kdpp":
            result = repro.sample_nonsymmetric_kdpp_parallel(self.L8, NONSYMMETRIC_K, seed=seed,
                                                             backend=backend)
        elif family == "partition_dpp":
            result = repro.sample_partition_dpp_parallel(self.L9, self.parts, PARTITION_COUNTS,
                                                         seed=seed, backend=backend)
        elif family == "planar_matching":
            result = repro.sample_planar_matching_parallel(self.graph, seed=seed)
        else:
            tracker = Tracker()
            with use_tracker(tracker):
                subset = repro.sample_kdpp_intermediate(self.kernel, LOWRANK_K, seed=seed,
                                                        backend=backend)
            return subset, repro.SamplerReport.from_tracker(tracker)
        return result.subset, result.report

    def valid(self, family: str, subset) -> bool:
        if family == "planar_matching":
            covered = [v for edge in subset for v in edge]
            return (all(len(edge) == 2 and edge in self._edges for edge in subset)
                    and len(covered) == len(self._vertices) and set(covered) == self._vertices)
        k, n = {"symmetric_kdpp": (SYMMETRIC_K, 200), "nonsymmetric_kdpp": (NONSYMMETRIC_K, 80),
                "partition_dpp": (sum(PARTITION_COUNTS), 24),
                "lowrank_kdpp": (LOWRANK_K, LOWRANK_N)}[family]
        items = [int(i) for i in subset]
        if len(items) != k or len(set(items)) != k or not all(0 <= i < n for i in items):
            return False
        if family == "partition_dpp":
            return all(sum(1 for i in items if i in part) == count
                       for part, count in zip(self._part_sets, PARTITION_COUNTS))
        return True

    def _op(self, family: str, seed: int, request: object) -> Op:
        start = time.perf_counter()
        try:
            with maybe_span(self.tracer, f"core.sample.{family}", request=request):
                subset, report = self.draw(family, seed)
        except Exception as exc:  # a failed draw counts in error_rate; the loop goes on
            return Op(family, time.perf_counter() - start, False,
                      digest=f"error:{type(exc).__name__}")
        latency = time.perf_counter() - start
        self.reports[family].append(report)
        return Op(family, latency, self.valid(family, subset), rounds=report.rounds,
                  digest=subset_digest(subset))

    # ------------------------------------------------------------------ #
    def warm_up(self) -> List[str]:
        """First draw of every family with cycle-0 seeds (re-drawn in cycle 0)."""
        first = {}
        for family, seed in cycle_plan(self.seed, 0):
            first.setdefault(family, seed)
        digests = [subset_digest(self.draw(family, seed)[0]) for family, seed in first.items()]
        self.reports = {family: [] for family in FAMILIES}
        return digests

    def run(self, seconds: Optional[float] = None, *, ops: Optional[int] = None) -> Outcome:
        """Whole cycles until ``seconds`` have passed and at least
        :data:`MIN_CYCLES` are done (or the first ``ops`` ops)."""
        cycles = None if ops is None else ops // sum(DRAWS_PER_CYCLE.values())
        outcome = Outcome()
        start = time.perf_counter()
        cycle = 0
        while (cycles is None and (cycle < MIN_CYCLES or time.perf_counter() - start < seconds)) \
                or (cycles is not None and cycle < cycles):
            cycle_start, cycle_cpu = time.perf_counter(), cpu_s()
            ops = [self._op(family, seed, request=f"c{cycle}.{position}")
                   for position, (family, seed) in enumerate(cycle_plan(self.seed, cycle))]
            ok = sum(op.ok for op in ops)
            outcome.window_rates.append(ok / (time.perf_counter() - cycle_start))
            outcome.cpu_window_rates.append(ok / (cpu_s() - cycle_cpu))
            outcome.ops.extend(ops)
            outcome.digests.append(chain_digest([op.digest for op in ops]))
            cycle += 1
        outcome.wall_s = time.perf_counter() - start
        outcome.cycles = cycle
        return outcome

    def close(self) -> None:
        pass
