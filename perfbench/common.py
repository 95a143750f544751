"""Shared pieces of the benchmark: op records, statistics, digests.

Nothing here imports ``repro``; the workload modules do, after ``run.py`` has
started the set-up clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class Op:
    """One timed operation of a workload and what its checks found."""

    kind: str
    latency_s: float
    ok: bool
    rounds: Optional[float] = None
    digest: str = ""


@dataclass
class Outcome:
    """Everything a workload pass measured; ``run.py`` turns it into metrics."""

    ops: List[Op] = field(default_factory=list)
    wall_s: float = 0.0
    #: correct operations per second of each fixed-size window of the timed
    #: phase; ``throughput_ops`` is their median, so a stalled stretch of a
    #: shared host moves one window rather than the figure
    window_rates: List[float] = field(default_factory=list)
    #: the same windows' correct operations per CPU second (:func:`cpu_s`);
    #: ``cpu_throughput_ops`` is their median
    cpu_window_rates: List[float] = field(default_factory=list)
    #: extra checks that are not single operations (spot checks, digests)
    checks_attempted: int = 0
    checks_failed: int = 0
    digests: List[str] = field(default_factory=list)
    #: whole theorem-mix cycles measured (0 for the other workloads)
    cycles: int = 0

    def failures(self) -> int:
        return sum(1 for op in self.ops if not op.ok) + self.checks_failed

    def attempted(self) -> int:
        return len(self.ops) + self.checks_attempted


def maybe_span(tracer, name: str, **attrs):
    """``tracer.span(...)`` in the traced pass, a no-op context otherwise."""
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (numpy's default definition)."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def seed_for(*parts: int) -> int:
    """A 32-bit seed derived from the run seed and a position in the workload."""
    return int(np.random.SeedSequence([int(p) % 2**63 for p in parts]).generate_state(1)[0])


def subset_digest(subset) -> str:
    """Stable digest of one sample (sorted tuple of labels or of matching edges)."""
    return hashlib.sha256(repr(subset).encode()).hexdigest()[:16]


def chain_digest(parts: Sequence[str]) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def eigh_calibration_s(repeats: int = 5) -> float:
    """Median wall of one n = 256 ``eigh``: shows host drift, gates nothing."""
    matrix = np.random.default_rng(256).standard_normal((256, 256))
    matrix = matrix + matrix.T
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.eigh(matrix)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def cpu_s() -> float:
    """CPU seconds used so far by every thread of this process and by its live
    child processes (the pool workers ``auto`` may start).

    Wall time on a shared host also counts the time the hypervisor gives this
    machine's CPUs to other tenants (steal), which swings from 0 to 30 % over
    minutes; CPU time leaves it out, so it measures the program's own work.
    """
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICKS_PER_S  # utime + stime
        except (OSError, IndexError, ValueError):  # the child ended meanwhile
            pass
    return total
