#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end or layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload theorem-mix --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory): ``theorem-mix``,
``serve-spectral``, ``cluster-mutating``.  Inputs are generated from
``--seed``; the program only ever sees the generated inputs.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
timed three times (two fresh interpreters, one after the other, then this
process) and the median reported.
``--trace 1`` runs the workload untraced, replays the same operations with
spans at every layer boundary, checks both passes drew identical samples,
and reports the per-layer metrics plus the tracing overhead; the spans and a
per-layer summary are written under ``perfbench/out/``.

Human-readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time

#: one BLAS thread per process, set before anything loads numpy (pool workers
#: and the set-up interpreters inherit it).  On a 2-CPU host the program's own
#: threads (drain, cluster nodes, the threads backend) already fill the CPUs;
#: OpenBLAS's extra thread adds no speed at n = 200 but spins between calls,
#: which would double the CPU time ``cpu_throughput_ops`` divides by.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "theorem-mix": ("theorem_mix", "TheoremMix"),
    "serve-spectral": ("serve_spectral", "ServeSpectral"),
    "cluster-mutating": ("cluster_mutating", "ClusterMutating"),
}
#: set-up samples per --trace 0 run: fresh interpreters plus this process
SETUP_SAMPLES = 3
FAMILIES = ("symmetric_kdpp", "nonsymmetric_kdpp", "partition_dpp",
            "planar_matching", "lowrank_kdpp")
ALGORITHM1 = FAMILIES[:3]

E2E_UNITS = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_ops": "ops/s",
    "cpu_throughput_ops": "ops/cpu-s",
    "rounds_per_sample": "rounds",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: the end-to-end metrics in the result line (and in BENCHMARK.json).  The
#: latency percentiles and the wall-clock throughput are printed but not
#: gated: CPU steal on a shared host moves them by more than any allowed bound
#: between runs of the same code (see README.md)
GATED = ("cpu_throughput_ops", "rounds_per_sample", "peak_rss_mb", "setup_s")


def per_layer_units():
    """Every per-layer metric of the traced run, with its unit, in report order."""
    units = {"core.self_s": "s/op"}
    units.update({f"core.batches.{f}": "count/sample" for f in ALGORITHM1})
    units.update({"core.acceptance_rate": "fraction", "core.ratio_violations": "count/sample",
                  "core.fallbacks": "count/sample"})
    for key, unit in (("oracle_calls", "count/sample"), ("work", "work/sample"),
                      ("peak_machines", "count")):
        units.update({f"pram.{key}.{f}": unit for f in FAMILIES})
    for label in ("conditional-marginals", "joint-marginals", "fallback-marginals",
                  "projection-step"):
        units.update({f"engine.execute_s.{label}": "s/op",
                      f"engine.execute_calls.{label}": "count/op",
                      f"engine.queries.{label}": "count/op"})
    units.update({f"engine.backend_share.{b}": "fraction"
                  for b in ("vectorized", "threads", "process")})
    units.update({"engine.auto_gap": "ratio", "engine.process_workers": "count"})
    units.update({f"dpp.condition_s.{f}": "s/op" for f in ALGORITHM1})
    units.update({f"dpp.oracle_rel_err.{f}": "fraction"
                  for f in ("symmetric_kdpp", "nonsymmetric_kdpp", "partition_dpp", "lowrank_kdpp")})
    from probes import LADDER_COUNTS, LADDER_SIZES

    units.update({f"dpp.partition_rel_err.n{2 * s}c{c}": "fraction"
                  for s in LADDER_SIZES for c in LADDER_COUNTS})
    units.update({"dpp.probe_failures": "count",
                  "planar.sample_s": "s/op", "planar.rounds": "rounds",
                  "lowrank.sample_s": "s/op",
                  "service.drain_s": "s/op", "service.fusion_width": "ratio",
                  "service.queue_wait_s": "s", "service.cache_hit_ratio": "fraction",
                  "service.update_patched_ratio": "fraction", "service.cache_bytes": "bytes",
                  "service.warm_s": "s",
                  "cluster.read_rpc_s": "s", "cluster.update_rpc_s": "s", "cluster.wire_s": "s",
                  "cluster.failovers": "count", "cluster.node_evictions": "count",
                  "bench.generator_lag_s": "s", "host.eigh256_s": "s",
                  "bench.trace_overhead_s": "s/op", "bench.trace_overhead_ratio": "ratio"})
    return units


# ---------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def provenance() -> dict:
    """Git SHA, host, CPU count, BLAS and numpy version, from the repository's
    benchmark helpers; git is kept from looking above the checkout."""
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(ROOT))
    sys.path.append(os.path.join(ROOT, "benchmarks"))
    from _helpers import provenance as stamp

    return stamp()


def set_up(name: str, seed: int, **options):
    """Program set-up, from the first call into repro until the timed phase."""
    start = time.perf_counter()
    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(seed, **options)
    digests = workload.warm_up()
    return workload, digests, time.perf_counter() - start


def stop_helpers() -> None:
    """Stop every helper process this process started, and wait for each.

    These are the pooled backends ``auto`` may have started (worker processes
    and shared-memory segments), then multiprocessing's resource tracker,
    which would otherwise outlive the interpreter for a moment.
    """
    if "repro.engine" in sys.modules:
        from repro.engine import resolve_backend

        for name in ("process", "threads"):
            resolve_backend(name).close()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def fresh_setup(args) -> dict:
    """Set-up timed in a fresh interpreter: ``{"setup_s", "warm"}``.

    The interpreter leads a process group of its own, so if it fails or
    times out, it and every process it started are killed together.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


class Checks:
    """Named pass/fail checks beyond per-operation validity."""

    def __init__(self, lines):
        self.lines = lines
        self.attempted = 0
        self.failed = 0

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")

    def absorb(self, outcome, name: str) -> None:
        self.attempted += outcome.attempted()
        self.failed += outcome.failures()
        self.lines.append(f"check {name}: {outcome.attempted() - outcome.failures()} of "
                          f"{outcome.attempted()} operations and spot checks passed")


def first_of_family(ops):
    first = {}
    for op in ops:
        first.setdefault(op.kind, op.digest)
    return list(first.values())


# ---------------------------------------------------------------------- #
def end_to_end(args, lines):
    from common import peak_rss_mb, quantile

    children = [fresh_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    checks = Checks(lines)
    extra = {}
    workload, warm, setup_s = set_up(args.workload, args.seed)
    try:
        checks("warm-up samples identical across processes",
               all(child["warm"] == warm for child in children))
        if args.workload == "theorem-mix":
            from probes import run_probes
            from theorem_mix import DRAWS_PER_CYCLE

            lines.append(f"theorem-mix draws per cycle {json.dumps(DRAWS_PER_CYCLE)}")
            probe_metrics, probe_lines = run_probes(args.seed, workload.probe_instances())
            lines.extend(probe_lines)
            lines.append(f"oracle probes over tolerance: {int(probe_metrics['dpp.probe_failures'])} "
                         "(reported here and in the traced run; not counted as failed operations)")
        outcome = workload.run(args.seconds)
        # read before serve-spectral's rate ladder, whose overloaded top rungs
        # queue a backlog as deep as the host is slow
        rss_mb = peak_rss_mb()
        checks.absorb(outcome, "sample validity and spot checks against sample_kdpp_spectral")
        if args.workload == "theorem-mix":
            cycle0 = outcome.ops[:len(outcome.ops) // outcome.cycles]
            checks("warm-up draws equal the same-seed draws of cycle 0",
                   first_of_family(cycle0) == warm)
            for family in FAMILIES:
                walls = [op.latency_s for op in outcome.ops if op.kind == family]
                lines.append(f"theorem-mix {family}: median {statistics.median(walls):.4f} s, "
                             f"share {sum(walls) / outcome.wall_s:.3f} of wall (n={len(walls)})")
        elif args.workload == "serve-spectral":
            from serve_spectral import LADDER, LATENCY_LIMIT_S, NOMINAL_RATE

            lines.append(f"serve-spectral nominal rate {NOMINAL_RATE:g} req/s, ladder "
                         f"{list(LADDER)} req/s, latency limit {LATENCY_LIMIT_S:g} s on p90")
            rate, ladder_lines = workload.max_rate()
            lines.extend(ladder_lines)
            extra["max_rate_rps"] = (rate, "req/s", len(ladder_lines))
    finally:
        workload.close()

    ops = outcome.ops
    latencies = [op.latency_s for op in ops if op.kind in workload.latency_kinds]
    rounds = [op.rounds for op in ops if op.rounds is not None]
    setups = [child["setup_s"] for child in children] + [setup_s]
    values = {
        "latency_p50_s": (quantile(latencies, 0.5), len(latencies)),
        "latency_p90_s": (quantile(latencies, 0.9), len(latencies)),
        "throughput_ops": (statistics.median(outcome.window_rates), len(outcome.window_rates)),
        "cpu_throughput_ops": (statistics.median(outcome.cpu_window_rates),
                               len(outcome.cpu_window_rates)),
        "rounds_per_sample": (sum(rounds) / len(rounds), len(rounds)),
        "peak_rss_mb": (rss_mb, 1),
        "setup_s": (statistics.median(setups), len(setups)),
    }
    updates = [op.latency_s for op in ops if op.kind == "update"]
    if updates:
        extra["update_p50_s"] = (statistics.median(updates), "s", len(updates))
    for name, (value, count) in values.items():
        gate = "" if name in GATED else ", not gated"
        samples = "windows" if name.endswith("throughput_ops") else "n"
        lines.append(f"e2e {name} = {value:.6g} {E2E_UNITS[name]} ({samples}={count}{gate})")
    for name, (value, unit, count) in extra.items():
        lines.append(f"e2e {name} = {value:.6g} {unit} (n={count}, not gated)")
    lines.append(f"e2e error_rate = {checks.failed / checks.attempted:.6g} fraction "
                 f"(n={checks.attempted}, not gated)")
    metrics = {name: {"value": values[name][0], "unit": E2E_UNITS[name]} for name in GATED}
    return checks, metrics


def traced(args, lines):
    from common import eigh_calibration_s
    from spans import TracedBackend, Tracer, summarize, traced_condition

    checks = Checks(lines)
    metrics = {name: 0.0 for name in per_layer_units()}
    workload, warm, _ = set_up(args.workload, args.seed)
    try:
        metrics["host.eigh256_s"] = eigh_calibration_s()
        if args.workload == "theorem-mix":
            from probes import run_probes

            probe_metrics, probe_lines = run_probes(args.seed, workload.probe_instances())
            metrics.update(probe_metrics)
            lines.extend(probe_lines)
        plain = workload.run(args.seconds)
        checks.absorb(plain, "untraced pass")
        if args.workload == "theorem-mix":
            metrics.update(sampler_metrics(workload, plain, checks))
        metrics["engine.process_workers"] = float(len(multiprocessing.active_children()))
    finally:
        workload.close()

    tracer = Tracer()
    replay, replay_warm, _ = set_up(args.workload, args.seed, backend=TracedBackend(tracer),
                                    tracer=tracer)
    tracer.spans.clear()
    classes = {}
    if args.workload == "theorem-mix":
        from theorem_mix import ALGORITHM1 as classes
    try:
        with traced_condition(tracer, classes):
            spanned = replay.run(args.seconds, ops=len(plain.ops))
        if args.workload == "cluster-mutating":
            metrics["cluster.wire_s"] = replay.wire_split(spanned)
        checks.absorb(spanned, "traced pass")
        checks("traced pass drew the untraced pass's samples",
               spanned.digests == plain.digests and replay_warm == warm)
        metrics.update(summarize(tracer, len(spanned.ops), ALGORITHM1))
        if hasattr(replay, "layer_metrics"):
            metrics.update(replay.layer_metrics())
    finally:
        replay.close()

    pairs = [(a.latency_s, b.latency_s) for a, b in zip(plain.ops, spanned.ops)
             if a.kind not in replay.open_loop_kinds]
    plain_s = sum(a for a, _ in pairs)
    spanned_s = sum(b for _, b in pairs)
    metrics["bench.trace_overhead_s"] = (spanned_s - plain_s) / len(pairs)
    metrics["bench.trace_overhead_ratio"] = spanned_s / plain_s
    lines.append(f"tracing overhead {metrics['bench.trace_overhead_s']:.3g} s/op "
                 f"({metrics['bench.trace_overhead_ratio']:.4f}x) over {len(pairs)} ops")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    tracer.dump(stem + "-spans.json")
    units = per_layer_units()
    with open(stem + "-layers.json", "w") as handle:
        json.dump({name: {"value": metrics[name], "unit": units[name]} for name in units},
                  handle, indent=1)
    lines.append(f"wrote {len(tracer.spans)} spans to {stem}-spans.json and the "
                 f"per-layer summary to {stem}-layers.json")
    return checks, {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}


def sampler_metrics(workload, plain, checks):
    """core/pram/planar figures from the untraced pass's reports, plus auto_gap."""
    from common import subset_digest
    from theorem_mix import cycle_plan

    out = {}
    reports = workload.reports
    for family in FAMILIES:
        for key in ("oracle_calls", "work", "peak_machines"):
            values = [getattr(report, key) for report in reports[family]]
            out[f"pram.{key}.{family}"] = float(statistics.mean(values)) if values else 0.0
    algorithm1 = [report for family in ALGORITHM1 for report in reports[family]]
    for family in ALGORITHM1:
        out[f"core.batches.{family}"] = float(statistics.mean(
            len(report.batch_sizes) for report in reports[family]))
    rates = [rate for report in algorithm1 for rate in report.acceptance_rates]
    out["core.acceptance_rate"] = float(statistics.mean(rates)) if rates else 0.0
    out["core.ratio_violations"] = float(statistics.mean(r.ratio_violations for r in algorithm1))
    out["core.fallbacks"] = float(statistics.mean(r.failed for r in algorithm1))
    out["planar.rounds"] = float(statistics.mean(r.rounds for r in reports["planar_matching"]))

    # engine.auto_gap: the Thm 10 draws on auto against the same seeds on vectorized
    seeds = [seed for cycle in range(plain.cycles)
             for family, seed in cycle_plan(workload.seed, cycle) if family == "symmetric_kdpp"]
    auto = [op for op in plain.ops if op.kind == "symmetric_kdpp"]
    start = time.perf_counter()
    forced = [subset_digest(workload.draw("symmetric_kdpp", seed, backend="vectorized")[0])
              for seed in seeds]
    out["engine.auto_gap"] = sum(op.latency_s for op in auto) / (time.perf_counter() - start)
    checks("Thm 10 samples identical on auto and vectorized", forced == [op.digest for op in auto])
    return out


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"cannot find the program: {SRC}/repro is missing", file=sys.stderr)
        return 2
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, SRC)
    # Every process stamps provenance and loads the benchmark's shared module
    # (both import numpy) before its set-up clock starts, so the set-up
    # samples of the parent and of the fresh interpreters time the same work.
    stamp = provenance()
    import common  # noqa: F401
    try:
        if args.setup_only:
            workload, warm, seconds = set_up(args.workload, args.seed)
            workload.close()
            print(json.dumps({"setup_s": seconds, "warm": warm}))
            return 0
        blas = {name: os.environ[name] for name in BLAS_THREADS}
        lines = [f"provenance {json.dumps(stamp)}", f"blas threads {json.dumps(blas)}"]
        checks, metrics = (traced if args.trace else end_to_end)(args, lines)
    finally:
        stop_helpers()
    for line in lines:
        print(line)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
