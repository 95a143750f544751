"""Tests for the measured execution router (``backend="auto"``).

Covers the routing contract: a cold round shape runs on ``vectorized``,
shapes under the floor never touch ``process``, heavy shapes try
``process`` once and then follow the faster measurement (re-measuring the
loser every ``RETRY_EVERY``-th round), pool spin-up rounds are not
recorded, fixed-route and empty batches never read measurements, explicit
``backend=`` choices are always honored, and fixed-seed samples are
identical under ``auto`` and every forced backend — including when the
router switches backends in the middle of a draw.  Stub backends report
scripted wall times, so every routing assertion is host-independent.
"""

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.analysis.runtime import guard_instance
from repro.dpp.partition import PartitionDPP
from repro.dpp.spectral import sample_dpp_spectral, sample_kdpp_spectral
from repro.dpp.symmetric import SymmetricKDPP
from repro.engine import (
    AutoBackend,
    ExecutionBackend,
    OracleBatch,
    OracleBatchResult,
    ProcessPoolBackend,
    RoundPlanner,
    SerialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
    resolve_backend,
    shared_memory_available,
    use_backend,
)
from repro.engine.backends import _pin_worker_blas_threads, _WORKER_BLAS_ENV_VARS
from repro.engine.planner import (
    PLANNED_KINDS,
    PROCESS_FLOOR_S,
    RETRY_EVERY,
    shape_bucket,
)
from repro.core.nonsymmetric import sample_nonsymmetric_kdpp_parallel
from repro.core.symmetric import sample_symmetric_kdpp_parallel
from repro.core.partition import sample_partition_dpp_parallel
from repro.pram.cost import CostModel
from repro.pram.tracker import Tracker, use_tracker
from repro.workloads import random_npsd_ensemble, random_psd_ensemble

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ---------------------------------------------------------------------- #
# recording stub backends with scripted wall times
# ---------------------------------------------------------------------- #
class _Scripted(ExecutionBackend):
    """Backend reporting ``script(call_index)`` as its wall time.

    With an ``inner`` backend the values are real (samples stay exact);
    without one the stub answers zeros.  Every call appends the stub's name
    to the shared ``log``.
    """

    #: a plain attribute shadowing the base property, so tests can mark the
    #: next round as a pool spin-up
    warm = True

    def __init__(self, name, script, inner=None, log=None):
        self.name = name
        self.script = script
        self.inner = inner
        self.calls = 0
        self.log = log if log is not None else []

    def execute(self, batch, *, tracker=None):
        wall = self.script(self.calls)
        self.calls += 1
        self.log.append(self.name)
        if self.inner is not None:
            result = self.inner.execute(batch, tracker=tracker)
            return dataclasses.replace(result, wall_time=wall)
        return OracleBatchResult(values=np.zeros(batch.n_queries),
                                 backend=self.name, wall_time=wall,
                                 n_queries=batch.n_queries)

    def _counting(self, batch, tracker):  # pragma: no cover
        raise NotImplementedError

    def _joint_marginals(self, batch, tracker):  # pragma: no cover
        raise NotImplementedError

    def _log_principal_minors(self, batch, tracker):  # pragma: no cover
        raise NotImplementedError


def _constant(seconds):
    return lambda call: seconds


def _router(vectorized_s, process_s):
    """An auto backend over two stubs; returns ``(auto, vectorized, process)``."""
    log = []
    vec = _Scripted("vectorized", vectorized_s if callable(vectorized_s)
                    else _constant(vectorized_s), log=log)
    proc = _Scripted("process", process_s if callable(process_s)
                     else _constant(process_s), log=log)
    planner = RoundPlanner(backends={"vectorized": vec, "process": proc})
    return AutoBackend(planner), vec, proc


def _minors(queries=8):
    return OracleBatch.log_principal_minors(np.eye(8), [(i % 8,) for i in range(queries)])


def _run(auto, rounds, batch=_minors):
    chosen = []
    for _ in range(rounds):
        auto.execute(batch(), tracker=Tracker())
        chosen.append(auto.planner.last_decision.chosen)
    return chosen


@pytest.fixture(scope="module")
def small_kdpp():
    return SymmetricKDPP(random_psd_ensemble(12, seed=0), 4)


@pytest.fixture(scope="module")
def partition_dpp():
    L = random_psd_ensemble(30, rank=10, seed=1)
    return PartitionDPP(L, [list(range(15)), list(range(15, 30))], [3, 2])


# ---------------------------------------------------------------------- #
# the measured router
# ---------------------------------------------------------------------- #
class TestRouter:
    def test_shape_bucket_powers_of_two(self):
        assert shape_bucket(1) == 1
        assert shape_bucket(2) == 2
        assert shape_bucket(3) == 4
        assert shape_bucket(100) == 128

    def test_cold_key_runs_vectorized(self):
        auto, vec, proc = _router(10.0, 1e-6)  # process would win by far
        assert _run(auto, 1) == ["vectorized"]
        assert proc.calls == 0
        assert auto.planner.last_decision.estimates == {}

    def test_key_under_floor_never_touches_process(self):
        auto, vec, proc = _router(PROCESS_FLOOR_S / 2, 1e-6)
        chosen = _run(auto, 3 * RETRY_EVERY)
        assert set(chosen) == {"vectorized"}
        assert proc.calls == 0

    def test_heavy_key_tries_process_once_then_follows_faster(self):
        faster, _, _ = _router(10 * PROCESS_FLOOR_S, PROCESS_FLOOR_S / 4)
        assert _run(faster, 6) == ["vectorized"] + ["process"] * 5
        slower, _, proc = _router(10 * PROCESS_FLOOR_S, 50 * PROCESS_FLOOR_S)
        assert _run(slower, 6) == ["vectorized", "process"] + ["vectorized"] * 4
        assert proc.calls == 1

    def test_router_follows_the_lower_ewma(self):
        # process wins its trial, then turns slow: the EWMA hands the key
        # back to vectorized within a few rounds
        auto, _, _ = _router(10 * PROCESS_FLOOR_S,
                             lambda call: PROCESS_FLOOR_S if call == 0 else 1.0)
        chosen = _run(auto, 6)
        assert chosen[:3] == ["vectorized", "process", "process"]
        assert chosen[3:] == ["vectorized"] * 3
        decision = auto.planner.last_decision
        assert decision.estimates["process"] > decision.estimates["vectorized"]

    def test_loser_retried_every_32nd_round(self):
        auto, vec, _ = _router(10 * PROCESS_FLOOR_S, PROCESS_FLOOR_S)
        chosen = _run(auto, 2 * RETRY_EVERY + 1)
        retries = [i + 1 for i, name in enumerate(chosen)
                   if i > 0 and name == "vectorized"]
        assert retries == [RETRY_EVERY, 2 * RETRY_EVERY]
        assert chosen[RETRY_EVERY] == "process"  # back to the winner
        assert vec.calls == 3

    def test_keys_are_independent(self):
        auto, _, _ = _router(10 * PROCESS_FLOOR_S, PROCESS_FLOOR_S)
        _run(auto, 3)  # the 8-query key now prefers process
        assert _run(auto, 1, batch=lambda: _minors(queries=100)) == ["vectorized"]
        counting = OracleBatch.counting(SymmetricKDPP(np.eye(8), 2), [(0,)] * 8)
        assert _run(auto, 1, batch=lambda: counting) == ["vectorized"]

    def test_pool_spin_up_round_not_recorded(self):
        def spin_up_then_fast(call):
            return 1.0 if call == 0 else PROCESS_FLOOR_S

        auto, _, proc = _router(10 * PROCESS_FLOOR_S, spin_up_then_fast)
        _run(auto, 1)
        proc.warm = False  # the trial round has to start the pool
        assert _run(auto, 1) == ["process"]
        proc.warm = True
        # the 1 s spin-up never entered the EWMA: still no process
        # measurement, so the next round tries process again
        assert _run(auto, 1) == ["process"]
        assert "process" not in auto.planner.last_decision.estimates
        _run(auto, 1)
        assert auto.planner.last_decision.estimates["process"] == pytest.approx(
            PROCESS_FLOOR_S)

    def test_fixed_route_and_empty_batches_never_read_measurements(self, small_kdpp):
        auto, _, proc = _router(10 * PROCESS_FLOOR_S, PROCESS_FLOOR_S)
        batches = [OracleBatch.marginal_vector(small_kdpp),
                   OracleBatch.projection_step(np.eye(6)[:, :3]),
                   OracleBatch.counting(small_kdpp, [])]
        for batch in batches:
            backend, decision = auto.planner.plan(batch)
            assert backend.name == "vectorized" and decision.estimates == {}
        assert auto.planner._stats == {}
        assert proc.calls == 0

    def test_concurrent_rounds_lose_no_update(self):
        # serving threads share one planner: every round must be counted
        # and every guarded access must hold the lock
        violations = []
        auto, _, _ = _router(10 * PROCESS_FLOOR_S, PROCESS_FLOOR_S)
        guard_instance(auto.planner, collector=violations)
        threads, rounds = 8, 50
        workers = [threading.Thread(target=_run, args=(auto, rounds))
                   for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert violations == []
        with auto.planner._lock:
            (stats,) = auto.planner._stats.values()
            assert stats.rounds == threads * rounds

    def test_removed_options_are_rejected(self):
        for options in ({"cost_model": CostModel()}, {"candidates": ("threads",)},
                        {"overheads": {}}, {"feedback": None}):
            with pytest.raises(TypeError):
                RoundPlanner(**options)
        with pytest.raises(TypeError):
            obs.configure(feedback=True)


class TestPlannerRouting:
    def test_small_round_stays_vectorized(self, small_kdpp):
        auto, _, proc = _router(PROCESS_FLOOR_S / 10, 1e-6)
        batch = lambda: OracleBatch.counting(small_kdpp, [(0,), (1,), (2, 3)])  # noqa: E731
        assert _run(auto, 4, batch=batch) == ["vectorized"] * 4
        assert auto.planner.last_decision.estimates == {
            "vectorized": pytest.approx(PROCESS_FLOOR_S / 10)}
        assert proc.calls == 0

    def test_large_python_bound_round_goes_to_process(self, partition_dpp):
        auto, _, _ = _router(0.040, 0.015)
        subsets = [(i % partition_dpp.n,) for i in range(400)]
        chosen = _run(auto, 3, batch=lambda: OracleBatch.counting(partition_dpp, subsets))
        assert chosen == ["vectorized", "process", "process"]
        estimates = auto.planner.last_decision.estimates
        assert estimates["process"] < estimates["vectorized"]

    def test_large_lapack_round_prefers_in_process(self, small_kdpp):
        # plenty of queries, but the IPC round trip costs more than the
        # in-process stacked LAPACK call: one trial, then back in-process
        auto, _, proc = _router(0.005, 0.008)
        batch = lambda: OracleBatch.counting(small_kdpp, [(0,), (1,)] * 50)  # noqa: E731
        assert _run(auto, 4, batch=batch) == ["vectorized", "process",
                                               "vectorized", "vectorized"]
        assert proc.calls == 1

    def test_fixed_route_kinds_skip_estimation(self, small_kdpp):
        planner = RoundPlanner()
        marginal = OracleBatch.marginal_vector(small_kdpp)
        assert planner.choose(marginal).name == "vectorized"
        assert planner.last_decision.reason == "fixed-route"
        projection = OracleBatch.projection_step(np.eye(6)[:, :3])
        assert planner.choose(projection).name == "vectorized"
        assert planner.last_decision.reason == "fixed-route"
        assert projection.kind not in PLANNED_KINDS

    def test_empty_batch_short_circuits(self, small_kdpp):
        planner = RoundPlanner()
        batch = OracleBatch.counting(small_kdpp, [])
        assert planner.choose(batch).name == "vectorized"
        assert planner.last_decision.reason == "empty"


# ---------------------------------------------------------------------- #
# the auto backend: defaults, overrides, seeded identity
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(max_workers=2)
    yield backend
    backend.close()


class TestAutoBackend:
    def test_auto_is_registered_and_memoized(self):
        auto = resolve_backend("auto")
        assert isinstance(auto, AutoBackend)
        assert resolve_backend("auto") is auto

    def test_auto_rejects_conflicting_construction(self):
        # a ready planner is the only way to configure auto: the old pricing
        # options are gone
        with pytest.raises(TypeError):
            AutoBackend(RoundPlanner(), cost_model=CostModel())
        with pytest.raises(TypeError):
            AutoBackend(candidates=("vectorized", "threads"))

    def test_result_reports_inner_backend(self, small_kdpp):
        auto = AutoBackend(RoundPlanner(backends={"vectorized": VectorizedBackend()}))
        result = auto.execute(OracleBatch.counting(small_kdpp, [(0,), (1,)]),
                              tracker=Tracker())
        assert result.backend == "vectorized"

    def test_explicit_backend_bypasses_planner(self, small_kdpp):
        auto = AutoBackend(RoundPlanner())
        with use_backend(auto):
            before = len(auto.planner.decisions)
            result = resolve_backend("serial").execute(
                OracleBatch.counting(small_kdpp, [(0,), (1,)]), tracker=Tracker())
            assert result.backend == "serial"
            assert len(auto.planner.decisions) == before

    def test_routed_batch_executes_on_chosen_backend(self, partition_dpp):
        auto, vec, proc = _router(0.040, 0.015)
        subsets = [(i % partition_dpp.n,) for i in range(400)]
        _run(auto, 2, batch=lambda: OracleBatch.counting(partition_dpp, subsets))
        assert vec.log == ["vectorized", "process"]
        assert (vec.calls, proc.calls) == (1, 1)

    @pytest.mark.parametrize("forced", ["serial", "vectorized", "threads"])
    def test_auto_identical_to_forced_symmetric(self, forced):
        L = random_psd_ensemble(16, rank=8, seed=3)
        reference = sample_symmetric_kdpp_parallel(L, k=5, seed=11, backend=forced)
        with use_backend("auto"):
            auto = sample_symmetric_kdpp_parallel(L, k=5, seed=11)
        assert auto.subset == reference.subset

    @pytest.mark.parametrize("forced", ["serial", "vectorized", "threads"])
    def test_auto_identical_to_forced_partition(self, forced):
        L = random_psd_ensemble(10, seed=4)
        parts = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        reference = sample_partition_dpp_parallel(L, parts, [2, 2], seed=13,
                                                  backend=forced)
        with use_backend("auto"):
            auto = sample_partition_dpp_parallel(L, parts, [2, 2], seed=13)
        assert auto.subset == reference.subset

    @pytest.mark.parametrize("forced", ["serial", "vectorized", "threads", "auto"])
    def test_spectral_identity_across_backends(self, forced):
        L = random_psd_ensemble(18, rank=9, seed=5)
        reference = sample_kdpp_spectral(L, 5, seed=21, backend="vectorized")
        assert sample_kdpp_spectral(L, 5, seed=21, backend=forced) == reference
        dpp_reference = sample_dpp_spectral(L, seed=22, backend="vectorized")
        assert sample_dpp_spectral(L, seed=22, backend=forced) == dpp_reference


def _thm10(backend):
    L = random_psd_ensemble(60, rank=30, seed=3)
    return sample_symmetric_kdpp_parallel(L, 20, seed=11, backend=backend)


def _thm8(backend):
    return sample_nonsymmetric_kdpp_parallel(random_npsd_ensemble(20, seed=19), 10,
                                             seed=41, backend=backend)


def _thm9(backend):
    L = random_psd_ensemble(16, seed=9)
    return sample_partition_dpp_parallel(L, [list(range(8)), list(range(8, 16))],
                                         [4, 4], seed=213, backend=backend)


@pytest.mark.skipif(not shared_memory_available(),
                    reason="multiprocessing.shared_memory unavailable")
class TestMidDrawSwitch:
    """The router moves to ``process`` and back inside one draw.

    ``vectorized`` always reports 20 ms (above the floor); ``process``
    reports 1 ms for its first round — so the router adopts it — and 1 s
    after that, so the EWMA hands the key back.  Both stubs compute real
    values (the process one through worker processes), and the draw must
    equal forced ``vectorized`` subset for subset and round for round.
    """

    @pytest.mark.parametrize("draw", [_thm8, _thm9, _thm10],
                             ids=["thm8-nonsymmetric", "thm9-partition",
                                  "thm10-symmetric"])
    def test_switching_draw_identical_to_forced_vectorized(self, draw, process_backend):
        log = []
        vec = _Scripted("vectorized", _constant(10 * PROCESS_FLOOR_S),
                        inner=VectorizedBackend(), log=log)
        proc = _Scripted("process", lambda call: 1e-3 if call == 0 else 1.0,
                         inner=process_backend, log=log)
        auto = AutoBackend(RoundPlanner(backends={"vectorized": vec, "process": proc}))
        switched = draw(auto)
        reference = draw("vectorized")
        first_process = log.index("process")
        assert "vectorized" in log[first_process:], log
        assert switched.subset == reference.subset
        assert switched.report.rounds == reference.report.rounds


# ---------------------------------------------------------------------- #
# spectral path through the engine
# ---------------------------------------------------------------------- #
class TestSpectralEngineRounds:
    def test_projection_step_round_trip(self):
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        batch = OracleBatch.projection_step(basis)
        result = resolve_backend("vectorized").execute(batch, tracker=Tracker())
        np.testing.assert_array_equal(result.values, np.sum(basis * basis, axis=1))
        (returned,) = result.artifacts["bases"]
        np.testing.assert_array_equal(returned, basis)

    def test_projection_step_identical_across_backends(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        reference = None
        for backend in (SerialBackend(), VectorizedBackend(), ThreadPoolBackend(max_workers=2)):
            result = backend.execute(
                OracleBatch.projection_step(basis, eliminate=(3,)), tracker=Tracker())
            if reference is None:
                reference = result
            else:
                np.testing.assert_array_equal(result.values, reference.values)
                np.testing.assert_array_equal(result.artifacts["bases"][0],
                                              reference.artifacts["bases"][0])

    def test_stacked_matches_single(self):
        """The fusion contract: G-stacked execution equals G=1 slices bitwise."""
        from repro.linalg.batch import hkpv_projection_step

        rng = np.random.default_rng(2)
        bases = [np.linalg.qr(rng.standard_normal((9, 3)))[0] for _ in range(4)]
        items = [0, 4, 7, 2]
        stacked_w, stacked_b = hkpv_projection_step(np.stack(bases), items)
        for g in range(4):
            single_w, single_b = hkpv_projection_step(bases[g][None], [items[g]])
            np.testing.assert_array_equal(stacked_w[g], single_w[0])
            np.testing.assert_array_equal(stacked_b[g], single_b[0])

    def test_spectral_depth_one_round_per_step(self):
        L = random_psd_ensemble(12, seed=6)
        tracker = Tracker()
        with use_tracker(tracker):
            sample_kdpp_spectral(L, 4, seed=7)
        # eigendecomposition round + one engine round per phase-2 step
        assert tracker.rounds == 5

    def test_spectral_sample_statistics_hold(self):
        # the engine rewrite must not perturb correctness of the sampler
        from repro.dpp.exact import exact_kdpp_distribution

        L = random_psd_ensemble(6, seed=8)
        exact = exact_kdpp_distribution(L, 2)
        rng = np.random.default_rng(9)
        counts = {}
        num_samples = 2000
        for _ in range(num_samples):
            s = sample_kdpp_spectral(L, 2, rng)
            counts[s] = counts.get(s, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / num_samples - exact.probability_vector([s])[0])
            for s in exact.support)
        assert tv < 0.08


# ---------------------------------------------------------------------- #
# process backend: BLAS pinning
# ---------------------------------------------------------------------- #
class TestProcessBackendSatellites:
    def test_pin_worker_blas_threads_sets_defaults(self, monkeypatch):
        for var in _WORKER_BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "7")  # explicit settings win
        _pin_worker_blas_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["MKL_NUM_THREADS"] == "7"

    def test_pool_workers_start_with_the_pin(self, monkeypatch):
        # workers load NumPy before any initializer runs, so the pin must be
        # in the environment they inherit — and only theirs
        for var in _WORKER_BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        backend = ProcessPoolBackend(max_workers=1)
        try:
            pool = backend._ensure_pool()
            assert pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result() == "1"
        finally:
            backend.close()
        assert "OPENBLAS_NUM_THREADS" not in os.environ

