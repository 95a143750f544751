"""The PRAM report is a property of the sampler, not of where it ran.

Every :class:`~repro.core.result.SamplerReport` field the paper's theorems
speak about — ``rounds``, ``oracle_calls``, ``work``, ``peak_machines`` —
must be equal for one fixed-seed draw on every backend (``serial`` /
``vectorized`` / ``threads`` / ``process`` / ``auto``), unfused and fused,
on a cold and a warm factorization cache, and single-node and through
``serve_cluster``.  Each round is charged once, at the
:class:`~repro.engine.batch.OracleBatch` boundary, so nothing the oracle code
does while answering it can reach the report.
"""

import pytest

import repro
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricKDPP
from repro.engine import OracleBatch, ProcessPoolBackend, resolve_backend, use_backend
from repro.pram.cost import CostModel
from repro.pram.tracker import Tracker, use_tracker
from repro.workloads import (
    bounded_spectrum_ensemble,
    clustered_ensemble,
    random_low_rank_factor_ensemble,
    random_npsd_ensemble,
    random_psd_ensemble,
)

BACKEND_NAMES = ("serial", "vectorized", "threads", "process", "auto")
SEED = 3


def fields(report):
    return (report.rounds, report.oracle_calls, report.work, report.peak_machines)


@pytest.fixture(scope="module")
def backends():
    """Every backend; one 2-worker pool for the module (spawn cost paid once)."""
    process = ProcessPoolBackend(max_workers=2)
    named = {name: resolve_backend(name) for name in BACKEND_NAMES if name != "process"}
    named["process"] = process
    yield named
    process.close()


@pytest.fixture(scope="module")
def psd():
    return random_psd_ensemble(24, rank=10, seed=0)


@pytest.fixture(scope="module")
def npsd():
    return random_npsd_ensemble(12, seed=2)


@pytest.fixture(scope="module")
def partitioned():
    return clustered_ensemble([5, 5], seed=3)


@pytest.fixture(scope="module")
def lowrank():
    factor, _ = random_low_rank_factor_ensemble(400, 12, seed=4)
    return repro.LowRankKernel(factor)


def _intermediate(kernel, k, seed, backend, tracker=None):
    trk = tracker if tracker is not None else Tracker()
    with use_tracker(trk):
        subset = repro.sample_kdpp_intermediate(kernel, k, seed=seed, backend=backend)
    return repro.SampleResult(subset=subset, report=repro.SamplerReport.from_tracker(trk))


def _sequential(L, k, seed, backend, tracker=None):
    # the sequential reduction takes no backend: scope the default instead
    with use_backend(backend):
        return repro.sequential_sample(SymmetricKDPP(L, k), seed=seed, tracker=tracker)


#: name -> draw(fixtures, backend, tracker); every sampler that issues batches
SAMPLERS = {
    "thm10-kdpp": lambda f, b, t: repro.sample_symmetric_kdpp_parallel(
        f["psd"], 6, seed=SEED, backend=b, tracker=t),
    "thm10-dpp": lambda f, b, t: repro.sample_symmetric_dpp_parallel(
        f["psd"], seed=SEED, backend=b, tracker=t),
    "thm8": lambda f, b, t: repro.sample_nonsymmetric_kdpp_parallel(
        f["npsd"], 4, seed=SEED, backend=b, tracker=t),
    "thm9": lambda f, b, t: repro.sample_partition_dpp_parallel(
        f["partitioned"][0], f["partitioned"][1], (2, 2), seed=SEED, backend=b, tracker=t),
    "thm41-filter": lambda f, b, t: repro.sample_bounded_dpp_filtering(
        bounded_spectrum_ensemble(16, kernel_lambda_max=0.4, seed=5), seed=SEED,
        strategy="filter", backend=b, tracker=t),
    "intermediate": lambda f, b, t: _intermediate(f["lowrank"], 5, SEED, b, t),
    "sequential": lambda f, b, t: _sequential(f["psd"], 4, SEED, b, t),
}


@pytest.fixture(scope="module")
def instances(psd, npsd, partitioned, lowrank):
    return {"psd": psd, "npsd": npsd, "partitioned": partitioned, "lowrank": lowrank}


# ---------------------------------------------------------------------- #
# backends
# ---------------------------------------------------------------------- #
class TestAcrossBackends:
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_report_equal_on_every_backend(self, sampler, instances, backends):
        draw = SAMPLERS[sampler]
        results = {name: draw(instances, backend, None) for name, backend in backends.items()}
        reference = results["serial"]
        assert reference.report.rounds > 0
        for name, result in results.items():
            assert tuple(result.subset) == tuple(reference.subset), name
            assert fields(result.report) == fields(reference.report), name

    @pytest.mark.parametrize("sampler", ["thm10-kdpp", "thm9", "thm41-filter"])
    def test_custom_cost_model_prices_every_backend(self, sampler, instances, backends):
        model = CostModel(determinant_exponent=2.25)
        draw = SAMPLERS[sampler]
        reports = {}
        for name, backend in backends.items():
            tracker = Tracker(model)
            draw(instances, backend, tracker)
            reports[name] = (tracker.rounds, tracker.oracle_calls, tracker.work,
                             tracker.peak_machines)
        assert len(set(reports.values())) == 1, reports
        default = fields(draw(instances, "vectorized", None).report)
        # same rounds and queries; the exponent reprices the work
        assert reports["serial"][:2] == default[:2]
        assert reports["serial"][2] < default[2]


class TestRoundPrice:
    def test_partition_query_pays_its_interpolation_grid(self, partitioned):
        L, parts = partitioned
        dist = PartitionDPP(L, parts, (2, 2))
        tracker = Tracker()
        OracleBatch.counting(dist, [(0,), (1,), (0, 5)]).charge(tracker)
        grid = (len(parts[0]) + 1) * (len(parts[1]) + 1)
        assert (tracker.oracle_calls, tracker.peak_machines) == (3, 3.0)
        assert tracker.work == 3 * grid * float(dist.n) ** 3

    def test_factor_backed_query_is_priced_at_its_rank(self, lowrank):
        dist = repro.LowRankKDPP(lowrank, 5)
        tracker = Tracker()
        OracleBatch.joint_marginals(dist, [(0,), (1,)]).charge(tracker)
        n, r = dist.n, dist.rank
        assert tracker.work == 2 * (n * r * r + float(r) ** 3)


class TestEdgeInputs:
    def test_k_zero(self, psd, backends):
        reports = {fields(repro.sample_symmetric_kdpp_parallel(
            psd, 0, seed=SEED, backend=backend).report) for backend in backends.values()}
        assert reports == {(0, 0, 0.0, 0.0)}

    def test_k_equals_n(self, backends):
        L = random_psd_ensemble(7, seed=6)
        results = [repro.sample_symmetric_kdpp_parallel(L, 7, seed=SEED, backend=backend)
                   for backend in backends.values()]
        assert {tuple(r.subset) for r in results} == {tuple(range(7))}
        assert len({fields(r.report) for r in results}) == 1

    def test_rank_deficient_k_equals_rank(self, backends):
        L = random_psd_ensemble(14, rank=5, seed=7)
        results = [repro.sample_symmetric_kdpp_parallel(L, 5, seed=SEED, backend=backend)
                   for backend in backends.values()]
        assert len({tuple(r.subset) for r in results}) == 1
        assert len({fields(r.report) for r in results}) == 1

    def test_rank_deficient_sequential(self, backends):
        L = random_psd_ensemble(14, rank=5, seed=7)
        results = [_sequential(L, 5, SEED, backend) for backend in backends.values()]
        assert len({tuple(r.subset) for r in results}) == 1
        assert len({fields(r.report) for r in results}) == 1


# ---------------------------------------------------------------------- #
# serving entry points
# ---------------------------------------------------------------------- #
#: (fixture, serve kwargs, sample kwargs) per served family
SERVED = {
    "symmetric-kdpp": ("psd", {}, {"k": 6, "method": "parallel"}),
    "symmetric-dpp": ("psd", {}, {"method": "parallel"}),
    "symmetric-spectral": ("psd", {}, {"k": 6, "method": "spectral"}),
    "nonsymmetric": ("npsd", {"kind": "nonsymmetric"}, {"k": 4}),
    "partition": ("partitioned", {"kind": "partition", "counts": (2, 2)}, {}),
    "lowrank": ("lowrank", {}, {"k": 5}),
}


def _spectral(L, k, seed):
    tracker = Tracker()
    with use_tracker(tracker):
        subset = repro.dpp.sample_kdpp_spectral(L, k, seed)
    return repro.SampleResult(subset=subset, report=repro.SamplerReport.from_tracker(tracker))


#: the cold module-level call each served family replays
DIRECT = {
    "symmetric-kdpp": lambda f: SAMPLERS["thm10-kdpp"](f, None, None),
    "symmetric-spectral": lambda f: _spectral(f["psd"], 6, SEED),
    "nonsymmetric": lambda f: SAMPLERS["thm8"](f, None, None),
    "partition": lambda f: SAMPLERS["thm9"](f, None, None),
    "lowrank": lambda f: _intermediate(f["lowrank"], 5, SEED, None),
}


def _serve(instances, family):
    """``(kernel, serve kwargs)`` for one served family."""
    name, serve_kwargs, _ = SERVED[family]
    kernel = instances[name]
    kwargs = dict(serve_kwargs)
    if name == "partitioned":
        kernel, kwargs["parts"] = kernel
    return kernel, kwargs


class TestServingEntryPoints:
    @pytest.mark.parametrize("family", sorted(SERVED))
    def test_cold_and_warm_cache_agree(self, family, instances):
        kernel, kwargs = _serve(instances, family)
        sample_kwargs = SERVED[family][2]
        with repro.serve(kernel, registry=repro.KernelRegistry(), **kwargs) as session:
            cold = session.sample(seed=SEED, **sample_kwargs)
            warm = session.warm().sample(seed=SEED, **sample_kwargs)
        assert cold.subset == warm.subset
        assert fields(cold.report) == fields(warm.report)

    @pytest.mark.parametrize("family", ["symmetric-kdpp", "symmetric-spectral",
                                        "nonsymmetric", "partition"])
    def test_fused_drain_matches_sample(self, family, instances, backends):
        kernel, kwargs = _serve(instances, family)
        sample_kwargs = {"method": "parallel", **SERVED[family][2]}
        seeds = (SEED, SEED + 1, SEED + 2)
        for name in ("vectorized", "process"):
            with repro.serve(kernel, registry=repro.KernelRegistry(), **kwargs) as session:
                want = [fields(session.sample(seed=seed, backend=backends[name],
                                              **sample_kwargs).report) for seed in seeds]
                scheduler = repro.RoundScheduler(session, backend=backends[name])
                for seed in seeds:
                    scheduler.submit(seed=seed, **sample_kwargs)
                got = [fields(result.report) for result in scheduler.drain()]
            assert got == want, name

    @pytest.mark.parametrize("family", sorted(DIRECT))
    def test_serve_matches_direct_call(self, family, instances):
        kernel, kwargs = _serve(instances, family)
        direct = DIRECT[family](instances)
        with repro.serve(kernel, registry=repro.KernelRegistry(), **kwargs) as session:
            served = session.sample(seed=SEED, **SERVED[family][2])
        assert tuple(served.subset) == tuple(direct.subset)
        assert fields(served.report) == fields(direct.report)

    @pytest.mark.parametrize("family", sorted(SERVED))
    def test_cluster_matches_single_node(self, family, instances):
        kernel, kwargs = _serve(instances, family)
        sample_kwargs = SERVED[family][2]
        with repro.serve(kernel, registry=repro.KernelRegistry(), **kwargs) as session:
            want = session.sample(seed=SEED, **sample_kwargs)
        with repro.serve_cluster(kernel, nodes=2, replication=1, **kwargs) as session:
            got = session.sample(seed=SEED, **sample_kwargs)
        assert got.subset == want.subset
        assert fields(got.report) == fields(want.report)
