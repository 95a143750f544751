"""Tests for sequential and parallel (Theorem 11) perfect-matching samplers."""

import hashlib

import numpy as np
import pytest

import repro

from repro.planar.graphs import PlanarGraph, cycle_graph, grid_graph, ladder_graph
from repro.planar.matching import enumerate_perfect_matchings, sample_planar_matching_sequential
from repro.planar.parallel_matching import sample_planar_matching_parallel
from repro.pram.tracker import Tracker
from repro.workloads.kernels import random_psd_ensemble

import networkx as nx


def is_perfect_matching(graph: PlanarGraph, edges) -> bool:
    covered = set()
    for edge in edges:
        u, v = tuple(edge)
        if not graph.graph.has_edge(u, v):
            return False
        if u in covered or v in covered:
            return False
        covered.update((u, v))
    return covered == set(graph.vertices())


def empirical_matching_tv(sample_fn, graph, num_samples, seed=0):
    matchings = enumerate_perfect_matchings(graph)
    target = 1.0 / len(matchings)
    rng = np.random.default_rng(seed)
    counts = {m: 0 for m in matchings}
    for _ in range(num_samples):
        result = sample_fn(rng)
        key = tuple(sorted(result.subset, key=lambda e: sorted(map(repr, e))))
        assert key in counts, "sampler produced a non-matching or unknown matching"
        counts[key] += 1
    return 0.5 * sum(abs(c / num_samples - target) for c in counts.values())


class TestSequentialMatchingSampler:
    def test_output_is_perfect_matching(self):
        g = grid_graph(4, 4)
        result = sample_planar_matching_sequential(g, seed=0)
        assert is_perfect_matching(g, result.subset)

    def test_depth_is_linear(self):
        g = grid_graph(4, 4)
        result = sample_planar_matching_sequential(g, seed=1)
        assert result.report.rounds == g.n // 2

    def test_uniformity_on_cycle(self):
        g = cycle_graph(6)
        tv = empirical_matching_tv(
            lambda rng: sample_planar_matching_sequential(g, seed=rng), g, 600, seed=2)
        assert tv < 0.08

    def test_uniformity_on_small_grid(self):
        g = grid_graph(2, 4)
        tv = empirical_matching_tv(
            lambda rng: sample_planar_matching_sequential(g, seed=rng), g, 900, seed=3)
        assert tv < 0.08

    def test_odd_graph_raises(self):
        with pytest.raises(ValueError):
            sample_planar_matching_sequential(grid_graph(3, 3), seed=0)

    def test_no_matching_raises(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (2, 3), (4, 5)])
        graph.add_node(6)
        graph.add_node(7)
        with pytest.raises(ValueError):
            sample_planar_matching_sequential(PlanarGraph(graph), seed=0)


class TestParallelMatchingSampler:
    def test_output_is_perfect_matching(self):
        g = grid_graph(6, 6)
        result = sample_planar_matching_parallel(g, seed=0)
        assert is_perfect_matching(g, result.subset)

    def test_uniformity_on_small_grid(self):
        g = grid_graph(2, 4)
        tv = empirical_matching_tv(
            lambda rng: sample_planar_matching_parallel(g, seed=rng), g, 900, seed=1)
        assert tv < 0.08

    def test_uniformity_on_4x4_grid(self):
        g = grid_graph(4, 4)
        tv = empirical_matching_tv(
            lambda rng: sample_planar_matching_parallel(g, seed=rng), g, 1200, seed=2)
        assert tv < 0.1

    def test_depth_improves_on_sequential(self):
        g = grid_graph(8, 8)
        parallel = sample_planar_matching_parallel(g, seed=3)
        sequential = sample_planar_matching_sequential(g, seed=3)
        assert parallel.report.rounds < sequential.report.rounds
        assert sequential.report.rounds == g.n // 2

    def test_depth_scales_sublinearly(self):
        rounds = {}
        for side in (4, 8):
            g = grid_graph(side, side)
            rounds[side] = sample_planar_matching_parallel(g, seed=4).report.rounds
        # quadrupling n should far less than quadruple the depth
        assert rounds[8] <= 3 * rounds[4]

    def test_ladder_graphs(self):
        g = ladder_graph(8)
        result = sample_planar_matching_parallel(g, seed=5)
        assert is_perfect_matching(g, result.subset)

    def test_odd_graph_raises(self):
        with pytest.raises(ValueError):
            sample_planar_matching_parallel(grid_graph(3, 3), seed=0)

    def test_no_matching_raises(self):
        # even cycle with a pendant pair that disconnects matchability
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(ValueError):
            sample_planar_matching_parallel(PlanarGraph(graph), seed=0)

    def test_tracker_passthrough(self):
        g = grid_graph(4, 4)
        tracker = Tracker()
        result = sample_planar_matching_parallel(g, seed=6, tracker=tracker)
        assert result.report.rounds == tracker.rounds

    def test_separator_size_recorded(self):
        g = grid_graph(8, 8)
        result = sample_planar_matching_parallel(g, seed=7)
        assert result.report.extra.get("max_separator", 0) >= 1


def matching_digest(subset) -> str:
    canonical = sorted(sorted(map(repr, edge)) for edge in subset)
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


class TestFixedSeedParity:
    """Fixed-seed outputs pinned from the per-query-orientation implementation.

    Each pin is ``(matching digest, rounds, oracle_calls, work, peak_machines)``;
    counting by slicing one Kasteleyn matrix per sample must reproduce all of
    them, and the prefix/suffix leave-one-out ESPs the Thm 10 draws.  The
    Thm 10 ``oracle_calls``/``work`` pins are the per-batch charges of
    :meth:`repro.engine.OracleBatch.charge` (every backend reports them).
    """

    PARALLEL_12X12 = {
        0: ("8bd1e1a0a2a043ec", 29, 211, 85997888.0, 19.0),
        1: ("14c7bdad007df038", 29, 217, 90925624.0, 22.0),
        2: ("d85150c52eda9a7b", 29, 211, 88883552.0, 25.0),
        3: ("5e90ba2b51ff6bb1", 29, 198, 84117536.0, 23.0),
        4: ("9542c63612f17c17", 29, 197, 93492504.0, 23.0),
    }
    SEQUENTIAL_6X6 = {
        0: ("3e3a4e950d5e8adc", 18, 32, 402504.0, 2.0),
        1: ("02deb924a4e3f01c", 18, 35, 396256.0, 2.0),
    }
    THM10 = {
        0: ((3, 8, 15, 24, 26, 33, 35, 36, 39, 54, 55, 57, 66, 71, 77, 78, 79, 80, 90, 92,
             96, 100, 102, 121, 127, 139, 144, 148, 150, 155, 161, 162, 166, 170, 171, 172,
             179, 181, 182, 190), 27, 1884, 10881979990.0, 200.0),
        1: ((19, 20, 27, 29, 31, 32, 40, 42, 47, 49, 50, 52, 57, 59, 61, 64, 65, 68, 69, 77,
             81, 84, 88, 89, 91, 101, 104, 113, 117, 129, 141, 143, 144, 149, 154, 184, 186,
             188, 190, 192), 27, 1874, 10812905211.0, 200.0),
    }

    @staticmethod
    def pinned_fields(result, key):
        report = result.report
        return (key, report.rounds, report.oracle_calls, report.work, report.peak_machines)

    @pytest.mark.parametrize("seed", sorted(PARALLEL_12X12))
    def test_parallel_12x12(self, seed):
        result = sample_planar_matching_parallel(grid_graph(12, 12), seed=seed)
        assert self.pinned_fields(result, matching_digest(result.subset)) == self.PARALLEL_12X12[seed]

    @pytest.mark.parametrize("seed", sorted(SEQUENTIAL_6X6))
    def test_sequential_6x6(self, seed):
        result = sample_planar_matching_sequential(grid_graph(6, 6), seed=seed)
        assert self.pinned_fields(result, matching_digest(result.subset)) == self.SEQUENTIAL_6X6[seed]

    @pytest.mark.parametrize("seed", sorted(THM10))
    def test_thm10_symmetric_kdpp(self, seed):
        L = random_psd_ensemble(200, rank=60, seed=0)
        result = repro.sample_symmetric_kdpp_parallel(L, 40, seed=seed, backend="vectorized")
        subset = tuple(int(i) for i in result.subset)
        assert self.pinned_fields(result, subset) == self.THM10[seed]
