"""Tests for the FKT / Kasteleyn perfect-matching counting oracle."""

import math

import networkx as nx
import numpy as np
import pytest

import repro.planar.kasteleyn as kasteleyn_module
from repro.planar.graphs import PlanarGraph, cycle_graph, delaunay_graph, grid_graph, ladder_graph
from repro.planar.kasteleyn import (
    KasteleynMatrix,
    count_perfect_matchings,
    log_count_perfect_matchings,
    matching_edge_marginal,
    pfaffian_orientation,
)
from repro.planar.matching import enumerate_perfect_matchings, sample_planar_matching_sequential
from repro.planar.parallel_matching import sample_planar_matching_parallel


def brute_force_count(graph: PlanarGraph) -> int:
    return len(enumerate_perfect_matchings(graph))


class TestKnownCounts:
    def test_single_edge(self):
        g = PlanarGraph(nx.path_graph(2))
        assert count_perfect_matchings(g) == 1

    def test_path_graphs(self):
        assert count_perfect_matchings(PlanarGraph(nx.path_graph(4))) == 1
        assert count_perfect_matchings(PlanarGraph(nx.path_graph(3))) == 0

    def test_cycles(self):
        assert count_perfect_matchings(cycle_graph(4)) == 2
        assert count_perfect_matchings(cycle_graph(6)) == 2
        assert count_perfect_matchings(cycle_graph(5)) == 0

    def test_complete_graph_k4(self):
        assert count_perfect_matchings(PlanarGraph(nx.complete_graph(4))) == 3

    def test_grid_2x2(self):
        assert count_perfect_matchings(grid_graph(2, 2)) == 2

    def test_grid_2x3(self):
        assert count_perfect_matchings(grid_graph(2, 3)) == 3

    def test_grid_4x4(self):
        # classic dimer count of the 4x4 grid
        assert count_perfect_matchings(grid_graph(4, 4)) == 36

    def test_grid_6x6(self):
        # known value 6728 for the 6x6 grid
        assert count_perfect_matchings(grid_graph(6, 6)) == 6728

    def test_grid_2xn_fibonacci(self):
        # 2 x n grid has Fibonacci(n+1) perfect matchings
        fib = [1, 1, 2, 3, 5, 8, 13, 21]
        for n in range(1, 8):
            assert count_perfect_matchings(ladder_graph(n)) == fib[n]

    def test_odd_vertices_zero(self):
        assert count_perfect_matchings(grid_graph(3, 3)) == 0

    def test_empty_graph(self):
        assert count_perfect_matchings(PlanarGraph(nx.Graph())) == 1

    def test_disconnected_graph_factorizes(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])  # edge + C4
        assert count_perfect_matchings(PlanarGraph(graph)) == 1 * 2

    def test_no_matching_disconnected_odd_component(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3), (3, 4)])
        assert count_perfect_matchings(PlanarGraph(graph)) == 0

    def test_isolated_vertex(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(2)
        assert count_perfect_matchings(PlanarGraph(graph)) == 0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (2, 4), (2, 5), (4, 3)])
    def test_grids(self, rows, cols):
        g = grid_graph(rows, cols)
        assert count_perfect_matchings(g) == brute_force_count(g)

    def test_random_planar_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            # random subgraphs of a 3x4 grid with even vertex count
            g = grid_graph(3, 4)
            keep = [v for v in g.vertices() if rng.random() < 0.85]
            if len(keep) % 2 == 1:
                keep = keep[:-1]
            sub = g.subgraph(keep)
            assert count_perfect_matchings(sub) == brute_force_count(sub)

    def test_wheel_like_planar_graph(self):
        graph = nx.wheel_graph(7)  # planar, 8 vertices... actually 7 spokes + hub = 8? no, wheel_graph(7) has 7 nodes
        graph = nx.wheel_graph(8)  # 8 nodes: hub + C7 -> odd cycle, still planar
        g = PlanarGraph(graph)
        assert count_perfect_matchings(g) == brute_force_count(g)


class TestOrientation:
    def test_orientation_covers_all_edges(self):
        g = grid_graph(4, 4)
        orientation = pfaffian_orientation(g)
        assert len(orientation) == g.m
        for key, (u, v) in orientation.items():
            assert key == frozenset((u, v))
            assert g.graph.has_edge(u, v)

    def test_orientation_requires_connected(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            pfaffian_orientation(PlanarGraph(graph))

    def test_determinant_is_square_of_count(self):
        g = grid_graph(2, 4)
        orientation = pfaffian_orientation(g)
        index = g.adjacency_index()
        A = np.zeros((g.n, g.n))
        for _, (u, v) in orientation.items():
            A[index[u], index[v]] = 1.0
            A[index[v], index[u]] = -1.0
        count = brute_force_count(g)
        assert np.linalg.det(A) == pytest.approx(count ** 2, rel=1e-8)


class TestLogCountsAndMarginals:
    def test_log_count_large_grid_is_finite(self):
        value = log_count_perfect_matchings(grid_graph(10, 10))
        assert math.isfinite(value)
        assert value > 10  # way more than e^10 matchings

    def test_count_overflow_guard(self):
        # the 56x56 grid has ~exp(914) matchings, beyond float range
        with pytest.raises(OverflowError):
            count_perfect_matchings(grid_graph(56, 56))

    def test_edge_marginals_sum_to_one_per_vertex(self):
        g = grid_graph(4, 4)
        for v in [(0, 0), (1, 1), (2, 3)]:
            total = sum(matching_edge_marginal(g, v, u) for u in g.neighbors(v))
            assert total == pytest.approx(1.0, rel=1e-8)

    def test_edge_marginal_matches_brute_force(self):
        g = grid_graph(2, 4)
        matchings = enumerate_perfect_matchings(g)
        edge = ((0, 0), (0, 1))
        expected = sum(1 for m in matchings if frozenset(edge) in m) / len(matchings)
        assert matching_edge_marginal(g, *edge) == pytest.approx(expected, rel=1e-8)

    def test_edge_marginal_nonedge_is_zero(self):
        g = grid_graph(2, 2)
        assert matching_edge_marginal(g, (0, 0), (1, 1)) == 0.0

    def test_edge_marginal_no_matching_raises(self):
        with pytest.raises(ValueError):
            matching_edge_marginal(grid_graph(3, 3), (0, 0), (0, 1))


def _disconnected_graph() -> PlanarGraph:
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (2, 3), (3, 0)])  # C4
    graph.add_edges_from(nx.relabel_nodes(nx.ladder_graph(3), lambda v: 10 + v).edges())
    graph.add_edge(20, 21)
    return PlanarGraph(graph)


def _assert_same_log(actual: float, expected: float) -> None:
    if expected == -math.inf:
        assert actual == -math.inf
    else:
        assert actual == pytest.approx(expected, abs=1e-9)


class TestRestrictionLemma:
    """Slices of the root's Kasteleyn matrix count every set the samplers query."""

    @pytest.mark.parametrize("graph", [
        grid_graph(6, 6),
        ladder_graph(7),
        delaunay_graph(20, seed=0),
        _disconnected_graph(),
    ], ids=["grid6x6", "ladder7", "delaunay20", "disconnected"])
    def test_sliced_counts_match_fresh_orientations(self, graph):
        assert log_count_perfect_matchings(graph) > -math.inf
        root = KasteleynMatrix(graph)
        brute = graph.n <= 16

        def check(vertices):
            value = root.log_count(vertices)
            sub = graph.subgraph(vertices)
            _assert_same_log(value, log_count_perfect_matchings(sub))
            if brute:
                count = brute_force_count(sub)
                _assert_same_log(value, math.log(count) if count else -math.inf)
            return value

        rng = np.random.default_rng(0)
        pieces = [sorted(c, key=repr) for c in nx.connected_components(graph.graph)]
        steps = 0
        while pieces:
            piece = pieces.pop(int(rng.integers(len(pieces))))
            check(piece)
            vertex = piece[0]
            rest = [w for w in piece if w != vertex]
            feasible = [u for u in graph.neighbors(vertex) if u in rest
                        and check([w for w in rest if w != u]) > -math.inf]
            assert feasible, "a matchable piece has a matchable edge at every vertex"
            partner = feasible[int(rng.integers(len(feasible)))]
            remaining = graph.subgraph([w for w in rest if w != partner])
            pieces.extend(sorted(c, key=repr) for c in nx.connected_components(remaining.graph))
            steps += 1
        assert steps == graph.n // 2

    @pytest.mark.parametrize("sampler", [sample_planar_matching_parallel,
                                         sample_planar_matching_sequential])
    def test_one_orientation_per_root_component(self, sampler, monkeypatch):
        calls = []
        original = kasteleyn_module.pfaffian_orientation

        def counting(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(kasteleyn_module, "pfaffian_orientation", counting)
        graph = _disconnected_graph()
        sampler(graph, seed=0)
        assert sorted(calls) == [2, 4, 6]
        calls.clear()
        sampler(grid_graph(6, 6), seed=1)
        assert calls == [36]

    def test_empty_vertex_set(self):
        assert KasteleynMatrix(grid_graph(2, 2)).log_count([]) == 0.0
