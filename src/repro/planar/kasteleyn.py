"""Kasteleyn / FKT counting oracle for perfect matchings of planar graphs.

[Kas67]: every planar graph admits a *Pfaffian orientation* — an orientation
of its edges such that every inner face of a planar embedding has an odd
number of edges oriented clockwise.  With such an orientation the number of
perfect matchings equals ``|Pf(A)| = sqrt(det(A))`` where ``A`` is the signed
skew-symmetric adjacency matrix.  Determinants are in ``NC`` [Csa75], so this
is the counting oracle Theorem 11 queries.

The orientation is constructed with the standard FKT procedure:

1. pick a spanning tree of the (connected) graph and orient its edges
   arbitrarily;
2. the non-tree edges are in bijection with the inner faces' independent cycle
   constraints: the face-adjacency graph on non-tree edges is a tree (the dual
   spanning tree); process it leaves-first, orienting each face's last free
   edge so the face has an odd number of edges agreeing with its traversal
   direction.

:class:`KasteleynMatrix` orients a graph once and answers every count on an
induced subgraph by slicing the resulting matrix (see its restriction lemma).
Counts are returned in log-space (grids beyond ~10x10 have astronomically many
matchings); :func:`count_perfect_matchings` exponentiates and rounds when the
count fits a float.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.planar.graphs import PlanarGraph
from repro.pram.tracker import current_tracker

Edge = Tuple[object, object]


def _canonical(u, v) -> FrozenSet:
    return frozenset((u, v))


def _faces_of_embedding(embedding: nx.PlanarEmbedding) -> List[List[Edge]]:
    """All faces as lists of directed half-edges ``(u, v)`` in traversal order."""
    visited = set()
    faces: List[List[Edge]] = []
    for u, v in embedding.edges():
        for start in ((u, v), (v, u)):
            if start in visited:
                continue
            face_vertices = embedding.traverse_face(*start, mark_half_edges=visited)
            # convert the vertex cycle into directed half-edges
            half_edges = [
                (face_vertices[i], face_vertices[(i + 1) % len(face_vertices)])
                for i in range(len(face_vertices))
            ]
            faces.append(half_edges)
    return faces


def pfaffian_orientation(graph: PlanarGraph) -> Dict[FrozenSet, Edge]:
    """FKT Pfaffian orientation of a connected planar graph.

    Returns a map ``frozenset({u, v}) -> (u, v)`` meaning the edge is oriented
    from ``u`` to ``v``.
    """
    g = graph.graph
    if g.number_of_nodes() == 0 or g.number_of_edges() == 0:
        return {}
    if not graph.is_connected():
        raise ValueError("pfaffian_orientation expects a connected graph")
    embedding = graph.embedding

    # 1. spanning tree, oriented arbitrarily (parent -> child)
    tree_edges = set()
    orientation: Dict[FrozenSet, Edge] = {}
    root = next(iter(g.nodes()))
    parent = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in parent:
                parent[v] = u
                tree_edges.add(_canonical(u, v))
                orientation[_canonical(u, v)] = (u, v)
                queue.append(v)

    # 2. faces and the dual tree over non-tree edges
    faces = _faces_of_embedding(embedding)
    if len(faces) <= 1:
        # tree (no cycles): any orientation is Pfaffian
        return orientation

    edge_to_faces: Dict[FrozenSet, List[int]] = {}
    for face_idx, half_edges in enumerate(faces):
        for u, v in half_edges:
            edge_to_faces.setdefault(_canonical(u, v), []).append(face_idx)

    dual = nx.Graph()
    dual.add_nodes_from(range(len(faces)))
    for edge_key, face_list in edge_to_faces.items():
        if edge_key in tree_edges:
            continue
        if len(face_list) != 2:
            raise RuntimeError("non-tree edge does not border exactly two faces")
        dual.add_edge(face_list[0], face_list[1], graph_edge=edge_key)

    # Designate face 0 as the excluded (outer) face; the dual graph restricted
    # to non-tree edges is a spanning tree of the faces.
    excluded = 0
    order = list(nx.bfs_tree(dual, excluded).nodes())
    dual_parent = {excluded: None}
    for node in order:
        for neighbor in dual.neighbors(node):
            if neighbor not in dual_parent:
                dual_parent[neighbor] = node

    # 3. process faces farthest-from-root first, fixing the parent edge last
    for face_idx in reversed(order):
        if face_idx == excluded:
            continue
        parent_face = dual_parent[face_idx]
        free_edge = dual.edges[face_idx, parent_face]["graph_edge"]
        half_edges = faces[face_idx]
        # count already-oriented edges agreeing with the traversal direction
        agree = 0
        free_direction: Optional[Edge] = None
        for u, v in half_edges:
            key = _canonical(u, v)
            if key == free_edge:
                free_direction = (u, v)
                continue
            oriented = orientation.get(key)
            if oriented is None:
                raise RuntimeError("face has more than one unoriented edge during FKT sweep")
            if oriented == (u, v):
                agree += 1
        if free_direction is None:
            raise RuntimeError("free edge not found on its face boundary")
        if agree % 2 == 0:
            orientation[free_edge] = free_direction
        else:
            orientation[free_edge] = (free_direction[1], free_direction[0])
    return orientation


class KasteleynMatrix:
    """Signed Kasteleyn matrix of a planar graph, built once and sliced per query.

    The constructor runs one FKT orientation per connected component of
    ``graph`` and stores the result as one dense skew-symmetric matrix plus a
    vertex → index map (and the root's adjacency lists, which split a query
    into components).  :meth:`log_count` then counts the perfect matchings
    of an induced subgraph ``G[W]`` from the principal block of that matrix on
    ``W``: no graph copy, planarity test or re-orientation per query.

    **Restriction lemma.**  If ``G[V \\ W]`` has a perfect matching, a
    Pfaffian orientation of ``G`` restricted to ``G[W]`` is Pfaffian.  An
    orientation is Pfaffian iff every *nice* cycle (an even cycle ``C`` whose
    removal leaves a graph with a perfect matching) is oddly oriented.  If
    ``C`` is nice in ``G[W]``, a perfect matching of ``G[W] - C`` together with
    one of ``G[V \\ W]`` is a perfect matching of ``G - C``, so ``C`` is nice
    in ``G`` and therefore oddly oriented.  Hence ``|Pf|`` of the block on
    ``W`` is the matching count of ``G[W]``.

    Every set the samplers count satisfies the hypothesis.  They query a
    component of the current graph minus a candidate pair ``{v, u}``; the
    vertices removed so far are covered by the pairs matched so far, by the
    edge ``uv`` and by perfect matchings of the other components (the current
    graph always has one).  The feasibility check (``W = V``) and
    :func:`matching_edge_marginal` (``V \\ W`` is an edge) satisfy it too.  Other
    sets can come out wrong: a cycle around a single deleted vertex is not nice
    in ``G``, so its restricted orientation may be even.
    """

    def __init__(self, graph: PlanarGraph):
        self._index = graph.adjacency_index()
        n = len(self._index)
        self._matrix = np.zeros((n, n))
        self._adjacency: List[List[int]] = [[] for _ in range(n)]
        for component in graph.connected_components():
            for u, v in pfaffian_orientation(component).values():
                i, j = self._index[u], self._index[v]
                self._matrix[i, j] = 1.0
                self._matrix[j, i] = -1.0
                self._adjacency[i].append(j)
                self._adjacency[j].append(i)

    def log_count(self, vertices: Iterable) -> float:
        """``log(#perfect matchings)`` of ``G[vertices]`` (``-inf`` if none exist).

        ``vertices`` must satisfy the restriction lemma's hypothesis.  The
        induced subgraph factors over its connected components, taken in order
        of first appearance in ``vertices``; each even component is charged
        one determinant, and the first component without a matching ends the
        count.  The lemma holds for the whole of ``G[vertices]``, so when the
        count is positive every block is exact, and when it is zero some block
        has no matching and the result is ``-inf`` whichever block ends it.
        """
        tracker = current_tracker()
        total = 0.0
        for members in self._components([self._index[v] for v in vertices]):
            if len(members) % 2 == 1:
                return -math.inf
            tracker.charge_determinant(len(members))
            sign, logdet = np.linalg.slogdet(self._matrix[np.ix_(members, members)])
            if logdet == -math.inf:
                return -math.inf
            # det(A) = Pf(A)^2 >= 0; numerical noise can flip the sign for singular A
            if sign < 0 and logdet > -20:
                raise RuntimeError("skew-symmetric determinant came out negative; orientation bug?")
            total += 0.5 * logdet
        return total

    def _components(self, indices: List[int]) -> Iterator[List[int]]:
        """Components of the subgraph induced on ``indices``, in order of first appearance.

        Each comes out sorted, so its block keeps the root's index order; later
        components are only searched if the caller asks for them.
        """
        unseen = set(indices)
        for start in indices:
            if start not in unseen:
                continue
            unseen.remove(start)
            component, stack = [start], [start]
            while stack:
                for j in self._adjacency[stack.pop()]:
                    if j in unseen:
                        unseen.remove(j)
                        component.append(j)
                        stack.append(j)
            yield sorted(component)


def log_count_perfect_matchings(graph: PlanarGraph) -> float:
    """``log(#perfect matchings)`` of a planar graph (``-inf`` if none exist).

    Disconnected graphs factor over their components.
    """
    return KasteleynMatrix(graph).log_count(graph.vertices())


def count_perfect_matchings(graph: PlanarGraph) -> float:
    """Number of perfect matchings (rounded; use the log version for big graphs)."""
    log_count = log_count_perfect_matchings(graph)
    if log_count == -math.inf:
        return 0.0
    if log_count > 700:
        raise OverflowError("matching count overflows float; use log_count_perfect_matchings")
    return float(round(math.exp(log_count)))


def matching_edge_marginal(graph: PlanarGraph, u, v) -> float:
    """``P[(u, v) ∈ M]`` for a uniformly random perfect matching ``M``.

    Equals ``#PM(G - {u, v}) / #PM(G)``; both counts are Kasteleyn
    determinants (one batched round of two oracle calls).
    """
    if not graph.graph.has_edge(u, v):
        return 0.0
    kasteleyn = KasteleynMatrix(graph)
    vertices = graph.vertices()
    log_total = kasteleyn.log_count(vertices)
    if log_total == -math.inf:
        raise ValueError("graph has no perfect matching")
    log_reduced = kasteleyn.log_count([w for w in vertices if w != u and w != v])
    if log_reduced == -math.inf:
        return 0.0
    return float(math.exp(log_reduced - log_total))
