"""Planar perfect-matching substrate (Section 6 / Theorem 11).

* :mod:`repro.planar.graphs` — planar graph wrapper and generators (grids,
  ladders, Delaunay triangulations).
* :mod:`repro.planar.kasteleyn` — the FKT / Kasteleyn Pfaffian-orientation
  counting oracle: the number of perfect matchings of a planar graph as a
  determinant [Kas67], computable in ``NC`` [Csa75]; :class:`KasteleynMatrix`
  orients a sample's root graph once and counts every subgraph by slicing.
* :mod:`repro.planar.separator` — planar separators of size ``O(√n)`` whose
  removal leaves balanced components.
* :mod:`repro.planar.matching` — sequential conditional matching sampler
  (``Θ(n)`` depth baseline).
* :mod:`repro.planar.parallel_matching` — the Theorem 11 sampler: match the
  separator sequentially, recurse on the components in parallel, total depth
  ``Õ(√n)``.
"""

from repro.planar.graphs import (
    PlanarGraph,
    grid_graph,
    ladder_graph,
    cycle_graph,
    delaunay_graph,
)
from repro.planar.kasteleyn import (
    KasteleynMatrix,
    pfaffian_orientation,
    count_perfect_matchings,
    log_count_perfect_matchings,
    matching_edge_marginal,
)
from repro.planar.separator import bfs_level_separator, separator_quality
from repro.planar.matching import sample_planar_matching_sequential, enumerate_perfect_matchings
from repro.planar.parallel_matching import sample_planar_matching_parallel

__all__ = [
    "PlanarGraph",
    "grid_graph",
    "ladder_graph",
    "cycle_graph",
    "delaunay_graph",
    "KasteleynMatrix",
    "pfaffian_orientation",
    "count_perfect_matchings",
    "log_count_perfect_matchings",
    "matching_edge_marginal",
    "bfs_level_separator",
    "separator_quality",
    "sample_planar_matching_sequential",
    "enumerate_perfect_matchings",
    "sample_planar_matching_parallel",
]
