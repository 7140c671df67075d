"""Sequential graph algorithms — the code GRAPE parallelizes *as a whole*.

These are deliberately ordinary textbook implementations: Dijkstra,
union-find components, simulation refinement, VF2, BFS keyword cover,
SGD matrix factorization, power-iteration PageRank — plus their
incremental counterparts (Ramalingam–Reps-style for SSSP, over a
fragment's dense slots in :mod:`.slots`). PIE programs call them
unchanged; tests use them as oracles against the distributed engine.
"""

from repro.algorithms.sequential.dijkstra import dijkstra, single_source
from repro.algorithms.sequential.slots import bfs_slots, dijkstra_slots
from repro.algorithms.sequential.cc_seq import (
    connected_components,
    incremental_min_labels,
)
from repro.algorithms.sequential.simulation_seq import (
    graph_simulation,
    refine_simulation,
)
from repro.algorithms.sequential.vf2 import find_subgraph_isomorphisms
from repro.algorithms.sequential.keyword_seq import keyword_distances
from repro.algorithms.sequential.cf_seq import FactorModel, sgd_epoch, rmse
from repro.algorithms.sequential.pagerank_seq import pagerank

__all__ = [
    "dijkstra",
    "single_source",
    "dijkstra_slots",
    "bfs_slots",
    "connected_components",
    "incremental_min_labels",
    "graph_simulation",
    "refine_simulation",
    "find_subgraph_isomorphisms",
    "keyword_distances",
    "FactorModel",
    "sgd_epoch",
    "rmse",
    "pagerank",
]
