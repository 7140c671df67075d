"""GRAPE reproduction: parallelizing sequential graph computations.

A faithful Python reproduction of *GRAPE: Parallelizing Sequential Graph
Computations* (Fan, Xu, Wu, Yu, Jiang — VLDB 2017 demo; SIGMOD 2017
system). The package provides:

* :mod:`repro.graph` — property digraph, generators, IO, fragments;
* :mod:`repro.partition` — hash/range/2D/streaming/BFS/multilevel
  partition strategies (the Partition Manager);
* :mod:`repro.runtime` — the simulated MPI cluster and cost model;
* :mod:`repro.core` — the PIE model and the GRAPE fixed-point engine;
* :mod:`repro.algorithms` — PIE programs for SSSP, CC, Sim, SubIso,
  Keyword, CF (and PageRank), with their sequential building blocks;
* :mod:`repro.baselines` — vertex-centric (Pregel/Giraph-style),
  GAS (GraphLab-style) and block-centric (Blogel-style) engines for the
  paper's comparisons;
* :mod:`repro.gpar` — graph pattern association rules (the social-media
  marketing application);
* :mod:`repro.storage` — simulated DFS (checkpoints) and index manager;
* :mod:`repro.engineapi` — the plug-and-play session API and CLI.

Quickstart::

    from repro import Session
    from repro.graph.generators import road_network
    from repro.algorithms import SSSPProgram, SSSPQuery

    session = Session(road_network(40, 40), num_workers=4,
                      partition="multilevel")
    result = session.run(SSSPProgram(), SSSPQuery(source=0))
    print(result.answer[1555], result.metrics.summary())
"""

from repro.core.engine import GrapeEngine, GrapeResult
from repro.engineapi.session import Session

__version__ = "1.0.0"

__all__ = ["GrapeEngine", "GrapeResult", "Session", "__version__"]
