"""Storage layer of Fig. 2: the DFS and the Index Manager.

The paper's storage tier "manages graph data in DFS" and is accessible to
the query engine, Index Manager, Partition Manager and Load Balancer.
Here a directory-backed :class:`~repro.storage.dfs.SimulatedDFS` plays
the distributed file system (checkpoints are what it holds) and the
Index Manager maintains label indexes for graph-level
optimization (E8). The Load Balancer's job — moving work off a
straggler fragment — is done by ``Session.repartition`` with the
multilevel partitioner (EXPERIMENTS.md A3).
"""

from repro.storage.dfs import SimulatedDFS
from repro.storage.index import IndexManager, LabelIndex

__all__ = [
    "SimulatedDFS",
    "IndexManager",
    "LabelIndex",
]
