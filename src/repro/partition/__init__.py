"""Partition Manager: pluggable graph partition strategies.

The paper's Graph Partitioner ships several built-in vertex-cut/edge-cut
strategies — METIS, 1D/2D, and a streaming partitioner [Stanton & Kliot,
KDD'12] — and lets users plug new ones in. This package mirrors that: a
:class:`~repro.partition.base.Partitioner` ABC, a registry, and
implementations of hash (1D), range, grid (2D), streaming (LDG and
Fennel), BFS-region, and a from-scratch multilevel partitioner standing
in for METIS.
"""

from repro.partition.base import PartitionReport, Partitioner, evaluate_partition
from repro.partition.hash1d import HashPartitioner
from repro.partition.range1d import RangePartitioner
from repro.partition.grid2d import Grid2DPartitioner
from repro.partition.streaming import FennelPartitioner, LDGPartitioner
from repro.partition.bfs import BFSPartitioner
from repro.partition.multilevel.driver import MultilevelPartitioner
from repro.partition.registry import (
    available_strategies,
    get_partitioner,
    register_partitioner,
)

__all__ = [
    "Partitioner",
    "PartitionReport",
    "evaluate_partition",
    "HashPartitioner",
    "RangePartitioner",
    "Grid2DPartitioner",
    "LDGPartitioner",
    "FennelPartitioner",
    "BFSPartitioner",
    "MultilevelPartitioner",
    "available_strategies",
    "get_partitioner",
    "register_partitioner",
]
