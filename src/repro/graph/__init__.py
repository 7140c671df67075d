"""Graph substrate: property digraph, IO, generators, fragments, metrics."""

from repro.graph.digraph import Edge, Graph
from repro.graph.fragment import Fragment, FragmentedGraph, build_fragments
from repro.graph.store import STORES, DictStore, GraphStore, make_store
from repro.graph.csr import CSRStore

__all__ = [
    "Edge",
    "Graph",
    "Fragment",
    "FragmentedGraph",
    "build_fragments",
    "GraphStore",
    "DictStore",
    "CSRStore",
    "STORES",
    "make_store",
]
