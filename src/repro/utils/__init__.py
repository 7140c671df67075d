"""Shared utilities: data structures, sizing, deterministic RNG."""

from repro.utils.dsu import DisjointSet
from repro.utils.rng import make_rng
from repro.utils.sizeof import message_size

__all__ = [
    "DisjointSet",
    "make_rng",
    "message_size",
]
