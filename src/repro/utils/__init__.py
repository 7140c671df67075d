"""Shared utilities: data structures, timing, sizing, deterministic RNG."""

from repro.utils.dsu import DisjointSet
from repro.utils.rng import make_rng
from repro.utils.sizeof import message_size
from repro.utils.timer import Stopwatch

__all__ = [
    "DisjointSet",
    "make_rng",
    "message_size",
    "Stopwatch",
]
