"""Named registry of partition strategies ("select from the library").

Mirrors the demo UI's partition-strategy picker (Fig. 3(2)): strategies
register under a name; sessions look them up by name; users can plug in
new strategies with :func:`register_partitioner`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import RegistryError
from repro.partition.base import Partitioner

_FACTORIES: dict[str, Callable[[], Partitioner]] = {}


def register_partitioner(
    name: str, factory: Callable[[], Partitioner], replace: bool = False
) -> None:
    """Register a zero-arg factory producing a partitioner under ``name``."""
    if name in _FACTORIES and not replace:
        raise RegistryError(f"partitioner {name!r} already registered")
    _FACTORIES[name] = factory


def get_partitioner(name: str) -> Partitioner:
    """Instantiate a registered strategy."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise RegistryError(
            f"unknown partitioner {name!r}; available: "
            f"{sorted(_FACTORIES)}"
        ) from None
    return factory()


def available_strategies() -> list[str]:
    """Names of all registered strategies."""
    return sorted(_FACTORIES)


def _register_builtins() -> None:
    from repro.partition.bfs import BFSPartitioner
    from repro.partition.grid2d import Grid2DPartitioner
    from repro.partition.hash1d import HashPartitioner
    from repro.partition.multilevel.driver import MultilevelPartitioner
    from repro.partition.range1d import RangePartitioner
    from repro.partition.streaming import FennelPartitioner, LDGPartitioner

    builtins: list[type[Partitioner]] = [
        HashPartitioner,
        RangePartitioner,
        Grid2DPartitioner,
        LDGPartitioner,
        FennelPartitioner,
        BFSPartitioner,
        MultilevelPartitioner,
    ]
    for cls in builtins:
        if cls.name not in _FACTORIES:
            register_partitioner(cls.name, cls)
    # The demo calls its best strategy METIS; ours is the multilevel
    # equivalent, registered under both names.
    if "metis" not in _FACTORIES:
        register_partitioner("metis", MultilevelPartitioner)


_register_builtins()
