"""The GRAPE API library: PIE programs registered by name ("plug").

Developers plug PIE programs into the library (Fig. 3(1)); end users
pick them by name in the play panel. The six demo query classes and the
PageRank extension are pre-registered.
"""

from __future__ import annotations

from typing import Callable

from repro.core.pie import PIEProgram
from repro.errors import RegistryError

_FACTORIES: dict[str, Callable[..., PIEProgram]] = {}


def register_program(
    name: str,
    factory: Callable[..., PIEProgram],
    replace: bool = False,
) -> None:
    """Register a factory producing a PIE program under ``name``."""
    if name in _FACTORIES and not replace:
        raise RegistryError(f"PIE program {name!r} already registered")
    _FACTORIES[name] = factory


def get_program(name: str, **kwargs) -> PIEProgram:
    """Instantiate a registered program (kwargs to its constructor)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise RegistryError(
            f"unknown PIE program {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    return factory(**kwargs)


def available_programs() -> list[str]:
    """Names of all registered PIE programs."""
    return sorted(_FACTORIES)


def _register_builtins() -> None:
    from repro.algorithms.bfs import BFSProgram
    from repro.algorithms.cc import CCProgram
    from repro.algorithms.kcore import KCoreProgram
    from repro.algorithms.cf import CFProgram
    from repro.algorithms.keyword import KeywordProgram
    from repro.algorithms.pagerank import PageRankProgram
    from repro.algorithms.simulation import SimProgram
    from repro.algorithms.sssp import SSSPProgram
    from repro.algorithms.subiso import SubIsoProgram

    for name, factory in (
        ("sssp", SSSPProgram),
        ("cc", CCProgram),
        ("sim", SimProgram),
        ("subiso", SubIsoProgram),
        ("keyword", KeywordProgram),
        ("cf", CFProgram),
        ("pagerank", PageRankProgram),  # needs total_vertices=...
        ("bfs", BFSProgram),
        ("kcore", KCoreProgram),
    ):
        if name not in _FACTORIES:
            register_program(name, factory)


_register_builtins()
