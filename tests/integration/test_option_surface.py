"""The settable surface of the engine, the service and their parts.

Each name below is a constructor parameter or dataclass field a caller
can set, so each is a configuration the tests must cover. A value no
caller outside the tests sets belongs in a module constant instead (as
``REPAIR_FRACTION``, ``MAX_SUPERSTEPS`` or ``costmodel.LATENCY`` are).
A new option therefore shows up as a reviewed diff of this table.
"""

import dataclasses
import inspect

import pytest

from repro.baselines import BlogelEngine, GASEngine, PregelEngine
from repro.core.engine import GrapeEngine
from repro.engineapi.session import Session
from repro.partition.registry import available_strategies, get_partitioner
from repro.runtime.costmodel import CostModel
from repro.runtime.mpi_sim import MPIController
from repro.service.cache import ResultCache
from repro.service.fleet import FleetRouter
from repro.service.service import GrapeService

SURFACE = {
    GrapeEngine: (
        "fragmented", "cost_model", "check_monotonic", "tracer", "backend",
        "mode",
    ),
    Session: (
        "graph", "num_workers", "partition", "cost_model",
        "check_monotonic", "validate", "tracer", "backend", "store", "mode",
    ),
    GrapeService: (
        "session", "max_pending", "concurrency", "cache_capacity",
        "rewarm_hottest", "program_kwargs", "initial_version", "tracer",
    ),
    FleetRouter: (
        "trace", "replicas", "faults", "deadline", "checkpoint_dir",
        "tracer",
    ),
    MPIController: ("num_workers", "injector"),
    ResultCache: ("capacity",),
    CostModel: ("compute_scale", "deterministic"),
    PregelEngine: ("fragmented", "cost_model"),
    GASEngine: ("graph", "fragmented", "cost_model"),
    BlogelEngine: ("fragmented", "cost_model"),
}

PARTITIONERS = {
    "bfs": (),
    "fennel": (),
    "grid2d": (),
    "hash": (),
    "ldg": (),
    "metis": ("seed",),
    "multilevel": ("seed",),
    "range": (),
}


def _options(cls) -> tuple:
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls) if f.init)
    if cls.__init__ is object.__init__:
        return ()
    params = inspect.signature(cls.__init__).parameters
    return tuple(name for name in params if name != "self")


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda c: c.__name__)
def test_constructor_options_are_pinned(cls):
    assert _options(cls) == SURFACE[cls]


def test_every_registered_partitioner_is_pinned():
    got = {
        name: _options(type(get_partitioner(name)))
        for name in available_strategies()
    }
    assert got == PARTITIONERS


def test_get_partitioner_takes_only_a_name():
    assert list(inspect.signature(get_partitioner).parameters) == ["name"]
