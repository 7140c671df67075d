"""Execution backends: where GRAPE's worker-local code runs.

Two interchangeable substrates behind one
:class:`~repro.runtime.backends.base.ExecutionBackend` contract:

* ``simulated`` — today's in-process virtual-time cluster (the
  deterministic oracle; the only one that supports fault injection);
* ``process`` — a pool of OS worker processes, one per fragment, for
  measuring *actual* wall-clock speedup while producing byte-identical
  answers and metrics.

Pick by name through :func:`make_backend`, ``Session(backend=...)`` or
``grape run --backend``.
"""

from __future__ import annotations

from repro.errors import ProgramError
from repro.graph.fragment import FragmentedGraph
from repro.runtime.backends.base import ExecutionBackend, WorkerCall
from repro.runtime.backends.ops import OPS, WorkerContext, probe_active
from repro.runtime.backends.process import ProcessBackend
from repro.runtime.backends.simulated import SimulatedBackend

BACKENDS = ("simulated", "process")


def make_backend(
    name: str,
    fragmented: FragmentedGraph,
    deterministic: bool = True,
) -> ExecutionBackend:
    """An :class:`ExecutionBackend` by name over ``fragmented``.

    ``deterministic`` only matters to the process backend (whether
    workers report real compute seconds or zeros); the simulator's
    determinism is governed by the engine's
    :class:`~repro.runtime.costmodel.CostModel` as always.
    """
    if name == "simulated":
        return SimulatedBackend(fragmented)
    if name == "process":
        return ProcessBackend(fragmented, deterministic=deterministic)
    raise ProgramError(
        f"unknown execution backend {name!r}; choose from "
        + ", ".join(BACKENDS)
    )


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "OPS",
    "ProcessBackend",
    "SimulatedBackend",
    "WorkerCall",
    "WorkerContext",
    "make_backend",
    "probe_active",
]
