"""The execution-backend contract: where worker-local code actually runs.

GRAPE's workflow (Fig. 1) separates *what* a worker computes (PEval /
IncEval / the ΔG repair hooks, over its own fragment) from *where* that
compute happens. :class:`ExecutionBackend` is that seam: the engine
expresses every worker-local step as a named op from
:mod:`repro.runtime.backends.ops` applied to the worker's
:class:`~repro.runtime.backends.ops.WorkerContext`, and the backend
decides whether the context lives in this process
(:class:`~repro.runtime.backends.simulated.SimulatedBackend`) or in a
worker OS process that owns a pickled copy of the fragment
(:class:`~repro.runtime.backends.process.ProcessBackend`).

Both backends run the *same* op functions, so answers, metrics and
repair stats are byte-identical by construction — the simulator is the
oracle, the process pool is the measurement substrate (locked down by
``tests/property/test_backend_oracle.py``).

Coordinator-side work (message aggregation, Assemble, the invalidation
region bookkeeping) always runs in the engine's process; only the
per-fragment sequential code crosses the backend boundary.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.graph.fragment import FragmentedGraph


@dataclass(frozen=True)
class WorkerCall:
    """One worker-local op invocation: ``OPS[op](ctx, **args)``."""

    wid: int
    op: str
    args: dict = field(default_factory=dict)


class ExecutionBackend(abc.ABC):
    """Executes worker-local ops; the engine stays backend-agnostic.

    Lifecycle: the engine calls :meth:`bind` (fresh run) or
    :meth:`resume` (incremental run) to install program + state into
    every worker, drives supersteps through :meth:`execute` (metered:
    compute intervals, retries, tracer spans) and one-off bookkeeping
    through :meth:`invoke_all` (unmetered, exactly like the engine's
    historical out-of-superstep param maintenance), and
    pulls state back with :meth:`pull_state` for checkpoints and
    ``keep_state=True`` results.
    """

    #: short identifier used by CLI/Session switches ("simulated", ...)
    name: str = ""
    #: True when supersteps run on real OS parallelism and clusters
    #: should record wall-clock per-superstep timings (``wall_ms``).
    measures_wall: bool = False
    #: True when the deterministic fault injector can interpose on
    #: worker compute (requires in-process workers).
    supports_faults: bool = False

    def __init__(self, fragmented: FragmentedGraph) -> None:
        self.fragmented = fragmented

    @property
    def num_workers(self) -> int:
        """One worker per fragment."""
        return self.fragmented.num_fragments

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def execute(
        self,
        step,
        supervisor,
        calls: Sequence[WorkerCall],
        on_result: Callable[[int, object], None] | None = None,
    ) -> dict[int, object]:
        """Run at most one op per worker inside superstep ``step``.

        Results are produced in call order; ``on_result(wid, value)``
        fires as each worker's result lands — *before* later workers'
        results — so the engine's sends interleave with compute exactly
        as the sequential simulator always has (fault schedules are
        order-sensitive). Returns wid -> result.
        """

    @abc.abstractmethod
    def invoke_all(
        self, calls: Sequence[WorkerCall]
    ) -> dict[int, list[object]]:
        """Run op batches outside any superstep, one chunk per worker.

        Returns wid -> list of results in that worker's call order.
        """

    @abc.abstractmethod
    def is_active(self, wid: int) -> bool:
        """``program.is_active`` over the worker's current state."""

    @abc.abstractmethod
    def sync_effects(self, effects: dict[int, list]) -> None:
        """Replay coordinator-side fragment mutations on the workers.

        ``effects`` is the fid -> effect-record map collected by
        :func:`repro.core.delta.apply_delta`; backends whose workers
        share this process's fragments treat it as a no-op.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Release worker resources; the backend is unusable after."""

    # ------------------------------------------------------------------
    # Engine-facing helpers built on the primitives. ``audit`` is the
    # engine's monotonicity check for this run: None = unchecked, else
    # its strictness (see ``ops._install``).
    # ------------------------------------------------------------------
    def bind(self, program, query, audit=None) -> None:
        """Install a program + fresh parameter stores on every worker."""
        self.invoke_all(
            [
                WorkerCall(
                    wid,
                    "bind",
                    {"program": program, "query": query, "audit": audit},
                )
                for wid in range(self.num_workers)
            ]
        )

    def resume(self, program, query, state, audit=None) -> None:
        """Install a program plus a prior run's per-worker state."""
        self.invoke_all(
            [
                WorkerCall(
                    wid,
                    "resume",
                    {
                        "program": program,
                        "query": query,
                        "partial": state.partials[wid],
                        "params": state.params[wid],
                        "audit": audit,
                    },
                )
                for wid in range(self.num_workers)
            ]
        )

    def push_state(self, partials: list, params: list, audit=None) -> None:
        """Replace every worker's partial + parameter store (recovery)."""
        self.invoke_all(
            [
                WorkerCall(
                    wid,
                    "set_state",
                    {
                        "partial": partials[wid],
                        "params": params[wid],
                        "audit": audit,
                    },
                )
                for wid in range(self.num_workers)
            ]
        )

    def pull_state(self) -> tuple[list, list]:
        """(partials, params) lists, one entry per worker, in wid order."""
        results = self.invoke_all(
            [
                WorkerCall(wid, "get_state")
                for wid in range(self.num_workers)
            ]
        )
        partials = [results[wid][0][0] for wid in range(self.num_workers)]
        params = [results[wid][0][1] for wid in range(self.num_workers)]
        return partials, params

    def partials(self) -> list:
        """Every worker's current partial answer, in wid order."""
        results = self.invoke_all(
            [
                WorkerCall(wid, "get_partial")
                for wid in range(self.num_workers)
            ]
        )
        return [results[wid][0] for wid in range(self.num_workers)]
