"""The "play" panel: pick program, graph, partition strategy and n.

A :class:`Session` owns one graph, partitions it with a registered
strategy across ``num_workers`` simulated workers, and runs PIE programs
(by object or registered name) against it, returning
:class:`~repro.core.engine.GrapeResult` with full metering.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.engine import GrapeEngine, GrapeResult
from repro.core.pie import PIEProgram
from repro.engineapi.registry import get_program
from repro.graph.digraph import Graph
from repro.graph.fragment import FragmentedGraph, build_fragments
from repro.partition.base import PartitionReport, Partitioner, evaluate_partition
from repro.partition.registry import get_partitioner
from repro.runtime.backends import ExecutionBackend, make_backend
from repro.runtime.costmodel import CostModel

VertexId = Hashable


class Session:
    """One graph + one partition + a simulated cluster, ready to query.

    Args:
        graph: the data graph.
        num_workers: number of simulated workers (fragments).
        partition: a registered strategy name, or a
            :class:`~repro.partition.base.Partitioner` instance.
        cost_model: simulated cluster parameters.
        check_monotonic: verify the Assurance Theorem's order condition
            on every parameter write.
        validate: statically verify programs with grape-lint before
            running them; error-severity findings raise
            :class:`~repro.errors.AnalysisError` (the static counterpart
            of ``check_monotonic``).
        backend: execution backend name (``"simulated"`` — the default
            in-process virtual-time cluster — or ``"process"``, a pool
            of OS worker processes) or a pre-built
            :class:`~repro.runtime.backends.base.ExecutionBackend`
            instance over this session's fragmentation. One backend is
            shared by every engine the session builds, so process
            workers persist across queries.
        store: fragment storage backend name ("dict"/"csr"); by default
            fragments inherit the graph's own store.
        mode: superstep engine mode — ``"strict"`` (BSP lockstep, the
            default) or ``"relaxed"`` (strict ``routing="direct"``'s
            sends, one for one, timed on per-worker virtual clocks
            instead of a barrier, for aggregator-monotone programs;
            always peer-to-peer whatever ``routing`` says;
            byte-identical answers and traffic, lower virtual
            makespan).
    """

    def __init__(
        self,
        graph: Graph,
        num_workers: int = 4,
        partition: str | Partitioner = "hash",
        cost_model: CostModel | None = None,
        check_monotonic: bool = False,
        routing: str = "coordinator",
        validate: bool = False,
        tracer=None,
        backend: str | ExecutionBackend = "simulated",
        store: str | None = None,
        mode: str = "strict",
    ) -> None:
        self.graph = graph
        self.store = store
        self.num_workers = num_workers
        self.cost_model = cost_model or CostModel()
        self.check_monotonic = check_monotonic
        self.routing = routing
        self.mode = mode
        self.validate = validate
        #: Optional :class:`~repro.obs.Tracer` every engine this session
        #: builds records into (pure observer; see repro.obs).
        self.tracer = tracer
        self._partitioner = (
            partition
            if isinstance(partition, Partitioner)
            else get_partitioner(partition)
        )
        self._fragmented: FragmentedGraph | None = None
        if isinstance(backend, ExecutionBackend):
            self.backend_name = backend.name
            self._backend: ExecutionBackend | None = backend
        else:
            self.backend_name = backend
            self._backend = None

    # ------------------------------------------------------------------
    @property
    def partitioner(self) -> Partitioner:
        """The partition strategy this session uses."""
        return self._partitioner

    @property
    def fragmented(self) -> FragmentedGraph:
        """The fragmentation, computed lazily and cached."""
        if self._fragmented is None:
            assignment = self._partitioner(self.graph, self.num_workers)
            self._fragmented = build_fragments(
                self.graph,
                assignment,
                self.num_workers,
                strategy=self._partitioner.name,
                store=self.store,
            )
        return self._fragmented

    def repartition(
        self,
        partition: str | Partitioner | None = None,
        num_workers: int | None = None,
    ) -> FragmentedGraph:
        """Change strategy and/or worker count; invalidates fragments."""
        if partition is not None:
            self._partitioner = (
                partition
                if isinstance(partition, Partitioner)
                else get_partitioner(partition)
            )
        if num_workers is not None:
            self.num_workers = num_workers
        self._fragmented = None
        if self._backend is not None:
            # The backend's workers own copies of the old fragments.
            self._backend.close()
            self._backend = None
        return self.fragmented

    def partition_report(self) -> PartitionReport:
        """Quality metrics of the current partition."""
        return evaluate_partition(
            self.graph,
            self.fragmented.assignment,
            self.num_workers,
            strategy=self._partitioner.name,
        )

    # ------------------------------------------------------------------
    @property
    def backend(self):
        """The session's shared execution backend (built lazily)."""
        if self._backend is None:
            self._backend = make_backend(
                self.backend_name,
                self.fragmented,
                deterministic=self.cost_model.deterministic,
            )
        return self._backend

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent.

        The session stays usable — the next engine lazily rebuilds the
        backend — but any EngineState held against the old process pool
        must be re-pushed by the caller (``run_incremental`` does this
        on every call, so serving flows keep working).
        """
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def engine(self) -> GrapeEngine:
        """A GrapeEngine bound to this session's fragmentation."""
        return GrapeEngine(
            self.fragmented,
            cost_model=self.cost_model,
            check_monotonic=self.check_monotonic,
            routing=self.routing,
            tracer=self.tracer,
            backend=self.backend,
            mode=self.mode,
        )

    def run(
        self, program: PIEProgram, query: object, **engine_kwargs
    ) -> GrapeResult:
        """Run a PIE program instance against this session's graph.

        Extra keyword arguments go to
        :meth:`~repro.core.engine.GrapeEngine.run` (``keep_state``,
        ``checkpoint``).
        """
        if self.validate:
            from repro.analysis import analyze_program, require_clean

            require_clean(
                analyze_program(program),
                subject=f"PIE program {type(program).__name__}",
            )
        return self.engine().run(program, query, **engine_kwargs)

    def run_registered(
        self, name: str, query: object, **program_kwargs
    ) -> GrapeResult:
        """Run a program from the API library by its registered name."""
        return self.run(get_program(name, **program_kwargs), query)
