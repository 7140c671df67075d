"""The in-process backend: today's virtual-time cluster, extracted.

Worker contexts live in the engine's process and share the engine's
:class:`~repro.graph.fragment.FragmentedGraph` objects, so ΔG routing
needs no effect replay. Every superstep op runs under
:meth:`~repro.core.supervisor.Supervisor.attempt` — fault injection,
transient retries, deterministic backoff and tracer compute spans all
behave exactly as they did when the engine inlined these loops.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.graph.fragment import FragmentedGraph
from repro.runtime.backends.base import ExecutionBackend, WorkerCall
from repro.runtime.backends.ops import OPS, WorkerContext, probe_active


class SimulatedBackend(ExecutionBackend):
    """Sequential in-process execution on the simulated cluster."""

    name = "simulated"
    supports_faults = True

    def __init__(self, fragmented: FragmentedGraph) -> None:
        super().__init__(fragmented)
        self._contexts = [
            WorkerContext(frag.fid, frag) for frag in fragmented.fragments
        ]

    def execute(
        self,
        step,
        supervisor,
        calls: Sequence[WorkerCall],
        on_result: Callable[[int, object], None] | None = None,
    ) -> dict[int, object]:
        results: dict[int, object] = {}
        for call in calls:
            ctx = self._contexts[call.wid]
            fn = OPS[call.op]
            args = call.args
            value = supervisor.attempt(
                step,
                call.wid,
                lambda fn=fn, ctx=ctx, args=args: fn(ctx, **args),
            )
            results[call.wid] = value
            if on_result is not None:
                on_result(call.wid, value)
        return results

    def invoke_all(
        self, calls: Sequence[WorkerCall]
    ) -> dict[int, list[object]]:
        results: dict[int, list[object]] = {}
        for call in calls:
            value = OPS[call.op](self._contexts[call.wid], **call.args)
            results.setdefault(call.wid, []).append(value)
        return results

    def is_active(self, wid: int) -> bool:
        return probe_active(self._contexts[wid])

    def sync_effects(self, effects: dict[int, list]) -> None:
        # Workers share the engine's fragment objects; the coordinator's
        # apply_delta already mutated them.
        return None

    def close(self) -> None:
        return None
