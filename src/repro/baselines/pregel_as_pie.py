"""The Simulation Theorem, operational: run vertex programs on GRAPE.

The paper's Simulation Theorem states that GRAPE optimally simulates
MapReduce, BSP and PRAM — "all algorithms in ... BSP (e.g., those
developed based on Pregel, Giraph ...) can be simulated by GRAPE using
n processors with the same number of supersteps and memory cost". This
module makes the BSP half of the claim executable:
:class:`VertexCentricAsPIE` wraps any
:class:`~repro.baselines.pregel.VertexProgram` into a
:class:`~repro.core.pie.PIEProgram`, mapping

* Pregel superstep       -> one IncEval round (PEval = superstep 0),
* intra-fragment message -> worker-local inbox delivery (free),
* cross-fragment message -> an update parameter on the target vertex
  whose value is ``(round, (msg, ...))`` — batches from several senders
  in the same round concatenate under the aggregate function,
* "all halted, no messages" -> GRAPE's inactivity condition, using the
  engine's local-activity hook for fragments whose remaining messages
  never cross a border.

Tests assert the theorem's observable: identical vertex values and the
same superstep count (±1 for the Assemble step) as the native
:class:`~repro.baselines.pregel.PregelEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.baselines.pregel import VertexContext, VertexProgram
from repro.core.aggregators import Aggregator
from repro.core.partial_order import UNORDERED
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.digraph import Edge
from repro.graph.fragment import Fragment

VertexId = Hashable


def _merge_batches(cur: object, new: object) -> object:
    """Same round: concatenate; newer round: replace."""
    cur_round, cur_msgs = cur  # type: ignore[misc]
    new_round, new_msgs = new  # type: ignore[misc]
    if new_round > cur_round:
        return new
    if new_round < cur_round:
        return cur
    return (cur_round, cur_msgs + new_msgs)


#: Round-tagged message batches; lockstep rounds make this well-defined.
MESSAGE_BATCHES = Aggregator("message-batches", _merge_batches, UNORDERED)


@dataclass
class _SimPartial:
    """One fragment's simulated Pregel state."""

    values: dict = field(default_factory=dict)
    halted: dict = field(default_factory=dict)
    inbox: dict = field(default_factory=dict)  # vertex -> [msgs] next round
    out_edges: dict = field(default_factory=dict)
    round: int = 0
    sent_messages: int = 0

    def has_local_work(self) -> bool:
        """Pending local messages or unhalted vertices remain."""
        return bool(self.inbox) or any(
            not halted for halted in self.halted.values()
        )


class _AdapterWorker:
    """Duck-typed stand-in for the PregelEngine worker VertexContext uses."""

    __slots__ = ("values", "outbound")

    def __init__(self, values: dict) -> None:
        self.values = values
        self.outbound: list[tuple[VertexId, object]] = []


class VertexCentricAsPIE(PIEProgram):
    """Wrap a vertex program; GRAPE executes its supersteps faithfully."""

    def __init__(
        self, vertex_program: VertexProgram, num_vertices: int
    ) -> None:
        self.vertex_program = vertex_program
        self.num_vertices = num_vertices
        self.name = f"pregel-as-pie[{vertex_program.name}]"

    def param_spec(self, query) -> ParamSpec:
        return ParamSpec(aggregator=MESSAGE_BATCHES, default=None)

    # ------------------------------------------------------------------
    def _superstep(
        self, fragment: Fragment, partial: _SimPartial, params: UpdateParams
    ) -> None:
        """Run one Pregel superstep over the fragment's owned vertices."""
        program = self.vertex_program
        worker = _AdapterWorker(partial.values)
        inbox, partial.inbox = partial.inbox, {}
        # The adapter reproduces Pregel's unbounded supersteps by design;
        # the halted-vertex check below is its voting-to-halt shortcut.
        for v in fragment.owned:
            messages = inbox.pop(v, None)
            if messages is None and (
                partial.halted[v] and partial.round > 0
            ):
                continue
            ctx = VertexContext(
                v,
                partial.round,
                worker,
                partial.out_edges[v],
                self.num_vertices,
            )
            program.compute(ctx, messages or [])
            partial.halted[v] = ctx._halted
        # Route what the vertices sent: local -> next round's inbox,
        # remote -> round-tagged update-parameter batches.
        partial.sent_messages += len(worker.outbound)
        remote: dict[VertexId, list[object]] = {}
        for target, payload in worker.outbound:
            if target in fragment.owned:
                partial.inbox.setdefault(target, []).append(payload)
            else:
                remote.setdefault(target, []).append(payload)
        combiner = program.combiner
        for target, payloads in remote.items():
            if combiner is not None and len(payloads) > 1:
                combined = payloads[0]
                for p in payloads[1:]:
                    combined = combiner(combined, p)
                payloads = [combined]
            params.set(target, (partial.round, tuple(payloads)))
        partial.round += 1

    # ------------------------------------------------------------------
    def peval(self, fragment: Fragment, query, params) -> _SimPartial:
        partial = _SimPartial()
        for v in fragment.owned:
            partial.values[v] = self.vertex_program.initial_value(v)
            partial.halted[v] = False
            partial.out_edges[v] = fragment.graph.out_edges(v)
        self._superstep(fragment, partial, params)
        return partial

    def inceval(
        self,
        fragment: Fragment,
        query,
        partial: _SimPartial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> _SimPartial:
        incoming = []
        for v in changed:
            if v not in fragment.owned:
                continue  # batches aimed at vertices we merely mirror
            value = params.get(v)
            if value is None:
                continue
            incoming.append((v, value))
        if incoming:
            # An idle fragment's clock lags while it is (correctly)
            # skipped; incoming batches carry the global round, so fast-
            # forward before delivering (a message sent in superstep r is
            # consumed in superstep r+1).
            latest = max(msg_round for _, (msg_round, _) in incoming)
            partial.round = max(partial.round, latest + 1)
            for v, (msg_round, msgs) in incoming:
                if msg_round == partial.round - 1:
                    partial.inbox.setdefault(v, []).extend(msgs)
        self._superstep(fragment, partial, params)
        return partial

    def is_active(self, fragment: Fragment, partial: _SimPartial) -> bool:
        return partial.has_local_work()

    def assemble(self, query, partials: Sequence[_SimPartial]) -> dict:
        values: dict[VertexId, object] = {}
        for partial in partials:
            values.update(partial.values)
        return values
