"""The PIE programming model: PEval, IncEval, Assemble.

A :class:`PIEProgram` is the unit users register with GRAPE (the "plug"
panel of Fig. 3). Subclasses provide three sequential algorithms plus a
:class:`ParamSpec` declaring the update parameters and their aggregate
function — the paper's "only changes to the sequential algorithms".

Contract (mirrors Section 2.2):

* ``param_spec()`` — the declaration inherited by IncEval from PEval.
* ``peval(fragment, query, params)`` — any sequential algorithm for the
  query class, run against the local fragment; reads/writes border
  variables through ``params``; returns the partial answer ``Q(F_i)``.
* ``inceval(fragment, query, partial, params, changed)`` — any sequential
  *incremental* algorithm; ``changed`` is the set of border vertices
  whose parameter value was just updated by incoming messages (``M_i``);
  returns the updated partial answer.
* ``assemble(query, partials)`` — combines partial answers into
  ``Q(G)``; "typically simple".

The program object is a *declaration*, not a place to keep a run: one
object is shared by every simulated worker and a process worker computes
on a pickled copy, so anything a call stores on ``self`` is either mixed
across fragments or invisible to the engine. Everything a program hands
the engine goes through its :class:`ParamSpec` and the ``params`` store
it is called with — values via ``improve``/``set``, work units via
``params.charge(n)`` (read back as ``result.metrics.work("inceval")``).
Every bundled program keeps to it: ``vars(program)`` is its constructor
arguments before and after any run on any backend — ``{}`` for all but
PageRank's ``total_vertices`` and Sim's index switch
(``tests/core/test_pickle_contract.py``) — and the runtime holds every
program to it: :func:`check_declaration` refuses a phase that rebinds an
attribute of the program object.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generic, Hashable, Sequence, TypeVar

from repro.core.aggregators import Aggregator
from repro.core.update_params import UpdateParams
from repro.errors import ProgramError
from repro.graph.fragment import Fragment

VertexId = Hashable
Q = TypeVar("Q")  # query type
P = TypeVar("P")  # partial-answer type
R = TypeVar("R")  # assembled result type


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of a program's update parameters.

    Attributes:
        aggregator: conflict resolution + partial order (e.g. ``MIN``).
        default: initial value of every border variable (e.g. ∞).

    A default the aggregator's order can never advance from (``+inf``
    under ``MAX``, ``False`` under ``BOOL_AND``) is refused here: every
    variable would be stuck at it, so aggregation could never improve a
    value.
    """

    aggregator: Aggregator
    default: object

    def __post_init__(self) -> None:
        order = self.aggregator.order
        for value in order.final:
            if type(self.default) is type(value) and self.default == value:
                raise ProgramError(
                    f"[GRP401] default {self.default!r} for the "
                    f"{self.aggregator.name} aggregator can never be "
                    f"improved: nothing advances from it in the "
                    f"{order.name} order; declare the order's top (its "
                    "identity), e.g. +inf for min, -inf or None for max"
                )


def contract_code(value: object, otherwise: str) -> str:
    """The rule code of program state ``value``: a lambda (GRP501), a
    function defined inside a method (GRP502), else ``otherwise``."""
    if getattr(value, "__name__", None) == "<lambda>":
        return "GRP501"
    if "<locals>" in getattr(value, "__qualname__", ""):
        return "GRP502"
    return otherwise


def check_declaration(program: object, before: dict, phase: str) -> None:
    """Refuse a ``phase`` that rebound attributes of ``program``.

    ``before`` is ``dict(vars(program))`` taken when the program was
    bound. A program is a declaration: one object serves every simulated
    worker and a process worker computes on a pickled copy, so whatever
    a phase stores on ``self`` is mixed across fragments or lost.
    """
    after = vars(program)
    moved = sorted(
        k for k in before.keys() | after.keys()
        if k not in before or k not in after or before[k] is not after[k]
    )
    if moved:
        name = moved[0]
        value = after.get(name)
        now = f"= {value!r}" if name in after else "deleted"
        raise ProgramError(
            f"[{contract_code(value, 'GRP403')}] {type(program).__name__}."
            f"{phase} stored run state on the program object "
            f"(`self.{name}` {now}): a program is a declaration — keep "
            "per-run state in the partial answer, and build "
            "configuration in __init__"
        )


class PIEProgram(abc.ABC, Generic[Q, P, R]):
    """Three sequential algorithms + declarations for one query class."""

    #: Registry name of the query class (e.g. ``"sssp"``).
    name: str = "abstract"

    @abc.abstractmethod
    def param_spec(self, query: Q) -> ParamSpec:
        """Declare the update parameters' aggregator and default value."""

    def declare_params(
        self, fragment: Fragment, query: Q, params: UpdateParams
    ) -> None:
        """Declare which vertices carry update parameters.

        Default: every border vertex of the fragment (``F_i.I ∪ F_i.O``),
        with the store laid over the fragment's slot view
        (:meth:`~repro.core.update_params.UpdateParams.declare_border`),
        which suits most traversal-style programs. An override may lay
        the store too (``params.lay(fragment.slot_view())``) and then
        declare a narrower set or initial values, as CF and Sim do.
        """
        params.declare_border(fragment.slot_view())

    @abc.abstractmethod
    def peval(self, fragment: Fragment, query: Q, params: UpdateParams) -> P:
        """Sequential partial evaluation on the local fragment."""

    @abc.abstractmethod
    def inceval(
        self,
        fragment: Fragment,
        query: Q,
        partial: P,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> P:
        """Sequential incremental evaluation treating ``changed`` as M_i."""

    @abc.abstractmethod
    def assemble(self, query: Q, partials: Sequence[P]) -> R:
        """Combine the workers' partial answers into ``Q(G)``."""

    def is_active(self, fragment: Fragment, partial: P) -> bool:
        """Whether the worker is still busy with *local* computation.

        The paper's termination condition is "P_i is inactive, i.e. P_i
        is done with its local computation, AND there is no more change
        to any update parameter". Most PIE programs finish their local
        work inside each PEval/IncEval call, so the default is False
        (only parameter changes keep the fixpoint going). Programs that
        interleave local rounds with the global ones — e.g. the
        vertex-centric simulation adapter, where a fragment can have
        pending vertex-to-vertex messages that never cross its border —
        override this; the engine then keeps calling IncEval (with an
        empty change set) until both conditions hold everywhere.
        """
        return False

    def on_graph_update(
        self,
        fragment: Fragment,
        query: Q,
        partial: P,
        params: UpdateParams,
        delta: Sequence,
    ) -> P:
        """Repair the partial answer after monotone-safe delta ops (ΔG).

        Optional hook used by ``GrapeEngine.run_incremental``: the
        fragment's local graph already reflects the ops in ``delta``
        (each has a ``kind`` of "insert", "delete" or "reweight" — only
        ops the program classified as monotone-safe arrive here); the
        program updates its partial answer and exports changed border
        variables, exactly as IncEval would. Programs without incremental
        graph-update support simply don't override this.
        """
        raise NotImplementedError(
            f"{self.name} does not support incremental graph updates"
        )

    # ------------------------------------------------------------------
    # Non-monotone repair hooks (deletions / order-breaking reweights)
    # ------------------------------------------------------------------
    def classify_update(self, query: Q, op) -> bool:
        """Whether a delta op is monotone-safe for this program.

        Safe ops can only move values along the declared partial order,
        so the old fixed point remains a valid starting point and
        :meth:`on_graph_update` repairs them directly. Unsafe ops route
        through the engine's invalidate-and-recompute path. The default
        suits decreasing orders (SSSP/BFS/CC): insertions are safe,
        deletions are not, and a reweight is safe only when it is a
        known weight decrease. Programs with the opposite natural
        direction (k-core: deletions only shrink cores) override this.
        """
        if op.kind == "insert":
            return True
        if op.kind == "reweight":
            return op.old_weight is not None and op.weight <= op.old_weight
        return False

    def delta_seeds(self, fragment: Fragment, query: Q, partial: P, ops) -> set:
        """Local vertices whose value may have *depended* on unsafe ops.

        The starting frontier of the invalidated region. Programs
        supporting non-monotone repair override this (typically: the
        target endpoint of each deleted/reweighted edge, when it is a
        local vertex or still carries a stale partial entry).
        """
        raise NotImplementedError(
            f"[GRP404] {self.name} does not support deletions or "
            "non-monotone graph updates (no delta_seeds/repair_partial)"
        )

    def invalidated_region(
        self, fragment: Fragment, query: Q, partial: P, seeds: set
    ) -> set:
        """Close ``seeds`` over local value dependencies.

        Everything whose partial value may transitively derive from a
        seed must be reset before repair. The default takes the forward
        (out-edge) closure within the local graph — correct for
        traversal-style programs where values propagate along edges;
        programs with coarser dependencies (CC label regions, k-core
        components) override it. Seeds no longer present in the local
        graph (e.g. a pruned mirror) stay in the region so their stale
        partial entries are discarded too.
        """
        region = set(seeds)
        stack = [v for v in seeds if fragment.graph.has_vertex(v)]
        while stack:
            u = stack.pop()
            for v in fragment.graph.iter_neighbors(u):
                if v not in region:
                    region.add(v)
                    stack.append(v)
        return region

    def repair_partial(
        self,
        fragment: Fragment,
        query: Q,
        partial: P,
        params: UpdateParams,
        region: set,
    ) -> P:
        """Scoped PEval-style re-derivation of an invalidated region.

        Called after the engine has reset the region's update parameters
        to the order's default (⊤): recompute the region's partial
        values from scratch using only values *outside* the region (and
        the query) as boundary conditions, publishing re-derived border
        values through ``params``. The ordinary IncEval fixpoint runs
        afterwards, so the repair only needs local correctness.
        """
        raise NotImplementedError(
            f"[GRP404] {self.name} does not support deletions or "
            "non-monotone graph updates (no delta_seeds/repair_partial)"
        )

    def __repr__(self) -> str:
        return f"<PIEProgram {self.name}>"


def handles_graph_updates(program: PIEProgram) -> bool:
    """Whether ``program`` overrides :meth:`PIEProgram.on_graph_update`,
    i.e. whether a ΔG batch can repair its kept answer."""
    return type(program).on_graph_update is not PIEProgram.on_graph_update
