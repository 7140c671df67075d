"""Unified graph deltas (ΔG): insertions, deletions, weight changes.

The PIE model's IncEval descends from Ramalingam–Reps incremental
computation over *arbitrary* changes, but monotone resume only covers
updates that move values along the aggregator's partial order (a new
edge can only shorten a path). This module is the full ΔG vocabulary:

* :class:`EdgeInsert` / :class:`EdgeDelete` / :class:`EdgeReweight` —
  the three delta ops, collected into a :class:`GraphDelta` batch;
* :func:`apply_delta` — routes a mixed batch into the fragments
  (border/mirror bookkeeping for removals included) and returns the
  fragment id -> ops map the engine repairs from;
* :class:`EngineState` — the resumable fixpoint state captured by
  ``run(..., keep_state=True)``;
* :class:`DeltaRepairStats` — what ``run_incremental`` did with the
  batch (monotone resume, scoped non-monotone repair, or full restart).

Whether an op is monotone-safe is decided *per program* via
``PIEProgram.classify_update`` — for SSSP an insertion is safe and a
deletion is not; for k-core it is exactly the other way around. Unsafe
ops route through the engine's invalidate-and-recompute path (reset the
affected region's parameters to ⊤, scoped PEval-style repair, ordinary
IncEval fixpoint), the shape Blume et al. use for deletion repair.

Batch semantics: ops apply in order, but one batch may touch each edge
at most once — an insert-then-delete of the same edge would let the
safe and unsafe repair paths disagree about the final graph, so
:func:`apply_delta` rejects duplicate edge references up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Hashable, Iterable, Iterator, Sequence, Union

from repro.errors import PartitionError, ProgramError
from repro.graph.fragment import FragmentedGraph

VertexId = Hashable


@dataclass(frozen=True)
class EdgeInsert:
    """One new edge; endpoints must already exist in the graph."""

    src: VertexId
    dst: VertexId
    weight: float = 1.0
    label: str | None = None

    kind: ClassVar[str] = "insert"


@dataclass(frozen=True)
class EdgeDelete:
    """Remove an existing edge (non-monotone for decreasing orders).

    ``weight`` is filled in by :func:`apply_delta` with the weight the
    edge had at removal time, so programs can test whether a value
    actually depended on it (a non-tight edge cannot have carried any
    shortest path).
    """

    src: VertexId
    dst: VertexId
    weight: float | None = None

    kind: ClassVar[str] = "delete"


@dataclass(frozen=True)
class EdgeReweight:
    """Change an existing edge's weight.

    ``old_weight`` is filled in by :func:`apply_delta` during routing so
    programs can classify the change (a decrease is monotone-safe under
    a decreasing order, an increase is not).
    """

    src: VertexId
    dst: VertexId
    weight: float
    old_weight: float | None = None

    kind: ClassVar[str] = "reweight"


DeltaOp = Union[EdgeInsert, EdgeDelete, EdgeReweight]

_KINDS = {"insert": EdgeInsert, "delete": EdgeDelete, "reweight": EdgeReweight}


def _coerce_op(item: object) -> DeltaOp:
    """One delta op from an op instance or a tuple form.

    Accepted tuples: ``(src, dst[, weight[, label]])`` (an insertion,
    the historical ``apply_updates`` form) and the tagged
    ``("insert"|"delete"|"reweight", src, dst, ...)``.
    """
    if isinstance(item, (EdgeInsert, EdgeDelete, EdgeReweight)):
        return item
    if isinstance(item, (tuple, list)) and item:
        head, *rest = item
        if isinstance(head, str) and head in _KINDS:
            try:
                return _KINDS[head](*rest)
            except TypeError as exc:
                raise ProgramError(f"malformed delta op {item!r}: {exc}")
        src, dst, *extra = item
        weight = (
            float(extra[0]) if extra and extra[0] is not None else 1.0
        )
        label = extra[1] if len(extra) > 1 else None
        return EdgeInsert(src=src, dst=dst, weight=weight, label=label)
    raise ProgramError(
        f"cannot interpret {item!r} as a graph delta op; expected "
        "EdgeInsert/EdgeDelete/EdgeReweight or a tuple form"
    )


@dataclass(frozen=True)
class GraphDelta:
    """One mixed batch of edge-level changes, applied atomically."""

    ops: tuple[DeltaOp, ...] = ()

    @classmethod
    def coerce(cls, updates: object) -> "GraphDelta":
        """A :class:`GraphDelta` from a batch in any accepted form."""
        if isinstance(updates, GraphDelta):
            return updates
        if updates is None:
            return cls()
        if not isinstance(updates, Iterable):
            raise ProgramError(
                f"cannot interpret {updates!r} as a graph delta"
            )
        return cls(ops=tuple(_coerce_op(item) for item in updates))

    @classmethod
    def from_dict(cls, data: dict) -> "GraphDelta":
        """A delta from the JSON form used by traces and ``grape run``.

        Keys (all optional, no others): ``"insert"``: ``[[src, dst,
        weight?, label?], ...]``, ``"delete"``: ``[[src, dst], ...]``,
        ``"reweight"``: ``[[src, dst, weight], ...]``. This is outside
        input: any other shape raises :class:`~repro.errors.ProgramError`
        naming the offending key or row.
        """
        keys = " / ".join(map(repr, _KINDS))
        if not isinstance(data, dict):
            raise ProgramError(
                f"a graph delta is a JSON object with keys {keys}; got "
                f"{type(data).__name__}"
            )
        for key in data:
            if key not in _KINDS:
                raise ProgramError(
                    f"unknown graph delta key {key!r}; expected {keys}"
                )
        ops: list[DeltaOp] = []
        for kind in _KINDS:
            rows = data.get(kind, [])
            if not isinstance(rows, list):
                raise ProgramError(
                    f"graph delta key {kind!r} must hold a list of rows, "
                    f"got {rows!r}"
                )
            for row in rows:
                if not isinstance(row, (list, tuple)) or len(row) < 2:
                    raise ProgramError(
                        f"graph delta {kind!r} row {row!r} is not a "
                        "[src, dst, ...] list"
                    )
                weight = row[2] if len(row) > 2 else None
                if not isinstance(weight, (int, float, type(None))):
                    raise ProgramError(
                        f"graph delta {kind!r} row {row!r}: weight "
                        f"{weight!r} is not a number"
                    )
                # insertions keep the untagged form's float() coercion
                tagged = kind != "insert"
                ops.append(_coerce_op((kind, *row) if tagged else tuple(row)))
        return cls(ops=tuple(ops))

    def __iter__(self) -> Iterator[DeltaOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    @property
    def inserts(self) -> int:
        """Number of insertion ops."""
        return sum(1 for op in self.ops if op.kind == "insert")

    @property
    def deletes(self) -> int:
        """Number of deletion ops."""
        return sum(1 for op in self.ops if op.kind == "delete")

    @property
    def reweights(self) -> int:
        """Number of reweight ops."""
        return sum(1 for op in self.ops if op.kind == "reweight")


def apply_delta(
    fragmented: FragmentedGraph,
    delta: object,
    effects: dict[int, list] | None = None,
) -> dict[int, list[DeltaOp]]:
    """Route a mixed ΔG batch into fragments; returns fid -> ops to repair.

    The batch is atomic: it is validated whole (:func:`_check_batch`)
    before the first mutation, so a rejected batch leaves the fragments
    untouched, then its ops apply in order. Insertions of an edge that
    already exists are routed as reweights (with the old weight
    recorded) so programs can classify them honestly.

    Pass a dict as ``effects`` to additionally collect the per-fragment
    mutation records (fid -> :data:`~repro.graph.fragment.FragmentEffect`
    list, in application order) — the process backend replays these on
    its workers' fragment copies so both sides stay byte-identical.
    """
    delta = GraphDelta.coerce(delta)
    _check_batch(fragmented, delta)
    touched: dict[int, list[DeltaOp]] = {}
    for op in delta:
        routed, fids = _route_op(fragmented, op)
        for fid in fids:
            touched.setdefault(fid, []).append(routed)
        if effects is not None:
            for fid, records in fragmented.last_effects.items():
                effects.setdefault(fid, []).extend(records)
    return touched


def _check_batch(fragmented: FragmentedGraph, delta: GraphDelta) -> None:
    """Raise :class:`~repro.errors.ProgramError` unless every op applies.

    The ways routing an op can fail: an endpoint no fragment owns, an
    edge the batch references twice (see module docstring), a delete or
    reweight of an absent edge, a negative weight. Each edge appears at
    most once, so no op changes what another op's check reads and the
    pre-batch fragments decide all of them.
    """
    seen: set[tuple] = set()
    for op in delta:
        try:
            graph = fragmented.fragment_of(op.src).graph
            fragmented.owner_of(op.dst)
        except PartitionError as exc:
            raise ProgramError(
                f"delta op {op.kind} {op.src!r}->{op.dst!r} references an "
                "unknown vertex"
            ) from exc
        keys = [(op.src, op.dst)]
        if not graph.directed:
            keys.append((op.dst, op.src))
        if any(k in seen for k in keys):
            raise ProgramError(
                f"delta batch references edge {op.src!r}->{op.dst!r} more "
                "than once; split conflicting ops into separate batches"
            )
        seen.update(keys)
        problem = None
        if op.kind != "insert" and not graph.has_edge(op.src, op.dst):
            problem = "no such edge"
        elif op.kind != "delete" and op.weight < 0:
            problem = f"negative edge weight {op.weight}"
        if problem:
            raise ProgramError(
                f"cannot apply delta op {op.kind} "
                f"{op.src!r}->{op.dst!r}: {problem}"
            )


def _route_op(
    fragmented: FragmentedGraph, op: DeltaOp
) -> tuple[DeltaOp, list[int]]:
    """Apply one op to the fragments; returns (op as routed, touched)."""
    if op.kind == "insert":
        src_frag = fragmented.fragments[fragmented.owner_of(op.src)]
        if src_frag.graph.has_edge(op.src, op.dst):
            # Inserting an existing edge is a weight change in disguise;
            # reclassify so a weight increase is not mistaken for a
            # monotone-safe insertion.
            fids, old = fragmented.reweight_edge(op.src, op.dst, op.weight)
            return (
                EdgeReweight(op.src, op.dst, op.weight, old_weight=old),
                fids,
            )
        return op, fragmented.insert_edge(
            op.src, op.dst, op.weight, op.label
        )
    if op.kind == "delete":
        src_graph = fragmented.fragments[fragmented.owner_of(op.src)].graph
        weight = (
            src_graph.edge_weight(op.src, op.dst)
            if src_graph.has_edge(op.src, op.dst)
            else None
        )
        fids = fragmented.delete_edge(op.src, op.dst)
        return replace(op, weight=weight), fids
    fids, old = fragmented.reweight_edge(op.src, op.dst, op.weight)
    return replace(op, old_weight=old), fids


@dataclass
class EngineState:
    """Resumable engine state captured by ``run(..., keep_state=True)``.

    ``program_name`` and ``num_fragments`` record which program and
    fragmentation produced the state so ``run_incremental`` can reject a
    stale or foreign state with a :class:`~repro.errors.StaleStateError`
    instead of corrupting the fixpoint. Both default to "unknown" so
    states pickled by older checkpoints still load (see
    :meth:`__setstate__`).
    """

    partials: list = field(default_factory=list)
    params: list = field(default_factory=list)
    #: ``PIEProgram.name`` of the producing program ("" if unknown).
    program_name: str = ""
    #: Fragment count of the producing engine (0 if unknown).
    num_fragments: int = 0

    def __setstate__(self, state: dict) -> None:
        # States pickled before provenance was recorded carry neither
        # field; load them with the "unknown" defaults so structural
        # validation still applies.
        self.__dict__.update({"program_name": "", "num_fragments": 0})
        self.__dict__.update(state)


@dataclass
class DeltaRepairStats:
    """What ``run_incremental`` did with one ΔG batch."""

    #: "monotone" (safe ops only), "scoped" (bounded invalidate-and-
    #: recompute), or "full" (invalidated region crossed the threshold
    #: and the whole fixpoint restarted).
    mode: str = "monotone"
    safe_ops: int = 0
    unsafe_ops: int = 0
    #: Total vertices invalidated across fragments (counting a border
    #: vertex once per hosting fragment, which is what the repair pays).
    invalidated: int = 0
    #: Parameters reset to the order's top element.
    resets: int = 0
    #: Supersteps spent closing the invalidated region across fragments.
    invalidation_rounds: int = 0
    #: fid -> invalidated-vertex count (non-empty fragments only).
    fragments: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready counters."""
        return {
            "mode": self.mode,
            "safe_ops": self.safe_ops,
            "unsafe_ops": self.unsafe_ops,
            "invalidated": self.invalidated,
            "resets": self.resets,
            "invalidation_rounds": self.invalidation_rounds,
            "fragments": {str(k): v for k, v in sorted(self.fragments.items())},
        }
