"""Worker-local ops: the exact sequential code a GRAPE worker runs.

Each op is a module-level function over a :class:`WorkerContext` — the
per-worker bundle of fragment, bound program, parameter store and
partial answer. The engine used to express these as inline closures;
hoisting them here lets every :class:`~repro.runtime.backends.base.
ExecutionBackend` run the *same* code, which is what makes the process
backend byte-identical to the simulator: there is only one
implementation of "apply messages, run IncEval, ship changes".

Ops must stay picklable-by-reference (module-level, no captured state)
and their arguments/results must survive ``pickle`` — that is the whole
handoff contract of the process backend. The bound program must stay a
declaration: every op that calls into it compares ``vars(program)``
with the snapshot taken at bind
(:func:`~repro.core.pie.check_declaration`), so a phase storing state
on ``self`` is refused on either backend.
"""

from __future__ import annotations

from repro.core.assurance import WriteAudit
from repro.core.pie import check_declaration
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment, apply_fragment_effects


class WorkerContext:
    """One worker's entire local state, wherever the worker lives."""

    __slots__ = ("wid", "frag", "program", "declared", "query", "params",
                 "partial", "started")

    def __init__(self, wid: int, frag: Fragment) -> None:
        self.wid = wid
        self.frag = frag
        self.program = None
        #: ``dict(vars(program))`` at bind: what every phase must leave.
        self.declared: dict = {}
        self.query = None
        self.params: UpdateParams | None = None
        self.partial = None
        #: True once a partial exists (PEval ran or state was pushed);
        #: gates the activity probe so it is never asked about a worker
        #: that has not computed anything yet.
        self.started = False


def probe_active(ctx: WorkerContext) -> bool:
    """``program.is_active`` over the current state (False pre-PEval)."""
    if not ctx.started or ctx.program is None:
        return False
    return bool(ctx.program.is_active(ctx.frag, ctx.partial))


def _bind_program(ctx: WorkerContext, program, query) -> None:
    ctx.program = program
    ctx.declared = dict(vars(program))
    ctx.query = query


def _reply(ctx: WorkerContext, phase: str) -> tuple:
    """What every superstep op sends home: the changed parameters, the
    work the program charged, and the audit's tally (None: unchecked) —
    once ``phase`` has been checked to leave the program untouched."""
    check_declaration(ctx.program, ctx.declared, phase)
    store = ctx.params
    return store.consume_changes(), store.take_work(), store.take_audit()


# ----------------------------------------------------------------------
# Lifecycle ops. ``audit`` is whether the running engine checks
# monotonicity — armed afresh on every store a run installs, never
# inherited from the store's history.
# ----------------------------------------------------------------------
def _install(ctx: WorkerContext, params: UpdateParams, audit) -> None:
    params.audit = WriteAudit(ctx.wid) if audit else None
    ctx.params = params


def op_bind(ctx: WorkerContext, program, query, audit):
    """Fresh run: bind the program and declare its update parameters."""
    _bind_program(ctx, program, query)
    ctx.partial = None
    ctx.started = False
    return op_rebind_params(ctx, audit)


def op_rebind_params(ctx: WorkerContext, audit):
    """Full-restart fallback: fresh parameter store, partial kept."""
    spec = ctx.program.param_spec(ctx.query)
    store = UpdateParams(spec.aggregator, spec.default)
    ctx.program.declare_params(ctx.frag, ctx.query, store)
    _install(ctx, store, audit)
    return None


def op_resume(ctx: WorkerContext, program, query, partial, params, audit):
    """Incremental run: bind the program plus a prior run's state."""
    _bind_program(ctx, program, query)
    return op_set_state(ctx, partial, params, audit)


def op_set_state(ctx: WorkerContext, partial, params, audit):
    """Checkpoint recovery: replace state under the bound program."""
    ctx.partial = partial
    _install(ctx, params, audit)
    ctx.started = True
    return None


def op_get_state(ctx: WorkerContext):
    return ctx.partial, ctx.params


def op_get_partial(ctx: WorkerContext):
    return ctx.partial


def op_apply_effects(ctx: WorkerContext, records):
    """Replay coordinator-side ΔG fragment mutations on this copy."""
    apply_fragment_effects(ctx.frag, records)
    return len(records)


# ----------------------------------------------------------------------
# Superstep compute ops (each ends in ``_reply``: what the engine ships,
# the work charged and the writes audited while computing it)
# ----------------------------------------------------------------------
def op_peval(ctx: WorkerContext):
    """Superstep 0: the program's sequential PEval over the fragment."""
    ctx.partial = ctx.program.peval(ctx.frag, ctx.query, ctx.params)
    ctx.started = True
    return _reply(ctx, "peval")


def op_inceval(ctx: WorkerContext, payloads, locally_active):
    """Apply routed messages M_i, run IncEval if anything moved; the
    reply leads with how many parameters the messages changed.

    Idempotent under the aggregate function (re-applying the same
    payloads and re-running IncEval is safe), which is what lets the
    supervisor retry this op in place after a transient failure.
    """
    changed = ctx.params.apply_columns(payloads)
    if changed or locally_active:
        ctx.partial = ctx.program.inceval(
            ctx.frag, ctx.query, ctx.partial, ctx.params, changed
        )
    return (len(changed), *_reply(ctx, "inceval"))


def op_repair(ctx: WorkerContext, region):
    """Re-derive an invalidated region after unsafe ΔG ops."""
    ctx.partial = ctx.program.repair_partial(
        ctx.frag, ctx.query, ctx.partial, ctx.params, set(region)
    )
    return _reply(ctx, "repair_partial")


def op_update(ctx: WorkerContext, ops):
    """Monotone-safe ΔG repair through ``on_graph_update``."""
    ctx.partial = ctx.program.on_graph_update(
        ctx.frag, ctx.query, ctx.partial, ctx.params, ops
    )
    return _reply(ctx, "on_graph_update")


def op_seed_region(ctx: WorkerContext, ops):
    """Seed + locally close the invalidated region from unsafe ops."""
    seeds = ctx.program.delta_seeds(ctx.frag, ctx.query, ctx.partial, ops)
    check_declaration(ctx.program, ctx.declared, "delta_seeds")
    return op_expand_region(ctx, seeds)


def op_expand_region(ctx: WorkerContext, fresh):
    """Close freshly received invalidated vertices over local deps."""
    region = ctx.program.invalidated_region(
        ctx.frag, ctx.query, ctx.partial, set(fresh)
    )
    check_declaration(ctx.program, ctx.declared, "invalidated_region")
    return region


def op_reship(ctx: WorkerContext):
    """Recovery: re-send every non-default declared border value."""
    store = ctx.params
    for v in store.declared:
        if store.get(v) != store.default:
            store.touch(v)
    return _reply(ctx, "reship")


# ----------------------------------------------------------------------
# Unmetered bookkeeping ops
# ----------------------------------------------------------------------
def op_declare_fresh(ctx: WorkerContext):
    """Declare parameters for border vertices a ΔG batch created."""
    return ctx.params.declare_fresh(ctx.frag)


def op_reset_params(ctx: WorkerContext, region):
    """Reset a region's parameters to the order's top element."""
    return ctx.params.reset(region)


#: Every op a backend may be asked to run, by wire name.
OPS = {
    "bind": op_bind,
    "rebind_params": op_rebind_params,
    "resume": op_resume,
    "set_state": op_set_state,
    "get_state": op_get_state,
    "get_partial": op_get_partial,
    "apply_effects": op_apply_effects,
    "peval": op_peval,
    "inceval": op_inceval,
    "repair": op_repair,
    "update": op_update,
    "seed_region": op_seed_region,
    "expand_region": op_expand_region,
    "reship": op_reship,
    "declare_fresh": op_declare_fresh,
    "reset_params": op_reset_params,
}
