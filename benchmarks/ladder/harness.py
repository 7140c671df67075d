"""Deployments, replays and the span recorder.

One replay = one fresh deployment (``Session`` + engine, or ``Session``
+ ``GrapeService``), the cold query, then every operation of the
schedule, each timed around one public call. The recorder, when given,
wraps bound methods on the live objects so the same replay also yields
per-layer spans; without it nothing is wrapped and nothing but two
``perf_counter`` reads surrounds a call.
"""

from __future__ import annotations

import gc
from collections import Counter
from time import perf_counter

from repro.core.delta import GraphDelta
from repro.engineapi.query import build_query
from repro.engineapi.session import Session
from repro.errors import ServiceOverloadedError
from repro.obs import Tracer
from repro.service import GrapeService

from benchmarks.ladder.verify import DETERMINISTIC, program_for

#: Recorder op ids: the cold query's setup, then 0.. for the schedule.
SETUP = -1

BACKEND_CALLS = (
    "bind",
    "execute",
    "invoke_all",
    "resume",
    "pull_state",
    "push_state",
    "sync_effects",
)
PROGRAM_CALLS = ("peval", "inceval", "assemble")
ENGINE_CALLS = ("run", "run_incremental", "apply_delta")
SERVICE_CALLS = ("submit", "drain", "apply_updates", "report")


class Recorder:
    """In-memory spans: ``[name, start, end, parent index, op id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: span index -> (RunMetrics, repair stats) of an engine run; the
        #: answers are not kept alive.
        self.results: dict[int, tuple] = {}
        self.op = SETUP
        self._open: list[int] = []

    def traced(self, name: str, fn, keep: bool = False):
        """``fn`` wrapped in a span named ``name``; ``keep`` its result's
        counters (``fn`` then returns a ``GrapeResult``)."""
        spans, open_ = self.spans, self._open

        def call(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op]
            spans.append(span)
            open_.append(index)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if keep:
                self.results[index] = (out.metrics, out.repair)
            return out

        return call

    def wrap(self, obj, layer: str, names, keep=()) -> None:
        """Shadow ``obj``'s bound methods with traced ones, in place."""
        for name in names:
            setattr(
                obj,
                name,
                self.traced(f"{layer}.{name}", getattr(obj, name), name in keep),
            )


def timed(rec: Recorder | None, name: str, fn, *args, **kwargs):
    """``(seconds, result)`` of one call; a root span when recording."""
    if rec is not None:
        fn = rec.traced(name, fn)
    start = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - start, out


# ----------------------------------------------------------------------
# Deployments
# ----------------------------------------------------------------------
def _session(spec, graph) -> Session:
    return Session(
        graph,
        num_workers=spec.fragments,
        partition=spec.partition,
        cost_model=DETERMINISTIC,
        backend=spec.backend,
        store=spec.store,
        mode=spec.mode,
        tracer=Tracer() if spec.obs_tracer else None,
    )


class EngineDeployment:
    """A Session; every op runs on a fresh engine, as ``Session.run`` does.

    The ΔG batches repair the cold query's kept state. A fresh engine per
    op also means a fresh repair policy per op: the scoped-vs-restart
    choice is the static cold-start one and cannot drift with history.
    """

    #: What only a served deployment has to tell.
    from_cache: tuple = ()
    report = None

    def __init__(self, spec, graph, schedule, rec: Recorder | None) -> None:
        self.session = _session(spec, graph)
        self.rec = rec
        n = graph.num_vertices
        self.programs = {
            cls: program_for(cls, n)
            for cls in {schedule.cold.cls, *(op.cls for op in schedule.ops)}
            if cls
        }
        if rec is not None:
            rec.wrap(self.session.backend, "runtime.backends", BACKEND_CALLS)
            if spec.backend == "simulated":  # a traced program cannot be pickled
                for program in self.programs.values():
                    rec.wrap(program, "algorithms", PROGRAM_CALLS)
        cold = schedule.cold
        self.kept = (cold.cls, cold.args, build_query(cold.cls, **cold.args))
        result = self._engine().run(
            self.programs[cold.cls], self.kept[2], keep_state=True
        )
        self.state = result.state
        self.cold_answer = result.answer

    def _engine(self):
        engine = self.session.engine()
        if self.rec is not None:
            self.rec.wrap(engine, "core.engine", ENGINE_CALLS, keep=ENGINE_CALLS[:2])
        return engine

    @property
    def fragmented(self):
        return self.session.fragmented

    def prepare(self, op):
        """The public call of ``op`` with its inputs built, off the clock."""
        if op.kind == "query":
            return (
                self._engine().run,
                (self.programs[op.cls], build_query(op.cls, **op.args)),
                {},
            )
        cls, _, query = self.kept
        return (
            self._engine().run_incremental,
            (self.programs[cls], query, self.state, GraphDelta.from_dict(op.args)),
            {},
        )

    def finish(self, op, result):
        """A query's answer, or an update's kept-answer map."""
        if op.kind == "query":
            return result.answer
        self.state = result.state
        cls, params, _ = self.kept
        return {cls: (cls, params, result.answer)}

    def close(self) -> None:
        self.session.close()


class ServiceDeployment:
    """Session + GrapeService with its standing queries registered."""

    def __init__(self, spec, graph, schedule, rec: Recorder | None) -> None:
        self.session = _session(spec, graph)
        if rec is not None:
            engine = self.session.engine()
            rec.wrap(self.session.backend, "runtime.backends", BACKEND_CALLS)
            rec.wrap(engine, "core.engine", ENGINE_CALLS, keep=ENGINE_CALLS[:2])
            # the service asks its session for the engine it will drive
            self.session.engine = lambda: engine
        self.service = GrapeService(self.session, **spec.service)
        if rec is not None:
            rec.wrap(self.service, "service", SERVICE_CALLS)
        self.standing = {
            name: (cls, params) for name, cls, params in schedule.standing
        }
        for name, (cls, params) in self.standing.items():
            self.service.register_standing(name, cls, params)
        cold = schedule.cold
        self.cold_answer = self.service.query(cold.cls, cold.args).answer
        #: Per steady query: whether the cache answered it.
        self.from_cache: list[bool] = []

    @property
    def fragmented(self):
        return self.session.fragmented

    def prepare(self, op):
        if op.kind == "query":
            return self.service.query, (op.cls, op.args), {}
        batch = op.args
        return (
            self.service.apply_updates,
            (),
            {
                "edges": [tuple(e) for e in batch["insert"]],
                "deletes": [tuple(e) for e in batch["delete"]],
                "reweights": [tuple(e) for e in batch["reweight"]],
            },
        )

    def finish(self, op, result):
        if op.kind == "query":
            self.from_cache.append(result.from_cache)
            return result.answer
        return {
            name: (*self.standing[name], answer)
            for name, answer in result.repaired.items()
        }

    def close(self) -> None:
        self.report = self.service.report()
        self.session.close()


def deploy(spec, graph, schedule, rec):
    kind = ServiceDeployment if spec.service is not None else EngineDeployment
    return kind(spec, graph, schedule, rec)


# ----------------------------------------------------------------------
# One replay
# ----------------------------------------------------------------------
class Replay:
    """What one replay measured."""

    def __init__(self, rec: Recorder | None) -> None:
        self.rec = rec
        self.setup_s: float | None = None
        #: Seconds per schedule op; None where the op failed.
        self.times: list[float | None] = []
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: list[str] = []
        self.from_cache: list[bool] = []
        self.report = None

    def fail(self, phase: str, why: str) -> None:
        self.failed[phase] += 1
        if len(self.errors) < 5:
            self.errors.append(f"{phase}: {why}")


def replay(spec, graph, schedule, judge, rec=None, machine=None) -> Replay:
    """Run the schedule once on a fresh deployment; judge every answer.

    ``rec`` records spans; ``machine`` (``probes.Machine``) is told about
    every timed call and may hold one back until the box runs fast.
    """
    log = Replay(rec)
    if spec.service is not None:
        graph = graph.copy()  # the service mutates its master graph
    gc.collect()
    log.attempted["setup"] += 1
    before = machine.before(SETUP) if machine else None
    try:
        log.setup_s, dep = timed(rec, "setup", deploy, spec, graph, schedule, rec)
    except Exception as exc:  # a deployment that cannot start fails every op
        log.fail("setup", repr(exc))
        for op in schedule.ops:
            log.attempted[op.kind] += 1
            log.fail(op.kind, "no deployment")
            log.times.append(None)
        return log
    if machine:
        machine.after(SETUP, before)
    try:
        if not judge.query(SETUP, schedule.cold, dep.cold_answer):
            log.fail("setup", "cold answer fails verification")
        previous = None
        for i, op in enumerate(schedule.ops):
            new_phase = spec.service is None and op.kind != previous
            if i == 0 or new_phase:
                gc.collect()  # once before each phase; GC stays enabled
            previous = op.kind
            log.attempted[op.kind] += 1
            fn, args, kwargs = dep.prepare(op)
            if rec is not None:
                rec.op = i
            before = machine.before(i) if machine else None
            try:
                seconds, out = timed(rec, f"op.{op.kind}", fn, *args, **kwargs)
            except ServiceOverloadedError:
                log.fail(op.kind, "shed")
                log.times.append(None)
                continue
            except Exception as exc:
                log.fail(op.kind, repr(exc))
                log.times.append(None)
                continue
            if machine:
                machine.after(i, before)
            answer = dep.finish(op, out)
            if op.kind == "query":
                ok = judge.query(i, op, answer)
            else:
                ok = judge.update(i, op, answer, dep.fragmented)
            if not ok:
                log.fail(op.kind, f"op {i} answer fails verification")
                seconds = None
            log.times.append(seconds)
    finally:
        if rec is not None:
            rec.op = len(schedule.ops)
        dep.close()
    log.from_cache = dep.from_cache
    log.report = dep.report
    return log
