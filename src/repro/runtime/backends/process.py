"""The multiprocessing backend: one OS process per fragment.

Each worker process receives its fragment once, pickled, at startup and
keeps it (plus the bound program, parameter store and partial answer)
for its whole life — the paper's "fragment lives on its worker" data
placement. Per superstep the coordinator sends every worker exactly one
pipe message carrying its whole op chunk (op + routed message payloads)
and receives exactly one reply (results + an activity flag + measured
compute seconds), so IPC cost is two messages per worker per superstep
regardless of how much border traffic the superstep routes.

Determinism: workers run the same op functions as the simulator on the
same inputs, replies are gathered in worker-id order, and under
``CostModel(deterministic=True)`` workers report zero elapsed compute —
so metrics, traces and answers are byte-identical to the simulated
backend (the oracle property suite locks this down). Outside
deterministic mode the reply carries real perf-counter seconds, which
the cluster meters instead of parent wall time.

Not supported here (simulator-only, by design): fault injection, which
needs in-process workers. The monotonicity audit runs worker-side like
everything else: a strict violation raises where the write happens and
comes home on the ``"err"`` reply.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Callable, Sequence

from repro.errors import EngineRuntimeError, ProgramError
from repro.graph.fragment import FragmentedGraph
from repro.runtime.backends.base import ExecutionBackend, WorkerCall
from repro.runtime.backends.ops import OPS, WorkerContext, probe_active

#: How to make `peval`/`inceval` pickle failures actionable.
_PICKLE_HINT = (
    "run `grape lint` — the GRP5xx pickle-safety rules locate program "
    "state (lambdas, local closures, open handles) that cannot cross "
    "a process boundary"
)

#: Seconds between liveness checks while waiting on a worker's reply.
_POLL_INTERVAL = 0.1


def _worker_main(conn, wid: int, frag_bytes: bytes, deterministic: bool):
    """Worker process loop: apply op chunks to the owned context."""
    ctx = WorkerContext(wid, pickle.loads(frag_bytes))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "exit":
            conn.close()
            return
        chunk = msg[1]
        results: list[object] = []
        error: BaseException | None = None
        start = 0.0 if deterministic else time.perf_counter()
        for op, args in chunk:
            try:
                results.append(OPS[op](ctx, **args))
            except BaseException as exc:  # shipped to the coordinator
                error = exc
                break
        elapsed = 0.0 if deterministic else time.perf_counter() - start
        try:
            active = probe_active(ctx)
        except Exception:
            active = False
        if error is not None:
            try:
                conn.send(("err", error, active, elapsed))
            except Exception:
                conn.send(
                    (
                        "err",
                        EngineRuntimeError(
                            f"worker {wid} failed in op "
                            f"{op!r}: {type(error).__name__}: {error} "
                            "(original exception is not picklable)"
                        ),
                        active,
                        elapsed,
                    )
                )
            continue
        try:
            conn.send(("ok", results, active, elapsed))
        except Exception as exc:
            conn.send(
                (
                    "err",
                    EngineRuntimeError(
                        f"worker {wid}: result of op {op!r} is not "
                        f"picklable ({exc}); {_PICKLE_HINT}"
                    ),
                    active,
                    elapsed,
                )
            )


class ProcessBackend(ExecutionBackend):
    """Real parallel execution on a pool of fragment-owning processes."""

    name = "process"

    def __init__(
        self,
        fragmented: FragmentedGraph,
        deterministic: bool = True,
    ) -> None:
        super().__init__(fragmented)
        self.deterministic = deterministic
        self.measures_wall = not deterministic
        # fork inherits the parent's hash seed, keeping set/dict
        # iteration byte-identical across the boundary; spawn is the
        # portable fallback.
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._procs: list | None = None
        self._conns: list = []
        #: replies owed per worker (drained before new dispatch after an
        #: aborted gather, so one failed superstep cannot desync pipes).
        self._owed: list[int] = []
        self._active: list[bool] = [False] * self.num_workers
        self._closed = False

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._closed:
            raise EngineRuntimeError("ProcessBackend already closed")
        if self._procs is not None:
            return
        procs, conns = [], []
        for frag in self.fragmented.fragments:
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    frag.fid,
                    pickle.dumps(frag, protocol=pickle.HIGHEST_PROTOCOL),
                    self.deterministic,
                ),
                name=f"grape-worker-{frag.fid}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        self._procs = procs
        self._conns = conns
        self._owed = [0] * self.num_workers

    def close(self) -> None:
        """Terminate the worker pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._procs is None:
            return
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs = None
        self._conns = []

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _send_chunk(self, wid: int, chunk: list[tuple]) -> None:
        self._drain(wid)
        try:
            self._conns[wid].send(("call", chunk))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            ops = ", ".join(op for op, _ in chunk)
            raise ProgramError(
                f"cannot ship ops [{ops}] to worker {wid}: arguments are "
                f"not picklable ({exc}); {_PICKLE_HINT}"
            ) from exc
        self._owed[wid] += 1

    def _recv(self, wid: int) -> tuple:
        conn = self._conns[wid]
        proc = self._procs[wid]
        while not conn.poll(_POLL_INTERVAL):
            if not proc.is_alive():
                self._owed[wid] = 0
                raise EngineRuntimeError(
                    f"worker process {wid} died (exit code "
                    f"{proc.exitcode}) before replying"
                )
        reply = conn.recv()
        self._owed[wid] -= 1
        status, payload, active, elapsed = reply
        self._active[wid] = active
        return status, payload, elapsed

    def _drain(self, wid: int) -> None:
        """Discard replies left over from an aborted gather."""
        while self._owed[wid] > 0:
            self._recv(wid)

    def _gather(self, order: list[int]) -> dict[int, list[object]]:
        """Collect one reply per worker in the given order; raise errors.

        On a worker error the remaining owed replies are still drained
        (keeping every pipe aligned) before the error is re-raised, so
        the pool survives a failed run and serves the next one.
        """
        results: dict[int, list[object]] = {}
        error: BaseException | None = None
        for wid in order:
            try:
                status, payload, _ = self._recv(wid)
            except EngineRuntimeError as exc:
                error = error or exc
                continue
            if status == "err":
                error = error or payload
                continue
            if error is None:
                results[wid] = payload
        if error is not None:
            raise error
        return results

    # ------------------------------------------------------------------
    # ExecutionBackend primitives
    # ------------------------------------------------------------------
    def execute(
        self,
        step,
        supervisor,
        calls: Sequence[WorkerCall],
        on_result: Callable[[int, object], None] | None = None,
    ) -> dict[int, object]:
        self._ensure_started()
        order: list[int] = []
        for call in calls:
            if call.wid in order:
                raise EngineRuntimeError(
                    "ProcessBackend.execute: one op per worker per "
                    f"superstep (worker {call.wid} appears twice)"
                )
            order.append(call.wid)
            self._send_chunk(call.wid, [(call.op, call.args)])
        tracer = getattr(step, "tracer", None)
        results: dict[int, object] = {}
        error: BaseException | None = None
        for wid in order:
            if tracer is not None:
                tracer.compute_begin(wid)
            try:
                status, payload, elapsed = self._recv(wid)
            except EngineRuntimeError as exc:
                if tracer is not None:
                    tracer.compute_end(wid, ok=False)
                error = error or exc
                continue
            if status == "err":
                if tracer is not None:
                    tracer.compute_end(wid, ok=False)
                error = error or payload
                continue
            step.charge(wid, elapsed)
            if tracer is not None:
                tracer.compute_end(wid, ok=True)
            if error is None:
                value = payload[0]
                results[wid] = value
                if on_result is not None:
                    on_result(wid, value)
        if error is not None:
            raise error
        return results

    def invoke_all(
        self, calls: Sequence[WorkerCall]
    ) -> dict[int, list[object]]:
        self._ensure_started()
        chunks: dict[int, list[tuple]] = {}
        for call in calls:
            chunks.setdefault(call.wid, []).append((call.op, call.args))
        for wid, chunk in chunks.items():
            self._send_chunk(wid, chunk)
        return self._gather(list(chunks))

    def is_active(self, wid: int) -> bool:
        # Piggybacked on every reply: the worker probes its own program
        # after each chunk, so no extra IPC round is needed here.
        return self._active[wid]

    def sync_effects(self, effects: dict[int, list]) -> None:
        if not effects:
            return
        if self._procs is None and not self._closed:
            # Workers not started yet: they will pickle the already-
            # mutated fragments at startup.
            return
        self.invoke_all(
            [
                WorkerCall(fid, "apply_effects", {"records": records})
                for fid, records in sorted(effects.items())
                if records
            ]
        )
