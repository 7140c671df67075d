"""Admission control and scheduling for the query-serving layer.

The scheduler is deliberately simple and fully deterministic:

* a **bounded admission queue** — submissions beyond ``capacity`` are
  shed with a typed :class:`~repro.errors.ServiceOverloadedError`
  (backpressure instead of unbounded memory growth);
* **per-class priorities** — each request carries a small integer
  priority (lower = more urgent, default :data:`DEFAULT_PRIORITY`);
  dispatch order is ``(priority, seq)``, i.e. strict priority with FIFO
  within a class;
* **bounded concurrency** — :class:`LaneClock` models ``concurrency``
  simulated worker lanes; a drained request starts on the earliest free
  lane, so latency = queue wait + run cost in simulated seconds.

All times are simulated (derived from the engine's cost model), never
wall-clock, so every latency percentile in the report is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServiceOverloadedError

#: Priority assigned when a client does not ask for one (lower = sooner).
DEFAULT_PRIORITY = 5


@dataclass
class QueryRequest:
    """One admitted query, waiting to be dispatched."""

    seq: int
    query_class: str
    params: dict
    client: str = "anon"
    priority: int = DEFAULT_PRIORITY
    #: Simulated service time at admission (latency is measured from here).
    submit_time: float = 0.0
    #: Cache key at the admission version; None when the params cannot
    #: be canonicalized (cache bypassed).
    key: tuple | None = None

    @property
    def order_key(self) -> tuple[int, int]:
        """Dispatch order: strict priority, FIFO within a priority."""
        return (self.priority, self.seq)


@dataclass
class LaneClock:
    """``concurrency`` simulated worker lanes with per-lane free times."""

    concurrency: int
    free_at: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if not self.free_at:
            self.free_at = [0.0] * self.concurrency

    def start(self, ready_at: float) -> tuple[int, float]:
        """Earliest lane and start time for work ready at ``ready_at``."""
        lane = min(range(len(self.free_at)), key=self.free_at.__getitem__)
        return lane, max(self.free_at[lane], ready_at)

    def occupy(self, lane: int, until: float) -> None:
        """Mark ``lane`` busy until simulated time ``until``."""
        self.free_at[lane] = until

    def busy_at(self, now: float) -> int:
        """Lanes still executing at simulated time ``now``.

        Admission control counts these toward the service's load: a
        query on a lane consumes capacity just as surely as one waiting
        in the queue.
        """
        return sum(1 for free in self.free_at if free > now)

    @property
    def horizon(self) -> float:
        """When every lane is free again (the drain's finish time)."""
        return max(self.free_at)


class AdmissionQueue:
    """Bounded priority queue in front of the service."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._pending: list[QueryRequest] = []
        self._next_seq = 0
        #: High-water mark of the queue depth (for the report).
        self.max_depth = 0
        #: Requests shed by backpressure.
        self.rejected = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        return len(self._pending)

    def next_seq(self) -> int:
        """Allocate the next admission sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def admit(self, request: QueryRequest, in_flight: int = 0) -> None:
        """Enqueue ``request`` or shed it with a typed overload error.

        ``in_flight`` counts requests already dispatched onto lanes but
        not yet finished at submit time; they occupy service capacity
        exactly like queued ones, so the bound applies to the sum.
        """
        if len(self._pending) + in_flight >= self.capacity:
            self.rejected += 1
            raise ServiceOverloadedError(
                f"admission queue full ({len(self._pending)} pending + "
                f"{in_flight} in flight / {self.capacity}); request "
                f"{request.query_class!r} from {request.client!r} shed — "
                "drain the service or raise max_pending",
                queue_depth=len(self._pending) + in_flight,
                capacity=self.capacity,
            )
        self._pending.append(request)
        self.max_depth = max(self.max_depth, len(self._pending))

    def take_all(self) -> list[QueryRequest]:
        """Remove and return every pending request in dispatch order."""
        batch = sorted(self._pending, key=lambda r: r.order_key)
        self._pending.clear()
        return batch
