"""Simulated MPI controller: mailboxes, superstep flush, byte metering.

Ranks ``0..n-1`` are workers; rank :data:`~repro.runtime.message.COORDINATOR`
is the coordinator ``P0``. Messages posted during a superstep are
invisible until :meth:`MPIController.flush`, which models the BSP barrier:
it moves outgoing messages into destination inboxes and returns traffic
statistics for the superstep.

Transport integrity (active iff a fault injector is installed — the
plain path is byte-for-byte the original):

* every message carries a per-(src, dst) **sequence number** and a
  **payload checksum** (:func:`~repro.runtime.message.payload_checksum`);
* the sender retains a copy until delivery is confirmed, so a dropped
  or corrupted message is **retransmitted** at the next flush;
* the receiver **dedups** by (src, dst, seq), so injected duplicates
  (and duplicate retransmissions) are applied exactly once;
* a checksum mismatch marks the copy corrupt: it is discarded and the
  retained copy retransmitted — corruption is *detected*, never applied;
* a message still undelivered after ``max_attempts`` flushes raises
  :class:`~repro.errors.TransportError` (persistent drop/corruption is
  a documented failure, not an infinite fixpoint).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EngineRuntimeError, TransportError
from repro.runtime.message import COORDINATOR, Message, payload_checksum


@dataclass(frozen=True)
class TrafficStats:
    """Bytes/messages moved at one flush (one superstep's traffic)."""

    bytes_sent: int
    messages_sent: int
    communicating_pairs: int


class MPIController:
    """In-process stand-in for MPICH2 point-to-point messaging.

    Args:
        num_workers: worker ranks ``0..n-1`` (plus the coordinator).
        injector: optional
            :class:`~repro.runtime.faults.injector.FaultInjector`;
            installing one enables the transport-integrity layer.
        max_attempts: flushes a message may stay undeliverable before
            the controller gives up with a :class:`TransportError`.
    """

    def __init__(
        self,
        num_workers: int,
        injector=None,
        max_attempts: int = 50,
    ) -> None:
        if num_workers < 1:
            raise EngineRuntimeError("cluster needs at least one worker")
        self.num_workers = num_workers
        self._injector = injector
        self._max_attempts = max_attempts
        self._outgoing: list[Message] = []
        self._inboxes: dict[int, list[Message]] = {
            rank: [] for rank in range(num_workers)
        }
        self._inboxes[COORDINATOR] = []
        # Integrity-layer state (unused on the plain path).
        self._next_seq: dict[tuple[int, int], int] = {}
        #: (src, dst, seq) -> [message, attempts]; the sender-side
        #: retention buffer awaiting delivery confirmation.
        self._unacked: dict[tuple[int, int, int], list] = {}
        self._delivered: set[tuple[int, int, int]] = set()

    def _check_rank(self, rank: int) -> None:
        if rank != COORDINATOR and not 0 <= rank < self.num_workers:
            raise EngineRuntimeError(f"invalid rank {rank}")

    def send(self, src: int, dst: int, payload: object) -> Message:
        """Queue a message for delivery at the next flush."""
        self._check_rank(src)
        self._check_rank(dst)
        if self._injector is None:
            msg = Message.make(src, dst, payload)
            self._outgoing.append(msg)
            return msg
        seq = self._next_seq.get((src, dst), 0)
        self._next_seq[(src, dst)] = seq + 1
        msg = Message.make(src, dst, payload, seq=seq, with_checksum=True)
        self._unacked[(src, dst, seq)] = [msg, 0]
        return msg

    def flush(self) -> TrafficStats:
        """Barrier: deliver queued messages; return traffic stats.

        Messages between co-located ranks still count as messages (the
        paper's message counts include them) but intra-worker traffic is
        free of bytes only when src == dst; worker->coordinator and
        cross-worker messages are charged fully.
        """
        if self._injector is None:
            return self._flush_plain()
        return self._flush_with_integrity()

    def _flush_plain(self) -> TrafficStats:
        bytes_sent = 0
        pairs: set[tuple[int, int]] = set()
        count = len(self._outgoing)
        for msg in self._outgoing:
            self._inboxes[msg.dst].append(msg)
            if msg.src != msg.dst:
                bytes_sent += msg.size
                pairs.add((msg.src, msg.dst))
        self._outgoing = []
        return TrafficStats(
            bytes_sent=bytes_sent,
            messages_sent=count,
            communicating_pairs=len(pairs),
        )

    def _flush_with_integrity(self) -> TrafficStats:
        counters = self._injector.counters
        bytes_sent = 0
        count = 0
        pairs: set[tuple[int, int]] = set()
        for key in list(self._unacked):
            entry = self._unacked[key]
            msg, attempts = entry
            if attempts >= self._max_attempts:
                raise TransportError(
                    f"message {msg.src}->{msg.dst} seq={msg.seq} "
                    f"undeliverable after {attempts} attempts "
                    "(persistent drop or corruption on this channel)"
                )
            if attempts > 0:
                counters.retransmissions += 1
            entry[1] = attempts + 1
            copies = self._injector.on_wire(msg)
            # A dropped message still consumed the wire once; duplicates
            # and corrupted copies are charged per copy sent.
            wire_copies = max(1, len(copies))
            if msg.src != msg.dst:
                bytes_sent += msg.size * wire_copies
                pairs.add((msg.src, msg.dst))
            count += wire_copies
            for copy in copies:
                if payload_checksum(copy.payload) != copy.checksum:
                    counters.corruptions_detected += 1
                    continue  # retained copy stays; retransmit next flush
                seq_key = (copy.src, copy.dst, copy.seq)
                if seq_key in self._delivered:
                    counters.duplicates_discarded += 1
                    continue
                self._delivered.add(seq_key)
                self._inboxes[copy.dst].append(copy)
                self._unacked.pop(key, None)  # delivery confirmed
        return TrafficStats(
            bytes_sent=bytes_sent,
            messages_sent=count,
            communicating_pairs=len(pairs),
        )

    def receive(self, rank: int) -> list[Message]:
        """Drain and return the inbox of ``rank``."""
        self._check_rank(rank)
        inbox = self._inboxes[rank]
        self._inboxes[rank] = []
        return inbox

    def pending(self) -> bool:
        """True if any rank has undelivered or queued messages."""
        if self._outgoing or self._unacked:
            return True
        return any(box for box in self._inboxes.values())

    def reset_in_flight(self) -> None:
        """Discard every queued, retained and undelivered message.

        Used by checkpoint recovery: the reloaded state predates all
        in-flight traffic, and re-shipping border values regenerates
        whatever mattered. Sequence counters and the delivered set are
        kept so post-recovery messages can never collide with pre-crash
        ones.
        """
        self._outgoing = []
        self._unacked.clear()
        for rank in self._inboxes:
            self._inboxes[rank] = []

