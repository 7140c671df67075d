"""Messages exchanged through the simulated MPI controller."""

from __future__ import annotations

import pickle
import zlib
from typing import NamedTuple

from repro.utils.sizeof import message_size

#: Rank of the coordinator P0 in the simulated cluster.
COORDINATOR = -1


def payload_checksum(payload: object) -> int:
    """CRC32 over the payload's canonical byte encoding.

    Used by the transport-integrity layer: the sender stamps the
    checksum at :meth:`Message.make` time, the receiver recomputes it at
    delivery, and a mismatch exposes in-flight corruption before the
    payload can reach an update-parameter store. Pickle is stable for
    the same objects within one process, which is the only comparison
    the simulated cluster ever makes.
    """
    return zlib.crc32(pickle.dumps(payload, protocol=4))


class Message(NamedTuple):
    """One point-to-point message with its accounted wire size.

    ``seq`` and ``checksum`` are only populated when the transport
    integrity layer is active (a fault injector is installed): ``seq``
    is the per-(src, dst) channel sequence number used for exactly-once
    delivery, ``checksum`` the sender-side payload CRC.
    """

    src: int
    dst: int
    payload: object
    size: int = 0
    seq: int | None = None
    checksum: int | None = None

    @staticmethod
    def make(
        src: int,
        dst: int,
        payload: object,
        seq: int | None = None,
        with_checksum: bool = False,
    ) -> "Message":
        """Build a message, computing its wire size (and checksum) once."""
        return Message(
            src,
            dst,
            payload,
            message_size(payload),
            seq,
            payload_checksum(payload) if with_checksum else None,
        )
