"""Fixed-point termination bookkeeping for the GRAPE engine.

The coordinator terminates when every worker is inactive — done with
local computation and with no remaining change to any update parameter
(Section 2.2(3)). The engine's ``_fixpoint`` makes that test itself (no
mail pending, no worker locally active); what lives here is the round
counter and the superstep cap that guards against non-monotonic
programs that would never reach a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EngineRuntimeError

#: IncEval rounds a run may record before it is declared non-terminating.
MAX_SUPERSTEPS = 10_000


@dataclass
class FixpointGuard:
    """Counts IncEval rounds and enforces the superstep cap."""

    rounds: int = 0

    def record_round(self) -> None:
        """Record one completed IncEval round."""
        self.rounds += 1
        if self.rounds > MAX_SUPERSTEPS:
            raise EngineRuntimeError(
                f"no fixed point after {MAX_SUPERSTEPS} supersteps; "
                "is the plugged-in program monotonic?"
            )

    def rewind(self, to_round: int) -> int:
        """Roll the counter back to ``to_round`` (checkpoint recovery).

        Returns the number of recorded rounds discarded — the work lost
        to the crash. The superstep cap keeps counting from the rewound
        position, so a fault schedule that keeps killing re-executions
        still terminates.
        """
        lost = max(0, self.rounds - to_round)
        self.rounds -= lost
        return lost
