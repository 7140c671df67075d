"""Superstep checkpointing — fault tolerance for long fixed points.

BSP systems (and GRAPE's prototype) checkpoint at superstep barriers so
a worker failure costs only the rounds since the last checkpoint. The
simulated counterpart: a :class:`CheckpointPolicy` tells the engine to
persist its :class:`~repro.core.delta.EngineState` to the
simulated DFS every N IncEval rounds; after a (simulated) crash, the
engine's supervisor recovers *in-run* — and a dead process can be
revived manually via ``GrapeEngine.resume_from_checkpoint`` — by
reloading the newest snapshot and **re-shipping every border variable's
current value**. For monotone PIE programs re-delivery is idempotent
under the aggregate function, so the fixed point re-converges without
having captured in-flight messages — the reason checkpoint-at-barrier
is so cheap for this model.

Snapshots use pickle (trusted local storage, not a wire format). They
carry no trace of whether the run that wrote them was checked: the
monotonicity audit belongs to the engine that installs a state, which
arms it (or not) from its own ``check_monotonic`` on every reload.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.core.delta import EngineState
from repro.errors import StorageError
from repro.storage.dfs import SimulatedDFS


@dataclass
class CheckpointPolicy:
    """Where and how often to checkpoint.

    Attributes:
        dfs: the simulated DFS to persist into.
        every: checkpoint after every ``every`` IncEval rounds.
        tag: namespace for this computation's snapshots.
        keep: retain only the newest ``keep`` snapshots (None = all);
            ``save`` prunes older ones so long fixpoints don't grow the
            DFS unboundedly.
    """

    dfs: SimulatedDFS
    every: int = 5
    tag: str = "default"
    keep: int | None = None

    def _dir(self) -> str:
        return f"checkpoints/{self.tag}"

    def _path(self, round_index: int) -> str:
        return f"{self._dir()}/round-{round_index:06d}.pkl"

    def save(self, round_index: int, state: EngineState) -> str:
        """Persist a snapshot (pruning per ``keep``); returns its DFS path."""
        path = self._path(round_index)
        self.dfs.put(path, pickle.dumps(state))
        self.dfs.put_json(
            f"{self._dir()}/latest.json", {"round": round_index, "path": path}
        )
        if self.keep is not None and self.keep > 0:
            for stale in self.rounds_saved()[: -self.keep]:
                self.dfs.delete(self._path(stale))
        return path

    def load_latest(self) -> tuple[int, EngineState]:
        """Load the newest snapshot; StorageError if none exists.

        The ``latest.json`` pointer is an optimization, not the source
        of truth: if it is missing, torn, or names a vanished blob, the
        newest ``round-*.pkl`` on the DFS wins (the write of a snapshot
        precedes the pointer update, so the newest file is always a
        complete snapshot).
        """
        meta_path = f"{self._dir()}/latest.json"
        try:
            meta = self.dfs.get_json(meta_path)
            blob = self.dfs.get(meta["path"])  # type: ignore[index]
            return int(meta["round"]), pickle.loads(blob)  # type: ignore[index]
        except Exception:  # noqa: BLE001 — any torn pointer falls back
            pass
        rounds = self.rounds_saved()
        if not rounds:
            raise StorageError(f"no checkpoint under tag {self.tag!r}")
        newest = rounds[-1]
        return newest, pickle.loads(self.dfs.get(self._path(newest)))

    def rounds_saved(self) -> list[int]:
        """Round indices with stored snapshots, ascending."""
        out = []
        for name in self.dfs.listdir(self._dir()):
            if name.startswith("round-") and name.endswith(".pkl"):
                out.append(int(name[len("round-"):-len(".pkl")]))
        return sorted(out)
