"""A directory-backed simulated distributed file system.

Files live under ``root/<namespace>/...``. Only the interface the
engine needs is implemented: put/get bytes, JSON round-trip, listing
and deletion.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import StorageError


class SimulatedDFS:
    """Minimal DFS facade over a local directory tree."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _resolve(self, path: str) -> Path:
        clean = path.strip("/")
        if not clean or ".." in clean.split("/"):
            raise StorageError(f"invalid DFS path {path!r}")
        return self.root / clean

    def put(self, path: str, data: bytes) -> None:
        """Write ``data`` to ``path``, creating parents."""
        target = self._resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)

    def get(self, path: str) -> bytes:
        """Bytes stored at ``path`` (StorageError if absent)."""
        target = self._resolve(path)
        if not target.is_file():
            raise StorageError(f"DFS file not found: {path}")
        return target.read_bytes()

    def put_json(self, path: str, obj: object) -> None:
        """Write ``obj`` as JSON to ``path``."""
        self.put(path, json.dumps(obj).encode("utf-8"))

    def get_json(self, path: str) -> object:
        """Read and parse JSON from ``path``."""
        return json.loads(self.get(path).decode("utf-8"))

    def exists(self, path: str) -> bool:
        """Whether ``path`` names a stored file."""
        return self._resolve(path).is_file()

    def delete(self, path: str) -> bool:
        """Remove ``path`` if present; True when removed."""
        target = self._resolve(path)
        if target.is_file():
            target.unlink()
            return True
        return False

    def listdir(self, path: str = "") -> list[str]:
        """Sorted names under ``path`` (empty if absent)."""
        target = self.root / path.strip("/") if path.strip("/") else self.root
        if not target.is_dir():
            return []
        return sorted(p.name for p in target.iterdir())
