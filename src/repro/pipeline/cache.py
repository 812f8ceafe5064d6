"""Content-addressed artifact caches.

Keys are SHA-256 hex digests chained over (source text, unit name, stage
name, stage configuration) — see :meth:`Toolchain.compile` — so any
change to the input or to a stage's knobs produces a different key.

Three backends:

* :class:`MemoryCache` — bounded LRU, the default;
* :class:`DiskCache` — pickles under ``~/.cache/repro/`` (or
  ``$REPRO_CACHE_DIR``), content-addressed by key, written atomically;
* :class:`TieredCache` — memory in front of disk, promoting disk hits.

All backends are thread-safe: the long-lived service front end
(:mod:`repro.service`) shares one cache across concurrent request
threads, so the LRU bookkeeping and the hit/miss counters are guarded by
a per-cache lock.  Disk entries need no lock beyond the counters — they
are written atomically (temp file + ``os.replace``) already.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional

from .artifacts import Artifact

__all__ = [
    "ArtifactCache", "DiskCache", "MemoryCache", "TieredCache",
    "default_cache_dir",
]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ArtifactCache:
    """Backend interface plus thread-safe hit/miss accounting."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Artifact]:
        raise NotImplementedError

    def put(self, key: str, artifact: Artifact) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Make every accepted ``put`` durable.  All shipped backends
        write through synchronously, so this is a no-op hook; the service
        front end calls it during graceful drain so a buffering backend
        would slot in without changes."""

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}


class MemoryCache(ArtifactCache):
    """Bounded in-process LRU over artifacts."""

    def __init__(self, capacity: int = 512) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Artifact]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Artifact]:
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return artifact

    def put(self, key: str, artifact: Artifact) -> None:
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


class DiskCache(ArtifactCache):
    """Pickle-per-artifact store under a cache directory.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` and are written via a
    temp file + ``os.replace`` so concurrent writers (parallel batch
    workers sharing the directory) never expose partial files.  Unreadable
    or corrupt entries are treated as misses and removed best-effort.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        super().__init__()
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _drop(self, path: Path) -> None:
        """Best-effort removal of a bad entry so it is not retried."""
        try:
            path.unlink()
        except OSError:
            pass

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1

    def get(self, key: str) -> Optional[Artifact]:
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                artifact = pickle.load(f)
        # Unpickling arbitrary corrupt bytes can raise nearly anything
        # (UnpicklingError, ValueError, EOFError, ImportError, a payload's
        # own DecodeError, ...); any unreadable entry is simply a miss.
        except Exception:
            if path.exists():
                self._drop(path)
            self._miss()
            return None
        if not isinstance(artifact, Artifact):
            # Readable pickle, wrong shape (stale schema or foreign file).
            self._drop(path)
            self._miss()
            return None
        with self._lock:
            self.hits += 1
        return artifact

    def put(self, key: str, artifact: Artifact) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(artifact, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # a read-only or full cache dir must never fail a compile

    # -- size accounting and bounded growth --------------------------------

    def _entries(self):
        """(path, mtime, bytes) for every entry currently on disk."""
        rows = []
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return rows
        for shard in shards:
            try:
                for path in shard.glob("*.pkl"):
                    st = path.stat()
                    rows.append((path, st.st_mtime, st.st_size))
            except OSError:
                continue  # shard vanished or unreadable: nothing to count
        return rows

    def usage(self) -> Dict[str, int]:
        """``{"entries": n, "bytes": total}`` for the on-disk store."""
        rows = self._entries()
        return {"entries": len(rows), "bytes": sum(r[2] for r in rows)}

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict oldest-mtime entries until the store fits ``max_bytes``.

        A long-lived server calls this periodically (and on graceful
        drain) so the warm store cannot fill the disk.  Keys are
        content-addressed, so eviction is always safe — at worst an
        evicted unit recompiles.  Returns removed/kept entry and byte
        counts.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        rows = sorted(self._entries(), key=lambda r: (r[1], r[0].name))
        total = sum(r[2] for r in rows)
        removed_entries = removed_bytes = 0
        for path, _, size in rows:
            if total <= max_bytes:
                break
            self._drop(path)
            total -= size
            removed_entries += 1
            removed_bytes += size
        return {
            "removed_entries": removed_entries,
            "removed_bytes": removed_bytes,
            "kept_entries": len(rows) - removed_entries,
            "kept_bytes": total,
        }


class TieredCache(ArtifactCache):
    """Memory LRU in front of a disk backend; disk hits are promoted."""

    def __init__(self, memory: MemoryCache, disk: DiskCache) -> None:
        super().__init__()
        self.memory = memory
        self.disk = disk

    def get(self, key: str) -> Optional[Artifact]:
        artifact = self.memory.get(key)
        if artifact is None:
            artifact = self.disk.get(key)
            if artifact is not None:
                self.memory.put(key, artifact)
        with self._lock:
            if artifact is None:
                self.misses += 1
            else:
                self.hits += 1
        return artifact

    def put(self, key: str, artifact: Artifact) -> None:
        self.memory.put(key, artifact)
        self.disk.put(key, artifact)

    def flush(self) -> None:
        self.memory.flush()
        self.disk.flush()
