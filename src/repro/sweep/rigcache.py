"""Disk-backed second level for the rig-level static-configuration memo.

The in-process memo in :mod:`repro.bitstream.generator` makes repeated rig
builds free *within* one process; sweep workers are separate processes, so
each would regenerate the same static image from scratch.  This cache
persists the memoized entries as ``.npz`` files, letting a cold worker
restore a rig's configuration memory with one array load.

An entry's file name is a SHA-256 over the memo key (device, region,
seed) and the package sources hash (:func:`repro.sweep.cache.sources_hash`)
— the same fence as the result cache, so any package edit, the npz layout
below included, turns every entry into a miss.

Same recovery policy as the result cache: a corrupted or truncated entry
is deleted and treated as a miss — the cache is always rebuildable, so
loading never raises.

Install on the generator with::

    from repro.bitstream import generator
    from repro.sweep.rigcache import RigCache

    generator.set_rig_cache(RigCache(cache_dir / "rigs"))

The setter indirection keeps the dependency pointing sweep -> bitstream,
never the other way around.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .cache import sources_hash
from .results_io import ensure_dir, write_atomically


class RigCache:
    """``key -> (frame data, written mask, write count)`` on disk."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.loads = 0
        self.stores = 0
        self.invalidations = 0

    def entry_path(self, key: str) -> Path:
        """Where the entry for memo ``key`` lives under the current sources."""
        name = hashlib.sha256(f"{sources_hash()}\n{key}".encode("utf-8")).hexdigest()
        return self.root / f"{name}.npz"

    def load(self, key: str) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        path = self.entry_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as bundle:
                data = np.asarray(bundle["data"], dtype=np.uint32)
                written = np.asarray(bundle["written"], dtype=bool)
                writes = int(bundle["writes"])
        except Exception:  # repro: noqa LINT007 (any corruption flavour means miss)
            # Corruption-as-miss: drop the entry and regenerate.
            self.invalidations += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.loads += 1
        return data, written, writes

    def store(self, key: str, data: np.ndarray, written: np.ndarray, writes: int) -> None:
        ensure_dir(self.root)
        try:
            write_atomically(self.entry_path(key), lambda handle: np.savez_compressed(
                handle, data=data, written=written, writes=np.int64(writes)))
        except OSError:
            return
        self.stores += 1
