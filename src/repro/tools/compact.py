"""Storage compaction: rewrite the heap, dropping dead space.

Deletes leave free space scattered across pages (crash recovery frees
orphaned slots, but not the pages they sat on). Compaction —
the Domino admin's nightly ``compact`` task — rewrites every live record
into a fresh heap and atomically swaps the files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.storage.bufferpool import BufferPool
from repro.storage.engine import StorageEngine
from repro.storage.pagedfile import PagedFile


@dataclass
class CompactResult:
    """Space accounting for one compaction."""

    keys: int = 0
    pages_before: int = 0
    pages_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def reclaimed_bytes(self) -> int:
        return max(self.bytes_before - self.bytes_after, 0)


def compact_engine(engine: StorageEngine) -> CompactResult:
    """Rewrite ``engine``'s heap in place; returns space accounting.

    The engine remains open and usable afterwards; all keys and values are
    preserved. Uses a copy-compact: live records stream into a scratch
    engine, files swap, state reloads.
    """
    result = CompactResult(
        keys=len(engine),
        pages_before=engine._pages.page_count,
        bytes_before=os.path.getsize(engine._pages.path),
    )
    scratch_path = engine.path + ".compact"
    scratch = StorageEngine(scratch_path, durability="none")
    for key in engine.keys():
        scratch.set(key, engine.get(key))
    scratch._pool.flush_all()
    # The scratch index and free map become the engine's checkpoint.
    snapshot = scratch._snapshot()
    scratch._pages.close()

    # Swap page files; reset the WAL, and the .chk to a fresh base of the
    # compacted state with nothing pending against it.
    engine._pool.drop_all()
    engine._pages.close()
    os.replace(scratch_path + ".pages", engine.path + ".pages")
    for leftover in (scratch_path + ".wal", scratch_path + ".chk"):
        if os.path.exists(leftover):
            os.remove(leftover)
    engine._restore(snapshot)
    engine._write_base()
    if engine._wal is not None:
        engine._wal.truncate()

    engine._pages = PagedFile(engine.path + ".pages")
    engine._pool = BufferPool(
        engine._pages,
        capacity=engine._pool.capacity,
        before_write=engine._wal.flush if engine._wal else None,
    )

    result.pages_after = engine._pages.page_count
    result.bytes_after = os.path.getsize(engine._pages.path)
    return result
