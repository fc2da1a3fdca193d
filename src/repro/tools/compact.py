"""Storage compaction: rewrite the heap, dropping dead space.

Deletes leave free space scattered across pages (crash recovery frees
orphaned slots, but not the pages they sat on). Compaction — the Domino
admin's nightly ``compact`` task — is :meth:`StorageEngine.compact`; this
module adds the space accounting around it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.storage.engine import StorageEngine


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
    """Compact ``engine``'s heap in place; returns space accounting.

    The engine remains open and usable afterwards; all keys and values are
    preserved.
    """
    pages_path = engine.path + ".pages"
    result = CompactResult(
        keys=len(engine),
        pages_before=engine.page_count,
        bytes_before=os.path.getsize(pages_path),
    )
    engine.compact()
    result.pages_after = engine.page_count
    result.bytes_after = os.path.getsize(pages_path)
    return result
