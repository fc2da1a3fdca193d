"""Storage substrate: pages, buffer pool, write-ahead log, B-tree, engine.

This package plays the role the NSF on-disk layer plays for Domino: it
stores variable-length note records in slotted pages behind an LRU buffer
pool, makes committed updates durable through a write-ahead log with
checkpoints and crash recovery, and provides the ordered in-memory index
structure (B+tree) behind view and folder indexes.
"""

from repro.storage.btree import BPlusTree
from repro.storage.bufferpool import BufferPool
from repro.storage.engine import StorageEngine, Transaction
from repro.storage.pagedfile import PagedFile
from repro.storage.pages import PAGE_SIZE, SlottedPage
from repro.storage.segments import SegmentStack, SegmentStats
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BPlusTree",
    "BufferPool",
    "PAGE_SIZE",
    "PagedFile",
    "SegmentStack",
    "SegmentStats",
    "SlottedPage",
    "StorageEngine",
    "Transaction",
    "WriteAheadLog",
]
