"""Administration tools: archiving and storage compaction.

The nightly chores of a Domino administrator, expressed over the library:
``archive_documents`` moves aging documents into an archive database (with
deletion stubs left behind so the move replicates), and
:func:`compact_engine` accounts for the space
:meth:`StorageEngine.compact` reclaims.
"""

from repro.tools.archive import ArchiveResult, archive_documents
from repro.tools.catalog import replicas_of, update_catalog
from repro.tools.compact import CompactResult, compact_engine

__all__ = [
    "ArchiveResult",
    "CompactResult",
    "archive_documents",
    "compact_engine",
    "replicas_of",
    "update_catalog",
]
