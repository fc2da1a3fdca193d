"""Core note data model and database: the heart of the Notes architecture.

A Notes database is a container of *notes* — self-describing bags of typed
*items* — identified by universal ids (UNIDs) that are stable across
replicas. This package provides the item type system, documents (data
notes), deletion stubs, and the :class:`~repro.core.database.NotesDatabase`
container with optional durable storage via ``repro.storage``.
"""

from repro.core.attachments import (
    attach,
    attachment_bytes,
    attachment_names,
    detach,
    remove_attachment,
)
from repro.core.database import (
    ChangeKind,
    Checkpoint,
    DeletionStub,
    NotesDatabase,
)
from repro.core.document import Document
from repro.core.items import Item, ItemType
from repro.core.unid import OriginatorId, new_replica_id, new_unid

__all__ = [
    "ChangeKind",
    "Checkpoint",
    "DeletionStub",
    "Document",
    "Item",
    "ItemType",
    "NotesDatabase",
    "OriginatorId",
    "attach",
    "attachment_bytes",
    "attachment_names",
    "detach",
    "new_replica_id",
    "new_unid",
    "remove_attachment",
]
