"""Documents (data notes): self-describing bags of typed items.

A document owns its items plus the replication-relevant envelope: the
originator id (UNID + sequence number + sequence time), the revision history
(the ``$Revisions`` equivalent the replicator uses for divergence
detection), the author trail (``$UpdatedBy``) and the optional parent
reference (``$REF``) that builds response hierarchies.

A document serializes to one flat record tuple (:meth:`Document.to_record`)
that storage writes with ``marshal``; see ``docs/storage.md`` for the
layout.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import DocumentError
from repro.core.items import Item, ItemType, decode_items, plain
from repro.core.unid import OriginatorId

# Notes caps $Revisions; we keep a generous but bounded history so conflict
# detection has ancestry to look at without unbounded growth.
MAX_REVISIONS = 64

# Bumped whenever a READERS item is set, replaced or removed on any
# document. Such an edit changes who may read the document even when it
# never reaches the database (no revision, no change event), so views
# compare it with the value they last checked reader access at.
_readers_epoch = 0


def readers_epoch() -> int:
    """The count of in-place READERS item changes so far."""
    return _readers_epoch


def _readers_changed() -> None:
    global _readers_epoch
    _readers_epoch += 1


#: ``Document._readers`` before the first read of :attr:`Document.readers`.
_UNSET = object()


class Document:
    """One data note.

    Library users normally obtain documents from
    :class:`~repro.core.database.NotesDatabase` rather than constructing
    them directly; the constructor is the deserialization/replication path.
    """

    def __init__(
        self,
        unid: str,
        seq: int = 1,
        seq_time: tuple[float, int] = (0.0, 0),
        created: float = 0.0,
        modified: float = 0.0,
        parent_unid: str | None = None,
        updated_by: list[str] | None = None,
        revisions: list[tuple[float, int]] | None = None,
        note_id: int = 0,
    ) -> None:
        if seq < 1:
            raise DocumentError(f"sequence number must be >= 1, got {seq}")
        self.unid = unid
        self.seq = seq
        self.seq_time = tuple(seq_time)
        self.created = created
        self.modified = modified
        self.parent_unid = parent_unid
        self.updated_by: list[str] = [plain(name) for name in updated_by or ()]
        self.revisions: list[tuple[float, int]] = [
            tuple(stamp) for stamp in (revisions or [tuple(seq_time)])
        ]
        self.note_id = note_id
        self._items: dict[str, Item] = {}
        self._readers = _UNSET  # cached by the readers property
        # The web search page's escaped title, kept by the renderer until
        # an item changes.
        self.title_html: str | None = None
        # Per-item last-change stamps (the input to field-level conflict
        # merging). An entry may exist for a *removed* item — that records
        # when the removal happened.
        self.item_times: dict[str, tuple[float, int]] = {}

    # -- identity ---------------------------------------------------------

    @property
    def oid(self) -> OriginatorId:
        """The originator id: the replication version stamp of this revision."""
        return OriginatorId(self.unid, self.seq, self.seq_time)

    @property
    def is_response(self) -> bool:
        return self.parent_unid is not None

    @property
    def is_conflict(self) -> bool:
        """Whether this document is a replication/save conflict loser."""
        return "$Conflict" in self._items

    @property
    def form(self) -> str | None:
        """The Form item text, if present (what kind of document this is)."""
        item = self._items.get("Form")
        return item.value if item is not None else None

    # -- item access --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items.values())

    @property
    def item_names(self) -> list[str]:
        return list(self._items)

    def item(self, name: str) -> Item | None:
        """The full :class:`Item` under ``name``, or None."""
        return self._items.get(name)

    def get(self, name: str, default: Any = None) -> Any:
        """The item *value* under ``name``, or ``default``.

        A list or dict value is a copy: editing it must not change the
        note without a revision or a write.
        """
        item = self._items.get(name)
        if item is None:
            return default
        value = item.value
        return value.copy() if type(value) in (list, dict) else value

    def get_list(self, name: str) -> list:
        """The item value as a list; missing items give an empty list."""
        item = self._items.get(name)
        return item.as_list() if item is not None else []

    def set(self, name: str, value: Any, type_: ItemType | None = None) -> None:
        """Create or replace an item; the type is inferred unless given."""
        if isinstance(value, Item):
            item = Item(name, value.type, value.value)
        else:
            item = Item.of(name, value, type_)
        self.put_items((item,))

    def remove_item(self, name: str) -> None:
        """Delete an item; raises :class:`DocumentError` if absent."""
        if name not in self._items:
            raise DocumentError(f"document has no item {name!r}")
        self.title_html = None
        if self._items.pop(name).type == ItemType.READERS:
            self._readers = _UNSET
            _readers_changed()

    def set_all(self, values: dict[str, Any]) -> None:
        """Set many items at once from a plain name -> value mapping.

        Every value is checked before any is set, so a bad one leaves the
        document as it was.
        """
        self.put_items([Item.of(name, value) for name, value in values.items()])

    def put_items(self, items: Iterable[Item]) -> None:
        """Install already-built items, replacing any of the same name."""
        self.title_html = None
        readers = False
        for item in items:
            old = self._items.get(item.name)
            self._items[item.name] = item
            if item.type is ItemType.READERS or (
                old is not None and old.type is ItemType.READERS
            ):
                readers = True
        if readers:
            self._readers = _UNSET
            _readers_changed()

    # -- security helpers -----------------------------------------------

    @property
    def readers(self) -> list[str] | None:
        """Union of READERS item values, or None when unrestricted.

        Computed once and cached until a READERS item changes; the list
        is shared, so callers must not modify it.
        """
        cached = self._readers
        if cached is not _UNSET:
            return cached
        names: list[str] = []
        found = False
        for item in self._items.values():
            if item.type == ItemType.READERS:
                found = True
                names.extend(item.value)
        self._readers = names if found else None
        return self._readers

    @property
    def authors(self) -> list[str]:
        """Union of AUTHORS item values (may be empty)."""
        names: list[str] = []
        for item in self._items.values():
            if item.type == ItemType.AUTHORS:
                names.extend(item.value)
        return names

    # -- revision bookkeeping --------------------------------------------

    def bump_revision(self, stamp: tuple[float, int], author: str) -> None:
        """Advance to the next sequence number at time ``stamp``."""
        self.seq += 1
        self.seq_time = tuple(stamp)
        self.modified = stamp[0]
        self.revisions.append(tuple(stamp))
        if len(self.revisions) > MAX_REVISIONS:
            del self.revisions[: len(self.revisions) - MAX_REVISIONS]
        if author and (not self.updated_by or self.updated_by[-1] != author):
            self.updated_by.append(plain(author))

    def has_ancestor_stamp(self, stamp: tuple[float, int]) -> bool:
        """Whether ``stamp`` appears in this document's revision history.

        Every writer of ``revisions`` (construction, :meth:`bump_revision`,
        :meth:`copy`, :meth:`from_record` over marshal's tuples, the
        replicator) stores tuples, so this is a plain membership test:
        pass ``stamp`` as a tuple too.
        """
        return stamp in self.revisions

    # -- size & serialization ---------------------------------------------

    def size(self) -> int:
        """Approximate byte size (drives replication-volume accounting)."""
        total = 128  # envelope overhead
        for item in self._items.values():
            total += len(item.name) + 8
            value = item.value
            if isinstance(value, str):
                total += len(value)
            elif isinstance(value, list):
                total += sum(
                    len(e) if isinstance(e, str) else 8 for e in value
                )
            elif isinstance(value, dict):
                # attachments: the base64 payload dominates
                total += sum(
                    len(v) if isinstance(v, str) else 8 for v in value.values()
                )
            else:
                total += 8
        return total

    def copy(self) -> "Document":
        """Deep-enough copy: items and stamps are immutable so sharing
        them is safe; the lists and dicts holding them are copied."""
        clone = _new_document(Document)
        clone.unid = self.unid
        clone.seq = self.seq
        clone.seq_time = self.seq_time
        clone.created = self.created
        clone.modified = self.modified
        clone.parent_unid = self.parent_unid
        clone.updated_by = list(self.updated_by)
        clone.revisions = list(self.revisions)
        clone.note_id = self.note_id
        clone._items = dict(self._items)
        clone._readers = self._readers
        clone.title_html = self.title_html
        clone.item_times = dict(self.item_times)
        return clone

    # A note record is one flat tuple, stored as ``marshal.dumps((journal
    # seq, record))``; docs/storage.md documents the layout.
    RECORD_FIELDS = (
        "unid", "seq", "seq_time", "created", "modified", "parent",
        "updated_by", "revisions", "items", "item_times",
    )

    def to_record(self) -> tuple:
        """The document as one flat tuple of plain builtins.

        Each item is its :meth:`Item.to_record` triple. The record shares
        the document's lists and dicts, so encode it before the document
        changes again.
        """
        return (
            self.unid,
            self.seq,
            self.seq_time,
            self.created,
            self.modified,
            self.parent_unid,
            self.updated_by,
            self.revisions,
            tuple(item.to_record() for item in self._items.values()),
            self.item_times,
        )

    @classmethod
    def from_record(cls, record: tuple) -> "Document":
        """Read back :meth:`to_record`.

        Checks what construction checks (``seq >= 1``, and every item via
        ``repro.core.items.decode_items``) but fills the document directly:
        the record's lists, tuples and dict are taken over, not copied, so
        pass a fresh record such as ``marshal.loads`` returns.
        """
        (unid, seq, seq_time, created, modified, parent_unid, updated_by,
         revisions, items, item_times) = record
        if seq < 1:
            raise DocumentError(f"sequence number must be >= 1, got {seq}")
        doc = _new_document(cls)
        doc.unid = unid
        doc.seq = seq
        doc.seq_time = seq_time
        doc.created = created
        doc.modified = modified
        doc.parent_unid = parent_unid
        doc.updated_by = updated_by
        doc.revisions = revisions
        doc.note_id = 0
        doc._items = decode_items(items)
        doc._readers = _UNSET
        doc.title_html = None
        doc.item_times = item_times
        return doc

    def to_dict(self) -> dict:
        """The document as a JSON-safe dict, for export and debugging.

        This is the layout stores written before the binary note record
        held; storage no longer reads or writes it (see :meth:`to_record`).
        """
        return {
            "unid": self.unid,
            "seq": self.seq,
            "seq_time": list(self.seq_time),
            "created": self.created,
            "modified": self.modified,
            "parent": self.parent_unid,
            "updated_by": list(self.updated_by),
            "revisions": [list(stamp) for stamp in self.revisions],
            "items": {
                item.name: {"t": item.type.value, "v": item.value}
                for item in self._items.values()
            },
            "item_times": {
                name: list(stamp) for name, stamp in self.item_times.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Document(unid={self.unid[:8]}…, seq={self.seq}, "
            f"items={len(self._items)}, form={self.form!r})"
        )


_new_document = object.__new__
