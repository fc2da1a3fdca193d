"""Documents (data notes): self-describing bags of typed items.

A document owns its items plus the replication-relevant envelope: the
originator id (UNID + sequence number + sequence time), the revision history
(the ``$Revisions`` equivalent the replicator uses for divergence
detection), the author trail (``$UpdatedBy``) and the optional parent
reference (``$REF``) that builds response hierarchies.

Documents serialize to plain dicts (JSON-safe) for storage and replication.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import DocumentError
from repro.core.items import Item, ItemType
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
        self.updated_by: list[str] = list(updated_by or [])
        self.revisions: list[tuple[float, int]] = [
            tuple(stamp) for stamp in (revisions or [tuple(seq_time)])
        ]
        self.note_id = note_id
        self._items: dict[str, Item] = {}
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
        """The item *value* under ``name``, or ``default``."""
        item = self._items.get(name)
        return item.value if item is not None else default

    def get_list(self, name: str) -> list:
        """The item value as a list; missing items give an empty list."""
        item = self._items.get(name)
        return item.as_list() if item is not None else []

    def set(self, name: str, value: Any, type_: ItemType | None = None) -> None:
        """Create or replace an item; the type is inferred unless given."""
        old = self._items.get(name)
        if isinstance(value, Item):
            item = Item(name, value.type, value.value)
        else:
            item = Item.of(name, value, type_)
        self._items[name] = item
        if item.type == ItemType.READERS or (
            old is not None and old.type == ItemType.READERS
        ):
            _readers_changed()

    def remove_item(self, name: str) -> None:
        """Delete an item; raises :class:`DocumentError` if absent."""
        if name not in self._items:
            raise DocumentError(f"document has no item {name!r}")
        if self._items.pop(name).type == ItemType.READERS:
            _readers_changed()

    def set_all(self, values: dict[str, Any]) -> None:
        """Set many items at once from a plain name -> value mapping."""
        for name, value in values.items():
            self.set(name, value)

    # -- security helpers -----------------------------------------------

    @property
    def readers(self) -> list[str] | None:
        """Union of READERS item values, or None when unrestricted."""
        names: list[str] = []
        found = False
        for item in self._items.values():
            if item.type == ItemType.READERS:
                found = True
                names.extend(item.value)
        return names if found else None

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
            self.updated_by.append(author)

    def has_ancestor_stamp(self, stamp: tuple[float, int]) -> bool:
        """Whether ``stamp`` appears in this document's revision history."""
        return tuple(stamp) in (tuple(s) for s in self.revisions)

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
        """Deep-enough copy: items are immutable so sharing them is safe."""
        clone = Document(
            unid=self.unid,
            seq=self.seq,
            seq_time=self.seq_time,
            created=self.created,
            modified=self.modified,
            parent_unid=self.parent_unid,
            updated_by=list(self.updated_by),
            revisions=[tuple(s) for s in self.revisions],
            note_id=self.note_id,
        )
        clone._items = dict(self._items)
        clone.item_times = dict(self.item_times)
        return clone

    def to_dict(self) -> dict:
        """JSON-safe representation for storage and the replication wire."""
        return {
            "unid": self.unid,
            "seq": self.seq,
            "seq_time": list(self.seq_time),
            "created": self.created,
            "modified": self.modified,
            "parent": self.parent_unid,
            "updated_by": list(self.updated_by),
            "revisions": [list(stamp) for stamp in self.revisions],
            "items": {item.name: item.to_dict() for item in self._items.values()},
            "item_times": {
                name: list(stamp) for name, stamp in self.item_times.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Document":
        doc = cls(
            unid=payload["unid"],
            seq=payload["seq"],
            seq_time=tuple(payload["seq_time"]),
            created=payload["created"],
            modified=payload["modified"],
            parent_unid=payload.get("parent"),
            updated_by=payload.get("updated_by", []),
            revisions=[tuple(stamp) for stamp in payload.get("revisions", [])],
        )
        for name, item_payload in payload.get("items", {}).items():
            doc._items[name] = Item.from_dict(name, item_payload)
        doc.item_times = {
            name: tuple(stamp)
            for name, stamp in payload.get("item_times", {}).items()
        }
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Document(unid={self.unid[:8]}…, seq={self.seq}, "
            f"items={len(self._items)}, form={self.form!r})"
        )
