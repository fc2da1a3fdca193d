"""The NotesDatabase: a replicable container of documents.

Responsibilities:

* CRUD with Notes envelope maintenance (sequence numbers, revision history,
  author trail) — the inputs the replicator needs to converge replicas.
* Deletion stubs: deletes leave a tombstone carrying the deletion's version
  stamp so the delete itself replicates; stubs are purged after a
  configurable interval (experiment E2 shows why purging too early is
  dangerous).
* Soft deletion (the R5 "trash folder" behaviour): documents can be moved
  to trash and restored before a hard delete. Trash membership persists
  as a ``trash:<unid>`` marker.
* Change events: views, full-text indexes and cluster replicators subscribe
  to create/update/delete notifications for incremental maintenance.
* The **update-sequence journal**: every write is assigned the next local
  sequence number and recorded in a by-seq journal (one live entry per
  UNID, the CouchDB ``_changes`` design). Replication reads the journal
  suffix instead of scanning the database, so a pass costs O(changes)
  rather than O(database). Derived indexes record a :class:`Checkpoint`
  and ask :meth:`NotesDatabase.changes_since` what to redo past it.
* Maintained secondary indexes: parent→children (``responses``),
  profile-document lookup (``profile``), and an incrementally maintained
  state fingerprint.
* Optional durability through :class:`repro.storage.StorageEngine`: each
  note change is one engine transaction (one fsync under a WAL).
* Optional access control through an attached ACL (``repro.security``).

The database never interprets item values — that is what views, formulas
and agents are for.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator

from repro.errors import AccessDenied, DatabaseError, DocumentNotFound
from repro.core.document import Document
from repro.core.unid import new_replica_id, new_unid
from repro.sim.clock import VirtualClock


class ChangeKind(str, Enum):
    """What happened to a note, as reported to observers."""

    CREATE = "create"
    UPDATE = "update"
    DELETE = "delete"
    REPLACE = "replace"  # replicator overwrote with a remote revision
    RESTORE = "restore"  # brought back from the trash


@dataclass(frozen=True)
class DeletionStub:
    """Tombstone left behind by a delete so the delete replicates."""

    unid: str
    seq: int
    seq_time: tuple[float, int]
    deleted_at: float
    deleted_by: str

    def to_dict(self) -> dict:
        return {
            "unid": self.unid,
            "seq": self.seq,
            "seq_time": list(self.seq_time),
            "deleted_at": self.deleted_at,
            "deleted_by": self.deleted_by,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeletionStub":
        return cls(
            unid=payload["unid"],
            seq=payload["seq"],
            seq_time=tuple(payload["seq_time"]),
            deleted_at=payload["deleted_at"],
            deleted_by=payload["deleted_by"],
        )


@dataclass(frozen=True)
class Checkpoint:
    """The database state a derived index reflects.

    Views and the full-text index store one of these beside their
    entries and hand it back to :meth:`NotesDatabase.changes_since` to
    learn what to redo. ``seq`` and ``purge_seq`` are only comparable
    under the same ``journal_id``; ``state`` is the state fingerprint,
    which needs no journal at all; ``trash`` rides along because soft
    deletes and restores never journal.
    """

    journal_id: str
    seq: int
    purge_seq: int
    state: str
    trash: frozenset[str]

    def to_meta(self) -> dict:
        """The JSON fields a persisted index stores its checkpoint under."""
        return {
            "journal_id": self.journal_id,
            "indexed_seq": self.seq,
            "indexed_purge_seq": self.purge_seq,
            "trash": sorted(self.trash),
            "state": self.state,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "Checkpoint":
        """Read back :meth:`to_meta`; missing fields never match a journal."""
        return cls(
            journal_id=meta.get("journal_id", ""),
            seq=meta.get("indexed_seq", -1),
            purge_seq=meta.get("indexed_purge_seq", 0),
            state=meta.get("state", ""),
            trash=frozenset(meta.get("trash", ())),
        )


Observer = Callable[[ChangeKind, Any, Document | None], None]

_DOC_PREFIX = b"doc:"
_STUB_PREFIX = b"stub:"
_SEQ_PREFIX = b"seq:"
_TRASH_PREFIX = b"trash:"
_META_KEY = b"meta:journal"

# Journal entries are (seq, unid, is_stub) tuples, appended in seq order,
# so a seq cutoff is a binary search for the suffix start.
_JournalEntry = tuple[int, str, bool]

# Compact the journal when more than half of it (and at least this many
# entries) is superseded; rewrites are amortized O(1) per write.
_JOURNAL_COMPACT_MIN = 64

# The purge log (journal entries dropped without a successor) is bounded:
# consumers whose checkpoint predates the retained window rebuild instead.
_PURGE_LOG_MAX = 1024


def _seq_payload(entry: _JournalEntry) -> bytes:
    """A journal entry as its ``seq:<unid>`` record stores it."""
    seq, _, is_stub = entry
    return json.dumps([seq, 1 if is_stub else 0]).encode()


@lru_cache(maxsize=8192)
def _revision_contrib(unid: str, seq: int, seq_time: tuple) -> int:
    """Fingerprint contribution of one note revision.

    Memoized because the same revision is hashed on every replica that
    installs it (cluster pushes, hub fan-out) and again when a later write
    XORs it back out of the rolling accumulator.
    """
    digest = hashlib.sha256(f"{unid}:{seq}:{seq_time}\n".encode()).digest()
    return int.from_bytes(digest, "big")


class NotesDatabase:
    """One replica of a Notes-style document database.

    Parameters
    ----------
    title:
        Human-readable database title (e.g. ``"Team Discussion"``).
    clock:
        Shared :class:`VirtualClock`; a private one is created if omitted.
    rng:
        Seeded random source for UNID generation; derived from a stable
        digest of the title if omitted (so tests are reproducible by
        default, whatever the interpreter's string-hash salt).
    replica_id:
        Identity of the replica *family*. Databases replicate only with
        others carrying the same replica id. A fresh id is generated when
        omitted; ``db.new_replica(...)`` copies it.
    server:
        Name of the server/host holding this replica (used in replication
        history and mail routing).
    engine:
        Optional :class:`repro.storage.StorageEngine` for durability. When
        given, existing content is loaded and every mutation is persisted.
    acl:
        Optional :class:`repro.security.AccessControlList`. When set, every
        operation that names a user is checked.
    """

    def __init__(
        self,
        title: str,
        clock: VirtualClock | None = None,
        rng: random.Random | None = None,
        replica_id: str | None = None,
        server: str = "local",
        engine=None,
        acl=None,
    ) -> None:
        self.title = title
        self.clock = clock or VirtualClock()
        self.rng = rng or random.Random(zlib.crc32(title.encode()))
        self.replica_id = replica_id or new_replica_id(self.rng)
        self.server = server
        self.engine = engine
        self.acl = acl
        self._docs: dict[str, Document] = {}
        self._stubs: dict[str, DeletionStub] = {}
        self._trash: set[str] = set()
        self._by_note_id: dict[int, str] = {}
        self._next_note_id = 1
        self._observers: list[Observer] = []
        # Save hooks of persistent derived structures (view sidecars,
        # full-text checkpoints); flushed together by save_checkpoints().
        self._checkpointers: list[Callable[[], None]] = []
        # -- update-sequence journal (the by-seq index) --
        self._update_seq = 0
        self._journal: list[_JournalEntry] = []
        self._note_seq: dict[str, int] = {}  # unid -> its live journal seq
        self._journal_stale = 0
        # Journal entries the last suffix read had to look at (including
        # superseded ones) — the replicator reports it.
        self.last_scan_cost = 0
        # -- maintained secondary indexes --
        self._children_index: dict[str, set[str]] = {}
        self._profiles: dict[tuple[Any, Any], str] = {}
        # Rolling state fingerprint: XOR of per-note digests, O(1) per write.
        self._fp_acc = 0
        # replication history: (other replica server, direction) -> the
        # partner's update_seq as of the last successful pass
        self.replication_seq: dict[tuple[str, str], int] = {}
        # source server -> the journal_id its "receive" cursor was cut
        # from; a cursor into another journal counts as seq 0.
        self.replication_journal: dict[str, str] = {}
        # -- purge log: journal entries dropped with no successor --
        self._purge_seq = 0
        self._purges: list[tuple[int, str]] = []
        # Journal identity: seq checkpoints (view sidecars, full-text
        # checkpoints, replication cursors) are only meaningful against the
        # journal they were cut from. A reseeded journal (recovery of a
        # pre-journal database file) gets a fresh identity, so stale
        # checkpoints fall back to a rebuild instead of mis-reading seqs.
        self.journal_id = hashlib.sha256(
            f"journal:{self.replica_id}:{self.server}".encode()
        ).hexdigest()[:16]
        if engine is not None:
            self._load_from_engine()
            self._commit({_META_KEY: self._meta_payload()})

    # -- observers -----------------------------------------------------------

    def subscribe(self, observer: Observer) -> None:
        """Register for change events (views, FT index, cluster replicator)."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Observer) -> None:
        self._observers.remove(observer)

    # -- checkpoint wiring ---------------------------------------------------

    def register_checkpointer(self, save: Callable[[], None]) -> None:
        """Register a derived structure's save hook (persistent views and
        full-text indexes do this), so one :meth:`save_checkpoints` call
        flushes every sidecar the database carries."""
        self._checkpointers.append(save)

    def unregister_checkpointer(self, save: Callable[[], None]) -> None:
        if save in self._checkpointers:
            self._checkpointers.remove(save)

    def save_checkpoints(self) -> int:
        """Flush every registered sidecar; returns how many were saved."""
        hooks = list(self._checkpointers)
        for save in hooks:
            save()
        return len(hooks)

    def close(self) -> None:
        """Flush every registered sidecar, then close the storage engine.

        The database-level counterpart of closing an NSF: derived
        structures write their segment checkpoints (each an O(delta)
        append, see ``repro.storage.segments``) and the engine takes its
        sharp checkpoint.
        """
        self.save_checkpoints()
        if self.engine is not None:
            self.engine.close()

    def _notify(self, kind: ChangeKind, payload: Any, old: Document | None) -> None:
        for observer in self._observers:
            observer(kind, payload, old)

    # -- update-sequence journal -------------------------------------------

    @property
    def update_seq(self) -> int:
        """The highest local update sequence number assigned so far."""
        return self._update_seq

    def _journal_record(self, unid: str, is_stub: bool) -> _JournalEntry:
        """Assign the next seq to ``unid`` and append its journal entry."""
        if unid in self._note_seq:
            self._journal_stale += 1
        self._update_seq += 1
        entry = (self._update_seq, unid, is_stub)
        self._journal.append(entry)
        self._note_seq[unid] = self._update_seq
        if (
            self._journal_stale > _JOURNAL_COMPACT_MIN
            and self._journal_stale * 2 > len(self._journal)
        ):
            self._compact_journal()
        return entry

    def _journal_drop(self, unid: str) -> None:
        """Forget ``unid``'s journal entry; the caller's transaction drops
        its ``seq:`` record (see :meth:`_removal_keys`)."""
        if self._note_seq.pop(unid, None) is not None:
            self._journal_stale += 1

    def _compact_journal(self) -> None:
        self._journal = [
            entry
            for entry in self._journal
            if self._note_seq.get(entry[1]) == entry[0]
        ]
        self._journal_stale = 0

    # -- purge log ----------------------------------------------------------

    @property
    def purge_seq(self) -> int:
        """How many journal entries have been dropped without a successor.

        ``purge_stubs`` / ``purge_acknowledged_stubs`` and ``cutoff_delete``
        remove notes *and their journal entries* outright, so a seq-suffix
        read can never report them; a :class:`Checkpoint` therefore
        carries the ``purge_seq`` too, and :meth:`changes_since` replays
        :meth:`purges_since` for it.
        """
        return self._purge_seq

    def purges_since(self, after: int) -> list[tuple[int, str]] | None:
        """Purge events with purge seq strictly above ``after``, oldest
        first — or None when the bounded log no longer reaches back that
        far (the consumer's checkpoint is too old; it must rebuild)."""
        if after > self._purge_seq:
            return None
        oldest_missing = self._purge_seq - len(self._purges)
        if after < oldest_missing:
            return None
        return [(seq, unid) for seq, unid in self._purges if seq > after]

    def _log_purge(self, unid: str) -> None:
        self._purge_seq += 1
        self._purges.append((self._purge_seq, unid))
        if len(self._purges) > _PURGE_LOG_MAX:
            del self._purges[: -_PURGE_LOG_MAX]

    # -- derived-index checkpoints -----------------------------------------

    def checkpoint(self) -> Checkpoint:
        """The current state, as a derived index that is up to date
        with it would record."""
        return Checkpoint(
            journal_id=self.journal_id,
            seq=self._update_seq,
            purge_seq=self._purge_seq,
            state=self.state_fingerprint(),
            trash=frozenset(self._trash),
        )

    def changes_since(
        self, cp: Checkpoint
    ) -> tuple[list[str], list[str]] | None:
        """What an index cut at ``cp`` must redo: ``(purged, changed)``.

        The one rule every derived index catches up by. Both lists are
        empty when the state fingerprint still matches (whatever the
        journal). None means the caller must rebuild: ``cp`` was cut
        from another journal, is ahead of this one, or predates what the
        bounded purge log retains. Otherwise ``purged`` holds the
        purge-log UNIDs and ``changed`` the journal suffix past ``cp``
        (documents, then deletion stubs) followed by every UNID whose
        trash membership flipped. Re-indexing each UNID from the live
        database, in that order, leaves the index equal to a rebuild.
        """
        if cp.state == self.state_fingerprint():
            return [], []
        if cp.journal_id != self.journal_id or cp.seq > self._update_seq:
            return None
        purges = self.purges_since(cp.purge_seq)
        if purges is None:
            return None
        docs, stubs = self.changed_since_seq(cp.seq)
        changed = [doc.unid for doc in docs] + [stub.unid for stub in stubs]
        changed += sorted(self._trash.symmetric_difference(cp.trash))
        return [unid for _, unid in purges], changed

    # -- maintained secondary indexes --------------------------------------

    def _index_parent(self, doc: Document) -> None:
        if doc.parent_unid is not None:
            self._children_index.setdefault(doc.parent_unid, set()).add(doc.unid)

    def _unindex_parent(self, doc: Document) -> None:
        if doc.parent_unid is None:
            return
        children = self._children_index.get(doc.parent_unid)
        if children is not None:
            children.discard(doc.unid)
            if not children:
                del self._children_index[doc.parent_unid]

    @staticmethod
    def _profile_key(doc: Document) -> tuple[Any, Any] | None:
        name = doc.get("$ProfileName")
        if not isinstance(name, str):
            return None
        user = doc.get("$ProfileUser", "")
        return (name, user if isinstance(user, str) else "")

    def _index_profile(self, doc: Document) -> None:
        key = self._profile_key(doc)
        # First writer wins, matching the old scan's insertion-order hit.
        if key is not None and key not in self._profiles:
            self._profiles[key] = doc.unid

    def _unindex_profile(self, doc: Document) -> None:
        key = self._profile_key(doc)
        if key is None or self._profiles.get(key) != doc.unid:
            return
        del self._profiles[key]
        # A duplicate profile note (replication can produce one) takes over.
        for other in self._docs.values():
            if other.unid != doc.unid and self._profile_key(other) == key:
                self._profiles[key] = other.unid
                return

    # -- rolling state fingerprint -----------------------------------------

    @staticmethod
    def _doc_contrib(doc: Document) -> int:
        return _revision_contrib(doc.unid, doc.seq, doc.seq_time)

    @staticmethod
    def _trash_contrib(unid: str) -> int:
        digest = hashlib.sha256(b"T:" + unid.encode()).digest()
        return int.from_bytes(digest, "big")

    def _trash_add(self, unid: str) -> None:
        if unid not in self._trash:
            self._trash.add(unid)
            self._fp_acc ^= self._trash_contrib(unid)

    def _trash_discard(self, unid: str) -> None:
        if unid in self._trash:
            self._trash.remove(unid)
            self._fp_acc ^= self._trash_contrib(unid)

    # -- CRUD ------------------------------------------------------------

    def create(
        self,
        items: dict[str, Any],
        author: str = "anonymous",
        parent: str | None = None,
    ) -> Document:
        """Create a document from plain name -> value items."""
        self._check_create(author)
        if parent is not None and parent not in self._docs:
            raise DocumentNotFound(f"parent {parent} does not exist")
        now, tick = self.clock.timestamp()
        # The rng is seeded by the title, so a reopened database replays
        # the same unid stream — re-draw rather than silently overwrite a
        # persisted note.
        unid = new_unid(self.rng)
        while unid in self._docs or unid in self._stubs:
            unid = new_unid(self.rng)
        doc = Document(
            unid=unid,
            seq=1,
            seq_time=(now, tick),
            created=now,
            modified=now,
            parent_unid=parent,
            updated_by=[author],
            note_id=self._next_note_id,
        )
        self._next_note_id += 1
        doc.set_all(items)
        doc.item_times = {name: (now, tick) for name in items}
        self._docs[doc.unid] = doc
        self._by_note_id[doc.note_id] = doc.unid
        self._index_parent(doc)
        self._index_profile(doc)
        self._fp_acc ^= self._doc_contrib(doc)
        entry = self._journal_record(doc.unid, False)
        self._persist_doc(doc, entry)
        self._notify(ChangeKind.CREATE, doc, None)
        return doc

    def update(
        self,
        unid: str,
        items: dict[str, Any],
        author: str = "anonymous",
        remove_items: list[str] | None = None,
    ) -> Document:
        """Merge ``items`` into the document and advance its revision."""
        doc = self._require_doc(unid)
        self._check_update(author, doc)
        old = doc.copy()
        self._fp_acc ^= self._doc_contrib(doc)
        old_profile_key = self._profile_key(doc)
        doc.set_all(items)
        for name in remove_items or []:
            if name in doc:
                doc.remove_item(name)
        stamp = self.clock.timestamp()
        doc.bump_revision(stamp, author)
        for name in items:
            doc.item_times[name] = stamp
        for name in remove_items or []:
            doc.item_times[name] = stamp
        if self._profile_key(doc) != old_profile_key:
            self._unindex_profile(old)
            self._index_profile(doc)
        self._fp_acc ^= self._doc_contrib(doc)
        entry = self._journal_record(unid, False)
        self._persist_doc(doc, entry)
        self._notify(ChangeKind.UPDATE, doc, old)
        return doc

    def attach_file(
        self,
        unid: str,
        filename: str,
        data: bytes,
        author: str = "anonymous",
    ) -> Document:
        """Attach ``data`` to the document as a proper revision.

        Unlike mutating the document object directly, this bumps the
        sequence number and stamps the attachment item, so replication
        (including field-level) sees the change.
        """
        from repro.core.attachments import ATTACHMENT_PREFIX, attach

        doc = self._require_doc(unid)
        self._check_update(author, doc)
        old = doc.copy()
        self._fp_acc ^= self._doc_contrib(doc)
        attach(doc, filename, data)
        stamp = self.clock.timestamp()
        doc.bump_revision(stamp, author)
        doc.item_times[ATTACHMENT_PREFIX + filename] = stamp
        self._fp_acc ^= self._doc_contrib(doc)
        entry = self._journal_record(unid, False)
        self._persist_doc(doc, entry)
        self._notify(ChangeKind.UPDATE, doc, old)
        return doc

    def delete(self, unid: str, author: str = "anonymous") -> DeletionStub:
        """Hard-delete: remove the document, leaving a deletion stub."""
        doc = self._require_doc(unid)
        self._check_delete(author, doc)
        now, tick = self.clock.timestamp()
        stub = DeletionStub(
            unid=unid,
            seq=doc.seq + 1,
            seq_time=(now, tick),
            deleted_at=now,
            deleted_by=author,
        )
        self._remove_doc_internal(unid)
        self._stubs[unid] = stub
        entry = self._journal_record(unid, True)
        self._persist_stub(stub, entry, drop=self._removal_keys(unid))
        self._notify(ChangeKind.DELETE, stub, doc)
        return stub

    # -- soft deletion (trash) ---------------------------------------------

    def soft_delete(self, unid: str, author: str = "anonymous") -> None:
        """Move a document to the trash; views stop showing it."""
        self._check_delete(author, self._require_doc(unid))
        self.raw_trash(unid, True, author)

    def restore(self, unid: str, author: str = "anonymous") -> Document:
        """Bring a soft-deleted document back from the trash."""
        if unid not in self._trash:
            raise DatabaseError(f"{unid} is not in the trash")
        doc = self._docs[unid]
        self._check_update(author, doc)
        self.raw_trash(unid, False)
        return doc

    def raw_trash(self, unid: str, trashed: bool, author: str = "anonymous") -> None:
        """Move a held document into (or out of) the trash with no access
        check and no revision bump — the write path of :meth:`soft_delete`
        and :meth:`restore`, and how a cluster member mirrors its mate's
        trash. A no-op when ``unid`` is not held or already placed."""
        doc = self._docs.get(unid)
        if doc is None or (unid in self._trash) == trashed:
            return
        if trashed:
            self._trash_add(unid)
            self._commit({_TRASH_PREFIX + unid.encode(): b""})
            self._notify(ChangeKind.DELETE, self._as_trash_stub(doc, author), doc)
        else:
            self._trash_discard(unid)
            self._commit({}, drop=[_TRASH_PREFIX + unid.encode()])
            self._notify(ChangeKind.RESTORE, doc, None)

    def in_trash(self, unid: str) -> bool:
        return unid in self._trash

    def empty_trash(self, author: str = "anonymous") -> int:
        """Hard-delete everything in the trash; returns the count.

        Each delete's transaction also drops the note's trash marker.
        """
        victims = list(self._trash)
        for unid in victims:
            self._trash_discard(unid)
            self.delete(unid, author=author)
        return len(victims)

    @property
    def trash(self) -> list[str]:
        return sorted(self._trash)

    def _as_trash_stub(self, doc: Document, author: str) -> DeletionStub:
        now, tick = self.clock.timestamp()
        return DeletionStub(doc.unid, doc.seq, (now, tick), now, author)

    # -- reads -----------------------------------------------------------

    def get(self, unid: str, as_user: str | None = None) -> Document:
        """Fetch a live document; honours reader fields when a user is named."""
        doc = self._require_doc(unid)
        if as_user is not None:
            self._check_read(as_user, doc)
        return doc

    def get_by_note_id(self, note_id: int) -> Document:
        unid = self._by_note_id.get(note_id)
        if unid is None or unid not in self._docs:
            raise DocumentNotFound(f"no note with id {note_id}")
        return self._docs[unid]

    def try_get(self, unid: str) -> Document | None:
        """Fetch a live document, or None (trash and stubs give None)."""
        if unid in self._trash:
            return None
        return self._docs.get(unid)

    def __contains__(self, unid: str) -> bool:
        return unid in self._docs and unid not in self._trash

    def __len__(self) -> int:
        return len(self._docs) - len(self._trash)

    def unids(self) -> list[str]:
        """UNIDs of all live (non-trashed) documents."""
        if not self._trash:
            return list(self._docs)
        return [unid for unid in self._docs if unid not in self._trash]

    def all_documents(self, as_user: str | None = None) -> Iterator[Document]:
        """All live documents; filtered by reader fields when a user is named."""
        for unid in self.unids():
            doc = self._docs[unid]
            if as_user is None or self._can_read(as_user, doc):
                yield doc

    def responses(self, unid: str) -> list[Document]:
        """Direct response documents of ``unid``, oldest first.

        Served from the maintained parent→children index — O(children),
        not a scan over the whole database.
        """
        children = [
            self._docs[child]
            for child in self._children_index.get(unid, ())
            if child in self._docs and child not in self._trash
        ]
        children.sort(key=lambda d: (d.created, d.unid))
        return children

    def descendants(self, unid: str) -> list[Document]:
        """All (transitive) responses beneath ``unid``, depth-first."""
        result: list[Document] = []
        for child in self.responses(unid):
            result.append(child)
            result.extend(self.descendants(child.unid))
        return result

    # -- profile documents ---------------------------------------------------

    def profile(self, name: str, username: str = "") -> Document:
        """Get or create the profile document ``name`` (optionally per-user).

        Served from the maintained profile lookup table — no scan.
        """
        unid = self._profiles.get((name, username))
        if unid is not None and unid in self._docs:
            return self._docs[unid]
        return self.create(
            {"$ProfileName": name, "$ProfileUser": username},
            author=username or "system",
        )

    # -- deletion stubs & purging ------------------------------------------

    @property
    def stubs(self) -> dict[str, DeletionStub]:
        """Live deletion stubs by UNID (read-only view)."""
        return dict(self._stubs)

    def purge_stubs(self, older_than: float) -> int:
        """Drop stubs deleted before virtual time ``older_than``.

        The legacy wall-clock purge-interval rule, kept as the ablation:
        purging a stub before every replica has seen the delete allows the
        document to "resurrect" — precisely what experiment E2
        demonstrates. :meth:`purge_acknowledged_stubs` is the seq-safe
        replacement. Returns how many were purged.
        """
        victims = [
            unid
            for unid, stub in self._stubs.items()
            if stub.deleted_at < older_than
        ]
        return self._purge_stub_unids(victims)

    def acknowledged_seq(self) -> int | None:
        """Lowest update seq every *known* partner has acknowledged.

        A partner acknowledges a seq when it completes a pass that read
        this journal (recorded as a ``"send"`` entry in
        ``replication_seq``: scheduled pulls and cluster pushes/drains
        both record one). Returns None when no partner is known.
        """
        acks = [
            seq
            for (_, direction), seq in self.replication_seq.items()
            if direction == "send"
        ]
        return min(acks) if acks else None

    def purge_acknowledged_stubs(self) -> int:
        """Purge every stub whose delete all known partners have seen.

        The seq-based replacement for the wall-clock purge interval: a
        stub is purgeable once its journal seq is at or below
        :meth:`acknowledged_seq`, so no partner can still need the delete
        — which closes the E2 resurrection-anomaly window entirely. A
        replica with no known partners purges nothing (it cannot know who
        still needs the stub). Returns how many were purged.
        """
        floor = self.acknowledged_seq()
        if floor is None:
            return 0
        victims = [
            unid
            for unid in self._stubs
            if self._note_seq.get(unid, floor + 1) <= floor
        ]
        return self._purge_stub_unids(victims)

    def _purge_stub_unids(self, victims: list[str]) -> int:
        """Drop ``victims`` from the stub table, journal and engine.

        The engine write is one transaction covering the purge-log update
        and every record removal, so recovery never sees a purged seq
        record with an un-advanced purge log.
        """
        if not victims:
            return 0
        for unid in victims:
            del self._stubs[unid]
            self._journal_drop(unid)
            self._log_purge(unid)
        self._commit(
            {_META_KEY: self._meta_payload()},
            drop=[
                prefix + unid.encode()
                for unid in victims
                for prefix in (_SEQ_PREFIX, _STUB_PREFIX)
            ],
        )
        return len(victims)

    def cutoff_delete(self, older_than: float) -> int:
        """Trim documents not modified since ``older_than`` — *without*
        leaving deletion stubs (the "remove documents not modified in the
        last N days" replica space option).

        The removals and the purge log ride one engine transaction.
        Returns how many documents were removed. Because no stub remains,
        a trimmed document *returns* when it is revised on another replica,
        or when the replication history is cleared (forcing a full
        re-examination) — the documented Notes caveat, demonstrated in the
        test suite. A selective replication formula is the way to keep
        them out for good.
        """
        victims = [
            doc.unid
            for doc in self._docs.values()
            if doc.modified < older_than
        ]
        for unid in victims:
            doc = self._docs[unid]
            self._remove_doc_internal(unid)
            self._log_purge(unid)
            self._notify(ChangeKind.DELETE, self._as_trash_stub(doc, "cutoff"), doc)
        if victims:
            self._commit(
                {_META_KEY: self._meta_payload()},
                drop=[key for unid in victims for key in self._removal_keys(unid)],
            )
        return len(victims)

    def state_fingerprint(self) -> str:
        """Digest over every live document's revision stamp (and the trash).

        Two database states with equal fingerprints hold identical document
        revisions, so a derived structure (e.g. a persisted view index)
        saved at one fingerprint is valid whenever the fingerprint still
        matches. The digest is a rolling XOR of per-note hashes maintained
        on every write, so reading it is O(1) — the old implementation
        re-sorted and re-hashed all n documents on every call.
        """
        return f"{self._fp_acc:064x}"

    def _fingerprint_recompute(self) -> str:
        """O(n) from-scratch fingerprint; must equal :meth:`state_fingerprint`.

        Kept as the ground truth the incremental accumulator is tested
        against (and used when loading from a storage engine).
        """
        acc = 0
        for doc in self._docs.values():
            acc ^= self._doc_contrib(doc)
        for unid in self._trash:
            acc ^= self._trash_contrib(unid)
        return f"{acc:064x}"

    def clear_replication_history(self) -> None:
        """Forget all replication history: the next pass with every partner
        re-examines everything (the admin "Clear History" button)."""
        self.replication_seq.clear()
        self.replication_journal.clear()

    # -- replication-facing primitives ----------------------------------

    def changed_since_seq(
        self, after_seq: int
    ) -> tuple[list[Document], list[DeletionStub]]:
        """Documents/stubs with a local update seq strictly above ``after_seq``.

        A binary search for the suffix start plus a walk over O(changes)
        entries — never a scan of the database. A note installed here by
        the replicator gets a fresh local seq, so it counts as changed at
        its arrival, not at its own (older) revision — the property
        multi-hop (hub) routing of updates depends on.
        """
        docs: list[Document] = []
        stubs: list[DeletionStub] = []
        for _, note in self.journal_entries_since(after_seq):
            if isinstance(note, DeletionStub):
                stubs.append(note)
            else:
                docs.append(note)
        return docs, stubs

    def journal_entries_since(
        self, after_seq: int
    ) -> list[tuple[int, "Document | DeletionStub"]]:
        """The live journal suffix above ``after_seq`` in seq order.

        Same candidates as :meth:`changed_since_seq` but keeping each
        note's journal seq and the journal's ordering, which is what lets
        a consumer *checkpoint mid-stream*: a replication exchange that
        applies entries in this order may record any prefix's last seq as
        its cursor and resume from there after an interruption.
        """
        start = bisect_right(self._journal, after_seq, key=lambda entry: entry[0])
        suffix = self._journal[start:]
        self.last_scan_cost = len(suffix)
        entries: list[tuple[int, Document | DeletionStub]] = []
        for seq, unid, is_stub in suffix:
            if self._note_seq.get(unid) != seq:
                continue  # superseded by a later write to the same note
            note = self._stubs.get(unid) if is_stub else self._docs.get(unid)
            if note is not None:
                entries.append((seq, note))
        return entries

    def raw_put(self, doc: Document, kind: ChangeKind = ChangeKind.REPLACE) -> None:
        """Install ``doc`` exactly as given (no revision bump).

        The replicator's write path: the incoming document keeps its own
        envelope. Any deletion stub for the UNID is superseded.
        """
        old = self._docs.get(doc.unid)
        # Note ids are db-local (only the UNID travels): keep the existing
        # local id on update, assign a fresh one on first arrival.
        if old is not None:
            doc.note_id = old.note_id
            self._fp_acc ^= self._doc_contrib(old)
            self._unindex_parent(old)
            self._unindex_profile(old)
        else:
            doc.note_id = self._next_note_id
            self._next_note_id += 1
        self._docs[doc.unid] = doc
        self._by_note_id[doc.note_id] = doc.unid
        self._stubs.pop(doc.unid, None)
        self._index_parent(doc)
        self._index_profile(doc)
        self._fp_acc ^= self._doc_contrib(doc)
        entry = self._journal_record(doc.unid, False)
        self._persist_doc(doc, entry, drop=[_STUB_PREFIX + doc.unid.encode()])
        self._notify(kind, doc, old)

    def raw_delete(self, stub: DeletionStub) -> None:
        """Install a remote deletion: drop the doc, keep the stub.

        One engine transaction removes the doc and writes the stub.
        """
        old = self._docs.get(stub.unid)
        drop: list[bytes] = []
        if old is not None:
            self._remove_doc_internal(stub.unid)
            drop = self._removal_keys(stub.unid)
        existing = self._stubs.get(stub.unid)
        if existing is None or tuple(stub.seq_time) > tuple(existing.seq_time):
            self._stubs[stub.unid] = stub
            entry = self._journal_record(stub.unid, True)
            self._persist_stub(stub, entry, drop=drop)
        else:
            self._commit({}, drop=drop)
        if old is not None:
            self._notify(ChangeKind.DELETE, stub, old)

    def new_replica(self, server: str, engine=None) -> "NotesDatabase":
        """Create an empty replica (same replica id) on another server."""
        replica = NotesDatabase(
            title=self.title,
            clock=self.clock,
            rng=random.Random(self.rng.getrandbits(64)),
            replica_id=self.replica_id,
            server=server,
            engine=engine,
            acl=self.acl,
        )
        return replica

    # -- persistence ------------------------------------------------------

    def _persist_doc(
        self,
        doc: Document,
        journal: _JournalEntry | None = None,
        drop: Iterable[bytes] = (),
    ) -> None:
        self._persist_note(_DOC_PREFIX, doc, journal, drop)

    def _persist_stub(
        self,
        stub: DeletionStub,
        journal: _JournalEntry | None = None,
        drop: Iterable[bytes] = (),
    ) -> None:
        self._persist_note(_STUB_PREFIX, stub, journal, drop)

    def _persist_note(
        self,
        prefix: bytes,
        note: Document | DeletionStub,
        journal: _JournalEntry | None,
        drop: Iterable[bytes],
    ) -> None:
        """One transaction covering the note, its journal record and the
        removal of the ``drop`` keys, so a crash can never durably separate
        a note from its sequence number or from what it replaces."""
        if self.engine is None:
            return
        key = note.unid.encode()
        puts = {prefix + key: json.dumps(note.to_dict()).encode()}
        if journal is not None:
            puts[_SEQ_PREFIX + key] = _seq_payload(journal)
        self._commit(puts, drop)

    def _commit(self, puts: dict[bytes, bytes], drop: Iterable[bytes] = ()) -> None:
        """Write ``puts`` and remove the ``drop`` keys the engine holds, in
        one engine transaction (none at all when there is nothing to do)."""
        if self.engine is None:
            return
        drop = [key for key in drop if key in self.engine and key not in puts]
        if not puts and not drop:
            return
        txn = self.engine.begin()
        for key in drop:
            self.engine.delete(txn, key)
        for key, value in puts.items():
            self.engine.put(txn, key, value)
        self.engine.commit(txn)

    @staticmethod
    def _removal_keys(unid: str) -> list[bytes]:
        """The records a removed document leaves behind in the engine."""
        key = unid.encode()
        return [_DOC_PREFIX + key, _SEQ_PREFIX + key, _TRASH_PREFIX + key]

    def _meta_payload(self) -> bytes:
        return json.dumps(
            {
                "journal_id": self.journal_id,
                # A floor for seq recovery: the purge that wrote this meta
                # may have removed the journal's max-seq record, and seqs
                # must never be reissued under the same journal identity.
                "update_seq": self._update_seq,
                "purge_seq": self._purge_seq,
                "purges": [[seq, unid] for seq, unid in self._purges],
            }
        ).encode()

    def _load_from_engine(self) -> None:
        # Iterate only the note-record prefixes: the engine also holds
        # derived-structure sidecars (view indexes, full-text checkpoint
        # blobs) that are not ours to parse — and not all of them are JSON.
        max_note_id = 0
        seq_records: dict[str, list] = {}
        meta: dict | None = None
        for key in self.engine.keys(prefix=_DOC_PREFIX):
            doc = Document.from_dict(json.loads(self.engine.get(key).decode()))
            doc.note_id = self._next_note_id + max_note_id
            max_note_id += 1
            self._docs[doc.unid] = doc
            self._by_note_id[doc.note_id] = doc.unid
        for key in self.engine.keys(prefix=_STUB_PREFIX):
            stub = DeletionStub.from_dict(
                json.loads(self.engine.get(key).decode())
            )
            self._stubs[stub.unid] = stub
        for key in self.engine.keys(prefix=_SEQ_PREFIX):
            seq_records[key[len(_SEQ_PREFIX):].decode()] = json.loads(
                self.engine.get(key).decode()
            )
        raw_meta = self.engine.get(_META_KEY)
        if raw_meta is not None:
            meta = json.loads(raw_meta.decode())
        for key in self.engine.keys(prefix=_TRASH_PREFIX):
            unid = key[len(_TRASH_PREFIX):].decode()
            if unid in self._docs:
                self._trash.add(unid)
        self._next_note_id += max_note_id
        for doc in self._docs.values():
            self._index_parent(doc)
            self._index_profile(doc)
        self._fp_acc = int(self._fingerprint_recompute(), 16)
        self._recover_journal(seq_records, meta)

    def _recover_journal(
        self, seq_records: dict[str, list], meta: dict | None = None
    ) -> None:
        """Rebuild the by-seq journal after an engine load.

        When every live note carries a persisted sequence record the
        journal is restored exactly (sequence numbers keep their meaning
        across restarts, so partners' seq-based histories and consumers'
        seq checkpoints stay valid) and the persisted journal identity +
        purge log are restored with it. Only a record's first two fields
        (seq, is_stub) are read, so records that still carry the local
        time older builds appended stay readable. A file whose records do
        not cover every live note (a pre-journal file) falls back to
        seeding fresh sequence numbers in modified-time order under a
        *new* journal identity: a partner's receive cursor and every
        checkpoint cut from the old journal then no longer match, so the
        partner's next pull re-examines from seq 0 and checkpoint holders
        rebuild.
        """
        live_kinds = {unid: False for unid in self._docs}
        live_kinds.update({unid: True for unid in self._stubs})
        recovered = all(
            unid in seq_records and bool(seq_records[unid][1]) == is_stub
            for unid, is_stub in live_kinds.items()
        )
        if recovered:
            if live_kinds:
                entries = sorted(
                    (seq_records[unid][0], unid, is_stub)
                    for unid, is_stub in live_kinds.items()
                )
                self._journal = entries
                self._note_seq = {entry[1]: entry[0] for entry in entries}
                self._update_seq = entries[-1][0]
            if meta is not None:
                self.journal_id = meta["journal_id"]
                self._update_seq = max(
                    self._update_seq, int(meta.get("update_seq", 0))
                )
                self._purge_seq = int(meta.get("purge_seq", 0))
                self._purges = [
                    (int(seq), unid) for seq, unid in meta.get("purges", [])
                ]
            return
        # Fallback: order by the notes' own times and assign fresh
        # sequence numbers. The
        # reseeded journal gets a fresh identity — derived, not random, so
        # repeated recoveries of the same file are deterministic.
        if meta is not None:
            self.journal_id = hashlib.sha256(
                f"{meta['journal_id']}:reseed".encode()
            ).hexdigest()[:16]
        pending = sorted(
            [(doc.modified, unid, False) for unid, doc in self._docs.items()]
            + [
                (stub.deleted_at, unid, True)
                for unid, stub in self._stubs.items()
            ]
        )
        for _, unid, is_stub in pending:
            entry = self._journal_record(unid, is_stub)
            self._commit({_SEQ_PREFIX + unid.encode(): _seq_payload(entry)})

    # -- access control hooks -----------------------------------------------

    def _check_create(self, user: str) -> None:
        if self.acl is not None and not self.acl.can_create(user):
            raise AccessDenied(f"{user} may not create documents in {self.title!r}")

    def _check_update(self, user: str, doc: Document) -> None:
        if self.acl is not None and not self.acl.can_update(user, doc):
            raise AccessDenied(f"{user} may not edit {doc.unid} in {self.title!r}")

    def _check_delete(self, user: str, doc: Document) -> None:
        if self.acl is not None and not self.acl.can_delete(user, doc):
            raise AccessDenied(f"{user} may not delete {doc.unid} in {self.title!r}")

    def _check_read(self, user: str, doc: Document) -> None:
        if not self._can_read(user, doc):
            raise AccessDenied(f"{user} may not read {doc.unid} in {self.title!r}")

    def _can_read(self, user: str, doc: Document) -> bool:
        if self.acl is None:
            return True
        return self.acl.can_read(user, doc)

    # -- internals ----------------------------------------------------------

    def _require_doc(self, unid: str) -> Document:
        doc = self._docs.get(unid)
        if doc is None or unid in self._trash:
            raise DocumentNotFound(f"no live document {unid} in {self.title!r}")
        return doc

    def _remove_doc_internal(self, unid: str) -> None:
        """Drop ``unid`` from memory; the caller's engine transaction drops
        its :meth:`_removal_keys`."""
        doc = self._docs.pop(unid)
        self._by_note_id.pop(doc.note_id, None)
        self._trash_discard(unid)
        self._fp_acc ^= self._doc_contrib(doc)
        self._unindex_parent(doc)
        self._unindex_profile(doc)
        self._journal_drop(unid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NotesDatabase({self.title!r} on {self.server!r}, "
            f"{len(self)} docs, {len(self._stubs)} stubs)"
        )
