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
  note is one engine record, ``doc:<unid>`` or ``stub:<unid>`` holding
  ``marshal.dumps((journal seq, note record))`` (see
  :meth:`Document.to_record`), and each note change is one engine
  transaction (one fsync under a WAL). Open decodes the records and
  rebuilds the journal from their seqs in one pass.
* Optional access control through an attached ACL (``repro.security``).

The database never interprets item values — that is what views, formulas
and agents are for.
"""

from __future__ import annotations

import gc
import hashlib
import json
import marshal
import random
import zlib
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, KeysView

from repro.errors import AccessDenied, DatabaseError, DocumentError, DocumentNotFound
from repro.core.document import Document
from repro.core.items import Item, plain
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

    # Stored as ``marshal.dumps((journal seq, record))``, like a document.
    RECORD_FIELDS = ("unid", "seq", "seq_time", "deleted_at", "deleted_by")

    def __post_init__(self) -> None:
        if type(self.deleted_by) is not str:
            object.__setattr__(self, "deleted_by", plain(self.deleted_by))

    def to_record(self) -> tuple:
        """The stub as one flat tuple of plain builtins."""
        return (self.unid, self.seq, self.seq_time, self.deleted_at, self.deleted_by)

    @classmethod
    def from_record(cls, record: tuple) -> "DeletionStub":
        """Read back :meth:`to_record`, without the dataclass ``__init__``."""
        unid, seq, seq_time, deleted_at, deleted_by = record
        stub = _new_stub(cls)
        fields = stub.__dict__
        fields["unid"] = unid
        fields["seq"] = seq
        fields["seq_time"] = seq_time
        fields["deleted_at"] = deleted_at
        fields["deleted_by"] = deleted_by
        return stub


_new_stub = object.__new__


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
_TRASH_PREFIX = b"trash:"
_META_KEY = b"meta:journal"

# Journal entries are (seq, unid, is_stub, origin) tuples, appended in seq
# order, so a seq cutoff is a binary search for the suffix start. ``origin``
# is the :attr:`NotesDatabase.origin_tag` of the replica the revision was
# installed from (None for a local write); it lives in memory only.
_JournalEntry = tuple[int, str, bool, "tuple[str, int] | None"]

# Compact the journal when more than half of it (and at least this many
# entries) is superseded; rewrites are amortized O(1) per write.
_JOURNAL_COMPACT_MIN = 64

# The purge log (journal entries dropped without a successor) is bounded:
# consumers whose checkpoint predates the retained window rebuild instead.
_PURGE_LOG_MAX = 1024


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a bulk decode.

    Decoding note records allocates many small containers but no cycles,
    so each collector pass those allocations would trigger walks a growing
    heap and frees nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
        # Live owners of persisted derived structures (view sidecars,
        # full-text checkpoints) by sidecar key, one owner per key; offered
        # a save by save_checkpoints() and saved by close().
        self._checkpointers: dict[bytes, Any] = {}
        # -- update-sequence journal (the by-seq index) --
        self._update_seq = 0
        self._journal: list[_JournalEntry] = []
        self._note_seq: dict[str, int] = {}  # unid -> its live journal seq
        self._journal_stale = 0
        # Journal entries the last suffix read had to look at (including
        # superseded ones), and the echoes it left out — the replicator
        # reports both.
        self.last_scan_cost = 0
        self.last_echoes_skipped = 0
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
        # journal they were cut from. Each incarnation of a replica numbers
        # its seqs from 1, so one re-created empty on the same server must
        # not pass for its predecessor: the identity mixes in a timestamp
        # taken when the store holds no journal yet, and is persisted in
        # ``meta:journal`` so a reopen keeps it.
        self.journal_id = ""
        if engine is not None:
            self._load_from_engine()
        if not self.journal_id:
            now, tick = self.clock.timestamp()
            self.journal_id = hashlib.sha256(
                f"journal:{self.replica_id}:{self.server}:{now}:{tick}".encode()
            ).hexdigest()[:16]
        self._commit({_META_KEY: self._meta_payload()})

    # -- observers -----------------------------------------------------------

    def subscribe(self, observer: Observer) -> None:
        """Register for change events (views, FT index, cluster replicator)."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Observer) -> None:
        self._observers.remove(observer)

    # -- checkpoint wiring ---------------------------------------------------

    def register_checkpointer(self, key: bytes, owner) -> bool:
        """Make ``owner`` (a :class:`repro.core.sidecar.PersistedIndex`)
        the live owner of the sidecar under ``key``, so
        :meth:`save_checkpoints` and :meth:`close` reach it. Returns
        False, registering nothing, while another live owner holds
        ``key``: two owners of one sidecar would overwrite each other's
        segments."""
        if key in self._checkpointers:
            return False
        self._checkpointers[key] = owner
        return True

    def unregister_checkpointer(self, key: bytes) -> None:
        self._checkpointers.pop(key, None)

    def save_checkpoints(self) -> int:
        """Offer every registered sidecar a save; each takes it when its
        flush rule holds (see :mod:`repro.core.sidecar`). Returns how
        many saved."""
        owners = list(self._checkpointers.values())
        return sum(owner._flush() for owner in owners)

    def close(self) -> None:
        """Save every registered sidecar, then close the storage engine.

        The database-level counterpart of closing an NSF: derived
        structures write their segment checkpoints (each an O(delta)
        append, see ``repro.storage.segments``) whatever their flush
        rule says, and the engine takes its sharp checkpoint.
        """
        for owner in list(self._checkpointers.values()):
            owner._flush(force=True)
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

    @property
    def origin_tag(self) -> tuple[str, int]:
        """What a revision installed from this replica is journaled with:
        its journal identity and its purge count.

        While both are unchanged this replica has held every UNID it ever
        sent, as a document (trashed or not) or a stub, at or past the
        revision it sent: a note only leaves without a successor through a
        purge or a trim, and both advance the purge count. Past a purge
        the UNID may even be held again as an older revision, so the tags
        cut before it stop matching (see :meth:`journal_entries_since`).
        """
        return (self.journal_id, self._purge_seq)

    def _journal_record(
        self, unid: str, is_stub: bool, origin: tuple[str, int] | None = None
    ) -> None:
        """Assign the next seq to ``unid`` and append its journal entry."""
        if unid in self._note_seq:
            self._journal_stale += 1
        self._update_seq += 1
        entry = (self._update_seq, unid, is_stub, origin)
        self._journal.append(entry)
        self._note_seq[unid] = self._update_seq
        if (
            self._journal_stale > _JOURNAL_COMPACT_MIN
            and self._journal_stale * 2 > len(self._journal)
        ):
            self._compact_journal()

    def _journal_drop(self, unid: str) -> None:
        """Forget ``unid``'s journal entry; the caller's transaction drops
        the note record that carries its seq."""
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
        # A bad value raises here, before the clock, the unid stream or
        # the database change.
        staged = [Item.of(name, value) for name, value in items.items()]
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
        doc.put_items(staged)
        doc.item_times = {item.name: (now, tick) for item in staged}
        self._docs[doc.unid] = doc
        self._by_note_id[doc.note_id] = doc.unid
        self._index_parent(doc)
        self._index_profile(doc)
        self._fp_acc ^= self._doc_contrib(doc)
        self._journal_record(doc.unid, False)
        self._persist_note(_DOC_PREFIX, doc)
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
        staged = [Item.of(name, value) for name, value in items.items()]
        old = doc.copy()
        old_profile_key = self._profile_key(doc)
        doc.put_items(staged)
        for name in remove_items or []:
            if name in doc:
                doc.remove_item(name)
        stamp = self.clock.timestamp()
        self._fp_acc ^= self._doc_contrib(doc)
        doc.bump_revision(stamp, author)
        for item in staged:
            doc.item_times[item.name] = stamp
        for name in remove_items or []:
            doc.item_times[plain(name)] = stamp
        if self._profile_key(doc) != old_profile_key:
            self._unindex_profile(old)
            self._index_profile(doc)
        self._fp_acc ^= self._doc_contrib(doc)
        self._journal_record(unid, False)
        self._persist_note(_DOC_PREFIX, doc)
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
        attach(doc, filename, data)
        stamp = self.clock.timestamp()
        self._fp_acc ^= self._doc_contrib(doc)
        doc.bump_revision(stamp, author)
        doc.item_times[ATTACHMENT_PREFIX + filename] = stamp
        self._fp_acc ^= self._doc_contrib(doc)
        self._journal_record(unid, False)
        self._persist_note(_DOC_PREFIX, doc)
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
        self._journal_record(unid, True)
        self._persist_note(_STUB_PREFIX, stub, drop=self._removal_keys(unid))
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
        and :meth:`restore`, and how a cluster member copies its mate's
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

    def held(self, unid: str) -> Document | None:
        """The document held under ``unid``, in the trash or not, or None."""
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

    @property
    def stub_unids(self) -> KeysView[str]:
        """UNIDs holding a deletion stub (a live view, not a copy)."""
        return self._stubs.keys()

    def stub(self, unid: str) -> DeletionStub | None:
        """The deletion stub held under ``unid``, or None."""
        return self._stubs.get(unid)

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
        and every record removal, so recovery never sees a purged stub
        with an un-advanced purge log.
        """
        if not victims:
            return 0
        for unid in victims:
            del self._stubs[unid]
            self._journal_drop(unid)
            self._log_purge(unid)
        self._commit(
            {_META_KEY: self._meta_payload()},
            drop=[_STUB_PREFIX + unid.encode() for unid in victims],
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

        Kept as the ground truth the incremental accumulator (and the one
        open accumulates while decoding) is tested against.
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
        self, after_seq: int, echoes_of: "NotesDatabase | None" = None
    ) -> list[tuple[int, "Document | DeletionStub"]]:
        """The live journal suffix above ``after_seq`` in seq order.

        Same candidates as :meth:`changed_since_seq` but keeping each
        note's journal seq and the journal's ordering, which is what lets
        a consumer *checkpoint mid-stream*: a replication exchange that
        applies entries in this order may record any prefix's last seq as
        its cursor and resume from there after an interruption.

        With ``echoes_of`` (the replica the suffix is read for) the
        *echoes* are left out: entries whose revision was installed here
        from ``echoes_of`` and are tagged with its current
        :attr:`origin_tag`. That replica still holds the UNID at or past
        the revision, so examining it there would change nothing. An
        entry tagged before its latest purge is kept (a purged note must
        still come back: the resurrection anomaly E2 measures), and so is
        one tagged by another journal (a replica re-created on the same
        server). ``last_echoes_skipped`` counts what was left out.
        """
        start = bisect_right(self._journal, after_seq, key=lambda entry: entry[0])
        suffix = self._journal[start:]
        self.last_scan_cost = len(suffix)
        note_seq, docs, stubs = self._note_seq, self._docs, self._stubs
        echo = echoes_of.origin_tag if echoes_of is not None else None
        skipped = 0
        entries: list[tuple[int, Document | DeletionStub]] = []
        for seq, unid, is_stub, origin in suffix:
            if note_seq.get(unid) != seq:
                continue  # superseded by a later write to the same note
            if origin is not None and origin == echo:
                skipped += 1
                continue
            note = stubs.get(unid) if is_stub else docs.get(unid)
            if note is not None:
                entries.append((seq, note))
        self.last_echoes_skipped = skipped
        return entries

    def raw_put(
        self,
        doc: Document,
        kind: ChangeKind = ChangeKind.REPLACE,
        origin: tuple[str, int] | None = None,
    ) -> None:
        """Install ``doc`` exactly as given (no revision bump).

        The replicator's write path: the incoming document keeps its own
        envelope. Any deletion stub for the UNID is superseded. ``origin``
        is the source replica's :attr:`origin_tag` when ``doc`` is its
        revision as shipped (None for a revision made here, such as a
        conflict resolution's).
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
        self._journal_record(doc.unid, False, origin)
        self._persist_note(_DOC_PREFIX, doc, drop=[_STUB_PREFIX + doc.unid.encode()])
        self._notify(kind, doc, old)

    def raw_delete(
        self, stub: DeletionStub, origin: tuple[str, int] | None = None
    ) -> None:
        """Install a remote deletion: drop the doc, keep the stub.

        One engine transaction removes the doc and writes the stub;
        ``origin`` is as for :meth:`raw_put`.
        """
        old = self._docs.get(stub.unid)
        drop: list[bytes] = []
        if old is not None:
            self._remove_doc_internal(stub.unid)
            drop = self._removal_keys(stub.unid)
        existing = self._stubs.get(stub.unid)
        if existing is None or (stub.seq, stub.seq_time) > (
            existing.seq, existing.seq_time
        ):
            self._stubs[stub.unid] = stub
            self._journal_record(stub.unid, True, origin)
            self._persist_note(_STUB_PREFIX, stub, drop=drop)
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

    def _persist_note(
        self,
        prefix: bytes,
        note: Document | DeletionStub,
        drop: Iterable[bytes] = (),
    ) -> None:
        """One transaction writing the note's record — its journal seq
        beside its :meth:`~Document.to_record` tuple — and removing the
        ``drop`` keys, so a crash can never durably separate a note from
        its seq or from what it replaces."""
        if self.engine is None:
            return
        record = marshal.dumps((self._note_seq[note.unid], note.to_record()))
        self._commit({prefix + note.unid.encode(): record}, drop)

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
        return [_DOC_PREFIX + key, _TRASH_PREFIX + key]

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
        """Decode every note record and rebuild the note ids, the parent
        and profile indexes, the fingerprint and the journal, in one pass.

        Iterate only the note-record prefixes: the engine also holds
        derived-structure sidecars (view indexes, full-text checkpoint
        blobs) that are not ours to parse.
        """
        entries: list[_JournalEntry] = []
        docs, by_note_id = self._docs, self._by_note_id
        note_id = self._next_note_id
        acc = 0
        with _collector_paused():
            for key in self.engine.keys(prefix=_DOC_PREFIX):
                seq, doc = self._read_note_record(key, Document)
                unid = doc.unid
                doc.note_id = note_id
                by_note_id[note_id] = unid
                note_id += 1
                docs[unid] = doc
                entries.append((seq, unid, False, None))
                self._index_parent(doc)
                self._index_profile(doc)
                acc ^= _revision_contrib(unid, doc.seq, doc.seq_time)
            for key in self.engine.keys(prefix=_STUB_PREFIX):
                seq, stub = self._read_note_record(key, DeletionStub)
                self._stubs[stub.unid] = stub
                entries.append((seq, stub.unid, True, None))
        self._next_note_id = note_id
        for key in self.engine.keys(prefix=_TRASH_PREFIX):
            unid = key[len(_TRASH_PREFIX):].decode()
            if unid in docs:
                self._trash.add(unid)
                acc ^= self._trash_contrib(unid)
        self._fp_acc = acc
        # Seqs keep their meaning across restarts, so partners' receive
        # cursors and consumers' checkpoints stay valid. Origin tags do
        # not survive: reopened entries are examined like local writes.
        entries.sort()
        self._journal = entries
        self._note_seq = {unid: seq for seq, unid, _, _ in entries}
        self._update_seq = entries[-1][0] if entries else 0
        raw_meta = self.engine.get(_META_KEY)
        if raw_meta is not None:
            meta = json.loads(raw_meta.decode())
            self.journal_id = meta["journal_id"]
            self._update_seq = max(self._update_seq, int(meta["update_seq"]))
            self._purge_seq = int(meta["purge_seq"])
            self._purges = [(int(seq), unid) for seq, unid in meta["purges"]]

    def _read_note_record(
        self, key: bytes, kind: type[Document] | type[DeletionStub]
    ) -> tuple[int, Document | DeletionStub]:
        """Decode the record under ``key`` into ``(journal seq, note)``,
        where ``kind`` is :class:`Document` or :class:`DeletionStub`.

        The only reader of note records. Anything but a marshal
        ``(int seq, record tuple)`` pair of the right length that decodes
        to a valid note — the JSON layouts older builds wrote, torn or
        garbage bytes — is refused with a :class:`DatabaseError`.
        """
        raw = self.engine.get(key)
        try:
            # A marshal 2-tuple starts with its small-tuple code, with or
            # without the ref flag. The check also keeps the JSON layouts
            # ('[' and '{') away from marshal, which would read them as a
            # list or dict of absurd declared size.
            if not raw or raw[0] & 0x7F != 0x29:
                raise ValueError("not a marshal tuple")
            record = marshal.loads(raw)
            if not (
                type(record) is tuple
                and len(record) == 2
                and type(record[0]) is int
                and type(record[1]) is tuple
                and len(record[1]) == len(kind.RECORD_FIELDS)
            ):
                raise ValueError("not a (seq, note record) pair")
            return record[0], kind.from_record(record[1])
        except (ValueError, EOFError, TypeError, DocumentError) as exc:
            raise DatabaseError(
                f"{key.decode(errors='replace')!r} in {self.title!r} is not a "
                f"note record this build reads ({exc}): the store predates "
                "binary note records with per-note journal seqs, or is "
                "damaged. Re-create the replica and pull its notes from a "
                "partner."
            ) from None

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
