"""The transactional key-value storage engine.

This is the layer the NSF file plays for a Domino server: a durable store of
variable-length records (serialized notes) addressed by key (the note UNID),
with transactional updates, write-ahead logging, sharp checkpoints, and crash
recovery. Values larger than a page are chunked across heap pages; an
in-memory index maps each key to its chunk locations.

The index persists in the ``.chk`` file as a chain: a JSON *base* (the
whole index and free map, ended by a newline) followed by CRC-framed
*deltas*, each the entries and free figures that changed between two
checkpoints. A checkpoint appends one delta, so it costs what changed,
not the size of the store. Once the deltas' bytes reach half the base's,
the chain folds into a fresh base (temp file, fsync, rename); a clean
close always folds, so a closed store's ``.chk`` is a lone base. Open
reads the base, applies the deltas in order, and cuts off a torn tail.

Durability modes (experiment E7 compares them):

``"wal"``
    Commit appends the transaction's whole write-set as one log record and
    flushes the log; heap pages are written back lazily (no-force). Crash
    recovery replays the log. ``put``/``delete`` only buffer, so a
    transaction costs one fsync however many keys it writes, and an open
    transaction has nothing in the log.
``"force"``
    No log. Commit places the after-images, forces every dirty page to
    disk and appends the commit's index delta to the ``.chk`` — the pre-R5
    Notes discipline the paper contrasts with logging. The before-images'
    slots are freed only after the delta is durable, so the ``.chk`` never
    names a slot another key may have reused; open sweeps the slots a
    crash stranded.
``"none"``
    No durability at all (fastest; for pure in-memory experiments).

Crash model. Transaction data is *no-steal, no-force*: uncommitted
writes never reach the heap or the log, and committed writes are not
forced at commit (their log record is). A transaction is in the log only
as its commit record, so recovery is one redo pass: replay the writes of
every whole record in log order onto the checkpoint's index. Replay
never frees a key's checkpoint-time chunks (pages written back after the
checkpoint may have reused those slots for other keys); it only
re-points the key, and the engine then sweeps every slot the replayed
index leaves unreferenced. Replay is idempotent at the key/value level:
a put stores the same value (possibly at a new heap location) and a
delete of an absent key is a no-op. A torn final record belongs to a
commit that never returned, and is skipped.

:meth:`StorageEngine.compact` rewrites the heap into a fresh store at
``<path>.compact``; renaming that store's ``.chk`` base into place is
its commit point. Every open first finishes a compaction that got that
far and deletes the leftovers of one that did not.
"""

from __future__ import annotations

import json
import marshal
import os
from dataclasses import dataclass
from typing import Iterator

from repro.errors import StorageError, WalError
from repro.storage.bufferpool import BufferPool
from repro.storage.pagedfile import PagedFile
from repro.storage.pages import SlottedPage
from repro.storage.wal import (
    WriteAheadLog, decode_commit, encode_commit, frame, unframe,
)

_CHUNK_SIZE = SlottedPage.max_record_size() - 8

# Free-space size classes for insert placement: bucket k < _TOP holds the
# pages with k * _BUCKET_GRAIN to (k + 1) * _BUCKET_GRAIN - 1 reclaimable
# bytes, bucket _TOP those that fit any chunk. Every page in the class a
# chunk maps to fits it, so placement fetches one page.
_BUCKET_GRAIN = 256
_TOP = _CHUNK_SIZE // _BUCKET_GRAIN + 1

_DURABILITY_MODES = ("wal", "force", "none")


class Transaction:
    """A unit of atomic update against one :class:`StorageEngine`."""

    def __init__(self) -> None:
        # key -> bytes (put) or None (delete); insertion order preserved.
        self.writes: dict[bytes, bytes | None] = {}
        self.state = "active"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction(writes={len(self.writes)}, {self.state})"


@dataclass
class RecoveryReport:
    """What a recovery pass saw and did — recorded for experiment E7."""

    committed_txns: int = 0
    puts_replayed: int = 0
    deletes_replayed: int = 0

    @property
    def ops_replayed(self) -> int:
        return self.puts_replayed + self.deletes_replayed


class StorageEngine:
    """Durable transactional record store over slotted pages + WAL."""

    def __init__(
        self,
        path: str,
        pool_size: int = 256,
        durability: str = "wal",
    ) -> None:
        if durability not in _DURABILITY_MODES:
            raise StorageError(f"durability must be one of {_DURABILITY_MODES}")
        self.path = path
        self.durability = durability
        self._open_store(pool_size)

    def _open_store(self, pool_size: int) -> None:
        """Open the files at :attr:`path` and recover their committed
        state; :meth:`compact` reopens through here too."""
        fresh = self.path + ".compact"
        if os.path.exists(fresh + ".chk"):
            # A compaction passed its commit point: finish moving its
            # store over this one (the .pages may have moved already).
            if os.path.exists(fresh + ".pages"):
                os.replace(fresh + ".pages", self.path + ".pages")
            os.replace(fresh + ".chk", self.path + ".chk")
        for leftover in (fresh + ".pages", fresh + ".chk.tmp"):
            if os.path.exists(leftover):
                os.remove(leftover)
        self._pages = PagedFile(self.path + ".pages")
        self._wal = None
        try:
            if self.durability == "wal":
                self._wal = WriteAheadLog(self.path + ".wal")
            self._recover(pool_size)
        except BaseException:
            # A store that cannot be recovered (a log in an older layout,
            # a crash mid-open) is refused with its files closed.
            self._release()
            raise

    def _recover(self, pool_size: int) -> None:
        """Load the ``.chk`` chain and redo the log into a fresh pool."""
        self._pool = BufferPool(
            self._pages,
            capacity=pool_size,
            before_write=self._wal.flush if self._wal else None,
        )
        # key -> list of (page_id, slot) chunk locations, committed state only.
        self._index: dict[bytes, list[tuple[int, int]]] = {}
        # page_id -> its SlottedPage.reclaimable, kept exact by every
        # insert and delete. A checkpoint from an older build may hold
        # lower (contiguous-only) figures, and a crash can leave some
        # too high; placement re-files a page whose figure proves wrong.
        self._free: dict[int, int] = {}
        # The free map bucketed by size class (derived from _free; rebuilt
        # on load). Pages with no room for even an empty record are left
        # out.
        self._free_buckets: list[set[int]] = [set() for _ in range(_TOP + 1)]
        # The page the heap last freed or filled a slot on: already dirty,
        # so it is the first place a chunk is offered.
        self._last_page: int | None = None
        # The keys and pages whose index entry or free figure changed
        # since the .chk last recorded them: the next delta.
        self._dirty_keys: set[bytes] = set()
        self._dirty_pages: set[int] = set()
        # Bytes of the .chk base and of the delta chain behind it. A base
        # of 0 bytes (no .chk yet, or one an older build wrote) makes the
        # next checkpoint write a fresh base.
        self._base_bytes = 0
        self._delta_bytes = 0
        self._open = True
        self.last_recovery: RecoveryReport | None = None
        self._load_checkpoint()
        if self._wal is not None:
            self.last_recovery = self._replay()
            if self._wal.end_lsn:
                self._sweep_orphans()
                # Start from an empty log: later commits must not land
                # behind a torn tail, which a second recovery would then
                # meet mid-log.
                self.checkpoint()
        elif self.durability == "force":
            # A crash can strand the after-images of a commit whose delta
            # never reached the .chk, and the before-images of one whose
            # frees never reached the heap.
            self._sweep_orphans()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Checkpoint into a fresh ``.chk`` base (when durable) and release
        file handles."""
        if not self._open:
            return
        if self.durability != "none":
            self._pool.flush_all()
            if self._delta_bytes or self._dirty_keys or self._dirty_pages \
                    or not self._base_bytes:
                self._write_base()
            if self._wal is not None:
                self._wal.truncate()
        if self._wal is not None:
            self._wal.close()
        self._pool.flush_all()
        self._pages.close()
        self._open = False

    def _release(self) -> None:
        """Close the store's files and write nothing back: what the pool
        and the index hold is either superseded (by a compacted store) or
        was never recovered (a failed open)."""
        if self._wal is not None:
            self._wal.close()
        self._pages.close()
        self._open = False

    def compact(self) -> None:
        """Rewrite the heap without its dead space (the admin ``compact``
        task); all keys and values are kept and the engine stays open.

        Live records are copied into a fresh store at ``<path>.compact``
        (durability ``"none"``), whose checkpoint syncs its pages and
        then renames its ``.chk`` base into place: that rename is the
        commit point. The fresh store closes; this one empties its log
        (the fresh store holds every commit) and releases its files
        without writing its own heap or ``.chk`` back, since both are
        about to be replaced. The reopen then moves the fresh ``.pages``
        and ``.chk`` over this store's own, as any open would after a
        crash past the commit point.
        """
        self._require_open()
        with StorageEngine(self.path + ".compact", durability="none") as fresh:
            for key in self._index:
                fresh.set(key, self._read_committed(key))
            fresh.checkpoint()
        if self._wal is not None:
            self._wal.truncate()
        self._release()
        self._open_store(self._pool.capacity)

    def simulate_crash(self) -> None:
        """Drop all volatile state without flushing — then reopen to recover.

        Unflushed WAL bytes are discarded (they were never fsynced, so a real
        crash would lose them); dirty heap pages in the pool are dropped.
        """
        if self._wal is not None:
            self._wal.abandon()
        self._pool.drop_all()
        self._pages.close()
        self._open = False

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transactions -----------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction."""
        self._require_open()
        return Transaction()

    def put(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer a write of ``key`` in ``txn`` (visible to ``txn`` only)."""
        self._require_active(txn)
        txn.writes[key] = value

    def delete(self, txn: Transaction, key: bytes) -> None:
        """Buffer a delete of ``key`` in ``txn``."""
        self._require_active(txn)
        txn.writes[key] = None

    def commit(self, txn: Transaction) -> None:
        """Make ``txn``'s writes durable and visible."""
        self._require_active(txn)
        if self._wal is not None and txn.writes:
            self._wal.append(encode_commit(txn.writes))
            self._wal.flush()
        force = self.durability == "force"
        stale: list[tuple[int, int]] = []
        for key, value in txn.writes.items():
            old = self._index.get(key)
            if old is not None:
                if force:
                    stale += old
                else:
                    # Free first: the new value lands in the hole the old
                    # one left, so it dirties no other page.
                    self._free_locations(old)
            self._repoint(key, value)
        if force and txn.writes:
            # After-images, then the index naming them, reach disk before
            # any before-image slot is freed for reuse.
            self._pool.flush_all()
            self._persist_index()
            self._free_locations(stale)
        txn.state = "committed"

    def abort(self, txn: Transaction) -> None:
        """Discard ``txn``'s buffered writes."""
        self._require_active(txn)
        txn.writes.clear()
        txn.state = "aborted"

    # -- autocommit convenience ---------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        """Single-write transaction: put + commit."""
        txn = self.begin()
        self.put(txn, key, value)
        self.commit(txn)

    def remove(self, key: bytes) -> None:
        """Single-delete transaction: delete + commit."""
        txn = self.begin()
        self.delete(txn, key)
        self.commit(txn)

    # -- reads ------------------------------------------------------------

    def get(self, key: bytes, txn: Transaction | None = None) -> bytes | None:
        """Committed value of ``key`` (plus ``txn``'s own uncommitted writes)."""
        self._require_open()
        if txn is not None and key in txn.writes:
            return txn.writes[key]
        return self._read_committed(key)

    def __contains__(self, key: bytes) -> bool:
        return key in self._index

    def keys(self, prefix: bytes | None = None) -> Iterator[bytes]:
        """Committed keys (unordered), optionally only those under ``prefix``.

        The index is in memory, so prefix filtering here saves callers
        from fetching and decoding records they don't want — a database
        open reads note records without touching view sidecars or
        full-text checkpoint blobs (which aren't even JSON).
        """
        if prefix is None:
            return iter(list(self._index))
        return iter([key for key in self._index if key.startswith(prefix)])

    def __len__(self) -> int:
        return len(self._index)

    @property
    def page_count(self) -> int:
        """Heap pages in the ``.pages`` file."""
        return self._pages.page_count

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> None:
        """Sharp checkpoint: flush heap, persist the index changes, truncate
        the log."""
        self._require_open()
        self._pool.flush_all()
        self._persist_index()
        if self._wal is not None:
            self._wal.truncate()

    def _persist_index(self) -> None:
        """Bring the ``.chk`` up to the in-memory index: append one delta
        of what changed since it last did, or fold the chain into a fresh
        base once the deltas' bytes would reach half the base's."""
        if not self._base_bytes:
            self._write_base()
            return
        if not (self._dirty_keys or self._dirty_pages):
            return
        record = frame(marshal.dumps((
            {key: self._index.get(key) for key in self._dirty_keys},
            {page_id: self._free[page_id] for page_id in self._dirty_pages},
        )))
        if 2 * (self._delta_bytes + len(record)) >= self._base_bytes:
            self._write_base()
            return
        with open(self.path + ".chk", "ab") as out:
            out.write(record)
            out.flush()
            os.fsync(out.fileno())
        self._delta_bytes += len(record)
        self._dirty_keys.clear()
        self._dirty_pages.clear()

    def _write_base(self) -> None:
        """Replace the ``.chk`` with a base holding the whole index and
        free map."""
        self._base_bytes = write_snapshot(self.path + ".chk", {
            "index": {key.hex(): locs for key, locs in self._index.items()},
            "free": self._free,
        })
        self._delta_bytes = 0
        self._dirty_keys.clear()
        self._dirty_pages.clear()

    def _load_checkpoint(self) -> None:
        """Adopt the ``.chk`` chain, base then each delta in order; cut
        off a torn or corrupt tail (a checkpoint that never returned) so
        later deltas follow whole ones. Nothing is left to persist."""
        chk_path = self.path + ".chk"
        if not os.path.exists(chk_path):
            return
        with open(chk_path, "rb") as source:
            data = source.read()
        base_end = data.find(b"\n") + 1
        # An older build's base has no terminator to append behind: it
        # reads whole, and _base_bytes stays 0, so the next checkpoint
        # rewrites it.
        snapshot = json.loads(data[: base_end or None])
        self._index = {
            bytes.fromhex(key): [tuple(loc) for loc in locs]
            for key, locs in snapshot["index"].items()
        }
        self._free = {int(page): free for page, free in snapshot["free"].items()}
        end = base_end
        for payload, end in unframe(data, base_end) if base_end else ():
            index_delta, free_delta = marshal.loads(payload)
            for key, locations in index_delta.items():
                if locations is None:
                    self._index.pop(key, None)
                else:
                    self._index[key] = locations
            self._free.update(free_delta)
        for page_id, free in self._free.items():
            self._file_free(page_id, free)
        if base_end:
            if end < len(data):
                os.truncate(chk_path, end)
            self._base_bytes = base_end
            self._delta_bytes = end - base_end

    # -- heap operations (committed state) -------------------------------

    def _read_committed(self, key: bytes) -> bytes | None:
        locations = self._index.get(key)
        if locations is None:
            return None
        chunks = []
        for page_id, slot in locations:
            page = self._pool.fetch(page_id)
            try:
                chunks.append(page.get(slot))
            finally:
                self._pool.unpin(page_id)
        return b"".join(chunks)

    def _insert_value(self, value: bytes) -> list[tuple[int, int]]:
        # max(len, 1) so a zero-length value still gets one (empty) chunk
        # and therefore exists in the heap.
        return [
            self._insert_chunk(value[start : start + _CHUNK_SIZE])
            for start in range(0, max(len(value), 1), _CHUNK_SIZE)
        ]

    def _replay(self) -> RecoveryReport:
        """Replay every committed write in the log through
        :meth:`_repoint`; the caller sweeps the orphaned slots after."""
        report = RecoveryReport()
        for payload in self._wal.records():
            for key, value in decode_commit(payload):
                self._repoint(key, value)
                if value is None:
                    report.deletes_replayed += 1
                else:
                    report.puts_replayed += 1
            report.committed_txns += 1
        return report

    def _repoint(self, key: bytes, value: bytes | None) -> None:
        """Point ``key`` at ``value`` placed afresh (or drop it for None),
        *without* freeing its old chunks.

        Replay calls this directly: a dirty page written back after the
        checkpoint may already have freed the key's checkpoint-time slots
        and reused them for another key's chunk, so freeing by those
        locations could delete live data. :meth:`_sweep_orphans` frees
        whatever the replayed index no longer references.
        """
        self._index.pop(key, None)
        self._dirty_keys.add(key)
        if value is not None:
            self._index[key] = self._insert_value(value)

    def _sweep_orphans(self) -> None:
        """After replay: delete every live slot no index entry references
        and re-file each page's free figure.

        Orphans are the checkpoint-time chunks of replayed keys and the
        chunks committed after the checkpoint that pool eviction wrote
        back before the crash (replay placed those values again); in a
        ``force`` store, the chunks of a commit the crash cut off on
        either side of its delta.
        """
        referenced: dict[int, set[int]] = {}
        for locations in self._index.values():
            for page_id, slot in locations:
                referenced.setdefault(page_id, set()).add(slot)
        for page_id in range(1, self._pages.page_count + 1):
            page = self._pool.fetch(page_id)
            keep = referenced.get(page_id, ())
            orphans = [slot for slot in page.slots() if slot not in keep]
            for slot in orphans:
                page.delete(slot)
            self._set_free(page_id, page.reclaimable)
            self._pool.unpin(page_id, dirty=bool(orphans))

    def _free_locations(self, locations: list[tuple[int, int]]) -> None:
        for page_id, slot in locations:
            page = self._pool.fetch(page_id)
            try:
                page.delete(slot)
            finally:
                self._pool.unpin(page_id, dirty=True)
            self._set_free(page_id, page.reclaimable)
            self._last_page = page_id

    def _insert_chunk(self, chunk: bytes) -> tuple[int, int]:
        need = len(chunk)
        # The page last written first: a rewritten value lands in the hole
        # its old value just left, so it dirties no other page.
        if self._free.get(self._last_page, -1) >= need:
            location = self._try_place(self._last_page, chunk)
            if location is not None:
                return location
        # Else the smallest adequate size class, so big holes stay
        # available for big chunks. The first page probed fits unless its
        # figure is stale; such a page moves to its true, lower class, out
        # of this search.
        for bucket in self._free_buckets[self._need_class(need) :]:
            while bucket:
                location = self._try_place(next(iter(bucket)), chunk)
                if location is not None:
                    return location
        return self._place(*self._pool.new_page(), chunk)

    def _try_place(self, page_id: int, chunk: bytes) -> tuple[int, int] | None:
        """Insert ``chunk`` into ``page_id`` if it fits; else re-file the
        page under its true free figure and return None."""
        page = self._pool.fetch(page_id)
        if page.fits(len(chunk)):
            return self._place(page_id, page, chunk)
        self._set_free(page_id, page.reclaimable)
        self._pool.unpin(page_id)
        return None

    def _place(self, page_id: int, page: SlottedPage, chunk: bytes) -> tuple[int, int]:
        """Insert ``chunk`` into the pinned ``page``, then unpin it."""
        slot = page.insert(chunk)
        self._set_free(page_id, page.reclaimable)
        self._pool.unpin(page_id, dirty=True)
        self._last_page = page_id
        return (page_id, slot)

    def _set_free(self, page_id: int, free: int) -> None:
        """Record a page's reclaimable bytes and re-file its size class."""
        old = self._free.get(page_id)
        if old is not None and old >= 0:
            self._free_buckets[self._bucket(old)].discard(page_id)
        self._free[page_id] = free
        self._dirty_pages.add(page_id)
        self._file_free(page_id, free)

    def _file_free(self, page_id: int, free: int) -> None:
        if free >= 0:
            self._free_buckets[self._bucket(free)].add(page_id)

    @staticmethod
    def _bucket(free: int) -> int:
        """The size class of a page with ``free`` reclaimable bytes."""
        return _TOP if free >= _CHUNK_SIZE else free // _BUCKET_GRAIN

    @staticmethod
    def _need_class(need: int) -> int:
        """The smallest size class all of whose pages fit ``need`` bytes."""
        return min(-(-need // _BUCKET_GRAIN), _TOP)

    # -- guards -----------------------------------------------------------

    def _require_open(self) -> None:
        if not self._open:
            raise StorageError("storage engine is closed")

    def _require_active(self, txn: Transaction) -> None:
        self._require_open()
        if txn.state != "active":
            raise WalError(f"transaction is {txn.state}")


def write_snapshot(path: str, snapshot: dict) -> int:
    """Write a ``.chk`` base durably and atomically (temp file + rename);
    returns its length in bytes.

    The newline ends the base, so deltas can follow it. ``json.dumps``
    runs the C encoder (and escapes every newline inside strings);
    ``json.dump`` streams through the pure-Python one for the same bytes.
    """
    data = (json.dumps(snapshot) + "\n").encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as out:
        out.write(data)
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)
    return len(data)
