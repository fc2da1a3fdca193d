"""The transactional key-value storage engine.

This is the layer the NSF file plays for a Domino server: a durable store of
variable-length records (serialized notes) addressed by key (the note UNID),
with transactional updates, write-ahead logging, sharp checkpoints, and crash
recovery. Values larger than a page are chunked across heap pages; an
in-memory index maps each key to its chunk locations and is persisted at
checkpoint time.

Durability modes (experiment E7 compares them):

``"wal"``
    Commit appends the transaction's whole write-set as one log record and
    flushes the log; heap pages are written back lazily (no-force). Crash
    recovery replays the log. ``put``/``delete`` only buffer, so a
    transaction costs one fsync however many keys it writes, and an open
    transaction has nothing in the log.
``"force"``
    No log. Commit applies the write-set and forces every dirty page to
    disk — the pre-R5 Notes discipline the paper contrasts with logging.
``"none"``
    No durability at all (fastest; for pure in-memory experiments).
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from repro.errors import PageError, StorageError, WalError
from repro.storage import recovery as recovery_mod
from repro.storage.bufferpool import BufferPool
from repro.storage.pagedfile import PagedFile
from repro.storage.pages import SlottedPage
from repro.storage.wal import WriteAheadLog, encode_commit

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
        self._pages = PagedFile(path + ".pages")
        self._wal = (
            WriteAheadLog(path + ".wal") if durability == "wal" else None
        )
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
        self._open = True
        self.last_recovery: recovery_mod.RecoveryReport | None = None
        self._load_checkpoint()
        if self._wal is not None:
            self.last_recovery = recovery_mod.replay(self, self._wal)
            if self._wal.end_lsn:
                self._sweep_orphans()
                # Start from an empty log: later commits must not land
                # behind a torn tail, which a second recovery would then
                # meet mid-log.
                self.checkpoint()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Checkpoint (when durable) and release file handles."""
        if not self._open:
            return
        if self.durability != "none":
            self.checkpoint()
        if self._wal is not None:
            self._wal.close()
        self._pool.flush_all()
        self._pages.close()
        self._open = False

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
        for key, value in txn.writes.items():
            if value is None:
                self._apply_delete(key)
            else:
                self._apply_put(key, value)
        if self.durability == "force":
            self._pool.flush_all()
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

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> None:
        """Sharp checkpoint: flush heap, persist the index, truncate the log."""
        self._require_open()
        self._pool.flush_all()
        write_snapshot(self.path + ".chk", self._snapshot())
        if self._wal is not None:
            self._wal.truncate()

    def _snapshot(self) -> dict:
        """The index and free map as the ``.chk`` file stores them."""
        return {
            "index": {key.hex(): locs for key, locs in self._index.items()},
            "free": self._free,
        }

    def _restore(self, snapshot: dict) -> None:
        """Adopt a :meth:`_snapshot` (read back from a ``.chk`` file)."""
        self._index = {
            bytes.fromhex(key): [tuple(loc) for loc in locs]
            for key, locs in snapshot["index"].items()
        }
        self._free = {int(page): free for page, free in snapshot["free"].items()}
        self._free_buckets = [set() for _ in range(_TOP + 1)]
        for page_id, free in self._free.items():
            self._file_free(page_id, free)

    def _load_checkpoint(self) -> None:
        chk_path = self.path + ".chk"
        if os.path.exists(chk_path):
            with open(chk_path, encoding="utf-8") as source:
                self._restore(json.load(source))

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

    def _apply_put(self, key: bytes, value: bytes) -> None:
        """Write ``value`` into the heap and point the index at it."""
        old = self._index.pop(key, None)
        if old is not None:
            self._free_locations(old)
        self._index[key] = self._insert_value(value)

    def _insert_value(self, value: bytes) -> list[tuple[int, int]]:
        # max(len, 1) so a zero-length value still gets one (empty) chunk
        # and therefore exists in the heap.
        return [
            self._insert_chunk(value[start : start + _CHUNK_SIZE])
            for start in range(0, max(len(value), 1), _CHUNK_SIZE)
        ]

    def _redo(self, key: bytes, value: bytes | None) -> None:
        """Replay one logged write: forget the key's checkpoint-time
        chunks *without* freeing them, then place ``value`` afresh.

        A dirty page written back after the checkpoint may already have
        freed those slots and reused them for another key's chunk, so
        freeing by the checkpoint's locations could delete live data.
        :meth:`_sweep_orphans` frees whatever the replayed index no
        longer references.
        """
        self._index.pop(key, None)
        if value is not None:
            self._index[key] = self._insert_value(value)

    def _sweep_orphans(self) -> None:
        """After replay: delete every live slot no index entry references
        and re-file each page's free figure.

        Orphans are the checkpoint-time chunks of replayed keys and the
        chunks committed after the checkpoint that pool eviction wrote
        back before the crash (replay placed those values again).
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

    def _apply_delete(self, key: bytes) -> None:
        locations = self._index.pop(key, None)
        if locations is not None:
            self._free_locations(locations)

    def _free_locations(self, locations: list[tuple[int, int]]) -> None:
        for page_id, slot in locations:
            page = self._pool.fetch(page_id)
            dirty = True
            try:
                page.delete(slot)
                self._set_free(page_id, page.reclaimable)
                self._last_page = page_id
            except PageError:
                # A "force" store reopened after a crash has no log to
                # replay: its checkpoint-time index can name slots that
                # pages forced since have freed. A stale free is skipped.
                dirty = False
            finally:
                self._pool.unpin(page_id, dirty=dirty)

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


def write_snapshot(path: str, snapshot: dict) -> None:
    """Write a ``.chk`` snapshot durably and atomically (temp file + rename).

    ``json.dumps`` runs the C encoder; ``json.dump`` streams through the
    pure-Python one for the same bytes.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as out:
        out.write(json.dumps(snapshot))
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)
