"""The persisted-index lifecycle shared by views and the full-text index.

A derived index rides the database's update-seq journal and may keep a
*sidecar* in the storage engine: a :class:`repro.storage.SegmentStack`
of its records plus one JSON meta record. :class:`PersistedIndex` owns
that lifecycle; each consumer says only how its records encode, which
are dirty, and (for keys live in several segments) how a fold resolves
a key.

* **Meta record**: the sidecar ``layout`` version (:data:`LAYOUT`), an
  optional ``design`` fingerprint, the
  :meth:`~repro.core.database.Checkpoint.to_meta` fields, and the stack
  manifest under ``index``.
* **Save**, one engine transaction: on a fresh stack (first save, or
  first after a rebuild) delete every segment the old meta record names
  and write the whole index; otherwise append the delta since the last
  save and let the stack fold. Then put the meta record and commit.
* **Load**: a missing meta record, another layout version, another
  design, no manifest, a checkpoint ``changes_since`` cannot catch up
  from, or a lost segment each mean rebuild; otherwise adopt the stack
  and top up. A rebuild drops the stack, so the first save after it
  deletes the segments the old meta record names: an older layout is
  rebuilt once and never read.
* **Flush rule**: :meth:`~repro.core.database.NotesDatabase.save_checkpoints`
  saves an index only while it has no stack yet, or once its unsaved
  delta reaches 1/:data:`FLUSH_DIVISOR` of what it holds — a memtable
  flushed at a size, not at every log sync (the LSM-tree rule). An
  unsaved delta is never lost: the journal holds it, and a load tops up
  from ``changes_since``. ``close()``, the consumer's explicit save,
  :meth:`~repro.core.database.NotesDatabase.close` and a manual
  top-up always save.
* **One owner**: a database holds at most one live index per sidecar
  key; opening a second raises the consumer's error until the first
  closes.
* **Refresh** (``manual`` mode): ``"noop"``, ``"topup"``, ``"rebuild"``,
  or ``"merge"`` — a persisted index saves after every top-up, and a
  save that folded segments reports ``"merge"``.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.core.database import Checkpoint
from repro.core.stats import CatchUpStats
from repro.storage.segments import SegmentStack, SegmentStats

#: A checkpoint saves an index once its unsaved delta is at least
#: 1/FLUSH_DIVISOR of what the index holds.
FLUSH_DIVISOR = 8

#: The sidecar layout version a meta record carries. 2: segment
#: directories hold sorted keys, record lengths and tombstones; full-text
#: postings are keyed by segment-local document numbers; a view record
#: carries its entry's READERS flag. A meta record without it (or with
#: another) is from an older layout and does not load.
LAYOUT = 2


class PersistedIndex:
    """Mixin for a journal consumer with an optional segment sidecar.

    The consumer calls :meth:`_open_index` last in ``__init__`` and
    supplies ``_ERROR`` (raised for a bad mode or a missing engine),
    ``rebuild()`` (index everything, drop ``_stack``, set
    ``_checkpoint``), ``_reindex(unid)``, ``_on_change`` (subscribed in
    ``auto`` mode), ``_take_delta(fresh)`` (the ``(records, removed
    keys)`` of the next segment — the whole index when ``fresh`` — which
    then stop counting as dirty), ``_unsaved()`` (the ``(delta, held)``
    sizes the flush rule compares), ``_adopt_stack(meta)`` (take in a
    loaded stack's records; ``meta`` is the meta record) and optionally
    ``_combine`` (the fold callback, a
    :data:`~repro.storage.segments.Combine`) and ``_meta_fields()`` (its own
    fields for the meta record).
    """

    _ERROR: type[Exception]
    _combine: Callable | None = None

    def _meta_fields(self) -> dict:
        return {}

    def _open_index(
        self,
        db,
        mode: str,
        persist: bool,
        save: Callable[[], None],
        meta_key: bytes,
        namespace: bytes,
        stats_name: str,
        design: str | None = None,
        legacy_stacks: dict[str, bytes] | None = None,
    ) -> None:
        """Check the mode, then register as the owner of ``meta_key``,
        subscribe, and load the sidecar or rebuild. ``save`` is the
        consumer's explicit save.

        ``legacy_stacks`` names manifests (meta field → namespace) of an
        older layout whose segments the first save deletes.
        """
        if mode not in ("auto", "manual"):
            raise self._ERROR(f"mode must be 'auto' or 'manual', got {mode!r}")
        if persist and db.engine is None:
            raise self._ERROR("persist=True needs a database with a storage engine")
        if persist and not db.register_checkpointer(meta_key, self):
            raise self._ERROR(
                f"the database already has a live persisted index under "
                f"{meta_key.decode()!r}; close it first"
            )
        self.db = db
        self.mode = mode
        self.persist = persist
        self._save = save
        self._meta_key = meta_key
        self._namespace = namespace
        self._design = design
        self._legacy_stacks = legacy_stacks or {}
        # The on-disk stack (None until a save or load; a rebuild drops
        # it, so the next save rewrites it from scratch).
        self._stack: SegmentStack | None = None
        # Outlives stack reconstructions, so its counters accumulate.
        self._segment_stats = SegmentStats()
        self.catch_up = CatchUpStats()
        self.catch_up.segment_stats[stats_name] = self._segment_stats
        self.rebuilds = 0
        self.incremental_ops = 0
        self.loaded_from_disk = False
        # The database state the index reflects; what refresh() catches
        # up from and the next save records.
        self._checkpoint: Checkpoint
        if mode == "auto":
            db.subscribe(self._on_change)
        if not (persist and self._load_index()):
            self.rebuild()

    def close(self) -> None:
        """Save the sidecar when persistent, then :meth:`detach`."""
        if self.persist:
            self._save()
        self.detach()

    def detach(self) -> None:
        """Detach from database events and give up the sidecar key,
        saving nothing: for an index about to be replaced (a changed view
        design), whose successor rewrites the sidecar anyway."""
        if self.persist:
            self.db.unregister_checkpointer(self._meta_key)
        if self.mode == "auto":
            self.db.unsubscribe(self._on_change)

    def refresh(self) -> str:
        """Bring a ``manual`` index up to date; report which path ran.

        ``"noop"`` (already current, or an ``auto`` index), ``"topup"``
        (re-indexes only what :meth:`~NotesDatabase.changes_since`
        reports), ``"merge"`` (a top-up on a persistent index whose
        checkpoint save also folded segments) or ``"rebuild"`` (the
        checkpoint was cut from another journal, or the purge log no
        longer reaches back to it).
        """
        if self.mode != "manual":
            self.catch_up.record_noop()
            return "noop"
        changes = self.db.changes_since(self._checkpoint)
        if changes is None:
            self.rebuild()
        else:
            self._catch_up(changes)
            if self.persist and self.catch_up.last_path == "topup":
                self._save()  # record_merge promotes a folding save
        return self.catch_up.last_path

    def _flush(self, force: bool = False) -> bool:
        """Save when ``force``d, when there is no stack yet, or when the
        unsaved delta reaches 1/:data:`FLUSH_DIVISOR` of what the index
        holds; True when it saved."""
        if not force and self._stack is not None:
            delta, held = self._unsaved()
            if delta * FLUSH_DIVISOR < held:
                return False
        self._save()
        return True

    def _catch_up(self, changes: tuple[list[str], list[str]]) -> None:
        """Re-index what ``changes_since`` reported; the index then equals
        what a rebuild would produce."""
        self.catch_up.replay(changes, self._reindex)
        self._checkpoint = self.db.checkpoint()

    def _save_index(self) -> None:
        """Append the delta since the last save and write the meta record,
        all in one engine transaction."""
        engine = self.db.engine
        if engine is None:
            raise self._ERROR("database has no storage engine")
        if self.mode == "auto":
            # An auto index tracks every change, so it is current now; a
            # manual one keeps the checkpoint it last caught up to.
            self._checkpoint = self.db.checkpoint()
        txn = engine.begin()
        fresh = self._stack is None
        if fresh:
            raw = engine.get(self._meta_key)
            if raw is not None:
                old_meta = json.loads(raw)
                stacks = {**self._legacy_stacks, "index": self._namespace}
                for name, namespace in stacks.items():
                    SegmentStack.delete_manifest(
                        engine, txn, namespace, old_meta.get(name, {})
                    )
            self._stack = SegmentStack(
                engine, self._namespace, stats=self._segment_stats
            )
        records, removed = self._take_delta(fresh)
        folds: list[int] = []
        if records or removed:
            self._stack.append(txn, records, remove=removed)
            folds = self._stack.maintain(txn, self._combine)
        meta = {"layout": LAYOUT}
        if self._design is not None:
            meta["design"] = self._design
        meta.update(self._checkpoint.to_meta())
        meta.update(self._meta_fields())
        meta["index"] = self._stack.manifest()
        engine.put(txn, self._meta_key, json.dumps(meta).encode())
        engine.commit(txn)
        self.catch_up.record_merge(len(folds))

    def _load_index(self) -> bool:
        """Adopt the persisted stack and top up past its checkpoint;
        False when the caller must rebuild instead."""
        engine = self.db.engine
        raw = engine.get(self._meta_key)
        if raw is None:
            return False
        meta = json.loads(raw)
        if (
            meta.get("layout") != LAYOUT
            or meta.get("design") != self._design
            or "index" not in meta
        ):
            return False
        changes = self.db.changes_since(Checkpoint.from_meta(meta))
        if changes is None:
            return False
        stack = SegmentStack(engine, self._namespace, stats=self._segment_stats)
        if not stack.load(meta["index"]):
            return False
        self._stack = stack
        self._adopt_stack(meta)
        self._catch_up(changes)
        self.loaded_from_disk = True
        return True
