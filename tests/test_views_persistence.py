"""Tests for persisted view indexes (warm view opens), and for the
persisted-index lifecycle views share with the full-text index."""

import random

import pytest

from repro.core import Item, ItemType, NotesDatabase
from repro.core import document as document_module
from repro.errors import FullTextError, ViewError
from repro.fulltext import FullTextIndex
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.views import SortOrder, View, ViewColumn


@pytest.fixture
def store(tmp_path):
    def open_db(seed=1):
        engine = StorageEngine(str(tmp_path / "nsf"))
        db = NotesDatabase("v.nsf", clock=VirtualClock(),
                           rng=random.Random(seed), engine=engine)
        return engine, db

    return open_db


def make_view(db, persist=True, selection='SELECT Form = "Memo"', **kw):
    return View(
        db, "ByAmount",
        selection=selection,
        columns=[
            ViewColumn(title="Amount", item="Amount",
                       sort=SortOrder.DESCENDING),
            ViewColumn(title="Subject", item="Subject"),
        ],
        persist=persist,
        **kw,
    )


#: Both persisted-index consumers: (make, segment stats name, save
#: method name, live-entry count, error for a bad construction).
CONSUMERS = {
    "view": (make_view, "entries", "save_index", len, ViewError),
    "fulltext": (
        lambda db, persist=True, **kw: FullTextIndex(db, persist=persist, **kw),
        "postings", "save_checkpoint",
        lambda index: index.document_count, FullTextError,
    ),
}


@pytest.fixture(params=sorted(CONSUMERS))
def consumer(request):
    return CONSUMERS[request.param]


class TestPersistedIndexLifecycle:
    """The lifecycle rules hold alike for a view and the full-text index."""

    def test_persist_needs_engine(self, db, consumer):
        make, _, _, _, error = consumer
        with pytest.raises(error):
            make(db, persist=True)

    def test_refresh_distinguishes_topup_from_topup_plus_fold(
        self, store, consumer
    ):
        """A manual persistent index saves after every top-up, and reports
        ``"merge"`` only when that save also folded segments."""
        make, stats_name, save, _, _ = consumer
        engine, db = store()
        for index in range(10):
            db.create({"Form": "Memo", "Amount": index, "Subject": f"m{index}"})
        consumer_index = make(db, mode="manual", persist=True)
        getattr(consumer_index, save)()  # fresh stack: one segment
        stats = consumer_index.catch_up.segment_stats[stats_name]
        catch_up = consumer_index.catch_up
        assert stats.segments == 1
        assert catch_up.merges == 0

        db.create({"Form": "Memo", "Amount": 50, "Subject": "second"})
        assert consumer_index.refresh() == "topup"  # segment 2: no fold yet
        assert stats.segments == 2
        assert catch_up.merges == 0
        assert catch_up.topups == 1

        # Two documents outweigh segment 2's one: a counter carry folds.
        db.create({"Form": "Memo", "Amount": 60, "Subject": "third"})
        db.create({"Form": "Memo", "Amount": 61, "Subject": "fourth"})
        assert consumer_index.refresh() == "merge"
        assert catch_up.last_path == "merge"
        assert catch_up.merges >= 1
        assert catch_up.topups == 2  # the merge was still a top-up
        assert stats.segments <= 2
        assert stats.bytes_folded > 0

        db.create({"Form": "Task", "Amount": 1, "Subject": "other"})
        assert consumer_index.refresh() in ("topup", "merge")  # no rebuild
        assert consumer_index.rebuilds == 1  # only the initial cold build
        engine.close()

    def test_database_close_sweeps_registered_sidecars(self, store, consumer):
        make, _, _, count, _ = consumer
        engine, db = store()
        db.create({"Form": "Memo", "Amount": 3, "Subject": "a"})
        make(db)
        saved = db.save_checkpoints()
        assert saved == 1  # the index registered itself
        db.create({"Form": "Memo", "Amount": 9, "Subject": "b"})
        db.close()  # saves the sidecar, then closes the engine

        engine2, db2 = store(seed=2)
        warm = make(db2)
        assert warm.loaded_from_disk
        assert warm.catch_up.last_path == "noop"  # close() caught the delta
        assert count(warm) == 2
        engine2.close()


    def test_one_live_owner_per_sidecar_key(self, store, consumer):
        """A second live persisted index under one sidecar key would
        overwrite the first's segments: it is refused until the first
        closes, which gives the key up."""
        make, _, _, count, error = consumer
        engine, db = store()
        db.create({"Form": "Memo", "Amount": 3, "Subject": "a"})
        first = make(db)
        with pytest.raises(error, match="already has a live persisted index"):
            make(db)
        make(db, persist=False).close()  # in-memory twins need no key
        first.close()
        second = make(db)
        assert second.loaded_from_disk
        assert second.rebuilds == 0
        assert count(second) == 1
        engine.close()


def _sidecar_records(engine):
    return {
        key: engine.get(key) for key in engine.keys()
        if key.startswith((b"viewidx:", b"ftidx:"))
    }


def _memo(index):
    return {"Form": "Memo", "Amount": index, "Subject": f"memo {index}"}


class TestFlushRule:
    """``save_checkpoints`` saves an index only once its unsaved delta
    reaches 1/FLUSH_DIVISOR of what it holds; ``close`` always saves."""

    N = 32  # then 3 creates stay below the rule (3 * 8 < 35), 5 reach it

    def open_saved(self, store, consumer):
        make, stats_name, _, _, _ = consumer
        engine, db = store()
        for index in range(self.N):
            db.create(_memo(index))
        index = make(db)
        # No stack yet: the first checkpoint writes the whole index.
        assert db.save_checkpoints() == 1
        return engine, db, index, index.catch_up.segment_stats[stats_name]

    def test_first_checkpoint_always_saves(self, store, consumer):
        engine, _, _, stats = self.open_saved(store, consumer)
        assert stats.appends == 1
        engine.close()

    def test_below_threshold_checkpoint_writes_nothing(self, store, consumer):
        engine, db, _, stats = self.open_saved(store, consumer)
        for index in range(self.N, self.N + 3):
            db.create(_memo(index))
        before = _sidecar_records(engine)
        assert db.save_checkpoints() == 0
        assert _sidecar_records(engine) == before
        assert stats.appends == 1
        engine.close()

    def test_threshold_delta_appends_one_segment(self, store, consumer):
        engine, db, _, stats = self.open_saved(store, consumer)
        for index in range(self.N, self.N + 5):  # 5 * 8 >= 37
            db.create(_memo(index))
        assert db.save_checkpoints() == 1
        assert stats.appends == 2
        assert stats.records_appended > self.N
        assert db.save_checkpoints() == 0  # the delta is saved now
        engine.close()

    def test_close_always_saves(self, store, consumer):
        make, _, _, count, _ = consumer
        engine, db, index, stats = self.open_saved(store, consumer)
        db.create(_memo(self.N))
        assert db.save_checkpoints() == 0
        index.close()
        assert stats.appends == 2
        engine.close()

        engine2, db2 = store(seed=2)
        warm = make(db2)
        assert warm.loaded_from_disk
        assert warm.catch_up.last_path == "noop"  # nothing left to top up
        assert count(warm) == self.N + 1
        engine2.close()

    def test_explicit_save_ignores_the_rule(self, store, consumer):
        _, _, save, _, _ = consumer
        engine, db, index, stats = self.open_saved(store, consumer)
        db.create(_memo(self.N))
        getattr(index, save)()
        assert stats.appends == 2
        engine.close()


class TestPersistedViews:
    def test_cold_then_warm_open(self, store):
        engine, db = store()
        for index in range(30):
            db.create({"Form": "Memo", "Amount": index * 7 % 40,
                       "Subject": f"m{index}"})
        view = make_view(db)
        assert not view.loaded_from_disk  # cold: had to build
        expected = view.all_unids()
        view.close()  # saves the index
        engine.close()

        engine2, db2 = store(seed=2)
        warm = make_view(db2)
        assert warm.loaded_from_disk
        assert warm.rebuilds == 0
        assert warm.all_unids() == expected
        engine2.close()

    def test_stale_index_tops_up_from_journal(self, store):
        engine, db = store()
        doc = db.create({"Form": "Memo", "Amount": 1, "Subject": "x"})
        view = make_view(db)
        view.save_index()
        db.update(doc.unid, {"Amount": 99})  # state moved past the snapshot
        view.close()  # note: close() re-saves, so break that by re-opening
        engine.close()

        engine2, db2 = store(seed=2)
        db2.create({"Form": "Memo", "Amount": 5, "Subject": "new"})
        fresh = make_view(db2)
        # Stale snapshot + same journal: loaded and topped up, no rebuild.
        assert fresh.loaded_from_disk
        assert fresh.rebuilds == 0
        assert fresh.catch_up.last_path == "topup"
        assert fresh.catch_up.notes_replayed >= 1
        amounts = [entry.values[0] for entry in fresh.entries()]
        assert amounts == sorted(amounts, reverse=True)
        assert amounts == [99, 5]
        engine2.close()

    def test_design_change_invalidates(self, store):
        engine, db = store()
        db.create({"Form": "Memo", "Amount": 1, "Subject": "x"})
        view = make_view(db)
        view.close()
        engine.close()

        engine2, db2 = store(seed=2)
        changed = make_view(db2, selection="SELECT @All")
        assert not changed.loaded_from_disk
        engine2.close()

    def test_loaded_view_stays_incremental(self, store):
        engine, db = store()
        db.create({"Form": "Memo", "Amount": 3, "Subject": "a"})
        view = make_view(db)
        view.close()
        engine.close()

        engine2, db2 = store(seed=2)
        warm = make_view(db2)
        doc = db2.create({"Form": "Memo", "Amount": 99, "Subject": "b"})
        assert doc.unid in warm
        assert warm.all_unids()[0] == doc.unid  # descending: 99 first
        engine2.close()

    def test_descending_keys_roundtrip(self, store):
        engine, db = store()
        for amount in (5, 1, 9, 3):
            db.create({"Form": "Memo", "Amount": amount, "Subject": "s"})
        view = make_view(db)
        before = [entry.values[0] for entry in view.entries()]
        view.close()
        engine.close()

        engine2, db2 = store(seed=2)
        warm = make_view(db2)
        assert [entry.values[0] for entry in warm.entries()] == before
        assert before == [9, 5, 3, 1]
        engine2.close()

    def test_snapshot_roundtrip_random_content(self, store):
        """Property-ish: arbitrary generated content loads back into an
        identical view (keys, values, levels, order)."""
        import random as random_module

        engine, db = store()
        rng = random_module.Random(99)
        for index in range(120):
            items = {"Form": "Memo", "Subject": rng.choice(
                ["", "a", "Zz", "0bc", "ωmega"]) + str(index)}
            if rng.random() < 0.5:
                items["Amount"] = rng.randrange(-5, 5)
            if rng.random() < 0.3:
                items["Tags"] = [rng.choice("xyz") for _ in range(3)]
            db.create(items)
        view = make_view(db)
        before = [(e.unid, e.values, e.level) for e in view.entries()]
        view.close()
        engine.close()

        engine2, db2 = store(seed=5)
        warm = make_view(db2)
        assert warm.loaded_from_disk
        after = [(e.unid, e.values, e.level) for e in warm.entries()]
        assert after == before
        engine2.close()

    def test_save_appends_only_the_delta(self, store):
        engine, db = store()
        docs = [
            db.create({"Form": "Memo", "Amount": index, "Subject": f"m{index}"})
            for index in range(20)
        ]
        view = make_view(db)
        view.save_index()
        stats = view.catch_up.segment_stats["entries"]
        assert stats.records_appended == 20  # the fresh full rewrite
        db.update(docs[0].unid, {"Amount": 100})
        db.update(docs[1].unid, {"Amount": 101})
        db.delete(docs[2].unid)
        view.save_index()
        # Second save wrote exactly the two dirtied entries (the delete
        # travels as a tombstone entry of the new segment, not a record).
        assert stats.records_appended == 22
        assert stats.segments == 2
        assert stats.total_entries == 22
        assert stats.tombstones == 1
        engine.close()

    def test_rebuild_then_save_rewrites_one_segment(self, store):
        """The E15 ablation arm: after a rebuild the next save writes the
        whole index as one fresh segment and deletes the old ones."""
        engine, db = store()
        for index in range(15):
            db.create({"Form": "Memo", "Amount": index, "Subject": f"m{index}"})
        view = make_view(db)
        view.save_index()
        db.create({"Form": "Memo", "Amount": 99, "Subject": "delta"})
        view.save_index()
        stats = view.catch_up.segment_stats["entries"]
        assert stats.segments == 2
        assert stats.records_appended == 16
        view.rebuild()
        view.save_index()
        assert stats.segments == 1
        assert stats.records_appended == 32  # every entry, rewritten
        assert view.catch_up.merges == 0  # no fold: the old stack was dropped
        segment_keys = [
            key for key in engine.keys()
            if key.startswith(b"viewidx:ByAmount:")
        ]
        assert len(segment_keys) == 2  # one directory, one blob
        engine.close()

    def test_hierarchical_view_roundtrip(self, store):
        engine, db = store()
        topic = db.create({"Form": "Memo", "Amount": 1, "Subject": "t"})
        db.clock.advance(1)
        db.create({"Form": "Memo", "Amount": 2, "Subject": "re"},
                  parent=topic.unid)
        view = View(
            db, "Threads", selection='SELECT Form = "Memo"',
            columns=[ViewColumn(title="Subject", item="Subject",
                                sort=SortOrder.ASCENDING)],
            hierarchical=True, persist=True,
        )
        levels = [entry.level for entry in view.entries()]
        view.close()
        engine.close()

        engine2, db2 = store(seed=2)
        warm = View(
            db2, "Threads", selection='SELECT Form = "Memo"',
            columns=[ViewColumn(title="Subject", item="Subject",
                                sort=SortOrder.ASCENDING)],
            hierarchical=True, persist=True,
        )
        assert warm.loaded_from_disk
        assert [entry.level for entry in warm.entries()] == levels
        # hierarchy bookkeeping restored: parent edits re-key children
        parent_unid = next(
            entry.unid for entry in warm.entries() if entry.level == 0
        )
        db2.update(parent_unid, {"Subject": "zzz"})
        order = [(entry.values[0], entry.level) for entry in warm.entries()]
        assert order == [("zzz", 0), ("re", 1)]
        engine2.close()


ADMIN = "admin/Acme"
PEON = "peon/Acme"


def _acl():
    acl = AccessControlList(default_level=AclLevel.READER)
    acl.add(ADMIN, AclLevel.MANAGER)
    return acl


def _new_process(monkeypatch):
    """Start the readers epoch over, as a freshly started process does."""
    monkeypatch.setattr(document_module, "_readers_epoch", 0)


class TestLoadedReaderFlags:
    """A view segment record carries its entry's READERS flag, so a
    loaded view knows which entries are restricted without reading the
    notes: its first page checks no unchanged note. The flags are trusted
    only while neither the saving nor the loading process has changed a
    READERS item, since one changed in place is never written."""

    @staticmethod
    def _reopened(store, monkeypatch, restricted):
        """40 memos (the ``restricted`` ones carrying a READERS item); a
        second process saves a view over them, and a third edits two of
        them and opens it. Returns the loaded view and a rebuilt one."""
        acl = _acl()
        _new_process(monkeypatch)
        engine, db = store()
        db.acl = acl
        unids = []
        for index in range(40):
            db.clock.advance(1)
            unids.append(db.create(_memo(index), author=ADMIN).unid)
        for unid in restricted(unids):
            db.clock.advance(1)
            db.update(unid, {"Readers": Item("Readers", ItemType.READERS,
                                             [ADMIN])}, author=ADMIN)
        engine.close()
        _new_process(monkeypatch)
        engine, db = store()
        make_view(db).close()
        engine.close()
        _new_process(monkeypatch)
        engine, db = store(seed=2)
        db.acl = acl
        # Changed past the saved checkpoint: the open's top-up re-reads
        # these two notes.
        for unid in unids[1:3]:
            db.clock.advance(1)
            db.update(unid, {"Subject": "edited"}, author=ADMIN)
        view = make_view(db)
        assert view.loaded_from_disk and view.rebuilds == 0
        return engine, db, view, make_view(db, persist=False)

    @staticmethod
    def _count_try_get(db, monkeypatch):
        calls = []
        try_get = db.try_get

        def counting(unid):
            calls.append(unid)
            return try_get(unid)

        monkeypatch.setattr(db, "try_get", counting)
        return calls

    def test_first_page_after_reopen_reads_no_note(self, store, monkeypatch):
        engine, db, view, fresh = self._reopened(
            store, monkeypatch, lambda unids: []
        )
        expected = fresh.window(1, 10, as_user=PEON)
        calls = self._count_try_get(db, monkeypatch)
        assert view.window(1, 10, as_user=PEON) == expected
        assert calls == []  # a view without the flags rescans all 40
        engine.close()

    def test_restricted_entries_load_from_their_flags(self, store, monkeypatch):
        engine, db, view, fresh = self._reopened(
            store, monkeypatch, lambda unids: unids[::5]
        )
        assert len(view._restricted) == 8
        assert view._restricted == fresh._restricted
        expected = [fresh.window(1, 50, as_user=user) for user in (PEON, ADMIN)]
        calls = self._count_try_get(db, monkeypatch)
        assert [view.window(1, 50, as_user=user)
                for user in (PEON, ADMIN)] == expected
        # Each page checks every entry once through rows(); nothing
        # rescans the notes' READERS items first.
        assert len(calls) == 2 * len(view)
        engine.close()

    @staticmethod
    def _saved(store, monkeypatch):
        _new_process(monkeypatch)
        engine, db = store()
        db.acl = _acl()
        unids = []
        for index in range(10):
            db.clock.advance(1)
            unids.append(db.create(_memo(index), author=ADMIN).unid)
        return engine, db, unids, make_view(db)

    @staticmethod
    def _assert_hidden(db, view, unid):
        page = view.window(1, 20, as_user=PEON)
        assert unid not in {row.unid for row in page[0]}
        assert page == make_view(db, persist=False).window(1, 20, as_user=PEON)

    def test_readers_set_in_place_after_the_save_still_hide(
        self, store, monkeypatch
    ):
        engine, db, unids, view = self._saved(store, monkeypatch)
        view.close()
        # No db.update: nothing journals it, and the saved flag is stale.
        db.get(unids[3]).set("Readers", [ADMIN], ItemType.READERS)
        warm = make_view(db)
        assert warm.loaded_from_disk
        self._assert_hidden(db, warm, unids[3])
        engine.close()

    def test_a_page_rescan_carries_changed_flags_to_the_sidecar(
        self, store, monkeypatch
    ):
        engine, db, unids, view = self._saved(store, monkeypatch)
        view.save_index()
        db.get(unids[3]).set("Readers", [ADMIN], ItemType.READERS)
        view.window(1, 20, as_user=PEON)  # rescans: the entry is dirty
        view.save_index()
        view.close()
        warm = make_view(db)
        assert warm.loaded_from_disk
        assert unids[3] in warm._restricted  # read from its record
        self._assert_hidden(db, warm, unids[3])
        engine.close()

    @pytest.mark.parametrize("restart", [False, True])
    def test_a_reopen_rescans_after_readers_changed_in_place(
        self, store, monkeypatch, restart
    ):
        engine, db, unids, view = self._saved(store, monkeypatch)
        db.update(unids[3], {"Readers": Item("Readers", ItemType.READERS,
                                             [ADMIN])}, author=ADMIN)
        # In place and never written: the engine still holds the READERS
        # item, but a page's rescan flags the entry unrestricted.
        db.get(unids[3]).remove_item("Readers")
        assert unids[3] in {
            row.unid for row in view.window(1, 20, as_user=PEON)[0]
        }
        view.close()
        engine.close()
        if restart:
            _new_process(monkeypatch)
        engine, db = store(seed=2)
        db.acl = _acl()
        warm = make_view(db)
        assert warm.loaded_from_disk
        assert unids[3] not in warm._restricted  # the stale flag
        self._assert_hidden(db, warm, unids[3])
        engine.close()
