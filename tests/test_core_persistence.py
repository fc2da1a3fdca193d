"""Tests for NotesDatabase persistence over the storage engine."""

import random
from datetime import datetime
from enum import Enum

import pytest

from repro.core import DeletionStub, Document, Item, ItemType, NotesDatabase
from repro.errors import ItemError
from repro.sim import VirtualClock
from repro.storage import StorageEngine


@pytest.fixture
def store(tmp_path):
    def open_db(seed=1):
        engine = StorageEngine(str(tmp_path / "nsf"))
        clock = VirtualClock()
        db = NotesDatabase(
            "persist.nsf", clock=clock, rng=random.Random(seed), engine=engine
        )
        return engine, db

    return open_db


class TestPersistence:
    def test_documents_survive_clean_close(self, store):
        engine, db = store()
        doc = db.create({"Subject": "kept", "Amount": 5})
        engine.close()
        _, reloaded = store(seed=2)
        assert len(reloaded) == 1
        fresh = reloaded.get(doc.unid)
        assert fresh.get("Subject") == "kept"
        assert fresh.get("Amount") == 5
        assert fresh.seq == doc.seq

    def test_updates_persisted(self, store):
        engine, db = store()
        doc = db.create({"S": "v1"})
        db.update(doc.unid, {"S": "v2"})
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.get(doc.unid).get("S") == "v2"
        assert reloaded.get(doc.unid).seq == 2

    def test_stubs_persisted(self, store):
        engine, db = store()
        doc = db.create({"S": "x"})
        db.delete(doc.unid)
        engine.close()
        _, reloaded = store(seed=2)
        assert len(reloaded) == 0
        assert doc.unid in reloaded.stubs

    def test_crash_recovery_keeps_documents(self, store):
        engine, db = store()
        doc = db.create({"Subject": "pre-crash"})
        engine.simulate_crash()
        _, recovered = store(seed=2)
        assert recovered.get(doc.unid).get("Subject") == "pre-crash"

    def test_deleted_doc_gone_after_crash(self, store):
        engine, db = store()
        doc = db.create({"S": "x"})
        db.delete(doc.unid)
        engine.simulate_crash()
        _, recovered = store(seed=2)
        assert doc.unid not in recovered
        assert doc.unid in recovered.stubs

    def test_revision_history_survives(self, store):
        engine, db = store()
        doc = db.create({"S": "1"})
        for index in range(5):
            db.clock.advance(1)
            db.update(doc.unid, {"S": str(index)})
        revisions = list(db.get(doc.unid).revisions)
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.get(doc.unid).revisions == revisions

    def test_many_documents_roundtrip(self, store):
        engine, db = store()
        expected = {}
        for index in range(100):
            doc = db.create({"Subject": f"doc {index}", "N": index})
            expected[doc.unid] = index
        engine.close()
        _, reloaded = store(seed=2)
        assert len(reloaded) == 100
        for unid, number in expected.items():
            assert reloaded.get(unid).get("N") == number


class TestTrashPersistence:
    def test_soft_delete_survives_reopen(self, store):
        engine, db = store()
        kept = db.create({"S": "kept"})
        trashed = db.create({"S": "trashed"})
        db.soft_delete(trashed.unid)
        count, fingerprint = len(db), db.state_fingerprint()
        engine.close()
        engine, reloaded = store(seed=2)
        assert reloaded.trash == [trashed.unid]
        assert trashed.unid not in reloaded and kept.unid in reloaded
        assert len(reloaded) == count
        assert reloaded.state_fingerprint() == fingerprint
        assert reloaded.state_fingerprint() == reloaded._fingerprint_recompute()
        engine.close()

    def test_restore_and_empty_trash_survive_crash(self, store):
        engine, db = store()
        restored = db.create({"S": "restored"})
        emptied = db.create({"S": "emptied"})
        db.soft_delete(restored.unid)
        db.soft_delete(emptied.unid)
        db.restore(restored.unid)
        db.empty_trash()
        fingerprint = db.state_fingerprint()
        engine.simulate_crash()
        engine, recovered = store(seed=2)
        assert recovered.trash == []
        assert restored.unid in recovered
        assert emptied.unid in recovered.stubs
        assert recovered.state_fingerprint() == fingerprint
        # No trash marker outlives the note it marked.
        assert list(engine.keys(prefix=b"trash:")) == []
        engine.close()


class TestUnstorableValues:
    """A value the note record cannot hold is refused before the database
    changes; subclass instances are stored as the plain builtin."""

    def test_attachment_with_extra_key_changes_nothing(self, store):
        engine, db = store()
        db.create({"S": "first"})
        count, fingerprint, seq = len(db), db.state_fingerprint(), db.update_seq
        with pytest.raises(ItemError):
            db.create({"$FILE.a": Item("$FILE.a", ItemType.ATTACHMENT, {
                "name": "a", "data": "x", "when": datetime(2020, 1, 1)})})
        assert (len(db), db.state_fingerprint(), db.update_seq) == (
            count, fingerprint, seq)
        engine.close()
        _, reloaded = store(seed=2)
        assert len(reloaded) == count
        assert reloaded.state_fingerprint() == fingerprint

    def test_bad_update_value_changes_nothing(self, store):
        engine, db = store()
        doc = db.create({"S": "kept"})
        fingerprint, seq = db.state_fingerprint(), db.update_seq
        with pytest.raises(ItemError):
            db.update(doc.unid, {"S": "changed", "Flag": True})
        assert db.get(doc.unid).get("S") == "kept"
        assert "Flag" not in db.get(doc.unid)
        assert (db.state_fingerprint(), db.update_seq) == (fingerprint, seq)
        assert db.state_fingerprint() == db._fingerprint_recompute()
        engine.close()

    def test_str_enum_value_and_author_reopen_as_plain_str(self, store):
        class Color(str, Enum):
            RED = "red"

        engine, db = store()
        doc = db.create({"Color": Color.RED, "Tags": [Color.RED]},
                        author=Color.RED)
        db.clock.advance(1)
        gone = db.create({"S": "x"})
        db.delete(gone.unid, author=Color.RED)
        engine.close()
        _, reloaded = store(seed=2)
        fresh = reloaded.get(doc.unid)
        assert (fresh.get("Color"), fresh.get("Tags"), fresh.updated_by) == (
            "red", ["red"], ["red"])
        assert type(fresh.get("Color")) is str
        assert type(fresh.get("Tags")[0]) is str
        assert type(fresh.updated_by[0]) is str
        stub = reloaded.stubs[gone.unid]
        assert stub.deleted_by == "red" and type(stub.deleted_by) is str

    def test_caller_containers_do_not_alias_items(self, store):
        """Editing the list or dict handed to create/update afterwards
        changes neither the note in memory nor its fingerprint: memory
        agrees with the reopened store."""
        engine, db = store()
        tags = ["a"]
        doc = db.create({"Tags": tags})
        tags.append("b")
        amounts, attachment = [1, 2], {"name": "a.txt", "data": "eA=="}
        db.clock.advance(1)
        db.update(doc.unid, {"Amounts": amounts, "$FILE.a": Item(
            "$FILE.a", ItemType.ATTACHMENT, attachment)})
        amounts.append(3)
        attachment["name"] = "b.txt"
        fresh = db.get(doc.unid)
        state = (fresh.get("Tags"), fresh.get("Amounts"), fresh.get("$FILE.a"))
        assert state == (["a"], [1, 2], {"name": "a.txt", "data": "eA=="})
        fingerprint = db.state_fingerprint()
        assert fingerprint == db._fingerprint_recompute()
        engine.close()
        _, reloaded = store(seed=2)
        again = reloaded.get(doc.unid)
        assert (again.get("Tags"), again.get("Amounts"),
                again.get("$FILE.a")) == state
        assert reloaded.state_fingerprint() == fingerprint
        item = Item.of("Loose", tags)
        tags.append("c")
        assert item.value == ["a", "b"]

    def test_read_values_do_not_alias_items(self, store):
        """Editing a list or dict a reader got from ``Document.get``
        changes neither the note in memory nor its fingerprint."""
        engine, db = store()
        attachment = {"name": "a.txt", "data": "eA=="}
        doc = db.create({"Tags": ["a"], "$FILE.a": Item(
            "$FILE.a", ItemType.ATTACHMENT, attachment)})
        fingerprint = db.state_fingerprint()
        db.get(doc.unid).get("Tags").append("b")
        db.get(doc.unid).get("$FILE.a")["name"] = "b.txt"
        fresh = db.get(doc.unid)
        assert fresh.get("Tags") == ["a"]
        assert fresh.get("$FILE.a") == attachment
        assert db.state_fingerprint() == fingerprint
        assert fingerprint == db._fingerprint_recompute()
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.get(doc.unid).get("Tags") == ["a"]


class CrashPoint(Exception):
    """Injected failure standing in for the process dying mid-write."""


def arm(engine, fail_at=None):
    """Count engine write calls; raise CrashPoint on the ``fail_at``-th.

    Wraps ``put``/``delete``/``commit``, every point at which a note write
    touches the engine. With ``fail_at=None`` it only counts.
    """
    counter = {"n": 0}

    def wrap(fn):
        def inner(*args, **kwargs):
            counter["n"] += 1
            if fail_at is not None and counter["n"] == fail_at:
                raise CrashPoint(f"write point {fail_at}")
            return fn(*args, **kwargs)
        return inner

    engine.put = wrap(engine.put)
    engine.delete = wrap(engine.delete)
    engine.commit = wrap(engine.commit)
    return counter


def note_scenario(path):
    """A store holding live notes and one deletion stub, plus the note
    write under test for each operation name."""
    engine = StorageEngine(path)
    db = NotesDatabase("crash.nsf", clock=VirtualClock(),
                       rng=random.Random(3), engine=engine)
    for index in range(6):
        db.clock.advance(1)
        db.create({"Subject": f"memo {index}", "Body": "x" * 300 * index})
    live, gone = db.unids()[1], db.unids()[2]
    revived = db.get(gone).copy()
    db.clock.advance(1)
    db.delete(gone)
    db.clock.advance(1)
    now, tick = db.clock.timestamp()
    revived.bump_revision((now, tick), "peer")
    remote_stub = DeletionStub(live, db.get(live).seq + 1, (now, tick), now, "peer")
    operations = {
        "update": (live, lambda: db.update(live, {"Subject": "edited"})),
        "delete": (live, lambda: db.delete(live)),
        "raw_delete": (live, lambda: db.raw_delete(remote_stub)),
        "raw_put": (gone, lambda: db.raw_put(revived)),
    }
    return engine, db, operations


def reopen(path):
    engine = StorageEngine(path)
    return engine, NotesDatabase("crash.nsf", clock=VirtualClock(),
                                 rng=random.Random(4), engine=engine)


def assert_note_whole(engine, db, unid):
    """The UNID is a live doc with a ``doc:`` record, or a stub with a
    ``stub:`` record, and the seq embedded in that record is the one the
    reopened journal holds for it: never gone, never both, and never
    separated from its seq."""
    key = unid.encode()
    if unid in db:
        assert unid not in db.stubs and engine.get(b"stub:" + key) is None
        seq, _ = db._read_note_record(b"doc:" + key, Document)
    else:
        assert unid in db.stubs and engine.get(b"doc:" + key) is None
        seq, _ = db._read_note_record(b"stub:" + key, DeletionStub)
    journal = {note.unid: entry for entry, note in db.journal_entries_since(0)}
    assert journal[unid] == seq


@pytest.mark.parametrize("operation", ["update", "delete", "raw_delete", "raw_put"])
def test_note_change_puts_one_note_record(tmp_path, operation):
    engine, db, operations = note_scenario(str(tmp_path / "nsf"))
    unid, write = operations[operation]
    puts = []
    put = engine.put
    engine.put = lambda txn, key, value: (puts.append(key), put(txn, key, value))
    write()
    assert puts in ([b"doc:" + unid.encode()], [b"stub:" + unid.encode()])
    engine.close()


@pytest.mark.parametrize("operation", ["update", "delete", "raw_delete", "raw_put"])
def test_note_write_is_atomic_under_crash(tmp_path, operation):
    clean = str(tmp_path / "clean")
    engine, db, operations = note_scenario(clean)
    unid, write = operations[operation]
    before = db.state_fingerprint()
    counter = arm(engine)
    write()
    after = db.state_fingerprint()
    write_points = counter["n"]
    engine.close()
    engine, reloaded = reopen(clean)
    assert reloaded.state_fingerprint() == after
    assert_note_whole(engine, reloaded, unid)
    engine.close()

    for fail_at in range(1, write_points + 1):
        path = str(tmp_path / f"crash{fail_at}")
        engine, db, operations = note_scenario(path)
        arm(engine, fail_at=fail_at)
        with pytest.raises(CrashPoint):
            operations[operation][1]()
        engine.simulate_crash()
        engine, recovered = reopen(path)
        assert recovered.state_fingerprint() in (before, after), fail_at
        assert_note_whole(engine, recovered, unid)
        engine.close()
