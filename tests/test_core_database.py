"""Tests for NotesDatabase CRUD, stubs, trash, events, hierarchy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core import ChangeKind, NotesDatabase
from repro.errors import DatabaseError, DocumentNotFound


class TestCrud:
    def test_create_assigns_identity(self, db, clock):
        doc = db.create({"Subject": "x"}, author="alice")
        assert len(doc.unid) == 32
        assert doc.seq == 1
        assert doc.note_id == 1
        assert doc.updated_by == ["alice"]
        assert doc.created == clock.now

    def test_note_ids_sequential(self, db):
        docs = [db.create({"S": str(i)}) for i in range(3)]
        assert [d.note_id for d in docs] == [1, 2, 3]

    def test_get_by_note_id(self, db):
        doc = db.create({"S": "x"})
        assert db.get_by_note_id(doc.note_id).unid == doc.unid
        with pytest.raises(DocumentNotFound):
            db.get_by_note_id(999)

    def test_update_bumps_seq_and_merges(self, db, clock):
        doc = db.create({"A": "1", "B": "2"})
        clock.advance(5)
        db.update(doc.unid, {"B": "changed", "C": "new"})
        fresh = db.get(doc.unid)
        assert fresh.seq == 2
        assert fresh.get("A") == "1"
        assert fresh.get("B") == "changed"
        assert fresh.get("C") == "new"
        assert fresh.modified == clock.now

    def test_update_remove_items(self, db):
        doc = db.create({"A": "1", "B": "2"})
        db.update(doc.unid, {}, remove_items=["B"])
        assert "B" not in db.get(doc.unid)

    def test_update_missing_rejected(self, db):
        with pytest.raises(DocumentNotFound):
            db.update("F" * 32, {"A": "x"})

    def test_item_times_stamped(self, db, clock):
        doc = db.create({"A": "1"})
        create_stamp = doc.item_times["A"]
        clock.advance(1)
        db.update(doc.unid, {"B": "2"})
        assert doc.item_times["A"] == create_stamp
        assert doc.item_times["B"] > create_stamp

    def test_len_and_unids(self, db):
        created = {db.create({"S": str(i)}).unid for i in range(4)}
        assert len(db) == 4
        assert set(db.unids()) == created

    def test_contains(self, db):
        doc = db.create({"S": "x"})
        assert doc.unid in db
        assert ("0" * 32) not in db


class TestDeletionStubs:
    def test_delete_leaves_stub(self, db, clock):
        doc = db.create({"S": "x"})
        clock.advance(2)
        stub = db.delete(doc.unid, author="bob")
        assert doc.unid not in db
        assert stub.seq == doc.seq + 1
        assert stub.deleted_by == "bob"
        assert db.stubs[doc.unid] == stub

    def test_get_after_delete_raises(self, db):
        doc = db.create({"S": "x"})
        db.delete(doc.unid)
        with pytest.raises(DocumentNotFound):
            db.get(doc.unid)

    def test_purge_removes_old_stubs(self, db, clock):
        doc = db.create({"S": "x"})
        clock.advance(1)
        db.delete(doc.unid)
        clock.advance(100)
        young = db.create({"S": "y"})
        db.delete(young.unid)
        purged = db.purge_stubs(older_than=50.0)
        assert purged == 1
        assert doc.unid not in db.stubs
        assert young.unid in db.stubs

    def test_changed_since_includes_stubs(self, db, clock):
        doc = db.create({"S": "x"})
        mark = db.update_seq
        clock.advance(10)
        db.delete(doc.unid)
        docs, stubs = db.changed_since_seq(mark)
        assert docs == [] and len(stubs) == 1

    def test_changed_since_uses_local_time(self, db, clock):
        """A replicator-installed doc counts as changed at its arrival (a
        fresh local seq), not at its own older revision — the property
        multi-hop replication depends on."""
        from repro.core import Document

        db.create({"S": "earlier local write"})
        clock.advance(100)
        mark = db.update_seq
        old = Document("D" * 32, seq=3, seq_time=(1.0, 1), created=1.0, modified=1.0)
        db.raw_put(old)
        docs, _ = db.changed_since_seq(mark)
        assert [d.unid for d in docs] == ["D" * 32]


class TestTrash:
    def test_soft_delete_hides(self, db):
        doc = db.create({"S": "x"})
        db.soft_delete(doc.unid)
        assert doc.unid not in db
        assert len(db) == 0
        assert db.trash == [doc.unid]
        assert db.try_get(doc.unid) is None

    def test_restore(self, db):
        doc = db.create({"S": "x"})
        db.soft_delete(doc.unid)
        db.restore(doc.unid)
        assert doc.unid in db

    def test_restore_not_trashed_rejected(self, db):
        doc = db.create({"S": "x"})
        with pytest.raises(DatabaseError):
            db.restore(doc.unid)

    def test_empty_trash_hard_deletes(self, db):
        docs = [db.create({"S": str(i)}) for i in range(3)]
        db.soft_delete(docs[0].unid)
        db.soft_delete(docs[1].unid)
        assert db.empty_trash() == 2
        assert len(db.stubs) == 2
        assert len(db) == 1


class TestHierarchy:
    def test_responses_sorted_by_creation(self, db, clock):
        topic = db.create({"S": "topic"})
        first = db.create({"S": "r1"}, parent=topic.unid)
        clock.advance(1)
        second = db.create({"S": "r2"}, parent=topic.unid)
        assert [r.unid for r in db.responses(topic.unid)] == [first.unid, second.unid]

    def test_descendants_depth_first(self, db, clock):
        topic = db.create({"S": "t"})
        child = db.create({"S": "c"}, parent=topic.unid)
        clock.advance(1)
        grandchild = db.create({"S": "g"}, parent=child.unid)
        sibling = db.create({"S": "s"}, parent=topic.unid)
        unids = [d.unid for d in db.descendants(topic.unid)]
        assert unids == [child.unid, grandchild.unid, sibling.unid]

    def test_unknown_parent_rejected(self, db):
        with pytest.raises(DocumentNotFound):
            db.create({"S": "orphan"}, parent="E" * 32)


class TestEvents:
    def test_event_sequence(self, db):
        seen = []
        db.subscribe(lambda kind, payload, old: seen.append(kind))
        doc = db.create({"S": "x"})
        db.update(doc.unid, {"S": "y"})
        db.delete(doc.unid)
        assert seen == [ChangeKind.CREATE, ChangeKind.UPDATE, ChangeKind.DELETE]

    def test_update_event_carries_old_copy(self, db):
        captured = {}

        def observer(kind, payload, old):
            if kind == ChangeKind.UPDATE:
                captured["old"] = old.get("S")
                captured["new"] = payload.get("S")

        doc = db.create({"S": "before"})
        db.subscribe(observer)
        db.update(doc.unid, {"S": "after"})
        assert captured == {"old": "before", "new": "after"}

    def test_unsubscribe(self, db):
        seen = []
        observer = lambda *a: seen.append(1)
        db.subscribe(observer)
        db.create({"S": "x"})
        db.unsubscribe(observer)
        db.create({"S": "y"})
        assert len(seen) == 1


class TestProfilesAndReplicas:
    def test_profile_get_or_create(self, db):
        profile = db.profile("settings", "alice")
        again = db.profile("settings", "alice")
        assert profile.unid == again.unid
        other = db.profile("settings", "bob")
        assert other.unid != profile.unid

    def test_new_replica_shares_replica_id(self, db):
        replica = db.new_replica("beta")
        assert replica.replica_id == db.replica_id
        assert replica.server == "beta"
        assert len(replica) == 0

    def test_replica_unids_do_not_collide(self, db):
        replica = db.new_replica("beta")
        mine = {db.create({"S": str(i)}).unid for i in range(50)}
        theirs = {replica.create({"S": str(i)}).unid for i in range(50)}
        assert not (mine & theirs)


class TestDefaultSeed:
    def test_identity_is_stable_across_hash_salts(self):
        """Without ``rng=`` the title seeds the UNID stream; string hashes
        are salted per process, so the seed must not come from hash()."""
        script = (
            "from repro.core import NotesDatabase\n"
            "db = NotesDatabase('x.nsf')\n"
            "print(db.replica_id, db.create({'S': 'a'}).unid)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
