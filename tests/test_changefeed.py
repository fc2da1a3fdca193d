"""Tests for the update-sequence journal and its change-feed semantics.

The journal makes "what changed since the last pass" a suffix read of a
by-seq log (CouchDB ``_changes`` style) instead of a full-database scan.
These tests pin the semantics the replicator relies on: the seq feed is
exactly the set of notes whose revision changed past the mark, multi-hop
hub routing still counts an installed note as changed *now*,
``clear_replication_history`` forces a full re-examination, a receive
cursor only counts against the journal it was cut from, and the journal
survives a storage-engine reopen.
"""

import json
import random

import pytest

from repro.core import NotesDatabase
from repro.errors import DatabaseError
from repro.replication import Replicator, converged
from repro.sim import VirtualClock
from repro.storage import StorageEngine


@pytest.fixture
def rep():
    return Replicator()


class TestJournalBasics:
    def test_seqs_are_monotonic_across_write_kinds(self, db, clock):
        doc = db.create({"S": "a"})
        assert db.update_seq == 1
        clock.advance(1)
        db.update(doc.unid, {"S": "b"})
        assert db.update_seq == 2
        other = db.create({"S": "c"})
        assert db.update_seq == 3
        clock.advance(1)
        db.delete(other.unid)
        assert db.update_seq == 4

    def test_changed_since_seq_returns_exact_delta(self, db, clock):
        for index in range(20):
            db.create({"N": index})
            clock.advance(0.1)
        mark = db.update_seq
        clock.advance(1)
        changed = random.Random(3).sample(db.unids(), 5)
        for unid in changed:
            db.update(unid, {"S": "edited"})
        docs, stubs = db.changed_since_seq(mark)
        assert {d.unid for d in docs} == set(changed)
        assert stubs == []
        assert db.last_scan_cost <= len(changed)

    def test_repeated_edits_collapse_to_one_candidate(self, db, clock):
        doc = db.create({"S": "v0"})
        mark = db.update_seq
        for version in range(10):
            clock.advance(1)
            db.update(doc.unid, {"S": f"v{version + 1}"})
        docs, stubs = db.changed_since_seq(mark)
        assert [d.unid for d in docs] == [doc.unid]
        assert stubs == []

    def test_deletion_shows_up_as_stub(self, db, clock):
        doc = db.create({"S": "x"})
        mark = db.update_seq
        clock.advance(1)
        db.delete(doc.unid)
        docs, stubs = db.changed_since_seq(mark)
        assert docs == []
        assert [s.unid for s in stubs] == [doc.unid]

    def test_seq_feed_matches_snapshot_diff(self, db, clock):
        """The feed past a mark holds exactly the notes whose revision (or
        stub) differs between snapshots taken at the mark and now."""
        rng = random.Random(11)
        for index in range(30):
            db.create({"N": index})
            clock.advance(0.2)

        def snapshot():
            return (
                {d.unid: (d.seq, tuple(d.seq_time)) for d in db.all_documents()},
                {u: (s.seq, tuple(s.seq_time)) for u, s in db.stubs.items()},
            )

        mark = db.update_seq
        docs_before, stubs_before = snapshot()
        clock.advance(1)
        for unid in rng.sample(db.unids(), 8):
            db.update(unid, {"S": "new"})
        for unid in rng.sample(db.unids(), 3):
            db.delete(unid)
        db.create({"N": "late"})
        docs_after, stubs_after = snapshot()

        docs, stubs = db.changed_since_seq(mark)
        assert {d.unid for d in docs} == {
            unid for unid, rev in docs_after.items()
            if docs_before.get(unid) != rev
        }
        assert {s.unid for s in stubs} == {
            unid for unid, rev in stubs_after.items()
            if stubs_before.get(unid) != rev
        }

    def test_compaction_preserves_the_feed(self, db, clock):
        doc = db.create({"S": "hot"})
        cold = db.create({"S": "cold"})
        mark = db.update_seq
        # Hammer one document until the journal compacts away the
        # superseded entries, then check the feed is still exact.
        for version in range(500):
            clock.advance(0.01)
            db.update(doc.unid, {"V": version})
        assert len(db._journal) < 500
        docs, stubs = db.changed_since_seq(mark)
        assert {d.unid for d in docs} == {doc.unid}
        assert stubs == []
        assert cold.unid in db

    def test_scan_cost_is_delta_not_database_size(self, db, clock):
        for index in range(2000):
            db.create({"N": index})
            clock.advance(0.001)
        mark = db.update_seq
        clock.advance(1)
        for unid in random.Random(5).sample(db.unids(), 10):
            db.update(unid, {"S": "touched"})
        db.changed_since_seq(mark)
        assert db.last_scan_cost <= 10


class TestReplicationSeqHistory:
    def test_second_pull_scans_nothing(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.docs_examined == 0
        assert stats.docs_scanned == 0
        assert b.replication_seq[(a.server, "receive")] == a.update_seq

    def test_installed_note_counts_as_changed_now(self, clock):
        """Multi-hop: a note a hub *receives* must flow onward even though
        its original modification time predates the spoke's cutoff."""
        a = NotesDatabase(
            "hub.nsf", clock=clock, rng=random.Random(1), server="alpha"
        )
        hub = a.new_replica("hub")
        c = a.new_replica("gamma")
        rep = Replicator()
        doc = a.create({"S": "routed"})
        clock.advance(1)
        rep.pull(c, hub)  # spoke establishes history before the doc arrives
        clock.advance(1)
        rep.pull(hub, a)
        clock.advance(1)
        stats = rep.pull(c, hub)
        assert stats.docs_transferred == 1
        assert doc.unid in c

    def test_clear_history_forces_full_reexamination(self, pair, clock, rep):
        a, b = pair
        for index in range(10):
            a.create({"N": index})
        clock.advance(1)
        rep.pull(b, a)
        clock.advance(1)
        b.clear_replication_history()
        assert b.replication_seq == {}
        stats = rep.pull(b, a)
        assert stats.docs_examined == 10  # everything re-examined
        assert stats.docs_transferred == 0  # ...but nothing re-shipped

    def test_incremental_and_full_copy_converge_identically(self):
        def run(incremental: bool) -> str:
            clock = VirtualClock()
            base = NotesDatabase(
                "conv.nsf", clock=clock, rng=random.Random(99), server="a1"
            )
            other = base.new_replica("a2")
            rng = random.Random(42)
            rep = Replicator()
            for round_no in range(4):
                for index in range(5):
                    base.create({"N": f"{round_no}.{index}"})
                    clock.advance(0.3)
                if base.unids():
                    other_doc = rng.choice(base.unids())
                    base.update(other_doc, {"S": "touched"})
                victim = rng.choice(base.unids())
                base.delete(victim)
                clock.advance(1)
                if incremental:
                    rep.replicate(base, other)
                else:
                    rep.full_copy(other, base)
                clock.advance(1)
            assert converged([base, other])
            return other.state_fingerprint()

        assert run(incremental=True) == run(incremental=False)

    def test_recreated_source_gets_a_new_journal(self, tmp_path):
        """A replica re-created empty on the same server numbers its seqs
        from 1 again, under a journal identity of its own: a partner's
        cursor into its predecessor counts as seq 0, so the next pull
        transfers the new notes instead of skipping every one the new
        journal numbers below the old cursor. A reopen keeps the new
        identity and high-water mark."""
        clock = VirtualClock()
        a = NotesDatabase("recreate.nsf", clock=clock, rng=random.Random(5),
                          server="alpha",
                          engine=StorageEngine(str(tmp_path / "old.nsf")))
        b = a.new_replica("beta")
        rep = Replicator()
        for index in range(3):
            doc = a.create({"N": index})
            for version in range(4):
                clock.advance(0.1)
                a.update(doc.unid, {"V": version})
        assert a.update_seq == 15
        rep.pull(b, a)
        assert b.replication_seq[(a.server, "receive")] == 15
        old_journal = a.journal_id
        a.close()

        def recreated():
            return NotesDatabase("recreate.nsf", clock=clock,
                                 rng=random.Random(6),
                                 replica_id=b.replica_id, server="alpha",
                                 engine=StorageEngine(str(tmp_path / "new.nsf")))

        a = recreated()
        assert a.journal_id != old_journal
        for index in range(5):
            clock.advance(0.1)
            a.create({"N": f"new {index}"})
        journal_id, high_water = a.journal_id, a.update_seq
        a.close()
        a = recreated()
        assert (a.journal_id, a.update_seq) == (journal_id, high_water)

        assert not rep.is_noop(a, b)
        stats = rep.pull(b, a)
        assert stats.docs_transferred == 5
        assert len(b) == 8
        assert b.replication_journal[a.server] == a.journal_id
        assert rep.pull(b, a).docs_examined == 0
        rep.pull(a, b)
        assert converged([a, b])

    def test_clear_history_forgets_the_journal_identity(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "x"})
        rep.pull(b, a)
        assert b.replication_journal == {a.server: a.journal_id}
        b.clear_replication_history()
        assert b.replication_journal == {}


class TestAgentSeqTracking:
    def test_agent_sees_replicated_documents(self, pair, clock, rep):
        from repro.agents import Agent, AgentRunner

        a, b = pair
        runner = AgentRunner(b)
        seen = []
        agent = runner.add(
            Agent(name="inbox", action=lambda d, database: seen.append(d.unid))
        )
        doc = a.create({"S": "mail"})
        clock.advance(1)
        rep.pull(b, a)
        runner.run_agent(agent)
        assert seen == [doc.unid]
        clock.advance(1)
        runner.run_agent(agent)
        assert seen == [doc.unid]  # not reprocessed


class TestJournalPersistence:
    @pytest.fixture
    def store(self, tmp_path):
        def open_db(seed=1):
            engine = StorageEngine(str(tmp_path / "nsf"))
            clock = VirtualClock()
            db = NotesDatabase(
                "feed.nsf", clock=clock, rng=random.Random(seed), engine=engine
            )
            return engine, db

        return open_db

    def test_update_seq_survives_reopen(self, store):
        engine, db = store()
        doc = db.create({"S": "a"})
        db.clock.advance(1)
        db.update(doc.unid, {"S": "b"})
        db.create({"S": "c"})
        journal_id, high_water = db.journal_id, db.update_seq
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.update_seq == high_water
        assert reloaded.journal_id == journal_id

    def test_feed_continues_across_reopen(self, store):
        engine, db = store()
        for index in range(5):
            db.create({"N": index})
            db.clock.advance(0.1)
        mark = db.update_seq
        db.clock.advance(1)
        changed = db.create({"S": "late"})
        engine.close()
        _, reloaded = store(seed=2)
        docs, stubs = reloaded.changed_since_seq(mark)
        assert [d.unid for d in docs] == [changed.unid]
        assert stubs == []

    def test_stub_seq_survives_reopen(self, store):
        engine, db = store()
        doc = db.create({"S": "x"})
        db.clock.advance(1)
        mark = db.update_seq
        db.delete(doc.unid)
        engine.close()
        _, reloaded = store(seed=2)
        docs, stubs = reloaded.changed_since_seq(mark)
        assert docs == []
        assert [s.unid for s in stubs] == [doc.unid]

    def test_store_without_seqs_in_note_records_is_refused(self, store):
        """A note record that is not ``[seq, note]`` (the layout stores
        had before the seq moved into the note's record) fails the open,
        and the error names the way out."""
        engine, db = store()
        doc = db.create({"S": "a"})
        engine.set(b"doc:" + doc.unid.encode(),
                   json.dumps(doc.to_dict()).encode())
        engine.close()
        with pytest.raises(DatabaseError, match="pull its notes from a partner"):
            store(seed=2)

    def test_json_seq_note_records_are_refused(self, store):
        """The ``[seq, note]`` JSON layout stores used before notes became
        binary records is refused the same way."""
        engine, db = store()
        doc = db.create({"S": "a"})
        engine.set(b"doc:" + doc.unid.encode(),
                   json.dumps([1, doc.to_dict()]).encode())
        engine.close()
        with pytest.raises(DatabaseError, match="pull its notes from a partner"):
            store(seed=2)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "not_utf8"])
    def test_damaged_note_record_names_its_key(self, store, damage):
        """Torn or garbage bytes under ``doc:`` fail the open with a
        DatabaseError naming the key, never a bare decode error."""
        engine, db = store()
        doc = db.create({"Subject": "kept", "Tags": ["a", "b"]})
        key = b"doc:" + doc.unid.encode()
        record = engine.get(key)
        engine.set(key, {
            "truncated": record[: len(record) // 2],
            "garbage": b")\x02\xe9\xff\xff\xff\x7f",
            "not_utf8": b"\xff\xfe\x00garbage",
        }[damage])
        engine.close()
        with pytest.raises(DatabaseError, match=doc.unid):
            store(seed=2)

    def test_fingerprint_stable_across_reopen(self, store):
        engine, db = store()
        for index in range(8):
            db.create({"N": index})
        db.delete(db.unids()[0])
        before = db.state_fingerprint()
        engine.close()
        _, reloaded = store(seed=2)
        assert reloaded.state_fingerprint() == before


class TestRollingFingerprint:
    def test_matches_recompute_through_mixed_workload(self, db, clock):
        rng = random.Random(7)
        for step in range(200):
            clock.advance(0.5)
            roll = rng.random()
            unids = db.unids()
            if roll < 0.45 or not unids:
                db.create({"N": step, "Body": f"body {step}"})
            elif roll < 0.70:
                db.update(rng.choice(unids), {"S": f"edit {step}"})
            elif roll < 0.80:
                db.delete(rng.choice(unids))
            elif roll < 0.88:
                db.soft_delete(rng.choice(unids))
            elif roll < 0.94 and db.trash:
                db.restore(rng.choice(db.trash))
            elif db.trash:
                db.empty_trash()
            else:
                db.purge_stubs(older_than=0.0)
            assert db.state_fingerprint() == db._fingerprint_recompute()

    def test_purge_and_cutoff_keep_fingerprint_incremental(self, db, clock):
        for index in range(10):
            db.create({"N": index})
            clock.advance(1)
        for unid in db.unids()[:3]:
            db.delete(unid)
        clock.advance(1000)
        db.purge_stubs(older_than=10.0)
        db.cutoff_delete(older_than=10.0)
        assert db.state_fingerprint() == db._fingerprint_recompute()
