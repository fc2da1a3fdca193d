"""Tests for echo skipping and the replication fixes it rests on.

A pull leaves out the journal entries its source installed from the
puller itself (*echoes*), as long as the puller has purged nothing since.
Skipping is only safe because examining such an entry changes nothing on
the puller, which needs the rules these tests pin down too: a trashed
note is compared like a live one, a deleted conflict note stays deleted,
and stubs are ordered by ``(seq, seq_time)`` like revisions.
"""

import random

import pytest

from repro.core import NotesDatabase
from repro.replication import Replicator, converged
from repro.storage import StorageEngine


@pytest.fixture
def rep():
    return Replicator()


@pytest.fixture
def trio(clock):
    a = NotesDatabase("trio.nsf", clock=clock, rng=random.Random(1),
                      server="alpha")
    return a, a.new_replica("beta"), a.new_replica("gamma")


class TestEchoSkip:
    def test_pull_back_skips_what_the_target_sent(self, pair, clock, rep):
        a, b = pair
        a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        stats = rep.pull(a, b)
        assert (stats.docs_scanned, stats.echoes_skipped) == (1, 1)
        assert stats.docs_examined == 0
        assert converged([a, b])

    def test_an_edit_made_on_the_partner_is_no_echo(self, pair, clock, rep):
        a, b = pair
        doc = a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        b.update(doc.unid, {"S": "y"})
        stats = rep.pull(a, b)
        assert stats.echoes_skipped == 0
        assert stats.docs_transferred == 1
        assert a.get(doc.unid).get("S") == "y"

    def test_echo_of_a_trashed_note_leaves_it_trashed(self, pair, clock, rep):
        a, b = pair
        doc = a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        a.soft_delete(doc.unid)
        seq = a.update_seq
        stats = rep.pull(a, b)
        assert stats.echoes_skipped == 1
        assert a.in_trash(doc.unid) and doc.unid not in a
        assert a.update_seq == seq

    def test_replica_recreated_on_the_same_server_gets_every_note(
        self, pair, clock, rep
    ):
        a, b = pair
        for index in range(3):
            clock.advance(1)
            a.create({"N": index})
        rep.pull(b, a)
        clock.advance(1)
        again = NotesDatabase("pair.nsf", clock=clock, rng=random.Random(2),
                              replica_id=a.replica_id, server=a.server)
        assert again.journal_id != a.journal_id
        stats = rep.pull(again, b)
        assert stats.echoes_skipped == 0
        assert stats.docs_transferred == 3
        assert converged([again, b])

    def test_note_purged_by_the_target_is_examined_again(
        self, pair, clock, rep
    ):
        """The E2 resurrection anomaly survives echo skipping: a purge
        advances the purge count in the target's origin tag, so what the
        partner got from it before is examined again."""
        a, b = pair
        doc = a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        a.delete(doc.unid)
        clock.advance(1)
        a.purge_stubs(older_than=clock.now + 1)
        stats = rep.pull(a, b)
        assert stats.echoes_skipped == 0
        assert doc.unid in a  # resurrected

    def test_multi_hop_echo_is_examined(self, trio, clock, rep):
        a, b, c = trio
        a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        rep.pull(c, b)
        stats = rep.pull(a, c)  # c got it from b, not from a
        assert stats.echoes_skipped == 0
        assert (stats.docs_examined, stats.docs_skipped) == (1, 1)

    def test_tags_do_not_survive_a_reopen(self, tmp_path, clock, rep):
        a = NotesDatabase("disk.nsf", clock=clock, rng=random.Random(1),
                          server="alpha")

        def open_b():
            return NotesDatabase(
                "disk.nsf", clock=clock, rng=random.Random(2),
                replica_id=a.replica_id, server="beta",
                engine=StorageEngine(str(tmp_path / "b")))

        b = open_b()
        a.create({"S": "x"})
        clock.advance(1)
        rep.pull(b, a)
        b.close()
        b = open_b()
        stats = rep.pull(a, b)
        assert stats.echoes_skipped == 0
        assert (stats.docs_examined, stats.docs_skipped) == (1, 1)
        b.close()

    def test_conflict_resolution_writes_go_back(self, pair, clock, rep):
        """A resolution's writes are the resolver's own: the partner
        examines the winner it sent and receives the conflict note."""
        a, b = pair
        doc = a.create({"S": "base"})
        clock.advance(1)
        rep.pull(b, a)
        a.update(doc.unid, {"S": "a"})
        clock.advance(1)
        b.update(doc.unid, {"S": "b"})  # later: b's revision wins
        rep.pull(a, b)
        stats = rep.pull(b, a)
        assert stats.echoes_skipped == 0
        assert stats.docs_transferred == 1  # the conflict note
        assert converged([a, b])


class TestReexaminationChangesNothing:
    """Examining a note a replica already moved past is a no-op, whether
    it comes as an echo or from a third replica."""

    def test_older_revision_leaves_a_trashed_note_alone(self, trio, clock, rep):
        a, b, c = trio
        doc = a.create({"S": "v1"})
        clock.advance(1)
        rep.pull(b, a)
        a.update(doc.unid, {"S": "v2"})
        a.soft_delete(doc.unid)
        rep.pull(c, b)  # c holds v1, from b
        seq = a.update_seq
        stats = rep.pull(a, c)
        assert stats.docs_skipped == 1
        assert a.in_trash(doc.unid)
        assert a.held(doc.unid).get("S") == "v2"
        assert a.update_seq == seq

    def test_stub_does_not_delete_a_trashed_note_revised_past_it(
        self, trio, clock, rep
    ):
        a, b, c = trio
        doc = a.create({"S": "v1"})
        clock.advance(1)
        rep.pull(b, a)
        b.delete(doc.unid)
        for version in ("v2", "v3"):
            clock.advance(1)
            a.update(doc.unid, {"S": version})
        a.soft_delete(doc.unid)
        rep.pull(a, b)
        assert a.in_trash(doc.unid)
        assert a.held(doc.unid).get("S") == "v3"

    def test_deleted_conflict_note_stays_deleted(self, trio, clock, rep):
        a, b, c = trio
        doc = a.create({"S": "base"})
        clock.advance(1)
        rep.replicate(a, b)
        rep.replicate(a, c)
        b.update(doc.unid, {"S": "b"})
        rep.pull(c, b)  # c holds b's revision, which is about to lose
        clock.advance(1)
        a.update(doc.unid, {"S": "a"})  # later: a's revision wins
        rep.pull(b, a)
        rep.pull(a, b)
        [note] = [d for d in a.all_documents() if d.is_conflict]
        a.delete(note.unid)
        stats = rep.pull(a, c)  # the loser again, from a third replica
        assert stats.conflicts == 1
        assert note.unid not in a
        assert note.unid in a.stubs

    def test_stubs_are_ordered_by_seq_then_time(self, trio, clock, rep):
        a, b, c = trio
        doc = a.create({"S": "v1"})
        clock.advance(1)
        rep.replicate(a, b)
        rep.replicate(a, c)
        a.update(doc.unid, {"S": "v2"})
        a.update(doc.unid, {"S": "v3"})
        a.delete(doc.unid)  # seq 4
        clock.advance(1)
        c.delete(doc.unid)  # seq 2, later stamp
        rep.pull(b, a)
        rep.pull(b, c)
        assert b.stubs[doc.unid].seq == 4


class TestFieldDelta:
    def test_delta_installs_the_shipped_items_as_they_are(self, pair, clock):
        rep = Replicator(field_level=True)
        a, b = pair
        doc = a.create({"A": "one", "B": "two"})
        clock.advance(1)
        rep.pull(b, a)
        a.update(doc.unid, {"A": "three"})
        stats = rep.pull(b, a)
        assert stats.bytes_transferred == 160 + len("A") + len("three") + 8
        mine, theirs = a.get(doc.unid), b.get(doc.unid)
        assert theirs.item("A") is mine.item("A")
        assert theirs.revisions == mine.revisions
        assert theirs.revisions is not mine.revisions
        assert theirs.item_times == mine.item_times


class TestConverged:
    @staticmethod
    def _no_scan(monkeypatch, *databases):
        for db in databases:
            monkeypatch.setattr(db, "all_documents", pytest.fail)

    def test_unequal_fingerprints_without_trash_need_no_scan(
        self, pair, clock, rep, monkeypatch
    ):
        a, b = pair
        a.create({"S": "x"})
        clock.advance(1)
        rep.replicate(a, b)
        a.create({"S": "y"})
        self._no_scan(monkeypatch, a, b)
        assert not converged([a, b])
        rep.replicate(a, b)
        assert converged([a, b])

    def test_only_trashed_revisions_differ(self, pair, clock, rep):
        """Trash is local: replicas whose live documents match have
        converged, whatever revisions their trash holds."""
        a, b = pair
        doc = a.create({"S": "v1"})
        clock.advance(1)
        rep.replicate(a, b)
        a.update(doc.unid, {"S": "v2"})
        a.soft_delete(doc.unid)
        b.soft_delete(doc.unid)
        assert a.state_fingerprint() != b.state_fingerprint()
        assert converged([a, b])
        b.restore(doc.unid)
        assert not converged([a, b])

    def test_stub_sets_decide_before_fingerprints(self, pair, clock, rep):
        a, b = pair
        doc = a.create({"S": "x"})
        clock.advance(1)
        rep.replicate(a, b)
        a.delete(doc.unid)
        b.delete(doc.unid)
        assert converged([a, b])
        a.purge_stubs(older_than=clock.now + 1)
        assert not converged([a, b])
