"""Tests for deletion-stub propagation and the purge-interval anomaly."""

import pytest

from repro.replication import Replicator, converged


@pytest.fixture
def rep():
    return Replicator()


@pytest.fixture
def synced_pair(pair, clock, rep):
    a, b = pair
    doc = a.create({"S": "shared"})
    clock.advance(1)
    rep.replicate(a, b)
    clock.advance(1)
    return a, b, doc


class TestStubPropagation:
    def test_delete_propagates(self, synced_pair, clock, rep):
        a, b, doc = synced_pair
        a.delete(doc.unid)
        clock.advance(1)
        stats = rep.pull(b, a)
        assert stats.stubs_transferred == 1
        assert doc.unid not in b
        assert doc.unid in b.stubs

    def test_stub_bytes_reach_the_network(self, clock):
        """A stub a scheduled pull transfers is accounted on the wire, on
        its link, exactly like a document."""
        import random

        from repro.core import NotesDatabase
        from repro.replication import SimulatedNetwork

        network = SimulatedNetwork(clock)
        for name in ("alpha", "beta"):
            network.add_server(name)
        a = NotesDatabase("net.nsf", clock=clock, rng=random.Random(2),
                          server="alpha")
        b = a.new_replica("beta")
        rep = Replicator(network=network)
        doc = a.create({"S": "shared"})
        rep.pull(b, a)
        sent_before = network.stats.bytes_sent
        clock.advance(1)
        a.delete(doc.unid)
        stats = rep.pull(b, a)
        assert stats.stubs_transferred == 1
        assert stats.bytes_transferred > 0
        assert network.stats.bytes_sent - sent_before == stats.bytes_transferred
        assert network.stats.by_link[("alpha", "beta")][1] == 2

    def test_delete_beats_stale_copy_in_other_direction(self, synced_pair, clock, rep):
        a, b, doc = synced_pair
        a.delete(doc.unid)
        clock.advance(1)
        rep.replicate(a, b)
        assert doc.unid not in a and doc.unid not in b
        assert converged([a, b])

    def test_edit_after_delete_wins(self, synced_pair, clock, rep):
        """A document revised *past* the deletion survives it (more
        revisions than the stub's sequence number)."""
        a, b, doc = synced_pair
        a.delete(doc.unid)  # stub at seq 2
        clock.advance(1)
        b.update(doc.unid, {"S": "keep me"})  # seq 2
        b.update(doc.unid, {"S": "keep me!"})  # seq 3 > stub
        clock.advance(1)
        rep.replicate(a, b)
        assert a.try_get(doc.unid) is not None
        assert b.get(doc.unid).get("S") == "keep me!"
        assert converged([a, b])

    def test_delete_beats_concurrent_single_edit(self, synced_pair, clock, rep):
        a, b, doc = synced_pair
        b.update(doc.unid, {"S": "concurrent edit"})  # seq 2 (earlier time)
        clock.advance(1)
        a.delete(doc.unid)  # stub seq 2, later seq_time
        clock.advance(1)
        rep.replicate(a, b)
        assert doc.unid not in a and doc.unid not in b

    def test_stub_not_reanimated_by_old_copy(self, synced_pair, clock, rep):
        a, b, doc = synced_pair
        a.delete(doc.unid)
        clock.advance(1)
        rep.pull(a, b)  # b still has the old doc; a must keep the stub
        assert doc.unid not in a
        assert doc.unid in a.stubs


class TestPurgeAnomaly:
    def test_early_purge_resurrects_document(self, synced_pair, clock, rep):
        """Purging the stub before the partner replicates lets the old copy
        flow back — the ghost/resurrection anomaly of experiment E2."""
        a, b, doc = synced_pair
        a.delete(doc.unid)
        clock.advance(100)
        a.purge_stubs(older_than=clock.now)  # too early: b never saw it
        clock.advance(1)
        rep.replicate(a, b)
        assert doc.unid in a  # resurrected!

    def test_patient_purge_is_safe(self, synced_pair, clock, rep):
        a, b, doc = synced_pair
        a.delete(doc.unid)
        clock.advance(1)
        rep.replicate(a, b)  # delete reaches b first
        clock.advance(100)
        a.purge_stubs(older_than=clock.now)
        b.purge_stubs(older_than=clock.now)
        clock.advance(1)
        rep.replicate(a, b)
        assert doc.unid not in a and doc.unid not in b

    def test_recreate_after_purge_is_new_document(self, synced_pair, clock, rep):
        a, b, doc = synced_pair
        a.delete(doc.unid)
        clock.advance(1)
        rep.replicate(a, b)
        a.purge_stubs(older_than=clock.now + 1)
        fresh = a.create({"S": "new life"})
        assert fresh.unid != doc.unid
