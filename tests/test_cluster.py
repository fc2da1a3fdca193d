"""Tests for clustering: event-driven replication, failover, catch-up."""

import random

import pytest

from repro.cluster import Cluster
from repro.core import NotesDatabase
from repro.errors import ClusterError
from repro.replication import (
    ConflictPolicy,
    Replicator,
    SimulatedNetwork,
    converged,
)
from repro.sim import VirtualClock


def build_world():
    clock = VirtualClock()
    network = SimulatedNetwork(clock)
    for name in ("c1", "c2", "c3"):
        network.add_server(name)
    db = NotesDatabase("app.nsf", clock=clock, rng=random.Random(3), server="c1")
    network.server("c1").add_database(db)
    cluster = Cluster("TestCluster", network)
    for name in ("c1", "c2", "c3"):
        cluster.add_member(name)
    replicas = cluster.cluster_database(db)
    return clock, network, cluster, replicas


@pytest.fixture
def world():
    return build_world()


class TestMembership:
    def test_members_get_replicas(self, world):
        _, network, _, replicas = world
        assert len(replicas) == 3
        assert {r.server for r in replicas} == {"c1", "c2", "c3"}
        assert len({r.replica_id for r in replicas}) == 1

    def test_duplicate_member_rejected(self, world):
        _, _, cluster, _ = world
        with pytest.raises(ClusterError):
            cluster.add_member("c1")

    def test_cluster_size_cap(self, world):
        clock, network, cluster, _ = world
        for index in range(3, 6):
            network.add_server(f"c{index + 1}")
            cluster.add_member(f"c{index + 1}")
        network.add_server("overflow")
        with pytest.raises(ClusterError):
            cluster.add_member("overflow")

    def test_preexisting_content_seeded(self):
        clock = VirtualClock()
        network = SimulatedNetwork(clock)
        network.add_server("c1")
        network.add_server("c2")
        db = NotesDatabase("pre.nsf", clock=clock, rng=random.Random(1), server="c1")
        network.server("c1").add_database(db)
        seeded = db.create({"S": "existing"})
        db_deleted = db.create({"S": "gone"})
        db.delete(db_deleted.unid)
        cluster = Cluster("C", network)
        cluster.add_member("c1")
        cluster.add_member("c2")
        replicas = cluster.cluster_database(db)
        replica = next(r for r in replicas if r.server == "c2")
        assert seeded.unid in replica
        assert db_deleted.unid in replica.stubs

    def test_existing_member_replicas_are_levelled(self):
        """Members that already hold a replica — here one at an older
        revision of the same document (so the document counts match) plus
        a note of its own — end up with the same state as the origin and
        as a brand-new member, and are live members afterwards."""
        clock = VirtualClock()
        network = SimulatedNetwork(clock)
        for name in ("c1", "c2", "c3"):
            network.add_server(name)
        db = NotesDatabase("old.nsf", clock=clock, rng=random.Random(4),
                           server="c1")
        network.server("c1").add_database(db)
        doc = db.create({"S": "v1"})
        stale = db.new_replica("c2")
        network.server("c2").add_database(stale)
        Replicator().pull(stale, db)
        clock.advance(1)
        db.update(doc.unid, {"S": "v2"})
        own = stale.create({"S": "only on c2"})
        gone = db.create({"S": "deleted before joining"})
        db.delete(gone.unid)
        binned = db.create({"S": "in the trash before joining"})
        db.soft_delete(binned.unid)
        own_binned = stale.create({"S": "in c2's trash before joining"})
        stale.soft_delete(own_binned.unid)
        cluster = Cluster("C", network)
        for name in ("c1", "c2", "c3"):
            cluster.add_member(name)
        replicas = cluster.cluster_database(db)
        fresh = next(r for r in replicas if r.server == "c3")
        assert stale in replicas
        assert stale.get(doc.unid).get("S") == "v2"
        assert own.unid in db and own.unid in fresh
        assert gone.unid in stale.stubs and gone.unid in fresh.stubs
        for unid in (binned.unid, own_binned.unid):
            for replica in replicas:
                assert unid not in replica and replica.in_trash(unid)
        assert converged(replicas)
        for member in ("c2", "c3"):
            assert db.replication_seq[(member, "send")] == db.update_seq
        clock.advance(1)
        db.update(doc.unid, {"S": "v3"})
        assert stale.get(doc.unid).get("S") == "v3"
        assert fresh.get(doc.unid).get("S") == "v3"


class TestEventDrivenReplication:
    def test_create_propagates_immediately(self, world):
        _, _, _, (a, b, c) = world
        doc = a.create({"S": "live"})
        assert doc.unid in b and doc.unid in c

    def test_update_propagates(self, world):
        _, _, _, (a, b, c) = world
        doc = a.create({"S": "v1"})
        b.update(doc.unid, {"S": "v2"})
        assert a.get(doc.unid).get("S") == "v2"
        assert c.get(doc.unid).get("S") == "v2"

    def test_delete_propagates(self, world):
        _, _, _, (a, b, c) = world
        doc = a.create({"S": "x"})
        c.delete(doc.unid)
        assert doc.unid not in a and doc.unid not in b
        assert converged([a, b, c])

    def test_no_echo_storm(self, world):
        _, _, cluster, (a, b, c) = world
        replicator = next(iter(cluster.replicators.values()))
        a.create({"S": "once"})
        # one change, two pushes (to b and c) — no echoes back
        assert replicator.stats.pushes == 2

    def test_conflicting_cluster_edits_resolve(self, world):
        clock, _, cluster, (a, b, c) = world
        # simulate a partition so concurrent edits are possible
        doc = a.create({"S": "base"})
        cluster.network.partition("c1", "c2")
        cluster.network.partition("c1", "c3")
        cluster.network.partition("c2", "c3")
        clock.advance(1)
        a.update(doc.unid, {"S": "a!"})
        clock.advance(1)
        b.update(doc.unid, {"S": "b!"})
        for pair_names in (("c1", "c2"), ("c1", "c3"), ("c2", "c3")):
            cluster.network.partition(*pair_names, partitioned=False)
        replicator = next(iter(cluster.replicators.values()))
        for _ in range(3):
            replicator.catch_up()
        assert converged([a, b, c])
        assert replicator.stats.conflicts >= 1


class TestClusterTrash:
    """A soft delete or restore moves each member's own copy into or out
    of the trash; nothing a later seed replays can undo a restore."""

    @staticmethod
    def _assert_live_everywhere(replicas, unid):
        for replica in replicas:
            assert unid in replica and not replica.in_trash(unid)
            assert unid not in replica.stubs
        assert converged(replicas)

    @staticmethod
    def _reseed(cluster, replicas):
        for replica in replicas:
            cluster.cluster_database(replica)

    def test_soft_delete_and_restore_push_live(self, world):
        _, _, cluster, replicas = world
        a, b, c = replicas
        doc = a.create({"S": "x"})
        a.soft_delete(doc.unid)
        for replica in replicas:
            assert doc.unid not in replica and replica.in_trash(doc.unid)
            assert doc.unid not in replica.stubs
        assert converged(replicas)
        b.restore(doc.unid)
        self._assert_live_everywhere(replicas, doc.unid)
        self._reseed(cluster, replicas)
        self._assert_live_everywhere(replicas, doc.unid)

    @pytest.mark.parametrize("deleted_while_down", [True, False])
    def test_soft_delete_and_restore_drain(self, world, deleted_while_down):
        clock, _, cluster, replicas = world
        a, b, c = replicas
        doc = a.create({"S": "x"})
        if not deleted_while_down:
            a.soft_delete(doc.unid)
        cluster.fail("c3")
        if deleted_while_down:
            a.soft_delete(doc.unid)
            assert doc.unid in c
        clock.advance(1)
        a.restore(doc.unid)
        assert c.in_trash(doc.unid) != deleted_while_down
        cluster.restore("c3")
        self._assert_live_everywhere(replicas, doc.unid)
        self._reseed(cluster, replicas)
        self._assert_live_everywhere(replicas, doc.unid)

    def test_trash_move_on_a_stalled_link_lands_after_the_drain(self, world):
        """A link healed but not yet drained: the soft delete reaches a
        member that does not hold the note yet, and must still apply
        after the drain installs it."""
        _, network, cluster, replicas = world
        a, b, c = replicas
        network.partition("c1", "c2")
        doc = a.create({"S": "created while c1-c2 was cut"})
        network.partition("c1", "c2", partitioned=False)
        a.soft_delete(doc.unid)
        assert doc.unid not in b and not b.in_trash(doc.unid)
        next(iter(cluster.replicators.values())).catch_up()
        for replica in replicas:
            assert doc.unid not in replica and replica.in_trash(doc.unid)

    def test_trash_move_while_down_drains(self, world):
        _, _, cluster, replicas = world
        a, b, c = replicas
        doc = a.create({"S": "x"})
        cluster.fail("c2")
        a.soft_delete(doc.unid)
        assert doc.unid in b
        cluster.restore("c2")
        assert b.in_trash(doc.unid)
        self._reseed(cluster, replicas)
        for replica in replicas:
            assert replica.in_trash(doc.unid)
        c.restore(doc.unid)
        self._assert_live_everywhere(replicas, doc.unid)


def _race(clustered: bool, stall_first: str, stub_wins: bool):
    """One seeded partition race, replicated by a cluster or by
    ``Replicator.replicate`` over plain replicas; returns the replicas.

    Across a three-way partition, c1 updates a document that c2 deletes
    (the later of the two writes has the later stamp, so ``stub_wins``
    picks the winner) and both edit a second document. A note written
    first on ``stall_first`` makes its links the first to stall, and so
    the first to drain after the heal.
    """
    clock = VirtualClock()
    network = SimulatedNetwork(clock)
    names = ("c1", "c2", "c3")
    for name in names:
        network.add_server(name)
    origin = NotesDatabase("race.nsf", clock=clock, rng=random.Random(8),
                           server="c1")
    network.server("c1").add_database(origin)
    if clustered:
        cluster = Cluster("Race", network)
        for name in names:
            cluster.add_member(name)
        a, b, c = cluster.cluster_database(origin)
    else:
        a, b, c = origin, origin.new_replica("c2"), origin.new_replica("c3")
    replicator = Replicator()

    def replicate_all():
        for x, y in ((a, b), (a, c), (b, c), (a, b), (a, c)):
            replicator.replicate(x, y)

    raced = a.create({"S": "base"})
    edited = a.create({"S": "base"})
    if not clustered:
        replicate_all()
    for x, y in ((0, 1), (0, 2), (1, 2)):
        network.partition(names[x], names[y])
    clock.advance(1)
    (a if stall_first == "c1" else b).create({"S": "opens the stall"})
    clock.advance(1)
    if stub_wins:
        a.update(raced.unid, {"S": "c1 edit"})
        clock.advance(1)
        b.delete(raced.unid)
    else:
        b.delete(raced.unid)
        clock.advance(1)
        a.update(raced.unid, {"S": "c1 edit"})
    clock.advance(1)
    a.update(edited.unid, {"S": "c1 edit"})
    clock.advance(1)
    b.update(edited.unid, {"S": "c2 edit"})
    for x, y in ((0, 1), (0, 2), (1, 2)):
        network.partition(names[x], names[y], partitioned=False)
    if clustered:
        cluster_replicator = next(iter(cluster.replicators.values()))
        for _ in range(4):
            if cluster_replicator.catch_up() == 0:
                break
    else:
        replicate_all()
    return a, b, c


def _note_state(db):
    return (
        {d.unid: (d.seq, tuple(d.seq_time)) for d in db.all_documents()},
        {u: (s.seq, tuple(s.seq_time)) for u, s in db.stubs.items()},
    )


class TestClusterMatchesScheduledReplication:
    @pytest.mark.parametrize("stub_wins", [True, False])
    @pytest.mark.parametrize("stall_first", ["c1", "c2"])
    def test_partition_races_resolve_as_scheduled(self, stall_first, stub_wins):
        expected = _note_state(_race(False, stall_first, stub_wins)[0])
        for replica in _race(True, stall_first, stub_wins):
            assert _note_state(replica) == expected
        docs, stubs = expected
        assert len(stubs) == (1 if stub_wins else 0)
        # The stall opener, the edited note and its conflict note, plus
        # the raced note when its update beats the delete.
        assert len(docs) == (3 if stub_wins else 4)


class TestFailover:
    def test_preferred_server_when_up(self, world):
        _, _, cluster, (a, _, _) = world
        result = cluster.open_database(a.replica_id, preferred="c1")
        assert result.server == "c1" and not result.failed_over

    def test_failover_when_preferred_down(self, world):
        _, _, cluster, (a, _, _) = world
        cluster.fail("c1")
        result = cluster.open_database(
            a.replica_id, preferred="c1", rng=random.Random(0)
        )
        assert result.server in ("c2", "c3")
        assert result.failed_over
        assert cluster.failovers == 1

    def test_all_down_raises(self, world):
        _, _, cluster, (a, _, _) = world
        for name in ("c1", "c2", "c3"):
            cluster.fail(name)
        with pytest.raises(ClusterError):
            cluster.open_database(a.replica_id)

    def test_load_balancing_spreads_opens(self, world):
        _, _, cluster, (a, _, _) = world
        rng = random.Random(42)
        servers = [
            cluster.open_database(a.replica_id, rng=rng).server
            for _ in range(30)
        ]
        assert len(set(servers)) == 3  # no single member takes everything

    def test_unseeded_tie_break_ignores_the_global_random(self):
        """With no rng, two identically built clusters choose alike
        whatever the module-level generator's state."""
        choices = []
        state = random.getstate()
        try:
            for global_seed in (1, 2):
                _, _, cluster, (a, _, _) = build_world()
                random.seed(global_seed)
                choices.append([cluster.open_database(a.replica_id).server
                                for _ in range(12)])
        finally:
            random.setstate(state)
        assert choices[0] == choices[1]
        assert len(set(choices[0])) > 1

    def test_availability_index_decreases_with_load(self, world):
        _, _, cluster, (a, _, _) = world
        before = cluster.availability_index("c1")
        for _ in range(5):
            cluster.open_database(a.replica_id, preferred="c1")
        assert cluster.availability_index("c1") < before
        cluster.close_session("c1")
        assert cluster.availability_index("c1") == before - 20

    def test_changes_queue_while_down_and_drain_on_restore(self, world):
        _, _, cluster, (a, b, c) = world
        cluster.fail("c1")
        doc = b.create({"S": "while c1 down"})
        replicator = next(iter(cluster.replicators.values()))
        assert replicator.backlog_size >= 1
        assert doc.unid in c and doc.unid not in a
        drained = cluster.restore("c1")
        assert drained >= 1
        assert doc.unid in a
        assert converged([a, b, c])

    def test_queued_delete_drains(self, world):
        _, _, cluster, (a, b, c) = world
        doc = a.create({"S": "to delete"})
        cluster.fail("c3")
        b.delete(doc.unid)
        cluster.restore("c3")
        assert doc.unid not in c
        assert converged([a, b, c])

    def test_healed_link_does_not_push_back_what_its_target_pushed(
        self, world
    ):
        """Both directions of a cut link stall; the first drain installs
        c1's note on c2, and the second drain skips it as an echo instead
        of pushing it back to c1."""
        clock, network, cluster, (a, b, c) = world
        network.partition("c1", "c2")
        clock.advance(1)
        from_a = a.create({"S": "written on c1 during the cut"})
        clock.advance(1)
        from_b = b.create({"S": "written on c2 during the cut"})
        network.partition("c1", "c2", partitioned=False)
        replicator = next(iter(cluster.replicators.values()))
        assert replicator.catch_up() == 2  # one push per note, none back
        assert replicator.stats.echoes_skipped == 1
        assert from_a.unid in b and from_b.unid in a
        assert converged([a, b, c])

    def test_edit_superseded_while_down_applies_latest(self, world):
        clock, _, cluster, (a, b, c) = world
        doc = a.create({"S": "v1"})
        cluster.fail("c1")
        clock.advance(1)
        b.update(doc.unid, {"S": "v2"})
        clock.advance(1)
        b.update(doc.unid, {"S": "v3"})
        cluster.restore("c1")
        assert a.get(doc.unid).get("S") == "v3"
