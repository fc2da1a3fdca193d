"""Property-based convergence tests: the headline replication guarantee.

Whatever interleaving of creates/updates/deletes happens on N replicas,
enough rounds of pairwise replication make all replicas identical, and no
committed update is silently lost under the conflict-document policy (every
losing revision survives as a conflict note).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runners import build_deployment
from repro.replication import (
    ConflictPolicy,
    ReplicationScheduler,
    ReplicationTopology,
    Replicator,
    converged,
)

operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # replica index
        st.sampled_from(["create", "update", "delete"]),
        st.integers(min_value=0, max_value=10_000),  # payload / victim pick
    ),
    min_size=1,
    max_size=40,
)


def apply_ops(databases, clock, ops):
    for replica_index, op, payload in ops:
        db = databases[replica_index % len(databases)]
        clock.advance(1)
        unids = db.unids()
        if op == "create" or not unids:
            db.create({"S": f"v{payload}", "N": payload},
                      author=f"u{replica_index}")
        elif op == "update":
            db.update(unids[payload % len(unids)], {"S": f"e{payload}"},
                      author=f"u{replica_index}")
        else:
            db.delete(unids[payload % len(unids)], author=f"u{replica_index}")


@given(ops=operations)
@settings(max_examples=40, deadline=None)
def test_mesh_replication_always_converges(ops):
    deployment = build_deployment(3, seed=99)
    apply_ops(deployment.databases, deployment.clock, ops)
    topology = ReplicationTopology.mesh(["srv0", "srv1", "srv2"])
    scheduler = ReplicationScheduler(deployment.network, topology)
    scheduler.rounds_to_convergence(deployment.databases, max_rounds=16)
    assert converged(deployment.databases)


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_ring_replication_always_converges(ops):
    deployment = build_deployment(3, seed=7)
    apply_ops(deployment.databases, deployment.clock, ops)
    topology = ReplicationTopology.ring(["srv0", "srv1", "srv2"])
    scheduler = ReplicationScheduler(deployment.network, topology)
    scheduler.rounds_to_convergence(deployment.databases, max_rounds=16)
    assert converged(deployment.databases)


@given(
    edits=st.lists(
        st.tuples(st.integers(0, 1), st.text("ab", min_size=1, max_size=3)),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_no_update_is_silently_lost_with_conflict_docs(edits):
    """Every edited value survives somewhere: as the winner or inside a
    conflict document."""
    deployment = build_deployment(2, seed=13)
    a, b = deployment.databases
    clock = deployment.clock
    doc = a.create({"S": "base"})
    clock.advance(1)
    rep = Replicator(conflict_policy=ConflictPolicy.CONFLICT_DOC)
    rep.replicate(a, b)
    final_values = {}
    for replica_index, value in edits:
        db = (a, b)[replica_index]
        clock.advance(1)
        db.update(doc.unid, {"S": value}, author=f"u{replica_index}")
        final_values[replica_index] = value
    clock.advance(1)
    for _ in range(4):
        clock.advance(1)
        rep.replicate(a, b)
    assert converged([a, b])
    surviving = {d.get("S") for d in a.all_documents()}
    # The last edit on each replica must survive (earlier same-replica edits
    # are legitimately superseded by their own successors).
    for value in final_values.values():
        assert value in surviving


@given(
    seed=st.integers(0, 2**16),
    partitions=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans()),
        max_size=12,
    ),
)
@settings(max_examples=25, deadline=None)
def test_partition_chaos_then_heal_converges(seed, partitions):
    """Random link cuts/heals between rounds never prevent eventual
    convergence once all links heal."""
    deployment = build_deployment(3, seed=seed)
    rng = random.Random(seed)
    databases = deployment.databases
    clock = deployment.clock
    names = ["srv0", "srv1", "srv2"]
    topology = ReplicationTopology.mesh(names)
    scheduler = ReplicationScheduler(deployment.network, topology)
    flips = list(partitions)
    for step in range(10):
        db = rng.choice(databases)
        clock.advance(1)
        db.create({"S": f"step {step}"})
        if flips:
            a, b, cut = flips.pop()
            if a != b:
                deployment.network.partition(names[a], names[b],
                                             partitioned=cut)
        clock.advance(1)
        scheduler.run_round()  # partitioned edges are skipped silently
    # heal everything and run to convergence
    for i in range(3):
        for j in range(i + 1, 3):
            deployment.network.partition(names[i], names[j], partitioned=False)
    scheduler.rounds_to_convergence(databases, max_rounds=16)
    assert converged(databases)
    assert all(len(db) == 10 for db in databases)


@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "C", "D"]),  # which item
            st.text("xyz", min_size=1, max_size=4),  # new value
        ),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=40, deadline=None)
def test_field_level_equals_whole_document_replication(edits):
    """Field-delta transfer must reach the exact state whole-document
    transfer reaches, for any edit sequence."""
    whole = build_deployment(2, seed=101)
    delta = build_deployment(2, seed=101)  # identical twin deployment

    def run(deployment, field_level):
        a, b = deployment.databases
        clock = deployment.clock
        doc = a.create({"A": "0", "B": "0", "C": "0", "D": "0"})
        clock.advance(1)
        rep = Replicator(field_level=field_level)
        rep.replicate(a, b)
        for item, value in edits:
            clock.advance(1)
            a.update(doc.unid, {item: value}, author="u")
            if len(value) == 1:  # occasionally replicate mid-stream
                clock.advance(1)
                rep.replicate(a, b)
        clock.advance(1)
        rep.replicate(a, b)
        assert converged([a, b])
        copy = b.get(doc.unid)
        return (
            copy.oid,
            sorted((name, str(copy.get(name))) for name in copy.item_names),
        )

    assert run(whole, False) == run(delta, True)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_random_workload_with_deletes_converges(seed):
    deployment = build_deployment(3, seed=seed)
    rng = random.Random(seed)
    databases = deployment.databases
    clock = deployment.clock
    for _ in range(30):
        db = rng.choice(databases)
        clock.advance(1)
        roll = rng.random()
        unids = db.unids()
        if roll < 0.5 or not unids:
            db.create({"S": str(rng.random())})
        elif roll < 0.8:
            db.update(rng.choice(unids), {"S": str(rng.random())})
        else:
            db.delete(rng.choice(unids))
    topology = ReplicationTopology.hub_spoke("srv0", ["srv1", "srv2"])
    scheduler = ReplicationScheduler(deployment.network, topology)
    scheduler.rounds_to_convergence(databases, max_rounds=16)
    assert converged(databases)


# -- echo skipping changes nothing -------------------------------------------
#
# A pull leaves out the journal entries its source installed from the
# puller itself (``NotesDatabase.journal_entries_since(echoes_of=...)``).
# That is only an optimisation: played with every origin tag cleared
# before each pull — so every echo is examined, as it was before the tag
# existed — the same schedule must end in the same notes on every replica.
# The policies compared are the ones whose outcome is a function of the
# revisions alone. MERGE is not: replicas that merge different pairs of
# revisions can end up holding different items under one revision stamp
# whether echoes are examined or not, so it has no single outcome to match.


def _clear_origins(db):
    """Test-only: forget the origin tag of every journal entry of ``db``."""
    db._journal = [
        (seq, unid, is_stub, None) for seq, unid, is_stub, _ in db._journal
    ]


class _EchoExaminingReplicator(Replicator):
    """Examines every echo: clears the source's origin tags before each pull."""

    def pull(self, target, source, *args, **kwargs):
        _clear_origins(source)
        return super().pull(target, source, *args, **kwargs)


def _replica_state(db):
    docs = {
        doc.unid: (
            doc.seq,
            doc.seq_time,
            db.in_trash(doc.unid),
            sorted((item.name, item.type.value, repr(item.value))
                   for item in doc),
        )
        for doc in map(db.held, db.unids() + db.trash)
    }
    stubs = {unid: (stub.seq, stub.seq_time)
             for unid, stub in db.stubs.items()}
    conflicts = sorted(doc.unid for doc in db.all_documents()
                       if doc.is_conflict)
    return docs, stubs, conflicts


def _play_schedule(seed, shape, policy, examine_echoes):
    """Play one seeded schedule of edits, conflicts, deletes, trash moves
    and early stub purges over four replicas; returns every replica's
    state and the echoes the pulls skipped.

    The schedule is fixed by the seed alone: every draw is made whatever
    the replicas hold, and edits pick from the notes the schedule itself
    created. Skipping an echo may change *where* a conflict note is first
    made (the replica that sent the losing revision no longer makes it;
    its partner does, on receiving the winner), so a schedule that read
    the replicas to choose its next step would diverge on that timing.
    """
    deployment = build_deployment(4, seed=seed)
    databases, clock = deployment.databases, deployment.clock
    names = [db.server for db in databases]
    if shape == "hub":
        topology = ReplicationTopology.hub_spoke(names[0], names[1:])
    else:
        topology = ReplicationTopology.mesh(names)
    kind = _EchoExaminingReplicator if examine_echoes else Replicator
    replicator = kind(network=deployment.network, conflict_policy=policy,
                      field_level=True)
    scheduler = ReplicationScheduler(deployment.network, topology, replicator)
    rng = random.Random(seed)
    pool = []
    for index in range(5):
        clock.advance(1)
        pool.append(databases[index % 4].create(
            {"A": "a0", "B": "b0", "C": "c0"}).unid)
    for _ in range(24):
        clock.advance(1)
        db, unid, roll = rng.choice(databases), rng.choice(pool), rng.random()
        value, field, sync = rng.random(), rng.choice("BC"), rng.random()
        if roll < 0.1:
            pool.append(db.create({"A": f"new{value}", "B": "b0",
                                   "C": "c0"}).unid)
        elif roll < 0.85:
            if unid not in db:
                pass  # not a live note here: the step does nothing
            elif roll < 0.4:
                # The same field edited on several replicas between
                # rounds: same-field conflicts.
                db.update(unid, {"A": f"a{value}"})
            elif roll < 0.65:
                # Disjoint fields (a field-level conflict).
                db.update(unid, {field: f"x{value}"})
            elif roll < 0.75:
                db.delete(unid)
            else:
                db.soft_delete(unid)
        elif roll < 0.9:
            if db.in_trash(unid):
                db.restore(unid)
        else:
            db.purge_stubs(older_than=clock.now + 1)  # before partners saw them
        if sync < 0.4:
            clock.advance(1)
            scheduler.run_round()
    for _ in range(8):
        clock.advance(1)
        scheduler.run_round()
    return [_replica_state(db) for db in databases], scheduler.total.echoes_skipped


def _check_echo_skipping_changes_nothing(seed, shape, policy):
    skipping, skipped = _play_schedule(seed, shape, policy, False)
    examining, none_skipped = _play_schedule(seed, shape, policy, True)
    assert none_skipped == 0
    assert skipped > 0
    assert skipping == examining


@pytest.mark.parametrize("policy", [ConflictPolicy.CONFLICT_DOC,
                                    ConflictPolicy.LWW])
@pytest.mark.parametrize("shape", ["hub", "mesh"])
@given(seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_skipping_echoes_changes_no_replica(shape, policy, seed):
    _check_echo_skipping_changes_nothing(seed, shape, policy)


@pytest.mark.slow
@pytest.mark.parametrize("policy", [ConflictPolicy.CONFLICT_DOC,
                                    ConflictPolicy.LWW])
@pytest.mark.parametrize("shape", ["hub", "mesh"])
@given(seed=st.integers(0, 2**32))
@settings(max_examples=400, deadline=None)
def test_skipping_echoes_changes_no_replica_full(shape, policy, seed):
    _check_echo_skipping_changes_nothing(seed, shape, policy)
