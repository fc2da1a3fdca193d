"""Benchmark smoke: a <60s sanity pass over the experiment shapes.

Runs shrunken versions of the headline experiment cells without the
pytest-benchmark timing machinery, so CI can assert the qualitative
claims (incremental beats full copy, the change feed examines the delta,
the cluster backlog drains) on every PR without paying for the full
sweeps. Run with::

    pytest benchmarks/bench_smoke.py -q
"""

from __future__ import annotations

from repro.bench.runners import (
    build_catchup_corpus,
    build_changefeed_db,
    build_deployment,
    catchup_view,
    populate,
)
from repro.cluster import ClusterReplicator
from repro.fulltext import FullTextIndex
from repro.replication import Replicator, converged


def test_smoke_incremental_beats_full_copy():
    deployment = build_deployment(2, seed=1)
    a, b = deployment.databases
    populate(a, 200, deployment.rng)
    deployment.clock.advance(1)
    rep = Replicator()
    rep.pull(b, a)
    deployment.clock.advance(1)
    for unid in deployment.rng.sample(a.unids(), 5):
        a.update(unid, {"Status": "edited"})
    deployment.clock.advance(1)
    incremental = rep.pull(b, a)
    full = rep.full_copy(b, a)
    assert incremental.docs_transferred == 5
    assert full.bytes_transferred > 10 * max(incremental.bytes_transferred, 1)
    assert converged([a, b])


def test_smoke_changefeed_examines_delta():
    db, mark_seq, _ = build_changefeed_db(5_000, 50)
    docs, stubs = db.changed_since_seq(mark_seq)
    assert len(docs) == 50 and not stubs
    assert db.last_scan_cost <= 50


def test_smoke_replication_pass_scans_delta_only():
    deployment = build_deployment(2, seed=13)
    a, b = deployment.databases
    populate(a, 500, deployment.rng, body_bytes=64)
    deployment.clock.advance(1)
    rep = Replicator()
    rep.pull(b, a)
    deployment.clock.advance(1)
    for unid in deployment.rng.sample(a.unids(), 10):
        a.update(unid, {"Status": "tick"})
    deployment.clock.advance(1)
    stats = rep.pull(b, a)
    assert stats.docs_transferred == 10
    assert stats.docs_scanned <= 10


def test_smoke_cluster_backlog_drains():
    deployment = build_deployment(3, seed=7)
    a, b, c = deployment.databases
    cluster = ClusterReplicator(deployment.network)
    for member in deployment.databases:
        cluster.attach(member)
    a.create({"S": "live"})
    assert len(b) == len(c) == 1
    deployment.network.partition(a.server, c.server)
    deployment.network.partition(b.server, c.server)
    for index in range(5):
        a.create({"S": f"offline {index}"})
    assert len(b) == 6 and len(c) == 1
    assert cluster.backlog_size >= 5
    deployment.network.partition(a.server, c.server, partitioned=False)
    deployment.network.partition(b.server, c.server, partitioned=False)
    cluster.catch_up()
    assert len(c) == 6
    assert cluster.backlog_size == 0
    # The drain came from the update journal, not a queued-event table.
    assert cluster.stats.replayed >= 5


def test_smoke_segment_saves_append_then_fold(tmp_path):
    """E15 shape: a checkpoint save appends one segment per delta; the
    single-segment ablation folds everything back down every save."""
    from repro.storage import SINGLE_SEGMENT

    engine, db = build_catchup_corpus(str(tmp_path / "segs"), 300, 10)
    try:
        view = catchup_view(db)  # warm load + top-up
        index = FullTextIndex(db, persist=True)
        view.save_index()
        index.save_checkpoint()
        view_stats = view.catch_up.segment_stats["entries"]
        ft_stats = index.catch_up.segment_stats["docs"]
        # The save appended the 10-doc delta as a second segment instead
        # of rewriting the 300-entry base.
        assert view_stats.segments == 2
        assert view_stats.records_appended <= 310  # base + the delta
        assert ft_stats.segments == 2
        assert view.catch_up.merges == index.catch_up.merges == 0

        db.clock.advance(1)
        for unid in db.rng.sample(db.unids(), 10):
            db.update(unid, {"Subject": "fold me"})
        view.merge_policy = SINGLE_SEGMENT
        index.merge_policy = SINGLE_SEGMENT
        view.save_index()
        index.save_checkpoint()
        assert view_stats.segments == 1
        assert ft_stats.segments == 1
        assert view.catch_up.merges > 0 and view_stats.bytes_folded > 0
        assert index.catch_up.merges > 0 and ft_stats.bytes_folded > 0
        index.close()
        view.close()
    finally:
        engine.close()


def test_smoke_catchup_rides_the_delta(tmp_path):
    """E14 shape: every seq-checkpointed consumer tops up from the journal."""
    engine, db = build_catchup_corpus(str(tmp_path / "smoke"), 300, 10)
    try:
        view = catchup_view(db, mode="manual", persist=False)
        baseline = catchup_view(db, mode="manual", persist=False)
        db.clock.advance(1)
        for unid in db.rng.sample(db.unids(), 10):
            db.update(unid, {"Subject": "smoke edit"})
        assert view.refresh() == "topup"
        assert view.rebuilds == 1  # the constructor's, none since
        baseline.rebuild()
        assert view.all_unids() == baseline.all_unids()

        warm = FullTextIndex(db, persist=True)
        assert warm.loaded_from_disk
        assert warm.catch_up.last_path == "topup"
        # Both deltas (the corpus's 10 and ours) replay; the 300-doc
        # base segment does not.
        assert warm.catch_up.notes_replayed <= 20
        assert len(warm.search("smoke")) == 10
        warm.close()
        view.close()
        baseline.close()
    finally:
        engine.close()


def test_smoke_faulty_replication_resumes_from_cursor():
    """E16 shape: under an identical seeded fault plan the resumable
    replicator converges at the fault-free wire cost while the
    all-or-nothing ablation re-ships interrupted exchanges."""
    from benchmarks.bench_e16_faults import run_cell

    res = run_cell(0.3, resumable=True)
    abl = run_cell(0.3, resumable=False)
    assert res[6]  # converged despite drops and mid-exchange aborts
    assert res[5] > 0  # cursors actually checkpointed mid-pass
    assert abl[1] > res[1]  # the ablation paid for its restarts
    assert run_cell(0.3, resumable=True) == res  # seed => same run


def test_smoke_view_window_reads_by_position():
    """E6b shape: a page of a categorized view with totals comes from the
    counted B+tree — equal to the rows() slice, with no document
    access-checked and the tree descended only near the page."""
    from repro.security import AccessControlList, AclLevel
    from repro.views import SortOrder, View, ViewColumn

    deployment = build_deployment(1, seed=6)
    db = deployment.databases[0]
    populate(db, 300, deployment.rng, body_bytes=16)
    db.acl = AccessControlList(default_level=AclLevel.READER)
    view = View(db, "ByCategory", selection='SELECT Form = "Memo"', columns=[
        ViewColumn(title="Category", item="Categories", categorized=True),
        ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
        ViewColumn(title="Amount", item="Amount", totals=True),
    ])
    rows = view.rows(as_user="reader/Acme")
    checks = []
    db.acl.can_read = lambda user, doc: checks.append(doc) or True
    for start in (1, 2, 150, len(rows) - 10, len(rows) + 1):
        view._tree.node_reads = 0
        page, total = view.window(start, 30, as_user="reader/Acme")
        assert total == len(rows) and page == rows[start - 1:start + 29]
        assert [r.subtotals for r in page if hasattr(r, "subtotals")] == [
            r.subtotals for r in rows[start - 1:start + 29] if hasattr(r, "subtotals")]
        # one descent per category run (4) plus the page, each ~height
        assert view._tree.node_reads <= 12 * view._tree.height()
    assert not checks


def test_smoke_write_path_one_fsync_bounded_heap(tmp_path):
    """E7 shape on the note write path: each create, update and delete is
    one logged transaction (one fsync, even behind a pool far smaller than
    the heap), and a churn of mixed-size notes reuses freed heap space
    instead of growing the file."""
    import random

    from repro.core import NotesDatabase
    from repro.sim import VirtualClock
    from repro.storage import StorageEngine
    from repro.storage.pages import PAGE_SIZE

    engine = StorageEngine(str(tmp_path / "nsf"), pool_size=8)
    db = NotesDatabase("smoke.nsf", clock=VirtualClock(),
                       rng=random.Random(2), engine=engine)
    rng = random.Random(5)
    peak = 0
    flushes = engine._wal.flushes
    for _ in range(600):
        db.clock.advance(1)
        unids = db.unids()
        roll = rng.random()
        if len(unids) < 40 or roll < 0.3:
            db.create({"Body": "x" * rng.randint(300, 3000)})
        elif roll < 0.7:
            db.update(rng.choice(unids), {"Body": "y" * rng.randint(300, 3000)})
        else:
            db.delete(rng.choice(unids))
        # The file never shrinks: bound it by the peak of live bytes.
        peak = max(peak, sum(len(engine.get(key)) for key in engine.keys()))
    assert engine._wal.flushes - flushes == 600
    assert engine._pages.page_count <= 1.5 * peak / PAGE_SIZE + 4
    engine.close()
