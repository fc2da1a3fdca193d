"""Crash injection for the segment stack: kill the engine at every write
point inside a checkpoint save — segment appends, merge folds, the meta
record, the commit itself — and prove recovery.

The discipline under test: a consumer's whole save (new segments + folds
+ meta) rides one engine transaction, so a crash anywhere inside it must
leave the *previous* checkpoint fully intact. On reopen the half-written
segment is invisible (the WAL never committed it), the old manifest
still loads, and one journal top-up brings the consumer to exactly the
state a from-scratch rebuild produces — with no orphaned segment keys
left in the engine.
"""

import json
import random

import pytest

from repro.core import NotesDatabase
from repro.fulltext import FullTextIndex
from repro.sim import VirtualClock
from repro.storage import SegmentStack, StorageEngine
from repro.views import SortOrder, View, ViewColumn

WORDS = ("budget", "meeting", "release", "replica", "schedule",
         "review", "forecast", "inventory", "proposal", "summary")



class CrashPoint(Exception):
    """Injected failure standing in for the process dying mid-write."""


def arm(engine, fail_at=None):
    """Count engine write calls; raise CrashPoint on the ``fail_at``-th.

    Wraps ``put``/``delete``/``commit`` — every point at which a
    checkpoint save touches the engine. With ``fail_at=None`` it only
    counts (used to enumerate the write points of a clean save).
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


def make_view(db):
    return View(
        db, "Crash",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
        persist=True,
    )


def build_scenario(path, carry, checkpoint_first=True, delete_heavy=False):
    """Deterministic world: seed docs, optionally checkpoint, then a
    delta batch — leaving a save pending that appends and, with
    ``carry``, folds: the delta rewrites every seed document with a
    longer subject, so the new segment outweighs the base and the
    binary counter carries. With ``delete_heavy`` the delta first
    deletes all but three seed documents, so the pending save is mostly
    tombstones and the dead-entry backstop folds."""
    engine = StorageEngine(path)
    db = NotesDatabase("crash.nsf", clock=VirtualClock(),
                       rng=random.Random(5), engine=engine)
    rng = random.Random(17)
    for index in range(20):
        db.clock.advance(0.1)
        db.create({
            "Form": rng.choice(["Memo", "Memo", "Memo", "Task"]),
            "Subject": f"{rng.choice(WORDS)} {index}",
            "Body": " ".join(rng.choice(WORDS) for _ in range(6)),
            "Amount": rng.randrange(100),
        })
    view = make_view(db)
    index = FullTextIndex(db, persist=True)
    if checkpoint_first:
        view.save_index()
        index.save_checkpoint()
    if delete_heavy:
        for unid in db.unids()[3:]:
            db.clock.advance(0.1)
            db.delete(unid)
    if carry:
        for unid in db.unids():
            db.clock.advance(0.1)
            subject = db.get(unid).get("Subject")
            db.update(unid, {"Subject": f"{subject} {rng.choice(WORDS)}"})
    for _ in range(12):
        db.clock.advance(0.1)
        roll = rng.random()
        unids = db.unids()
        if roll < 0.4:
            db.create({
                "Form": "Memo",
                "Subject": f"{rng.choice(WORDS)} delta",
                "Body": " ".join(rng.choice(WORDS) for _ in range(6)),
                "Amount": rng.randrange(100),
            })
        elif roll < 0.8:
            db.update(rng.choice(unids), {
                "Subject": f"{rng.choice(WORDS)} edited",
                "Amount": rng.randrange(100),
            })
        else:
            db.delete(rng.choice(unids))
    return engine, db, view, index


def view_state(view):
    return [(entry.unid, entry.values) for entry in view.entries()]


def count_write_points(tmp_path, carry, checkpoint_first=True,
                       delete_heavy=False):
    """How many engine writes one clean save of both consumers makes."""
    engine, db, view, index = build_scenario(
        str(tmp_path / "count"), carry, checkpoint_first, delete_heavy
    )
    counter = arm(engine)
    view.save_index()
    index.save_checkpoint()
    total = counter["n"]
    if carry and checkpoint_first:
        # Sanity: the save being attacked really does fold — both
        # consumers appended a second segment and merged it away.
        assert view.catch_up.merges > 0
        assert index.catch_up.merges > 0
    if delete_heavy:
        # The deletes went into the appended segments as tombstones (the
        # view's dead-entry backstop folded its own away); the manifests
        # hold segment ids only.
        assert view.catch_up.merges > 0
        assert index.catch_up.segment_stats["postings"].tombstones > 0
        for meta_key in (b"viewidx:Crash", b"ftidx:meta"):
            manifest = json.loads(engine.get(meta_key))["index"]
            assert set(manifest) == {"segments", "next_id"}
    engine.close()
    return total


def assert_no_orphan_segment_keys(engine, view_name="Crash"):
    """Every viewidx:/ftidx: key must be named by a committed manifest."""
    expected = set()
    for meta_key, namespaces in (
        (b"viewidx:" + view_name.encode(),
         {"index": b"viewidx:" + view_name.encode()}),
        (b"ftidx:meta", {"index": b"ftidx"}),
    ):
        raw = engine.get(meta_key)
        if raw is None:
            continue
        expected.add(meta_key)
        meta = json.loads(raw.decode())
        for field, namespace in namespaces.items():
            for seg_id in meta.get(field, {}).get("segments", ()):
                expected.add(namespace + b":dir:" + str(seg_id).encode())
                expected.add(namespace + b":blob:" + str(seg_id).encode())
    actual = {
        key for key in engine.keys()
        if key.startswith(b"viewidx:") or key.startswith(b"ftidx:")
    }
    assert actual == expected


def crash_and_verify(tmp_path, carry, fail_at, checkpoint_first=True,
                     delete_heavy=False):
    path = str(tmp_path / f"crash{fail_at}")
    engine, db, view, index = build_scenario(
        path, carry, checkpoint_first, delete_heavy
    )
    arm(engine, fail_at=fail_at)
    with pytest.raises(CrashPoint):
        view.save_index()
        index.save_checkpoint()
    engine.simulate_crash()

    recovered = StorageEngine(path)
    db = NotesDatabase("crash.nsf", clock=VirtualClock(),
                       rng=random.Random(99), engine=recovered)
    assert_no_orphan_segment_keys(recovered)
    warm_view = make_view(db)
    warm_index = FullTextIndex(db, persist=True)
    if checkpoint_first:
        # The pre-crash checkpoint survived whole: no rebuild, at most
        # one journal top-up covers whatever the torn save was writing.
        assert warm_view.loaded_from_disk
        assert warm_view.rebuilds == 0
        assert warm_view.catch_up.topups <= 1
        assert warm_index.loaded_from_disk
        assert warm_index.rebuilds == 0
        assert warm_index.catch_up.topups <= 1
    cold_view = View(
        db, "Cold", selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
        persist=False,
    )
    cold_index = FullTextIndex(db)
    assert view_state(warm_view) == view_state(cold_view)
    assert warm_index.document_count == cold_index.document_count
    assert warm_index.postings_snapshot() == cold_index.postings_snapshot()
    # The recovered state checkpoints cleanly and reads back whole.
    warm_view.save_index()
    warm_index.save_checkpoint()
    assert_no_orphan_segment_keys(recovered)
    warm_index.close()
    cold_index.close()
    recovered.close()


class TestCrashEveryWritePoint:
    @pytest.mark.parametrize("carry", [True, False], ids=["fold", "append"])
    def test_incremental_save_survives_any_torn_write(self, tmp_path, carry):
        """Kill the engine at write point 1, 2, … n of a delta save
        (segment dir, segment blob, fold deletes, fold writes, meta,
        commit) — every prefix recovers to the rebuild state."""
        total = count_write_points(tmp_path, carry)
        assert total >= 8  # dirs + blobs + meta + commits at minimum
        for fail_at in range(1, total + 1):
            crash_and_verify(tmp_path, carry, fail_at)

    def test_delete_heavy_save_survives_any_torn_write(self, tmp_path):
        """A save that is mostly tombstones (most seed documents deleted
        since the checkpoint) and folds them away: every torn prefix
        recovers to the rebuild state, and no deleted note comes back."""
        total = count_write_points(tmp_path, False, delete_heavy=True)
        assert total >= 8
        for fail_at in range(1, total + 1):
            crash_and_verify(tmp_path, False, fail_at, delete_heavy=True)

    def test_initial_save_survives_any_torn_write(self, tmp_path):
        """Crash during the very first checkpoint: no meta commits, so
        reopen sees no checkpoint at all and rebuilds cleanly."""
        total = count_write_points(tmp_path, False, checkpoint_first=False)
        for fail_at in range(1, total + 1, 3):
            crash_and_verify(tmp_path, False, fail_at, checkpoint_first=False)


class TestManifestIntegrity:
    def test_load_refuses_manifest_with_missing_segment(self, tmp_path):
        """A manifest that names a vanished segment is never trusted —
        the consumer falls back to rebuild instead of reading a hole."""
        engine = StorageEngine(str(tmp_path / "missing"))
        stack = SegmentStack(engine, b"t")
        txn = engine.begin()
        stack.append(txn, {"a": 1, "b": 2})
        engine.commit(txn)
        manifest = stack.manifest()
        engine.remove(b"t:dir:1")
        fresh = SegmentStack(engine, b"t")
        assert not fresh.load(manifest)
        assert fresh.live_count() == 0
        engine.close()

    def test_uncommitted_segment_invisible_after_crash(self, tmp_path):
        """A segment written but never committed does not exist: the
        engine's WAL drops it, and the old manifest still loads."""
        path = str(tmp_path / "torn")
        engine = StorageEngine(path)
        stack = SegmentStack(engine, b"t")
        txn = engine.begin()
        stack.append(txn, {"a": 1})
        engine.commit(txn)
        committed = stack.manifest()
        txn = engine.begin()
        stack.append(txn, {"b": 2})  # dir + blob buffered, never committed
        engine.simulate_crash()

        recovered = StorageEngine(path)
        assert recovered.get(b"t:dir:2") is None
        assert recovered.get(b"t:blob:2") is None
        fresh = SegmentStack(recovered, b"t")
        assert fresh.load(committed)
        assert dict(fresh.live_items()) == {"a": 1}
        recovered.close()
