"""Property-based equivalence tests for the segment stack (E15).

The property under test, at two levels:

* **Stack level** — whatever sequence of appends, removals, folds, and
  manifest reloads a ``SegmentStack`` goes through, its live contents
  equal a plain dict applying the same batches (newest-wins), and the
  concatenation of per-segment records equals the append history
  (accumulate). Merge policy must never change what reads see, only how
  many segments hold it.
* **Consumer level** — a persisted view and full-text index driven
  through randomized create/update/delete/purge batches interleaved with
  ``save`` checkpoints, engine reopens, and forced merges (policies down
  to ``SINGLE_SEGMENT``) finish entry-for-entry identical to consumers
  rebuilt from scratch.

Each property runs twice: a reduced-example fast lane in the default
job, and a ``slow``-marked lane with the full example budget
(``pytest -m slow``).
"""

import math
import os
import random
import tempfile
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import NotesDatabase
from repro.fulltext import FullTextIndex
from repro.sim import VirtualClock
from repro.storage import (
    DEFAULT_POLICY,
    SINGLE_SEGMENT,
    MergePolicy,
    SegmentStack,
    StorageEngine,
)
from repro.views import SortOrder, View, ViewColumn

# Hypothesis drives the batches; engine IO makes per-example timing too
# noisy for a deadline.
RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class FakeEngine:
    """The four calls SegmentStack makes, over a dict — keeps the
    stack-level properties fast enough for hundreds of examples."""

    def __init__(self):
        self.store: dict[bytes, bytes] = {}

    def begin(self):
        return {}

    def put(self, txn, key, value):
        txn[key] = value

    def delete(self, txn, key):
        txn[key] = None

    def commit(self, txn):
        for key, value in txn.items():
            if value is None:
                self.store.pop(key, None)
            else:
                self.store[key] = value

    def get(self, key):
        return self.store.get(key)


KEYS = st.sampled_from([f"k{i}" for i in range(12)])  # small space: overwrites
POLICIES = st.sampled_from([
    SINGLE_SEGMENT,
    MergePolicy(max_segments=2, max_dead_ratio=0.5),
    MergePolicy(max_segments=3, max_dead_ratio=0.2),
    DEFAULT_POLICY,
])
BATCHES = st.lists(
    st.tuples(
        st.dictionaries(KEYS, st.integers(), max_size=6),   # records
        st.sets(KEYS, max_size=4),                          # removals
    ),
    min_size=1,
    max_size=12,
)


def assert_sizes_fall(stack):
    """The binary-counter rule holds: every segment holds fewer bytes
    than its older neighbour."""
    sizes = [segment.size for segment in stack._segments]
    assert all(newer < older for older, newer in zip(sizes, sizes[1:])), sizes


def check_newest_wins(batches, policy):
    engine = FakeEngine()
    stack = SegmentStack(engine, b"nw", policy=policy)
    shadow: dict[str, int] = {}
    for records, removes in batches:
        txn = engine.begin()
        stack.append(txn, records, remove=removes)
        stack.maintain(txn)
        engine.commit(txn)
        shadow.update(records)
        for key in removes - set(records):
            shadow.pop(key, None)
        assert dict(stack.live_items()) == shadow
        assert stack.live_count() == len(shadow)
        assert all(stack.get(key) == value for key, value in shadow.items())
        assert len(stack) <= policy.max_segments
        assert_sizes_fall(stack)
        assert stack.stats.segments == len(stack)
        assert stack.stats.dead_entries == (
            stack.stats.total_entries - len(shadow)
        )
    manifest = stack.manifest()
    # Tombstones never outlive the keys they mask (fold-time GC).
    assert set(manifest["tombstones"]) <= set(stack.keys())
    reopened = SegmentStack(engine, b"nw", policy=policy)
    assert reopened.load(manifest)
    assert dict(reopened.live_items()) == shadow
    # From-scratch equivalence: one segment holding the final dict reads
    # the same as however many segments history left behind.
    rebuilt = SegmentStack(engine, b"rebuilt", policy=policy)
    txn = engine.begin()
    rebuilt.append(txn, shadow)
    engine.commit(txn)
    assert dict(rebuilt.live_items()) == dict(reopened.live_items())


def check_accumulate(batches, policy):
    engine = FakeEngine()
    stack = SegmentStack(engine, b"acc", policy=policy, newest_wins=False)

    def combine(key, older, newer):
        merged = list(older or ()) + list(newer or ())
        return merged or None

    history: dict[str, list[int]] = defaultdict(list)
    for records, _ in batches:
        txn = engine.begin()
        stack.append(txn, {key: [value] for key, value in records.items()})
        stack.maintain(txn, combine=combine)
        engine.commit(txn)
        for key, value in records.items():
            history[key].append(value)
        assert len(stack) <= policy.max_segments
        assert_sizes_fall(stack)
        for key, values in history.items():
            # Folds concatenate older-then-newer, so the flattened
            # oldest-first read is exactly the append history.
            flat = [
                value
                for _, record in stack.records(key)
                for value in record
            ]
            assert flat == values
    reopened = SegmentStack(
        engine, b"acc", policy=policy, newest_wins=False
    )
    assert reopened.load(stack.manifest())
    for key, values in history.items():
        assert [
            value for _, record in reopened.records(key) for value in record
        ] == values


def check_equal_appends(appends, newest_wins):
    """K appends of equal byte size leave at most log2(K) + 1 segments,
    and copy each record about log2(K) times, under the default policy."""
    engine = FakeEngine()
    stack = SegmentStack(engine, b"eq", newest_wins=newest_wins)

    def combine(key, older, newer):
        return older if newer is None else newer

    appended = 0
    for count in range(1, appends + 1):
        txn = engine.begin()
        # Fresh keys of one width and values of one marshal size.
        stack.append(txn, {f"k{count:05d}-{i}": 1000 + i for i in range(5)})
        appended += stack._segments[-1].size
        stack.maintain(txn, combine=combine)
        engine.commit(txn)
        assert_sizes_fall(stack)
        assert len(stack) <= math.log2(count) + 1, (count, len(stack))
        assert len(stack) <= DEFAULT_POLICY.max_segments
    assert stack.stats.bytes_folded <= appended * math.log2(appends)


CONSUMER_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "create", "create", "update", "update", "delete", "soft",
            "restore", "purge", "save", "save", "reopen",
        ]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=5,
    max_size=40,
)

WORDS = ("budget", "meeting", "release", "replica", "schedule",
         "review", "forecast", "inventory", "proposal", "summary")


def _make_view(db, policy, persist=True):
    return View(
        db, "PropEquiv",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
        persist=persist, merge_policy=policy,
    )


def _view_state(view):
    return [(entry.unid, entry.values) for entry in view.entries()]


def check_consumer_cycles(ops, policy):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db")
        engine = StorageEngine(path)
        db = NotesDatabase("prop.nsf", clock=VirtualClock(),
                           rng=random.Random(7), engine=engine)
        view = _make_view(db, policy)
        index = FullTextIndex(db, persist=True, merge_policy=policy)
        for op, arg in ops:
            rng = random.Random(arg)
            db.clock.advance(0.1)
            unids = db.unids()
            if op == "create" or (op in ("update", "delete", "soft")
                                  and not unids):
                db.create({
                    "Form": rng.choice(["Memo", "Memo", "Task"]),
                    "Subject": f"{rng.choice(WORDS)} {arg % 97}",
                    "Body": " ".join(rng.choice(WORDS) for _ in range(5)),
                    "Amount": arg % 100,
                })
            elif op == "update":
                db.update(rng.choice(unids), {
                    "Subject": f"{rng.choice(WORDS)} edited",
                    "Amount": arg % 100,
                })
            elif op == "delete":
                db.delete(rng.choice(unids))
            elif op == "soft":
                db.soft_delete(rng.choice(unids))
            elif op == "restore":
                if db.trash:
                    db.restore(rng.choice(db.trash))
            elif op == "purge":
                if unids:
                    db.delete(rng.choice(unids))
                db.clock.advance(10)
                db.purge_stubs(db.clock.now)
            elif op == "save":
                view.save_index()
                index.save_checkpoint()
                if policy is SINGLE_SEGMENT:
                    # The ablation folds every save down to one segment.
                    assert view.catch_up.segment_stats["entries"].segments <= 1
                    assert index.catch_up.segment_stats["docs"].segments <= 1
            elif op == "reopen":
                view.close()
                index.close()
                engine.close()
                engine = StorageEngine(path)
                db = NotesDatabase("prop.nsf", clock=VirtualClock(),
                                   rng=random.Random(arg), engine=engine)
                view = _make_view(db, policy)
                index = FullTextIndex(db, persist=True, merge_policy=policy)
        cold_view = _make_view(db, policy, persist=False)
        assert _view_state(view) == _view_state(cold_view)
        cold_index = FullTextIndex(db)
        assert index.document_count == cold_index.document_count
        assert index.postings_snapshot() == cold_index.postings_snapshot()
        view.close()
        index.close()
        cold_index.close()
        engine.close()


# -- fast lane (default job: reduced examples) --------------------------


@settings(max_examples=25, parent=RELAXED)
@given(batches=BATCHES, policy=POLICIES)
def test_newest_wins_matches_dict(batches, policy):
    check_newest_wins(batches, policy)


@settings(max_examples=25, parent=RELAXED)
@given(batches=BATCHES, policy=POLICIES)
def test_accumulate_preserves_history(batches, policy):
    check_accumulate(batches, policy)


@settings(max_examples=10, parent=RELAXED)
@given(appends=st.integers(min_value=1, max_value=200),
       newest_wins=st.booleans())
def test_equal_appends_stay_logarithmic(appends, newest_wins):
    check_equal_appends(appends, newest_wins)


@settings(max_examples=6, parent=RELAXED)
@given(ops=CONSUMER_OPS, policy=POLICIES)
def test_consumer_cycles_match_rebuild(ops, policy):
    check_consumer_cycles(ops, policy)


# -- slow lane (full budget: pytest -m slow) ----------------------------


@pytest.mark.slow
@settings(max_examples=200, parent=RELAXED)
@given(batches=BATCHES, policy=POLICIES)
def test_newest_wins_matches_dict_full(batches, policy):
    check_newest_wins(batches, policy)


@pytest.mark.slow
@settings(max_examples=200, parent=RELAXED)
@given(batches=BATCHES, policy=POLICIES)
def test_accumulate_preserves_history_full(batches, policy):
    check_accumulate(batches, policy)


@pytest.mark.slow
@settings(max_examples=40, parent=RELAXED)
@given(ops=CONSUMER_OPS, policy=POLICIES)
def test_consumer_cycles_match_rebuild_full(ops, policy):
    check_consumer_cycles(ops, policy)
