"""Property-based equivalence tests for the segment stack (E15).

The property under test, at two levels:

* **Stack level** — whatever sequence of appends, removals, folds, and
  manifest reloads a ``SegmentStack`` goes through, its live contents
  equal a plain dict applying the same batches (newest-wins), the
  concatenation of per-segment records equals the append history (a
  concatenating ``combine``), and a stack that mixes newest-wins
  membership markers with per-segment postings under a consumer
  ``combine`` reads like an inverted index over a plain dict. Folds must
  never change what reads see, only how many segments hold it: every
  segment stays smaller than its older neighbour, the stack holds at
  most ``MAX_SEGMENTS`` segments, and tombstones never mask more than
  half of its directory entries.
* **Consumer level** — a persisted view and full-text index driven
  through randomized create/update/delete/purge batches interleaved with
  ``save`` checkpoints, engine reopens, and rebuilds (whose next save
  rewrites the whole stack) finish entry-for-entry identical to
  consumers rebuilt from scratch.

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
from repro.storage import SegmentStack, StorageEngine
from repro.storage.segments import MAX_SEGMENTS
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
BATCHES = st.lists(
    st.tuples(
        st.dictionaries(KEYS, st.integers(), max_size=6),   # records
        st.sets(KEYS, max_size=4),                          # removals
    ),
    min_size=1,
    max_size=12,
)


def assert_folded(stack):
    """What maintain() leaves: every segment holds fewer bytes than its
    older neighbour (the binary-counter rule), at most MAX_SEGMENTS
    segments, and tombstones masking at most half the directory
    entries."""
    sizes = [segment.size for segment in stack._segments]
    assert all(newer < older for older, newer in zip(sizes, sizes[1:])), sizes
    assert len(stack) <= MAX_SEGMENTS
    masked = sum(
        key in segment.directory
        for segment in stack._segments
        for key in stack._tombstones
    )
    assert 2 * masked <= stack.stats.total_entries
    assert stack.stats.segments == len(stack)
    assert stack.stats.tombstones == len(stack._tombstones)
    assert_positions(stack)


def assert_positions(stack):
    """A fold renumbers positions in place; they must still be what the
    directories say: each key lives in the newest segment holding it."""
    holders: dict[str, int] = {}
    for position, segment in enumerate(stack._segments):
        holders.update(dict.fromkeys(segment.directory, position))
    assert set(stack.keys()) == set(holders)
    for key, position in holders.items():
        masked = key in stack._tombstones
        assert stack.position_of(key) == (None if masked else position), key


def check_newest_wins(batches):
    engine = FakeEngine()
    stack = SegmentStack(engine, b"nw")
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
        assert_folded(stack)
    manifest = stack.manifest()
    # Tombstones never outlive the keys they mask (fold-time GC).
    assert set(manifest["tombstones"]) <= set(stack.keys())
    reopened = SegmentStack(engine, b"nw")
    assert reopened.load(manifest)
    assert dict(reopened.live_items()) == shadow
    # From-scratch equivalence: one segment holding the final dict reads
    # the same as however many segments history left behind.
    rebuilt = SegmentStack(engine, b"rebuilt")
    txn = engine.begin()
    rebuilt.append(txn, shadow)
    engine.commit(txn)
    assert dict(rebuilt.live_items()) == dict(reopened.live_items())


def test_fold_below_the_top_renumbers_the_segments_above():
    """A backstop may fold a pair with segments above it; keys up there
    move down one position, keys only in the pair land in the fold, and
    a dropped key falls back to an older segment or leaves the stack."""
    engine = FakeEngine()
    stack = SegmentStack(engine, b"mid")
    shadow: dict[str, int] = {}
    batches = [
        ({"a": 1, "b": 2, "c": 3}, set()),
        ({"b": 20, "d": 4}, set()),
        ({"c": 30, "e": 5}, {"d"}),
        ({"a": 10, "f": 6}, set()),
        ({"g": 7}, {"b"}),
    ]
    txn = engine.begin()
    for records, removes in batches:
        stack.append(txn, records, remove=removes)
        shadow.update(records)
        for key in removes:
            shadow.pop(key, None)
    for index in (1, 2, 0, 0):
        stack.fold(txn, index)
        assert_positions(stack)
        assert dict(stack.live_items()) == shadow
    engine.commit(txn)
    assert len(stack) == 1


def check_accumulate(batches):
    engine = FakeEngine()
    stack = SegmentStack(engine, b"acc")

    def combine(index, key, older, newer):
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
        assert_folded(stack)
        for key, values in history.items():
            # Folds concatenate older-then-newer, so the flattened
            # oldest-first read is exactly the append history.
            flat = [
                value
                for _, record in stack.records(key)
                for value in record
            ]
            assert flat == values
    reopened = SegmentStack(engine, b"acc")
    assert reopened.load(stack.manifest())
    for key, values in history.items():
        assert [
            value for _, record in reopened.records(key) for value in record
        ] == values


MEMBER = "D:"  # membership keys; terms are lowercase, documents uppercase
DOCS = st.sampled_from([f"D{i}" for i in range(10)])
TERMS = st.sampled_from(["alpha", "beta", "gamma", "delta", "omega"])
INDEX_BATCHES = st.lists(
    st.tuples(
        st.dictionaries(                                # documents written
            DOCS, st.dictionaries(TERMS, st.integers(), min_size=1,
                                  max_size=3),
            max_size=5,
        ),
        st.sets(DOCS, max_size=4),                      # documents deleted
    ),
    min_size=1,
    max_size=14,
)


def check_mixed(batches):
    """A stack mixing newest-wins markers and per-segment postings.

    Each batch writes some documents — a marker under ``MEMBER + doc``
    and, under each of the document's terms, a posting in that segment's
    record — and deletes others by tombstoning their markers. The newest
    segment holding a document's marker is its home, and only postings
    from the home count. The consumer ``combine`` keeps what still counts
    (the full-text index's rule), so reads must equal an inverted index
    built over a plain dict of the documents, fold after fold.
    """
    engine = FakeEngine()
    stack = SegmentStack(engine, b"mix")

    def combine(index, key, older, newer):
        if key.startswith(MEMBER):
            return True if stack.position_of(key) in (index, index + 1) else None
        merged = {}
        for position, postings in ((index, older), (index + 1, newer)):
            for doc, value in (postings or {}).items():
                if stack.position_of(MEMBER + doc) == position:
                    merged[doc] = value
        return merged or None

    def read(target):
        inverted = defaultdict(dict)
        for key in target.keys():
            if key.startswith(MEMBER):
                continue
            for position, record in target.records(key):
                for doc, value in record.items():
                    if target.position_of(MEMBER + doc) == position:
                        inverted[key][doc] = value
        members = {
            key[len(MEMBER):] for key in target.live_keys()
            if key.startswith(MEMBER)
        }
        return dict(inverted), members

    model: dict[str, dict[str, int]] = {}
    for written, deleted in batches:
        records: dict = {}
        for doc, terms in written.items():
            records[MEMBER + doc] = True
            for term, value in terms.items():
                records.setdefault(term, {})[doc] = value
        deleted = deleted - set(written)
        txn = engine.begin()
        stack.append(txn, records, remove={MEMBER + doc for doc in deleted})
        stack.maintain(txn, combine=combine)
        engine.commit(txn)
        model.update(written)
        for doc in deleted:
            model.pop(doc, None)
        expected = defaultdict(dict)
        for doc, terms in model.items():
            for term, value in terms.items():
                expected[term][doc] = value
        assert read(stack) == (dict(expected), set(model))
        assert_folded(stack)
    reopened = SegmentStack(engine, b"mix")
    assert reopened.load(stack.manifest())
    assert read(reopened) == read(stack)


def check_equal_appends(appends, with_combine):
    """K appends of equal byte size leave at most log2(K) + 1 segments,
    and copy each record about log2(K) times."""
    engine = FakeEngine()
    stack = SegmentStack(engine, b"eq")

    def keep_newest(index, key, older, newer):
        return older if newer is None else newer

    combine = keep_newest if with_combine else None

    appended = 0
    for count in range(1, appends + 1):
        txn = engine.begin()
        # Fresh keys of one width and values of one marshal size.
        stack.append(txn, {f"k{count:05d}-{i}": 1000 + i for i in range(5)})
        appended += stack._segments[-1].size
        stack.maintain(txn, combine=combine)
        engine.commit(txn)
        assert_folded(stack)
        assert len(stack) <= math.log2(count) + 1, (count, len(stack))
    assert stack.stats.bytes_folded <= appended * math.log2(appends)


CONSUMER_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "create", "create", "update", "update", "delete", "soft",
            "restore", "purge", "save", "save", "reopen", "rebuild",
        ]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=5,
    max_size=40,
)

WORDS = ("budget", "meeting", "release", "replica", "schedule",
         "review", "forecast", "inventory", "proposal", "summary")


def _make_view(db, persist=True):
    return View(
        db, "PropEquiv",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
        persist=persist,
    )


def _view_state(view):
    return [(entry.unid, entry.values) for entry in view.entries()]


def check_consumer_cycles(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db")
        engine = StorageEngine(path)
        db = NotesDatabase("prop.nsf", clock=VirtualClock(),
                           rng=random.Random(7), engine=engine)
        view = _make_view(db)
        index = FullTextIndex(db, persist=True)
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
            elif op == "rebuild":
                # The next save rewrites the whole stack as one segment
                # (none when there is nothing to write).
                view.rebuild()
                index.rebuild()
                view.save_index()
                index.save_checkpoint()
                assert view.catch_up.segment_stats["entries"].segments <= 1
                assert index.catch_up.segment_stats["postings"].segments <= 1
            elif op == "reopen":
                view.close()
                index.close()
                engine.close()
                engine = StorageEngine(path)
                db = NotesDatabase("prop.nsf", clock=VirtualClock(),
                                   rng=random.Random(arg), engine=engine)
                view = _make_view(db)
                index = FullTextIndex(db, persist=True)
        cold_view = _make_view(db, persist=False)
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
@given(batches=BATCHES)
def test_newest_wins_matches_dict(batches):
    check_newest_wins(batches)


@settings(max_examples=25, parent=RELAXED)
@given(batches=BATCHES)
def test_accumulate_preserves_history(batches):
    check_accumulate(batches)


@settings(max_examples=25, parent=RELAXED)
@given(batches=INDEX_BATCHES)
def test_mixed_stack_matches_inverted_model(batches):
    check_mixed(batches)


@settings(max_examples=10, parent=RELAXED)
@given(appends=st.integers(min_value=1, max_value=200),
       with_combine=st.booleans())
def test_equal_appends_stay_logarithmic(appends, with_combine):
    check_equal_appends(appends, with_combine)


@settings(max_examples=6, parent=RELAXED)
@given(ops=CONSUMER_OPS)
def test_consumer_cycles_match_rebuild(ops):
    check_consumer_cycles(ops)


# -- slow lane (full budget: pytest -m slow) ----------------------------


@pytest.mark.slow
@settings(max_examples=200, parent=RELAXED)
@given(batches=BATCHES)
def test_newest_wins_matches_dict_full(batches):
    check_newest_wins(batches)


@pytest.mark.slow
@settings(max_examples=200, parent=RELAXED)
@given(batches=BATCHES)
def test_accumulate_preserves_history_full(batches):
    check_accumulate(batches)


@pytest.mark.slow
@settings(max_examples=200, parent=RELAXED)
@given(batches=INDEX_BATCHES)
def test_mixed_stack_matches_inverted_model_full(batches):
    check_mixed(batches)


@pytest.mark.slow
@settings(max_examples=40, parent=RELAXED)
@given(ops=CONSUMER_OPS)
def test_consumer_cycles_match_rebuild_full(ops):
    check_consumer_cycles(ops)
