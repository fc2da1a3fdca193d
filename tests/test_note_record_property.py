"""Property tests for the binary note record.

A note is stored as ``marshal.dumps((journal seq, note.to_record()))``.
These properties check that the record codec loses nothing (values and
their types: tuples stay tuples, ``-0.0`` keeps its sign, ``nan`` stays
``nan``, ints past 2**63 survive) and that a database reopened from its
records equals the one closed.

Each property runs twice: a reduced-example fast lane in the default job,
and a ``slow``-marked lane with the full example budget
(``pytest -m slow``).
"""

import marshal
import math
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DeletionStub, Document, ItemType, NotesDatabase, attach
from repro.sim import VirtualClock
from repro.storage import StorageEngine

RELAXED = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def same(a, b) -> bool:
    """Equal by value and by type, all the way down; ``nan`` equals
    ``nan``, ``-0.0`` differs from ``0.0``, and dict order is ignored."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def through_marshal(record):
    return marshal.loads(marshal.dumps(record))


def assert_same_document(doc: Document, clone: Document) -> None:
    assert same(
        [(item.name, item.type.value, item.value) for item in doc],
        [(item.name, item.type.value, item.value) for item in clone],
    )
    for item in clone:
        assert type(item.type) is ItemType
    for field in ("unid", "seq", "seq_time", "created", "modified",
                  "parent_unid", "updated_by", "revisions", "item_times"):
        assert same(getattr(doc, field), getattr(clone, field)), field


# -- strategies ---------------------------------------------------------------

texts = st.text(max_size=12)
numbers = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), 2**63, -(2**63) - 1]),
)
text_lists = st.lists(texts, max_size=4)
VALUES = {
    ItemType.TEXT: texts,
    ItemType.RICH_TEXT: st.text(max_size=200),
    ItemType.TEXT_LIST: text_lists,
    ItemType.NAMES: text_lists,
    ItemType.READERS: text_lists,
    ItemType.AUTHORS: text_lists,
    ItemType.NUMBER: numbers,
    ItemType.DATETIME: numbers,
    ItemType.NUMBER_LIST: st.lists(numbers, max_size=4),
    ItemType.ATTACHMENT: st.fixed_dictionaries(
        {"name": st.text(min_size=1, max_size=8), "data": st.text(max_size=20)}
    ),
}
typed_values = st.sampled_from(list(ItemType)).flatmap(
    lambda type_: st.tuples(st.just(type_), VALUES[type_])
)
names = st.text(min_size=1, max_size=10)
stamps = st.tuples(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.just(-0.0)),
    st.integers(min_value=0, max_value=2**70),
)
unids = st.text(alphabet="0123456789ABCDEF", min_size=32, max_size=32)
seqs = st.integers(min_value=1, max_value=2**70)


@st.composite
def documents(draw):
    doc = Document(
        draw(unids),
        seq=draw(seqs),
        seq_time=draw(stamps),
        created=draw(st.floats()),
        modified=draw(st.floats()),
        parent_unid=draw(st.none() | unids),
        updated_by=draw(st.lists(texts, max_size=3)),
        revisions=draw(st.lists(stamps, min_size=1, max_size=4)),
    )
    for name, (type_, value) in draw(
        st.dictionaries(names, typed_values, max_size=6)
    ).items():
        doc.set(name, value, type_)
    if draw(st.booleans()):  # a conflict response
        doc.parent_unid = draw(unids)
        doc.set("$Conflict", "1")
    for filename in draw(st.lists(st.text(min_size=1, max_size=6), max_size=2)):
        attach(doc, filename, draw(st.binary(max_size=40)))
    doc.item_times = draw(st.dictionaries(names, stamps, max_size=6))
    return doc


stubs = st.builds(DeletionStub, unids, seqs, stamps,
                  st.floats(allow_nan=False), texts)


def check_document_roundtrip(doc):
    clone = Document.from_record(through_marshal(doc.to_record()))
    assert_same_document(doc, clone)
    assert clone.note_id == 0


def check_stub_roundtrip(stub):
    clone = DeletionStub.from_record(through_marshal(stub.to_record()))
    assert type(clone) is DeletionStub
    assert same(stub.to_record(), clone.to_record())


# -- reopen: the database read back equals the one closed -------------------

operations = st.lists(
    st.tuples(
        st.sampled_from(["create", "respond", "update", "delete", "trash",
                         "restore", "empty_trash", "profile"]),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(["alpha", "beta"]),
    ),
    max_size=40,
)


def apply(db: NotesDatabase, op: str, pick: int, word: str) -> None:
    db.clock.advance(1)
    live = db.unids()
    target = live[pick % len(live)] if live else None
    if op == "create" or target is None:
        db.create({"Subject": f"{word} {pick}", "N": pick, "Tags": [word]},
                  author=word)
    elif op == "respond":
        db.create({"Subject": f"re: {word}"}, author=word, parent=target)
    elif op == "update":
        db.update(target, {"Subject": f"{word} edited", "F": -0.0},
                  author=word, remove_items=["Tags"])
    elif op == "delete":
        db.delete(target, author=word)
    elif op == "trash":
        db.soft_delete(target)
    elif op == "restore" and db.trash:
        db.restore(db.trash[pick % len(db.trash)])
    elif op == "empty_trash":
        db.empty_trash()
    elif op == "profile":
        db.profile("settings", word)


def snapshot(db: NotesDatabase) -> dict:
    return {
        "len": len(db),
        "fingerprint": db.state_fingerprint(),
        "journal": [(seq, note.unid, isinstance(note, DeletionStub))
                    for seq, note in db.journal_entries_since(0)],
        "update_seq": db.update_seq,
        "trash": db.trash,
        "parents": db._children_index,
        "profiles": db._profiles,
        "docs": {unid: doc.to_record() for unid, doc in db._docs.items()},
        "stubs": {unid: stub.to_record() for unid, stub in db.stubs.items()},
    }


def check_reopen_equals_closed(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/nsf"
        engine = StorageEngine(path)
        db = NotesDatabase("prop.nsf", clock=VirtualClock(),
                           rng=random.Random(5), engine=engine)
        for op in ops:
            apply(db, *op)
        closed = snapshot(db)
        db.close()
        engine = StorageEngine(path)
        reopened = NotesDatabase("prop.nsf", clock=VirtualClock(),
                                 rng=random.Random(6), engine=engine)
        try:
            assert reopened.state_fingerprint() == reopened._fingerprint_recompute()
            assert same(snapshot(reopened), closed)
        finally:
            engine.close()


# -- fast lane ----------------------------------------------------------------


@given(doc=documents())
@settings(max_examples=60, parent=RELAXED)
def test_document_record_roundtrip(doc):
    check_document_roundtrip(doc)


@given(stub=stubs)
@settings(max_examples=30, parent=RELAXED)
def test_stub_record_roundtrip(stub):
    check_stub_roundtrip(stub)


@given(ops=operations)
@settings(max_examples=12, parent=RELAXED)
def test_reopened_database_equals_closed(ops):
    check_reopen_equals_closed(ops)


# -- slow lane (full budget: pytest -m slow) ----------------------------


@pytest.mark.slow
@given(doc=documents())
@settings(max_examples=600, parent=RELAXED)
def test_document_record_roundtrip_full_budget(doc):
    check_document_roundtrip(doc)


@pytest.mark.slow
@given(stub=stubs)
@settings(max_examples=300, parent=RELAXED)
def test_stub_record_roundtrip_full_budget(stub):
    check_stub_roundtrip(stub)


@pytest.mark.slow
@given(ops=operations)
@settings(max_examples=120, parent=RELAXED)
def test_reopened_database_equals_closed_full_budget(ops):
    check_reopen_equals_closed(ops)
