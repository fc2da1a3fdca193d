"""Tests for the Document (data note) model."""

import marshal

import pytest

from repro.core import Document, Item, ItemType
from repro.errors import DocumentError


@pytest.fixture
def doc():
    document = Document("A" * 32, seq=1, seq_time=(1.0, 1), created=1.0, modified=1.0)
    document.set_all({"Form": "Memo", "Subject": "hello", "Amount": 10})
    return document


class TestItems:
    def test_get_set(self, doc):
        doc.set("Color", "red")
        assert doc.get("Color") == "red"

    def test_get_default(self, doc):
        assert doc.get("Missing", "dflt") == "dflt"

    def test_get_list_wraps(self, doc):
        assert doc.get_list("Amount") == [10]
        doc.set("Tags", ["a", "b"])
        assert doc.get_list("Tags") == ["a", "b"]
        assert doc.get_list("Missing") == []

    def test_contains(self, doc):
        assert "Subject" in doc and "Nope" not in doc

    def test_item_object_access(self, doc):
        item = doc.item("Subject")
        assert isinstance(item, Item) and item.type == ItemType.TEXT

    def test_set_item_instance(self, doc):
        doc.set("Readers", Item.of("X", ["a/Acme"], ItemType.READERS))
        assert doc.item("Readers").type == ItemType.READERS
        assert doc.item("Readers").name == "Readers"

    def test_remove_item(self, doc):
        doc.remove_item("Amount")
        assert "Amount" not in doc

    def test_remove_missing_rejected(self, doc):
        with pytest.raises(DocumentError):
            doc.remove_item("Ghost")

    def test_form_property(self, doc):
        assert doc.form == "Memo"
        doc.remove_item("Form")
        assert doc.form is None

    def test_iteration(self, doc):
        assert {item.name for item in doc} == {"Form", "Subject", "Amount"}


class TestEnvelope:
    def test_seq_starts_at_one(self, doc):
        assert doc.seq == 1 and doc.oid.seq == 1

    def test_bad_seq_rejected(self):
        with pytest.raises(DocumentError):
            Document("B" * 32, seq=0)

    def test_bump_revision(self, doc):
        doc.bump_revision((2.0, 5), "alice/Acme")
        assert doc.seq == 2
        assert doc.seq_time == (2.0, 5)
        assert doc.modified == 2.0
        assert (2.0, 5) in doc.revisions
        assert doc.updated_by[-1] == "alice/Acme"

    def test_repeat_author_not_duplicated(self, doc):
        doc.bump_revision((2.0, 1), "alice")
        doc.bump_revision((3.0, 2), "alice")
        assert doc.updated_by.count("alice") == 1

    def test_revision_history_capped(self, doc):
        for index in range(200):
            doc.bump_revision((float(index + 2), index), "a")
        assert len(doc.revisions) <= 64

    def test_has_ancestor_stamp(self, doc):
        doc.bump_revision((2.0, 9), "a")
        assert doc.has_ancestor_stamp((2.0, 9))
        assert doc.has_ancestor_stamp((1.0, 1))
        assert not doc.has_ancestor_stamp((99.0, 1))

    def test_response_flag(self, doc):
        assert not doc.is_response
        response = Document("C" * 32, parent_unid=doc.unid)
        assert response.is_response

    def test_conflict_flag(self, doc):
        assert not doc.is_conflict
        doc.set("$Conflict", "1")
        assert doc.is_conflict


class TestSecurityAccessors:
    def test_readers_none_when_unrestricted(self, doc):
        assert doc.readers is None

    def test_readers_union(self, doc):
        doc.set("R1", ["a"], ItemType.READERS)
        doc.set("R2", ["b"], ItemType.READERS)
        assert sorted(doc.readers) == ["a", "b"]

    def test_empty_readers_item_still_restricts(self, doc):
        doc.set("R", [], ItemType.READERS)
        assert doc.readers == []

    def test_authors_union(self, doc):
        assert doc.authors == []
        doc.set("A", ["x"], ItemType.AUTHORS)
        assert doc.authors == ["x"]

    def test_readers_is_read_once(self, doc):
        doc.set("R", ["a"], ItemType.READERS)
        assert doc.readers is doc.readers

    def test_readers_follow_in_place_edits(self, doc):
        assert doc.readers is None
        doc.set("R", ["a"], ItemType.READERS)
        assert doc.readers == ["a"]
        doc.put_items([Item("R", ItemType.READERS, ["b"])])
        assert doc.readers == ["b"]
        doc.set("R", "plain text")  # a READERS item retyped away
        assert doc.readers is None
        doc.set("R2", ["c"], ItemType.READERS)
        assert doc.readers == ["c"]
        doc.remove_item("R2")
        assert doc.readers is None

    def test_readers_of_copies_and_records(self, doc):
        doc.set("R", ["a"], ItemType.READERS)
        assert doc.readers == ["a"]
        clone = doc.copy()
        clone.set("R", ["b"], ItemType.READERS)
        assert (doc.readers, clone.readers) == (["a"], ["b"])
        loaded = Document.from_record(marshal.loads(marshal.dumps(doc.to_record())))
        assert loaded.readers == ["a"]
        loaded.remove_item("R")
        assert loaded.readers is None and doc.readers == ["a"]


class TestSerialization:
    def test_roundtrip(self, doc):
        doc.bump_revision((2.0, 3), "bob")
        doc.item_times = {"Subject": (2.0, 3)}
        clone = Document.from_record(marshal.loads(marshal.dumps(doc.to_record())))
        assert clone.unid == doc.unid
        assert clone.oid == doc.oid
        assert clone.get("Subject") == "hello"
        assert clone.revisions == doc.revisions
        assert clone.item_times == doc.item_times
        assert clone.updated_by == doc.updated_by

    def test_copy_is_isolated(self, doc):
        clone = doc.copy()
        clone.set("Subject", "changed")
        clone.bump_revision((9.0, 9), "x")
        assert doc.get("Subject") == "hello"
        assert doc.seq == 1

    def test_size_grows_with_content(self, doc):
        small = doc.size()
        doc.set("Body", "x" * 10_000)
        assert doc.size() > small + 9_000

    def test_marshal_safe(self, doc):
        record = doc.to_record()
        assert marshal.loads(marshal.dumps(record)) == record
