"""Tests for tokenizer, query language and the full-text index."""

import copy
import pickle

import pytest

from repro.errors import FullTextError
from repro.fulltext import FullTextIndex, SearchHit, parse_query, tokenize
from repro.fulltext.query import And, Not, Or, Phrase, Term
from repro.fulltext.tokenizer import stem


class TestTokenizer:
    def test_lowercase_and_split(self):
        assert tokenize("Hello WORLD", do_stem=False) == ["hello", "world"]

    def test_stopwords_dropped(self):
        assert tokenize("the cat and the hat") == ["cat", "hat"]

    def test_digits_kept(self):
        assert tokenize("budget 1999 q4") == ["budget", "1999", "q4"]

    def test_punctuation_splits(self):
        assert tokenize("mail.box, replica-id!", do_stem=False) == [
            "mail", "box", "replica", "id",
        ]

    def test_stemming_variants_agree(self):
        assert stem("replicates") == stem("replicated")
        assert stem("stubs") == stem("stub")
        assert stem("categories") == stem("category")

    def test_stem_never_below_three_chars(self):
        assert stem("as") == "as"
        assert stem("ion") == "ion"  # stripping would leave nothing
        assert len(stem("using")) >= 3

    def test_empty_text(self):
        assert tokenize("") == []


class TestQueryParsing:
    def test_single_term(self):
        assert parse_query("budget") == Term("budget")

    def test_implicit_and(self):
        node = parse_query("annual budget")
        assert isinstance(node, And) and len(node.parts) == 2

    def test_explicit_operators(self):
        node = parse_query("a OR b AND NOT c")
        assert isinstance(node, Or)
        right = node.parts[1]
        assert isinstance(right, And)
        assert isinstance(right.parts[1], Not)

    def test_parentheses(self):
        node = parse_query("(a OR b) AND c")
        assert isinstance(node, And)
        assert isinstance(node.parts[0], Or)

    def test_phrase(self):
        assert parse_query('"deletion stub"') == Phrase("deletion stub")

    def test_field_scope(self):
        assert parse_query("subject:budget") == Term("budget", field="subject")

    def test_field_scoped_phrase(self):
        assert parse_query('subject:"big plan"') == Phrase("big plan", field="subject")

    def test_empty_rejected(self):
        with pytest.raises(FullTextError):
            parse_query("   ")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(FullTextError):
            parse_query("(a OR b")


@pytest.fixture
def corpus(db):
    docs = {}
    docs["budget"] = db.create({
        "Subject": "Budget forecast", "Body": "The annual budget meeting."})
    docs["repl"] = db.create({
        "Subject": "Replication guide",
        "Body": "Deletion stubs propagate deletes. Budget unrelated."})
    docs["lunch"] = db.create({
        "Subject": "Lunch menu", "Body": "Pizza on Friday friday FRIDAY."})
    return db, docs


class TestIndex:
    def test_term_search(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        hits = {h.unid for h in index.search("budget")}
        assert hits == {docs["budget"].unid, docs["repl"].unid}

    def test_ranking_prefers_frequency(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        assert index.search("friday")[0].unid == docs["lunch"].unid

    def test_subject_weight_via_field_query(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        assert {h.unid for h in index.search("subject:budget")} == {
            docs["budget"].unid
        }

    def test_boolean_combinators(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        assert {h.unid for h in index.search("budget AND meeting")} == {
            docs["budget"].unid
        }
        assert {h.unid for h in index.search("budget NOT meeting")} == {
            docs["repl"].unid
        }
        assert len(index.search("pizza OR budget")) == 3

    def test_phrase_respects_adjacency(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        assert {h.unid for h in index.search('"deletion stubs"')} == {
            docs["repl"].unid
        }
        assert index.search('"stubs deletion"') == []

    def test_stemmed_matching(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        assert {h.unid for h in index.search("deleted")} == {docs["repl"].unid}

    def test_incremental_update(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        db.update(docs["lunch"].unid, {"Body": "Tacos and budget cuts"})
        assert len(index.search("budget")) == 3
        assert index.search("pizza") == []

    def test_incremental_delete(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        db.delete(docs["budget"].unid)
        assert {h.unid for h in index.search("budget")} == {docs["repl"].unid}

    def test_create_after_index(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        fresh = db.create({"Subject": "Zebra report"})
        assert {h.unid for h in index.search("zebra")} == {fresh.unid}

    def test_manual_mode_stale_until_refresh(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db, mode="manual")
        db.create({"Subject": "Quokka"})
        assert index.search("quokka") == []
        index.refresh()
        assert len(index.search("quokka")) == 1

    def test_limit(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        assert len(index.search("budget OR pizza", limit=1)) == 1

    def test_reader_fields_filter_results(self, corpus):
        from repro.core import ItemType
        from repro.security import AccessControlList, AclLevel

        db, docs = corpus
        acl = AccessControlList(default_level=AclLevel.EDITOR)
        db.acl = acl
        db.get(docs["budget"].unid).set("R", ["boss/Acme"], ItemType.READERS)
        index = FullTextIndex(db)
        hits = index.search("budget", as_user="peon/Acme")
        assert {h.unid for h in hits} == {docs["repl"].unid}

    def test_text_list_items_indexed(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        doc = db.create({"Keywords": ["confidential", "roadmap"]})
        assert {h.unid for h in index.search("roadmap")} == {doc.unid}

    def test_numbers_not_indexed_as_items(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        db.create({"Amount": 777})
        assert index.search("777") == []

    def test_stats(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        assert index.document_count == 3
        assert index.term_count > 5

    def test_subject_matches_outrank_body_matches(self, db):
        in_subject = db.create({"Subject": "quarterly forecast",
                                "Body": "numbers attached"})
        in_body = db.create({"Subject": "misc notes",
                             "Body": "see the forecast section"})
        index = FullTextIndex(db)
        hits = index.search("forecast")
        assert [h.unid for h in hits] == [in_subject.unid, in_body.unid]
        assert hits[0].score > hits[1].score

    def test_custom_field_weights(self, db):
        a = db.create({"Keywords": "alpha", "Body": "filler"})
        b = db.create({"Body": "alpha alpha alpha"})
        index = FullTextIndex(db, field_weights={"Keywords": 10.0})
        hits = index.search("alpha")
        assert hits[0].unid == a.unid

    def test_one_word_phrase_matches_like_the_word(self, db):
        memo = db.create({"Subject": "Cleanup", "Body": "the kitchen messes"})
        index = FullTextIndex(db)
        expected = [memo.unid]
        assert [h.unid for h in index.search("messes")] == expected
        assert [h.unid for h in index.search('"messes kitchen"')] == []
        assert [h.unid for h in index.search('"kitchen messes"')] == expected
        assert [h.unid for h in index.search('"messes"')] == expected
        assert [h.unid for h in index.search('body:"messes"')] == expected

    def test_negative_limit_is_rejected(self, corpus):
        db, docs = corpus
        index = FullTextIndex(db)
        with pytest.raises(FullTextError, match="negative"):
            index.search("budget", limit=-1)

    def test_zero_limit_returns_nothing(self, corpus):
        from repro.security import AccessControlList, AclLevel

        db, docs = corpus
        index = FullTextIndex(db)
        assert index.search("budget", limit=0) == []
        db.acl = AccessControlList(default_level=AclLevel.READER)
        assert index.search("budget", limit=0, as_user="peon/Acme") == []

    def test_reader_checks_stop_at_the_limit(self, db):
        from repro.core import ItemType
        from repro.security import AccessControlList, AclLevel

        docs = [
            db.create({"Subject": "report " * (10 - rank)}) for rank in range(10)
        ]
        for doc in docs[:3]:  # the three best-ranked are hidden
            doc.set("R", ["boss/Acme"], ItemType.READERS)
        acl = AccessControlList(default_level=AclLevel.READER)
        db.acl = acl
        index = FullTextIndex(db)
        checked = []
        can_read = acl.can_read
        acl.can_read = lambda user, doc: checked.append(doc.unid) or can_read(user, doc)
        hits = index.search("report", limit=2, as_user="peon/Acme")
        assert [h.unid for h in hits] == [docs[3].unid, docs[4].unid]
        assert checked == [doc.unid for doc in docs[:5]]


class TestSearchHit:
    """A hit is an immutable ``(unid, score)`` value, equal and hashed by
    its fields."""

    def test_equality_and_hash_follow_the_fields(self):
        hit = SearchHit("A1", 2.5)
        assert hit == SearchHit("A1", 2.5)
        assert hit != SearchHit("A1", 2.0)
        assert hit != SearchHit("B2", 2.5)
        assert hash(hit) == hash(SearchHit("A1", 2.5)) == hash(("A1", 2.5))
        assert len({hit, SearchHit("A1", 2.5), SearchHit("B2", 2.5)}) == 2

    def test_not_equal_to_a_plain_tuple(self):
        hit = SearchHit("A1", 2.5)
        assert hit != ("A1", 2.5)
        assert ("A1", 2.5) != hit
        assert not hit == ("A1", 2.5)
        assert hit != "A1"

    def test_fields_and_repr(self):
        hit = SearchHit(unid="A1", score=2.5)
        assert (hit.unid, hit.score) == ("A1", 2.5)
        assert repr(hit) == "SearchHit(unid='A1', score=2.5)"

    def test_attributes_cannot_be_assigned(self):
        hit = SearchHit("A1", 2.5)
        with pytest.raises(AttributeError):
            hit.unid = "B2"
        with pytest.raises(AttributeError):
            hit.score = 0.0
        with pytest.raises(AttributeError):
            hit.extra = 1
        assert hit == SearchHit("A1", 2.5)

    def test_copy_and_pickle_give_back_an_equal_hit(self):
        hit = SearchHit("A1", 2.5)
        for twin in (copy.copy(hit), copy.deepcopy(hit),
                     pickle.loads(pickle.dumps(hit))):
            assert type(twin) is SearchHit
            assert twin == hit
