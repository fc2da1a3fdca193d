"""Single-term searches read the term's impact list.

A one-term query walks ``(-tf, unid)`` pairs best first and stops at the
``limit``-th readable hit: it scores no match through ``_score`` and
checks READERS access only on the entries it walks. A write that
changes a term's postings marks the edited notes stale in the term's
lists (and the tf map and per-field document sets beside them); the
next read patches those entries, so a search after an edit ranks as a
fresh index does.
"""

import math
import os
import random
import tempfile

import pytest

from repro.core import Item, ItemType, NotesDatabase
from repro.fulltext import FullTextIndex
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock
from repro.storage import StorageEngine

N_MATCHES = 1200


def _hits(index, query, **kw):
    return [(hit.unid, hit.score) for hit in index.search(query, **kw)]


@pytest.fixture
def big(db):
    """1,200 memos that all hold ``report`` (1-6 times, some in the
    Subject); every seventh one only ``boss/Acme`` may read."""
    rng = random.Random(3)
    hidden = set()
    for number in range(N_MATCHES):
        items = {
            "Subject": "report" if rng.random() < 0.3 else "memo",
            "Body": " ".join(["report"] * rng.randint(1, 6) + ["filler"]),
        }
        if number % 7 == 0:
            items["Readers"] = Item.of("Readers", ["boss/Acme"], ItemType.READERS)
        doc = db.create(items)
        if number % 7 == 0:
            hidden.add(doc.unid)
    db.acl = AccessControlList(default_level=AclLevel.READER)
    return db, hidden


class TestSingleTermWalk:
    def test_top_25_scores_nothing_and_checks_only_what_it_walks(self, big):
        db, hidden = big
        index = FullTextIndex(db)
        ranking = [hit.unid for hit in index.search("report")]
        assert len(ranking) == N_MATCHES
        readable = [unid for unid in ranking if unid not in hidden]
        hidden_above = ranking.index(readable[24]) + 1 - 25

        scored, checked = [], []
        score = index._score
        index._score = lambda unid, plan: scored.append(unid) or score(unid, plan)
        can_read = db.acl.can_read
        db.acl.can_read = lambda user, doc: checked.append(doc.unid) or can_read(user, doc)
        hits = index.search("report", limit=25, as_user="peon/Acme")
        assert [hit.unid for hit in hits] == readable[:25]
        assert scored == []
        assert len(checked) == 25 + hidden_above
        assert checked == ranking[:len(checked)]

    def test_other_query_shapes_still_score_every_match(self, big):
        db, _ = big
        index = FullTextIndex(db)
        scored = []
        score = index._score
        index._score = lambda unid, plan: scored.append(unid) or score(unid, plan)
        index.search("report OR filler", limit=25)
        assert len(scored) == N_MATCHES

    def test_field_scoped_term_skips_other_fields(self, big):
        db, _ = big
        index = FullTextIndex(db)
        in_subject = {
            doc.unid for doc in db.all_documents() if doc.get("Subject") == "report"
        }
        hits = index.search("subject:report")
        assert {hit.unid for hit in hits} == in_subject
        # A field-scoped term scores over every field, as _score does.
        full = dict(_hits(index, "report"))
        assert [score for _, score in _hits(index, "subject:report")] == [
            full[unid] for unid, _ in _hits(index, "subject:report")
        ]

    def test_limit_zero_builds_no_list(self, big):
        db, _ = big
        index = FullTextIndex(db)
        assert index.search("report", limit=0) == []
        assert "report" not in index._terms


def _equal_product_weights():
    """Field weights ``lo < hi`` and a corpus size ``n`` at which a word
    held by two of the ``n`` documents scores ``lo * idf == hi * idf``."""
    lo = 3.0
    hi = math.nextafter(lo, math.inf)
    for n_docs in range(3, 400):
        idf = math.log(n_docs / 2) + 1.0
        if lo * idf == hi * idf:
            return lo, hi, n_docs
    raise AssertionError("no rounding tie below 400 documents")


def test_rounding_ties_rank_by_unid(db):
    lo, hi, n_docs = _equal_product_weights()
    first, second = db.create({"Body": "seed"}), db.create({"Body": "seed"})
    small, large = sorted((first.unid, second.unid))
    # The larger UNID gets the heavier field, so (-tf, unid) order would
    # put it first; equal scores must rank by UNID instead.
    db.update(small, {"Light": "zeta"})
    db.update(large, {"Heavy": "zeta"})
    for _ in range(n_docs - 2):
        db.create({"Body": "filler"})
    index = FullTextIndex(db, field_weights={"Light": lo, "Heavy": hi})
    hits = index.search("zeta")
    assert [hit.unid for hit in hits] == [small, large]
    assert hits[0].score == hits[1].score
    tfs = {unid: -neg for neg, unid in index._terms["zeta"].impacts}
    assert tfs[large] > tfs[small]
    assert index.search("zeta", limit=1)[0].unid == small


class TestListsFollowEdits:
    def _index(self, db):
        for word in ("alpha", "beta", "gamma"):
            db.create({"Subject": word, "Body": f"{word} common"})
            db.create({"Body": f"{word} {word} common"})
        return FullTextIndex(db)

    def test_create_update_delete_between_searches(self, db):
        index = self._index(db)
        before = _hits(index, "common")
        memo = db.create({"Subject": "common common common"})
        assert _hits(index, "common")[0][0] == memo.unid
        db.update(memo.unid, {"Subject": "nothing"})
        assert memo.unid not in dict(_hits(index, "common"))
        db.delete(memo.unid)
        assert _hits(index, "common") == before == _hits(FullTextIndex(db), "common")

    def test_field_sets_follow_edits(self, db):
        index = self._index(db)
        query = "subject:alpha OR subject:beta"
        assert len(index.search(query)) == 2
        memo = db.create({"Subject": "beta"})
        assert memo.unid in {hit.unid for hit in index.search(query)}
        db.update(memo.unid, {"Subject": "gamma"})
        assert _hits(index, query) == _hits(FullTextIndex(db), query)
        # An AND reads the cached sets without changing them.
        assert index.search("subject:alpha AND subject:beta") == []
        assert len(index.search(query)) == 2

    def test_in_place_readers_edit_between_searches(self, db):
        index = self._index(db)
        db.acl = AccessControlList(default_level=AclLevel.READER)
        top = index.search("common", as_user="peon/Acme")[0].unid
        db.get(top).put_items([Item.of("R", ["boss/Acme"], ItemType.READERS)])
        assert top not in {hit.unid for hit in index.search("common", as_user="peon/Acme")}
        db.get(top).remove_item("R")
        assert index.search("common", as_user="peon/Acme")[0].unid == top


def test_superseded_stack_document_drops_its_terms_lists():
    """A saved note edited after its save leaves the stack: the lists of
    the terms it held must lose it, including terms first queried while
    only the overlay held them."""
    with tempfile.TemporaryDirectory() as tmp:
        db = NotesDatabase("t.nsf", clock=VirtualClock(), rng=random.Random(1),
                           engine=StorageEngine(os.path.join(tmp, "db")))
        index = FullTextIndex(db, persist=True)
        keep = db.create({"Subject": "delta"})
        gone = db.create({"Subject": "delta delta"})
        assert [hit.unid for hit in index.search("delta")] == [gone.unid, keep.unid]
        # "delta" moves from the overlay to the stack; no search reads it
        # there before the edit.
        index.save_checkpoint()
        db.clock.advance(1)
        db.update(gone.unid, {"Subject": "epsilon"})
        assert [hit.unid for hit in index.search("delta")] == [keep.unid]
        entry = index._terms["delta"]
        assert entry.impacts == [(-2.0, keep.unid)] and entry.tfs == {keep.unid: -2.0}
        assert list(entry.postings) == [keep.unid]
        index.save_checkpoint()
        db.clock.advance(1)
        db.update(keep.unid, {"Subject": "epsilon"})
        assert index.search("delta") == []
        index.close()
        db.engine.close()


def test_diagnostics_keep_no_term_records():
    """``postings_snapshot()`` and ``term_count`` merge every term afresh:
    they add no record to ``_terms`` and change none of the kept ones."""
    with tempfile.TemporaryDirectory() as tmp:
        db = NotesDatabase("t.nsf", clock=VirtualClock(), rng=random.Random(1),
                           engine=StorageEngine(os.path.join(tmp, "db")))
        index = FullTextIndex(db, persist=True)
        saved = db.create({"Subject": "delta", "Body": "kappa lambda"})
        index.save_checkpoint()
        db.clock.advance(1)
        db.create({"Subject": "delta epsilon"})
        index.search("delta")
        before = {term: (entry, dict(entry.postings), dict(entry.tfs))
                  for term, entry in index._terms.items()}
        assert list(before) == ["delta"]
        snapshot = index.postings_snapshot()
        assert {"delta", "epsilon", "kappa", "lambda"} <= set(snapshot)
        assert index.term_count == len(snapshot)
        assert {term: (entry, dict(entry.postings), dict(entry.tfs))
                for term, entry in index._terms.items()} == before
        # So a later edit of the saved note has one record to walk.
        db.clock.advance(1)
        db.update(saved.unid, {"Subject": "omega"})
        assert list(index._terms) == ["delta"]
        assert index._terms["delta"].stale == {saved.unid}
        index.close()
        db.engine.close()
