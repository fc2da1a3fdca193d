"""Property: top-k search ranks exactly as scoring every match would.

``FullTextIndex.search`` plans a query once, ranks the matches before any
access check and stops checking at the ``limit``-th readable hit. The
oracle here uses no part of the index: it tokenizes the live notes' text
items as indexing does, evaluates the query tree over those postings
(terms, field-scoped terms, phrases with and without a field, AND, OR,
NOT over every live note), scores each match by the plain formula (each
word's tf added field by field in item order, its idf from the live
notes), drops what ``as_user`` may not read, sorts by ``(-score, unid)``
and slices. Hits and scores must be equal exactly, on an in-memory
index, on a persisted one whose postings come from segments plus an
edited overlay after a reopen, and on a reloaded stack of one segment or
several. Query words never occur in READERS names, so READERS items
changed in place, with no database write, change no query word's
postings. A read term keeps one record (merged postings, tf map, impact
list, per-field document sets): writes update its postings and mark the
edited notes stale, and its next read patches the rest. The interleaved
case creates, edits and deletes notes, changes READERS items in place,
rebuilds, and (persisted) saves or closes and reopens the index between
rounds of searches, and after every round checks each record against a
fresh merge and a fresh build from it.

Each property runs twice: a reduced-example fast lane in the default
job, and a ``slow``-marked lane with the full example budget
(``pytest -m slow``).
"""

import math
import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Item, ItemType, NotesDatabase
from repro.fulltext import FullTextIndex, parse_query
from repro.fulltext.query import And, Not, Or, Phrase, Term
from repro.fulltext.tokenizer import stem, tokenize
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock
from repro.storage import StorageEngine

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Stemming variants and a stopword, so query words and indexed tokens
# meet through the stemmer.
WORDS = ("budget", "budgets", "meeting", "meetings", "replica", "review",
         "reviewed", "forecast", "stub", "stubs", "category", "categories",
         "the")
FIELDS = (None, "subject", "body")
QUERY_WORDS = sorted({stem(word) for word in WORDS})
#: The index's default field weights.
FIELD_WEIGHTS = {"subject": 2.0}
USERS = (None, "peon/Acme", "boss/Acme")

MEMO = st.tuples(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),   # subject
    st.lists(st.sampled_from(WORDS), max_size=8),               # body
    st.sampled_from([None, ["boss/Acme"], ["peon/Acme", "boss/Acme"]]),
)

_TERM = st.builds(
    lambda word, field: f"{field}:{word}" if field else word,
    st.sampled_from(WORDS), st.sampled_from(FIELDS),
)
_PHRASE = st.builds(
    lambda words, field: (f"{field}:" if field else "") + f'"{" ".join(words)}"',
    st.one_of(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=2),
        st.sampled_from(WORDS).map(lambda word: [word, word]),  # counts twice
    ),
    st.sampled_from(FIELDS),
)
QUERY = st.recursive(
    st.one_of(_TERM, _TERM, _PHRASE),
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
        st.builds(lambda a, b: f"({a} {b})", inner, inner),
        st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
        st.builds(lambda a, b: f"({a} NOT {b})", inner, inner),
    ),
    max_leaves=4,
)
LIMITS = st.sampled_from([None, 0, 1, 3, 5, 25])
SEARCH = st.tuples(QUERY, LIMITS, st.sampled_from(USERS))
# Edits past the checkpoint: (memo index, new memo or None to delete).
EDITS = st.lists(st.tuples(st.integers(0, 30), st.one_of(st.none(), MEMO)),
                 max_size=6)
# READERS items set or removed on live documents, with no database write:
# (memo index, new reader names or None to remove the item).
READER_EDITS = st.lists(
    st.tuples(st.integers(0, 30),
              st.sampled_from([None, ["boss/Acme"], ["peon/Acme"]])),
    max_size=3,
)
# Single terms over the words the memos use, so rounds reuse terms whose
# impact lists an earlier round built.
TERM_SEARCH = st.tuples(_TERM, LIMITS, st.sampled_from(USERS))
# Searched after every round on top of the drawn searches.
EVERY_WORD = [
    (query, limit, user)
    for word in WORDS
    for query, limit, user in ((word, None, "peon/Acme"), (f"subject:{word}", 3, None))
]
#: What a round does between two halves of its edits: nothing, a
#: rebuild, and on a persisted index a save or a close and reopen.
MEMORY_ACTIONS = (None, None, "rebuild")
PERSISTED_ACTIONS = (None, "rebuild", "save", "save", "reopen")


def _rounds(actions, max_size):
    """Rounds of (edits, action, creates, READERS edits, searches)."""
    round_ = st.tuples(
        EDITS, st.sampled_from(actions), st.lists(MEMO, max_size=2), READER_EDITS,
        st.lists(st.one_of(TERM_SEARCH, SEARCH), min_size=1, max_size=4),
    )
    return st.lists(round_, min_size=2, max_size=max_size)


def _items(memo):
    subject, body, readers = memo
    items = {"Subject": " ".join(subject), "Body": " ".join(body)}
    if readers is not None:
        items["Readers"] = Item.of("Readers", readers, ItemType.READERS)
    return items


#: The item types the index tokenizes.
TEXT_TYPES = (ItemType.TEXT, ItemType.RICH_TEXT, ItemType.TEXT_LIST,
              ItemType.NAMES, ItemType.AUTHORS, ItemType.READERS)


def _corpus(db):
    """``word -> unid -> field -> [positions]`` over the live notes,
    tokenized item by item, without the index."""
    postings = {}
    for doc in db.all_documents():
        for item in doc:
            if item.type not in TEXT_TYPES:
                continue
            text = " ".join(item.value) if isinstance(item.value, list) else item.value
            field = item.name.lower()
            for position, token in enumerate(tokenize(text)):
                (postings.setdefault(token, {}).setdefault(doc.unid, {})
                 .setdefault(field, []).append(position))
    return postings


def _words(node):
    """A term's or phrase's words, stemmed as queries stem them."""
    if isinstance(node, Phrase):
        return tokenize(node.text)
    return [stem(node.text.lower())]


def _holding(postings, word, field):
    held = postings.get(word, {})
    if field is None:
        return set(held)
    return {unid for unid, fields in held.items() if field.lower() in fields}


def _matches(postings, every, node):
    """The live notes ``node`` matches: a term (in its field, when
    given), a phrase's words at adjacent positions of one field, and the
    boolean operators over the set of ``every`` live note."""
    if isinstance(node, Term):
        return _holding(postings, _words(node)[0], node.field)
    if isinstance(node, Phrase):
        words = _words(node)
        if not words:
            return set()
        found = _holding(postings, words[0], node.field)
        if len(words) == 1:
            return found
        hits = set()
        for unid in found:
            for field, starts in postings[words[0]][unid].items():
                if node.field is not None and field != node.field.lower():
                    continue
                if any(
                    all(start + offset
                        in postings.get(word, {}).get(unid, {}).get(field, ())
                        for offset, word in enumerate(words[1:], 1))
                    for start in starts
                ):
                    hits.add(unid)
        return hits
    if isinstance(node, And):
        result = _matches(postings, every, node.parts[0])
        for part in node.parts[1:]:
            result = result & _matches(postings, every, part)
        return result
    if isinstance(node, Or):
        result = set()
        for part in node.parts:
            result = result | _matches(postings, every, part)
        return result
    if isinstance(node, Not):
        return every - _matches(postings, every, node.part)
    raise AssertionError(f"unexpected query node {node!r}")


def _positive(node):
    """The terms and phrases outside any NOT, in query order."""
    if isinstance(node, (Term, Phrase)):
        return [node]
    if isinstance(node, (And, Or)):
        return [leaf for part in node.parts for leaf in _positive(part)]
    return []


def _oracle_score(postings, n_docs, unid, tree):
    """tf-idf summed over the query's positive words, ``tf`` added field
    by field in item order."""
    total = 0.0
    for node in _positive(tree):
        for word in _words(node):
            held = postings.get(word, {})
            if unid not in held:
                continue
            tf = 0.0
            for field, positions in held[unid].items():
                tf += len(positions) * FIELD_WEIGHTS.get(field, 1.0)
            idf = math.log(max(n_docs, 1) / len(held)) + 1.0
            total += tf * idf
    return total


def _can_read(user, doc):
    """The ACL's answer for these memos (default level Reader, no AUTHORS
    items), read off the items rather than ``Document.readers``."""
    readers = [item.value for item in doc if item.type is ItemType.READERS]
    return not readers or any(user in names for names in readers)


def _oracle(db, postings, query, limit, as_user):
    every = {doc.unid for doc in db.all_documents()}
    tree = parse_query(query)
    scored = [
        (unid, _oracle_score(postings, len(every), unid, tree))
        for unid in _matches(postings, every, tree)
    ]
    if as_user is not None:
        scored = [hit for hit in scored if _can_read(as_user, db.get(hit[0]))]
    scored.sort(key=lambda hit: (-hit[1], hit[0]))
    return scored[:limit] if limit is not None else scored


def _check_searches(index, searches):
    """``index.search`` equals the oracle run over the live notes."""
    db = index.db
    postings = _corpus(db)
    # Reader checks bite only at search time; the writes ran without an ACL.
    db.acl = AccessControlList(default_level=AclLevel.READER)
    for query, limit, as_user in searches:
        hits = index.search(query, limit=limit, as_user=as_user)
        assert [(hit.unid, hit.score) for hit in hits] == _oracle(
            db, postings, query, limit, as_user
        ), query


def _new_db(**kw):
    return NotesDatabase("prop.nsf", clock=VirtualClock(),
                         rng=random.Random(7), **kw)


def _apply_edits(db, unids, edits):
    for position, memo in edits:
        db.clock.advance(0.1)
        live = [unid for unid in unids if unid in db]
        if not live:
            return
        unid = live[position % len(live)]
        if memo is None:
            db.delete(unid)
        else:
            db.update(unid, _items(memo))


def _edit_readers(db, unids, reader_edits):
    for position, names in reader_edits:
        live = [unid for unid in unids if unid in db]
        if not live:
            return
        doc = db.get(live[position % len(live)])
        if names is not None:
            doc.put_items([Item.of("Readers", names, ItemType.READERS)])
        elif "Readers" in doc:
            doc.remove_item("Readers")


def check_term_lists(index):
    """Each read term's record holds the postings a fresh merge gives, and
    once read, its tf map, impact list and field sets equal ones built
    fresh from them (the read patches what the writes since the last one
    marked stale)."""
    weights = index.field_weights
    for term, entry in list(index._terms.items()):
        postings = index._merged(term)
        assert entry.postings == postings, term
        assert index._term(term) is entry and not entry.stale, term
        tfs = {
            unid: -sum(len(positions) * weights.get(field, 1.0)
                       for field, positions in fields.items())
            for unid, fields in postings.items()
        }
        assert entry.tfs == tfs, term
        if entry.impacts is not None:
            assert entry.impacts == sorted(
                (neg_tf, unid) for unid, neg_tf in tfs.items()
            ), term
        for field, docs in entry.fields.items():
            assert docs == {
                unid for unid, fields in postings.items() if field in fields
            }, (term, field)


def check_interleaved(memos, rounds, path=None):
    """Edit and delete, rebuild or (with ``path``, persisted) save or
    reopen, edit and delete again, create, change READERS in place, then
    search: each round's searches see the writes of the rounds before it,
    and every read term's structures equal a fresh build after each
    round. (Edits right after a save supersede saved notes whose terms
    were read before the save.)"""
    persist = path is not None
    db = _new_db(engine=StorageEngine(path)) if persist else _new_db()
    unids = [db.create(_items(memo)).unid for memo in memos]
    index = FullTextIndex(db, persist=persist)
    for generation, (edits, action, creates, reader_edits, searches) in enumerate(rounds):
        db.acl = None
        half = len(edits) // 2
        _apply_edits(db, unids, edits[:half])
        if action == "rebuild":
            index.rebuild()
        elif action == "save":
            index.save_checkpoint()
        elif action == "reopen":
            index.close()
            db.engine.close()
            # A new UNID stream, and a clock that does not run backwards.
            db = NotesDatabase("prop.nsf", clock=VirtualClock(db.clock.now),
                               rng=random.Random(100 + generation),
                               engine=StorageEngine(path))
            index = FullTextIndex(db, persist=True)
            assert index.loaded_from_disk
        _apply_edits(db, unids, edits[half:])
        for memo in creates:
            db.clock.advance(0.1)
            unids.append(db.create(_items(memo)).unid)
        if persist:
            # The query words' postings equal a fresh index's. (READERS
            # edits in place are no database write, so neither index has
            # the reader names an earlier round set or removed.)
            fresh = FullTextIndex(db)
            for word in QUERY_WORDS:
                assert index._merged(word) == fresh._merged(word), word
            fresh.close()
        _edit_readers(db, unids, reader_edits)
        _check_searches(index, searches + EVERY_WORD)
        check_term_lists(index)
    if persist:
        index.close()
        db.engine.close()


def check_interleaved_persisted(memos, rounds):
    with tempfile.TemporaryDirectory() as tmp:
        check_interleaved(memos, rounds, os.path.join(tmp, "db"))


def check_in_memory(memos, edits, searches):
    db = _new_db()
    unids = [db.create(_items(memo)).unid for memo in memos]
    index = FullTextIndex(db)
    _apply_edits(db, unids, edits)
    _check_searches(index, searches)


def check_persisted(memos, edits, searches):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db")
        db = _new_db(engine=StorageEngine(path))
        unids = [db.create(_items(memo)).unid for memo in memos]
        index = FullTextIndex(db, persist=True)
        index.save_checkpoint()
        half = len(edits) // 2
        _apply_edits(db, unids, edits[:half])
        index.save_checkpoint()
        # Edited past the last checkpoint, then reopened without a save:
        # the reopened index reads segments and re-tokenizes the edits.
        _apply_edits(db, unids, edits[half:])
        db.engine.close()
        db = _new_db(engine=StorageEngine(path))
        index = FullTextIndex(db, persist=True)
        assert index.loaded_from_disk
        _check_searches(index, searches)
        db.engine.close()


def check_reloaded(memos, saved_edits, live_edits, searches):
    """A stack of one segment or several (one save per batch of
    ``saved_edits``), reloaded, then edited and deleted from in the live
    overlay: it holds a fresh in-memory rebuild's postings and ranks as
    the oracle does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db")
        db = _new_db(engine=StorageEngine(path))
        unids = [db.create(_items(memo)).unid for memo in memos]
        index = FullTextIndex(db, persist=True)
        index.save_checkpoint()
        for batch in saved_edits:
            _apply_edits(db, unids, batch)
            index.save_checkpoint()
        index.close()
        db.engine.close()
        db = _new_db(engine=StorageEngine(path))
        index = FullTextIndex(db, persist=True)
        assert index.loaded_from_disk and index.rebuilds == 0
        # Search between two rounds of edits, so the second round edits
        # terms whose merged postings the first round cached.
        half = len(live_edits) // 2
        for batch in (live_edits[:half], live_edits[half:]):
            _apply_edits(db, unids, batch)
            fresh = FullTextIndex(db)
            assert index.postings_snapshot() == fresh.postings_snapshot()
            _check_searches(index, searches)
            fresh.close()
            db.acl = None
        db.engine.close()


# -- fast lane (default job: reduced examples) --------------------------


@settings(max_examples=40, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=12), edits=EDITS,
       searches=st.lists(SEARCH, min_size=1, max_size=6))
def test_top_k_matches_score_all_oracle(memos, edits, searches):
    check_in_memory(memos, edits, searches)


@settings(max_examples=15, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=12), edits=EDITS,
       searches=st.lists(SEARCH, min_size=1, max_size=6))
def test_top_k_matches_score_all_oracle_persisted(memos, edits, searches):
    check_persisted(memos, edits, searches)


@settings(max_examples=30, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=12),
       saved_edits=st.lists(EDITS, max_size=3), live_edits=EDITS,
       searches=st.lists(SEARCH, min_size=1, max_size=6))
def test_top_k_on_reloaded_stack_matches_fresh_rebuild(
    memos, saved_edits, live_edits, searches
):
    check_reloaded(memos, saved_edits, live_edits, searches)


@settings(max_examples=40, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=12),
       rounds=_rounds(MEMORY_ACTIONS, 4))
def test_interleaved_edits_and_searches_match_oracle(memos, rounds):
    check_interleaved(memos, rounds)


@settings(max_examples=15, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=12),
       rounds=_rounds(PERSISTED_ACTIONS, 4))
def test_interleaved_edits_and_searches_match_oracle_persisted(memos, rounds):
    check_interleaved_persisted(memos, rounds)


# -- slow lane (full budget: pytest -m slow) ----------------------------


@pytest.mark.slow
@settings(max_examples=300, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=30), edits=EDITS,
       searches=st.lists(SEARCH, min_size=1, max_size=10))
def test_top_k_matches_score_all_oracle_full(memos, edits, searches):
    check_in_memory(memos, edits, searches)


@pytest.mark.slow
@settings(max_examples=80, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=30), edits=EDITS,
       searches=st.lists(SEARCH, min_size=1, max_size=10))
def test_top_k_matches_score_all_oracle_persisted_full(memos, edits, searches):
    check_persisted(memos, edits, searches)


@pytest.mark.slow
@settings(max_examples=80, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=30),
       saved_edits=st.lists(EDITS, max_size=4), live_edits=EDITS,
       searches=st.lists(SEARCH, min_size=1, max_size=10))
def test_top_k_on_reloaded_stack_matches_fresh_rebuild_full(
    memos, saved_edits, live_edits, searches
):
    check_reloaded(memos, saved_edits, live_edits, searches)


@pytest.mark.slow
@settings(max_examples=300, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=30),
       rounds=_rounds(MEMORY_ACTIONS, 6))
def test_interleaved_edits_and_searches_match_oracle_full(memos, rounds):
    check_interleaved(memos, rounds)


@pytest.mark.slow
@settings(max_examples=80, parent=RELAXED)
@given(memos=st.lists(MEMO, min_size=1, max_size=30),
       rounds=_rounds(PERSISTED_ACTIONS, 6))
def test_interleaved_edits_and_searches_match_oracle_persisted_full(memos, rounds):
    check_interleaved_persisted(memos, rounds)
