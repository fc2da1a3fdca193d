"""The inverted full-text index.

Postings map ``term -> unid -> field -> [positions]``. Every incremental
path funnels through ``_reindex(unid)`` — drop the document's postings,
re-tokenize it if the note is still live: change events call it in
``auto`` mode, and :meth:`FullTextIndex.refresh` (``manual`` mode) and a
checkpoint load call it for each UNID
:meth:`~repro.core.database.NotesDatabase.changes_since` reports past
the index's :class:`~repro.core.database.Checkpoint`. The ``rebuild()``
path re-tokenizes the whole database and is the E8/E14 baseline.

With ``persist=True`` the postings plus that checkpoint are written
through the storage engine as a segment sidecar whose meta record, save
transaction, load rule and refresh rule are :mod:`repro.core.sidecar`'s:
each ``save_checkpoint`` appends the live overlay as a *new* segment,
and segments fold back together by the stack's rule. One stack holds
two kinds of key. A term key holds the postings of the documents
written in that segment, so every segment's record for a term is live
data. A membership key (``D:`` + UNID) marks each document written in
that segment; the newest segment holding it is the document's *home*,
and only postings from a document's home still count. Tokens and query
words are lowercase, so no term key can begin with the uppercase ``D``.

A reopened database loads only the meta record and the per-segment
offset directories; postings blobs stay unparsed bytes until a query
touches a term, and only notes changed past the checkpoint are
re-tokenized (none when the state fingerprint still matches). That keeps
reopen O(directories + changes) and close O(delta) — both ends of the
session now ride the delta (experiments E14 and E15).

Scoring is tf–idf: ``tf * (log(N / df) + 1)`` summed over the words of
the query's positive terms, with ``tf`` the field-weighted occurrence
count. The first query that reads a term gives it one lasting record
(:class:`_Term`): the term's merged postings, copied out of the overlay
and the stack, and the structures queries derive from them — a *tf map*
``unid -> -tf``, the per-field document sets field-scoped queries ask
for and, once a single-term query asks, the term's *impact list*, its
``(-tf, unid)`` pairs in ascending order. A write updates the record's
postings and adds the UNID to its stale set; the term's next read
patches each derived structure for just those UNIDs (a bisect out of the
list, an ``insort`` back in), so an edit costs the next search O(log n)
comparisons and one list shift per changed UNID, not a re-sort. Terms
never read get no record, and the diagnostics
(:meth:`FullTextIndex.postings_snapshot`, ``term_count``) merge afresh
without keeping one.

Since ``idf`` is one positive number per query, impact order is the rank
order, so a single-term query walks the list, stops at the
``limit``-th readable hit and scores only what it walks (Anh & Moffat's
impact-ordered postings). Any other query is planned once — each word
stemmed, its tf map fetched and its idf computed a single time — and
every match is scored from the tf maps and ranked before the access
checks. Either way a reader's READERS checks run in rank order and stop
at the ``limit``-th readable hit. A phrase reads each word's record once
and verifies adjacent positions inside one field.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import islice
from operator import itemgetter
from time import perf_counter

from repro.errors import FullTextError
from repro.core.database import ChangeKind, NotesDatabase
from repro.core.document import Document
from repro.core.items import ItemType
from repro.core.sidecar import PersistedIndex
from repro.fulltext.query import And, Not, Or, Phrase, Term, parse_query
from repro.fulltext.tokenizer import stem, tokenize

_TEXT_TYPES = (ItemType.TEXT, ItemType.RICH_TEXT, ItemType.TEXT_LIST,
               ItemType.NAMES, ItemType.AUTHORS, ItemType.READERS)

#: Engine keys of the persisted checkpoint: the sidecar's meta record,
#: and the namespace of the stack's per-segment directories and blobs.
_META_KEY = b"ftidx:meta"
_NS = b"ftidx"
#: Manifests of an older layout that kept the postings and a doc → terms
#: table in two stacks; such a meta record does not load (the index
#: rebuilds) and the first save deletes the segments they name.
_OLD_STACKS = {"terms": b"ftidx:terms", "docs": b"ftidx:docs"}
#: Membership keys are ``_MEMBER + unid``, each holding ``_MARKER``.
_MEMBER = "D:"
_MARKER = True
#: Keys of an impact-list entry ``(-tf, unid)``.
_FIRST, _SECOND = itemgetter(0), itemgetter(1)


class SearchHit(tuple):
    """One ranked hit: the document's ``unid`` and its tf–idf ``score``.

    An immutable pair, built as one tuple. It compares equal only to
    another hit with the same fields (not to a plain tuple), hashes as
    ``hash((unid, score))`` and prints as ``SearchHit(unid=..., score=...)``.
    """

    __slots__ = ()

    unid = property(_FIRST)
    score = property(_SECOND)

    def __new__(cls, unid: str, score: float) -> "SearchHit":
        return tuple.__new__(cls, (unid, score))

    def __getnewargs__(self) -> tuple[str, float]:
        # copy and pickle rebuild a hit through ``__new__(cls, *these)``.
        return tuple(self)

    def __eq__(self, other):
        if other.__class__ is SearchHit:
            return tuple.__eq__(self, other)
        # A plain tuple would otherwise compare equal through tuple's own
        # reflected __eq__.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"SearchHit(unid={self[0]!r}, score={self[1]!r})"


#: Builds a hit without a Python-level ``__new__`` call (the search loop).
_hit = tuple.__new__


class _Term:
    """One read term: its merged postings and what queries derive from them.

    ``postings`` is the term's overlay + stack-minus-dead merge, a dict
    this index owns, kept current by every write. ``tfs`` maps each
    holding document to ``-tf``; ``impacts`` is None until a single-term
    query asks for the sorted ``(-tf, unid)`` list; ``fields`` maps a
    field to the documents holding the term in it. ``stale`` holds the
    UNIDs whose postings changed since the last read:
    :meth:`FullTextIndex._term` patches the derived structures for them
    before handing the record out.
    """

    __slots__ = ("postings", "tfs", "impacts", "fields", "stale")

    def __init__(self, postings: dict, weights: dict[str, float]) -> None:
        self.postings = postings
        self.tfs = {
            unid: -_weighted_tf(fields, weights)
            for unid, fields in postings.items()
        }
        self.impacts: list[tuple[float, str]] | None = None
        self.fields: dict[str, set[str]] = {}
        self.stale: set[str] = set()


class FullTextIndex(PersistedIndex):
    """An incrementally-maintained inverted index over one database."""

    _ERROR = FullTextError

    #: Default per-field score multipliers: a hit in the Subject counts
    #: double — title matches rank above body mentions.
    DEFAULT_FIELD_WEIGHTS = {"subject": 2.0}

    def __init__(
        self,
        db: NotesDatabase,
        mode: str = "auto",
        field_weights: dict[str, float] | None = None,
        persist: bool = False,
    ) -> None:
        self.field_weights = (
            dict(self.DEFAULT_FIELD_WEIGHTS)
            if field_weights is None
            else {name.lower(): weight for name, weight in field_weights.items()}
        )
        # Live overlay: term -> unid -> field(lower) -> positions, plus
        # unid -> term set (for cheap removal). Everything indexed since
        # the last segment append lives here; save_checkpoint freezes it
        # into a new segment.
        self._postings: dict[str, dict[str, dict[str, list[int]]]] = {}
        self._doc_terms: dict[str, set[str]] = {}
        # ``_dead`` masks stack documents superseded or deleted since the
        # last append; their membership keys become the stack's
        # tombstones at the next save.
        self._dead: set[str] = set()
        # One record per read term: its merged postings, kept current by
        # every write, and the structures queries derive from them,
        # patched on the term's next read.
        self._terms: dict[str, _Term] = {}
        self._doc_count = 0
        self._open_index(
            db, mode, persist, self.save_checkpoint,
            meta_key=_META_KEY,
            namespace=_NS,
            stats_name="postings",
            legacy_stacks=_OLD_STACKS,
        )

    # -- maintenance --------------------------------------------------------

    def rebuild(self) -> int:
        """Re-index every live document; returns the document count."""
        started = perf_counter()
        self._postings.clear()
        self._doc_terms.clear()
        # The next save rewrites the stack from scratch (and deletes the
        # segments the old meta record names).
        self._stack = None
        self._dead.clear()
        self._terms.clear()
        self._doc_count = 0
        for doc in self.db.all_documents():
            self._add(doc)
        self.rebuilds += 1
        self._checkpoint = self.db.checkpoint()
        self.catch_up.record_rebuild(perf_counter() - started)
        return self._doc_count

    # -- checkpoint persistence -------------------------------------------

    def _combine(self, index: int, key: str, older, newer):
        """Resolve ``key`` in a fold of the pair at ``index``.

        Called before the fold renumbers positions, so a document's home
        is ``index`` (the older segment), ``index + 1`` (the newer) or
        elsewhere. A membership key survives if its home is in the pair;
        a term keeps the postings each segment holds for the documents it
        is home to — the others were rewritten above or deleted, and a
        fold is where that debt is paid down.
        """
        position_of = self._stack.position_of
        if key.startswith(_MEMBER):
            return _MARKER if position_of(key) in (index, index + 1) else None
        merged = {}
        for position, postings in ((index, older), (index + 1, newer)):
            for unid, fields in (postings or {}).items():
                if position_of(_MEMBER + unid) == position:
                    merged[unid] = fields
        return merged or None

    def save_checkpoint(self) -> None:
        """Append the live overlay as one segment, plus the checkpoint
        (see :mod:`repro.core.sidecar`)."""
        self._save_index()

    def _take_delta(self, fresh: bool) -> tuple[dict, set[str]]:
        if not (self._doc_terms or self._dead):
            return {}, set()
        records = dict(self._postings)
        for unid in self._doc_terms:
            records[_MEMBER + unid] = _MARKER
        removed = {_MEMBER + unid for unid in self._dead}
        if not self._doc_count:
            # No document is left, so every term record is dead too.
            removed.update(self._stack.keys())
        # The overlay now moves into the stack (append seeds the record
        # caches, so nothing re-parses on the next query).
        self._postings = {}
        self._doc_terms = {}
        self._dead = set()
        return records, removed

    def _unsaved(self) -> tuple[int, int]:
        return len(self._doc_terms) + len(self._dead), self._doc_count

    def _adopt_stack(self) -> None:
        self._doc_count = sum(
            1 for key in self._stack.live_keys() if key.startswith(_MEMBER)
        )

    # -- segment stack access ----------------------------------------------

    def _merged(self, term: str) -> dict[str, dict[str, list[int]]]:
        """A fresh overlay + stack-minus-dead merge of one term's postings.

        A stack entry counts only when its segment is the document's home
        and the document is not dead; a record of the newest segment is
        copied whole, since every document in it is home there. Only a
        term's first read (:meth:`_term`) and the diagnostics call this;
        the result is the caller's own dict.
        """
        merged = {}
        if self._stack is not None and term in self._stack:
            position_of = self._stack.position_of
            top = len(self._stack) - 1
            for position, record in self._stack.records(term):
                if position == top:
                    merged.update(record)
                    continue
                for unid, fields in record.items():
                    if position_of(_MEMBER + unid) == position:
                        merged[unid] = fields
            # Drop what changed since the last append: superseded stack
            # copies and documents the overlay now holds.
            for stale in (self._dead, self._doc_terms):
                for unid in stale:
                    merged.pop(unid, None)
        live = self._postings.get(term)
        if live:
            merged.update(live)
        return merged

    def _stack_unids(self):
        """The UNID of every live membership key in the stack."""
        skip = len(_MEMBER)
        return (
            key[skip:]
            for key in self._stack.live_keys()
            if key.startswith(_MEMBER)
        )

    def _stack_terms(self):
        """Every term key in the stack."""
        return (
            key for key in self._stack.keys() if not key.startswith(_MEMBER)
        )

    def _in_stack(self, unid: str) -> bool:
        return (
            self._stack is not None
            and unid not in self._dead
            and _MEMBER + unid in self._stack
        )

    def _all_doc_unids(self) -> set[str]:
        unids = set(self._doc_terms)
        if self._stack is not None:
            unids.update(
                unid for unid in self._stack_unids() if unid not in self._dead
            )
        return unids

    def _supersede(self, unid: str) -> None:
        """Tombstone a stack document instead of editing frozen segments.

        Every read term drops the unid from its postings — the stack
        keeps no per-document term list, and this is a no-op at reopen
        catch-up time when no term has been read yet.
        """
        self._dead.add(unid)
        for entry in self._terms.values():
            if entry.postings.pop(unid, None) is not None:
                entry.stale.add(unid)

    def _on_change(self, kind: ChangeKind, payload, old: Document | None) -> None:
        self.incremental_ops += 1
        self._reindex(payload.unid)

    def _reindex(self, unid: str) -> None:
        """Re-derive one document's postings from the live database:
        drop them, re-tokenize the note if it is still live. Change
        events and catch-up replay both land here."""
        self._remove(unid)
        doc = self.db.try_get(unid)
        if doc is not None:
            self._add(doc)

    def _add(self, doc: Document) -> None:
        """Tokenize ``doc`` into the overlay; it must hold no postings
        yet (rebuild starts empty, ``_reindex`` removes first)."""
        terms: set[str] = set()
        for item in doc:
            if item.type not in _TEXT_TYPES:
                continue
            text = (
                " ".join(item.value) if isinstance(item.value, list) else item.value
            )
            field = item.name.lower()
            for position, token in enumerate(tokenize(text)):
                slot = (
                    self._postings.setdefault(token, {})
                    .setdefault(doc.unid, {})
                    .setdefault(field, [])
                )
                slot.append(position)
                terms.add(token)
        unid = doc.unid
        self._doc_terms[unid] = terms
        read = self._terms
        for term in terms:
            entry = read.get(term)
            if entry is not None:
                entry.postings[unid] = self._postings[term][unid]
                entry.stale.add(unid)
        self._doc_count += 1

    def _remove(self, unid: str) -> None:
        terms = self._doc_terms.pop(unid, None)
        if terms is None:
            if self._in_stack(unid):
                self._supersede(unid)
                self._doc_count -= 1
            return
        read = self._terms
        for term in terms:
            postings = self._postings.get(term)
            if postings is not None:
                postings.pop(unid, None)
                if not postings:
                    del self._postings[term]
            entry = read.get(term)
            if entry is not None:
                entry.postings.pop(unid, None)
                entry.stale.add(unid)
        if self._in_stack(unid):  # overlay shadowed an older stack entry
            self._supersede(unid)
        self._doc_count -= 1

    # -- stats ------------------------------------------------------------

    @property
    def term_count(self) -> int:
        """Distinct terms with at least one live posting.

        Counted from :meth:`postings_snapshot` (it must check stack terms
        for tombstone survivors), so it is a diagnostics property, not a
        hot path.
        """
        return len(self.postings_snapshot())

    @property
    def document_count(self) -> int:
        return self._doc_count

    def postings_snapshot(self) -> dict[str, dict[str, dict[str, list[int]]]]:
        """Fully-materialized postings (overlay + stack), for equivalence
        checks — merges every term afresh, so O(index), and keeps none."""
        snapshot = {}
        terms = set(self._postings)
        if self._stack is not None:
            terms.update(self._stack_terms())
        for term in terms:
            merged = self._merged(term)
            if merged:
                snapshot[term] = merged
        return snapshot

    # -- search -------------------------------------------------------------

    def search(
        self,
        query: str,
        limit: int | None = None,
        as_user: str | None = None,
    ) -> list[SearchHit]:
        """Run ``query``; returns hits ranked by tf–idf, best first.

        Hits are walked in rank order: ``as_user`` is checked against one
        document at a time until ``limit`` readable hits are found, so a
        reader pays for the page it sees plus the unreadable hits ranked
        above it. A single term walks its impact list and scores only
        what it walks; any other query scores and ranks every match
        first.
        """
        if limit is not None and limit < 0:
            raise FullTextError(f"limit must not be negative, got {limit}")
        tree = parse_query(query)
        db = self.db
        # (-score, unid): best first, ties broken by UNID.
        if isinstance(tree, Term):
            ranked = self._term_ranking(tree)
        else:
            matched = self._eval(tree)
            plan = self._plan(tree)
            ranked = sorted(
                (-self._score(unid, plan), unid) for unid in matched if unid in db
            )
        if as_user is not None:
            ranked = (
                key for key in ranked if db._can_read(as_user, db.get(key[1]))
            )
        return [_hit(SearchHit, (unid, -neg)) for neg, unid in islice(ranked, limit)]

    def _term(self, word: str) -> _Term:
        """``word``'s record, its derived structures current.

        A word's first read builds its record from a fresh merge; a word
        with no postings gets a record that is not kept. A kept record's
        structures are patched here for the UNIDs written since the last
        read: each then equals one built fresh from the postings.
        """
        entry = self._terms.get(word)
        if entry is None:
            entry = _Term(self._merged(word), self.field_weights)
            if entry.postings:
                self._terms[word] = entry
        elif entry.stale:
            self._patch(entry)
        return entry

    def _patch(self, entry: _Term) -> None:
        """Bring ``entry``'s structures up to its postings for its stale
        UNIDs: bisect each old impact entry out and ``insort`` the new
        one."""
        postings, tfs, impacts = entry.postings, entry.tfs, entry.impacts
        weights = self.field_weights
        for unid in entry.stale:
            old = tfs.pop(unid, None)
            held = postings.get(unid)
            new = None
            if held is not None:
                new = tfs[unid] = -_weighted_tf(held, weights)
            if impacts is not None and new != old:
                if old is not None:
                    del impacts[bisect_left(impacts, (old, unid))]
                if new is not None:
                    insort(impacts, (new, unid))
            for field, docs in entry.fields.items():
                if held is not None and field in held:
                    docs.add(unid)
                else:
                    docs.discard(unid)
        entry.stale.clear()

    def _term_ranking(self, term: Term):
        """``(-score, unid)`` of one term's live matches, best first,
        read lazily off the term's impact list.

        A score is ``tf * idf`` exactly as :meth:`_score` computes it, so
        entries of one ``tf`` (a *group*, already in UNID order) share a
        score. Unequal ``tf`` values can still round to one score; such
        groups are adjacent, and their run is re-sorted by UNID.
        """
        entry = self._term(stem(term.text.lower()))
        postings = entry.postings
        if not postings:
            return
        impacts = entry.impacts
        if impacts is None:
            tfs = entry.tfs
            impacts = entry.impacts = sorted(zip(tfs.values(), tfs.keys()))
        idf = math.log(max(self._doc_count, 1) / len(postings)) + 1.0
        db = self.db
        field = term.field.lower() if term.field is not None else None
        walk = iter(impacts)
        start, size = 0, len(impacts)
        while start < size:
            neg_tf = impacts[start][0]
            neg_score = neg_tf * idf
            end = bisect_right(impacts, neg_tf, start, key=_FIRST)
            tied = False
            while end < size and impacts[end][0] * idf == neg_score:
                end = bisect_right(impacts, impacts[end][0], end, key=_FIRST)
                tied = True
            run = islice(walk, end - start)
            if tied:
                run = sorted(run, key=_SECOND)
            for _, unid in run:
                if unid in db and (field is None or field in postings[unid]):
                    yield neg_score, unid
            start = end

    # -- boolean evaluation --------------------------------------------------

    def _eval(self, node) -> set[str]:
        """The UNIDs ``node`` matches; a field-scoped term's set is the
        one its record keeps, so the result is read-only."""
        if isinstance(node, Term):
            return self._docs_in(stem(node.text.lower()), node.field)
        if isinstance(node, Phrase):
            return self._phrase_docs(node)
        if isinstance(node, And):
            parts = [self._eval(part) for part in node.parts]
            return parts[0].intersection(*parts[1:])
        if isinstance(node, Or):
            result: set[str] = set()
            for part in node.parts:
                result |= self._eval(part)
            return result
        if isinstance(node, Not):
            return self._all_doc_unids() - self._eval(node.part)
        raise FullTextError(f"cannot evaluate query node {node!r}")

    def _docs_in(self, word: str, field: str | None) -> set[str]:
        """The documents holding ``word`` (in ``field``, when given); a
        field's set is kept in the word's record."""
        entry = self._term(word)
        if field is None:
            return set(entry.postings)
        field = field.lower()
        docs = entry.fields.get(field)
        if docs is None:
            docs = entry.fields[field] = {
                unid for unid, fields in entry.postings.items() if field in fields
            }
        return docs

    def _phrase_docs(self, phrase: Phrase) -> set[str]:
        """The documents holding the phrase's words at adjacent positions
        of one field (``phrase.field``, when given)."""
        words = tokenize(phrase.text)  # already stemmed
        if not words:
            return set()
        if len(words) == 1:
            return self._docs_in(words[0], phrase.field)
        postings = [self._term(word).postings for word in words]
        only = phrase.field.lower() if phrase.field is not None else None
        result = set()
        for unid in set(postings[0]).intersection(*postings[1:]):
            first, *rest = [held[unid] for held in postings]
            for field, starts in first.items():
                if only is not None and field != only:
                    continue
                later = [fields.get(field, ()) for fields in rest]
                if any(
                    all(start + offset in positions
                        for offset, positions in enumerate(later, 1))
                    for start in starts
                ):
                    result.add(unid)
                    break
        return result

    # -- scoring ------------------------------------------------------------

    def _positive_terms(self, node) -> list[Term | Phrase]:
        if isinstance(node, (Term, Phrase)):
            return [node]
        if isinstance(node, (And, Or)):
            out = []
            for part in node.parts:
                out.extend(self._positive_terms(part))
            return out
        return []  # NOT subtrees do not contribute to relevance

    def _plan(self, tree) -> list[tuple[dict, float]]:
        """The query's term plan: one ``(tf map, idf)`` pair per word of
        its positive terms, in query order (a repeated word counts each
        time), each word stemmed and looked up once per query. Words
        with no postings score nothing and are left out."""
        n_docs = max(self._doc_count, 1)
        plan = []
        for node in self._positive_terms(tree):
            words = (
                tokenize(node.text)
                if isinstance(node, Phrase)
                else [stem(node.text.lower())]
            )
            for word in words:
                entry = self._term(word)
                if entry.postings:
                    plan.append(
                        (entry.tfs, math.log(n_docs / len(entry.postings)) + 1.0)
                    )
        return plan

    def _score(self, unid: str, plan: list[tuple[dict, float]]) -> float:
        """One matched document's tf–idf over the query's ``plan``.

        The maps hold ``-tf``; subtracting ``-tf * idf`` adds exactly
        ``tf * idf``, so scores equal the positions-weighted sum."""
        total = 0.0
        for tfs, idf in plan:
            neg_tf = tfs.get(unid)
            if neg_tf is not None:
                total -= neg_tf * idf
        return total


def _weighted_tf(fields: dict[str, list[int]], weights: dict[str, float]) -> float:
    """A document's field-weighted occurrence count of one word."""
    tf = 0.0  # a loop, not sum() over a generator: same additions
    for field, positions in fields.items():
        tf += len(positions) * weights.get(field, 1.0)
    return tf
