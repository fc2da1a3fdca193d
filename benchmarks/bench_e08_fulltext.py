"""E8 — Full-text indexing: incremental update vs rebuild; query latency.

Claims: adding one document to the inverted index costs ~the document's
token count, while the rebuild path re-tokenizes the corpus; query latency
is driven by posting-list sizes, not corpus scans. A reader's top-k search
(``limit=25``) checks READERS access only down the ranking until the 25th
readable hit, not on every match. A single-term top-k search walks the
term's impact list, so its cost follows the ``limit``, not the term's
match count (E8c). An edit does not drop that list: the next search
patches the entries the edit changed, so a search after a few edits
costs about what a search on an untouched list does, not a re-sort of
every match (E8d).
"""

from __future__ import annotations

import statistics
import time

from repro.bench.runners import build_deployment, populate
from repro.bench.tables import print_table
from repro.core import Item, ItemType
from repro.fulltext import FullTextIndex
from repro.security import AccessControlList, AclLevel


def build_corpus(n_docs: int):
    deployment = build_deployment(1, seed=n_docs + 8)
    db = deployment.databases[0]
    populate(db, n_docs, deployment.rng, body_bytes=600, advance=0.0)
    return deployment, db


#: Each cell's add-one time is the median of this many adds: one add
#: takes a fraction of a millisecond, so a single timing rides scheduler
#: noise.
ADDS = 7


def run_cell(n_docs: int):
    deployment, db = build_corpus(n_docs)
    index = FullTextIndex(db)

    adds = []
    for _ in range(ADDS):
        start = time.perf_counter()
        db.create({"Subject": "fresh", "Body": "brand new budget forecast " * 20})
        adds.append(time.perf_counter() - start)
    incremental_seconds = statistics.median(adds)

    start = time.perf_counter()
    index.rebuild()
    rebuild_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(20):
        hits = index.search("budget AND forecast")
    query_seconds = (time.perf_counter() - start) / 20
    assert hits
    return incremental_seconds, rebuild_seconds, query_seconds


def test_e08_table(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (200, 800, 3200):
            incremental, rebuild, query = run_cell(n_docs)
            rows.append([
                n_docs,
                round(incremental * 1000, 3),
                round(rebuild * 1000, 1),
                round(query * 1000, 3),
                round(rebuild / max(incremental, 1e-9)),
            ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E8  full-text index maintenance and query latency",
        ["docs", "add-one ms", "rebuild ms", "query ms", "rebuild/add"],
        rows,
        note="incremental cost is flat; rebuild cost grows with the corpus; "
             f"add-one is the median of {ADDS} adds",
    )
    adds = [r[1] for r in rows]
    rebuilds = [r[2] for r in rows]
    assert rebuilds[-1] > rebuilds[0] * 8  # 16x corpus -> ~linear rebuild
    assert adds[-1] < adds[0] * 4  # add-one stays roughly flat
    assert all(r[4] > 50 for r in rows)


TOP_K = 25
RESTRICTED_SHARE = 0.25
TOPK_QUERIES = (
    "subject:budget",
    "subject:budget OR subject:meeting",
    "subject:budget OR subject:meeting OR subject:release OR subject:replica",
    "budget",
)


def build_restricted_corpus(n_docs: int):
    """A corpus where a quarter of the memos only ``boss/Acme`` may read."""
    deployment, db = build_corpus(n_docs)
    for unid in db.unids():
        if deployment.rng.random() < RESTRICTED_SHARE:
            db.update(unid, {
                "Readers": Item.of("Readers", ["boss/Acme"], ItemType.READERS),
            })
    db.acl = AccessControlList(default_level=AclLevel.READER)
    return db


def topk_row(index, query: str, repeats: int = 5):
    """Matches, unreadable hits ranked above the 25th readable one, and
    access checks and latency per search with and without the limit."""
    db = index.db
    ranked = index.search(query)  # also warms the term merges
    readable = hidden_above = 0
    for hit in ranked:
        if readable == TOP_K:
            break
        if db.acl.can_read("peon/Acme", db.get(hit.unid)):
            readable += 1
        else:
            hidden_above += 1
    checks = []
    can_read = db.acl.can_read
    db.acl.can_read = lambda user, doc: checks.append(1) or can_read(user, doc)
    row = [len(ranked), hidden_above]
    try:
        for limit in (TOP_K, None):
            checks.clear()
            start = time.perf_counter()
            for _ in range(repeats):
                hits = index.search(query, limit=limit, as_user="peon/Acme")
            elapsed = (time.perf_counter() - start) / repeats
            row += [len(checks) // repeats, round(elapsed * 1000, 3)]
            if limit == TOP_K:
                top = hits
    finally:
        del db.acl.can_read
    assert top == hits[:TOP_K]  # the top-k is the head of the full answer
    matches, hidden, top_checks, top_ms, all_checks, all_ms = row
    return [matches, hidden, top_checks, all_checks, top_ms, all_ms]


def test_e08_topk_table(benchmark):
    index = FullTextIndex(build_restricted_corpus(1600))
    rows = []

    def sweep():
        rows.clear()
        rows.extend(topk_row(index, query) for query in TOPK_QUERIES)
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E8b  top-k search as a reader (limit=25, 25% of memos restricted)",
        ["matches", "hidden above 25th", "checks top-25", "checks all",
         "top-25 ms", "all ms"],
        rows,
        note="access checks stop at the 25th readable hit; "
             "checking every match is the no-limit column",
    )
    for matches, hidden_above, topk_checks, all_checks, _, _ in rows:
        assert topk_checks <= TOP_K + hidden_above
        assert all_checks == matches
    assert [row[0] for row in rows] == sorted(row[0] for row in rows)
    assert rows[-1][2] * 10 < rows[-1][3]  # 1600 matches, ~33 checks


#: E8c: a word held by about this many of the corpus's memos.
TIER_WORDS = {100: "orchid", 1_000: "maple", 10_000: "granite"}
TIER_DOCS = 10_000


def build_tiered_index():
    """10,000 short memos; each ``TIER_WORDS`` word is in every
    ``TIER_DOCS // matches``-th memo, 1-5 times, so its hits rank by tf."""
    deployment = build_deployment(1, seed=81)
    db = deployment.databases[0]
    for number in range(TIER_DOCS):
        words = ["memo", str(number)]
        for matches, word in TIER_WORDS.items():
            if number % (TIER_DOCS // matches) == 0:
                words += [word] * deployment.rng.randint(1, 5)
        db.create({"Subject": f"note {number}", "Body": " ".join(words)})
    return FullTextIndex(db)


def median_ms(search, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        search()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1000, 4)


def test_e08c_top_k_follows_the_limit(benchmark):
    index = build_tiered_index()
    rows = []

    def sweep():
        rows.clear()
        for matches, word in TIER_WORDS.items():
            start = time.perf_counter()
            hits = index.search(word, limit=TOP_K)  # builds the impact list
            first_ms = round((time.perf_counter() - start) * 1000, 3)
            assert len(hits) == TOP_K
            top_ms = median_ms(lambda: index.search(word, limit=TOP_K), 51)
            all_ms = median_ms(lambda: index.search(word), 5)
            assert len(index.search(word)) == matches
            rows.append([matches, first_ms, top_ms, all_ms])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E8c  single-term top-25 latency against the term's match count",
        ["matches", "first search ms", "top-25 ms", "all hits ms"],
        rows,
        note="the first search builds the term's impact list (O(m log m)); "
             "later top-25 reads walk 25 entries of it; medians of 51 and 5",
    )
    top = {row[0]: row[2] for row in rows}
    assert top[10_000] < 3 * top[100]


def test_e08_query_speed(benchmark):
    _, db = build_corpus(1000)
    index = FullTextIndex(db)
    queries = ["budget", "budget AND review", '"budget forecast"',
               "subject:release", "proposal OR inventory NOT sales"]
    counter = {"i": 0}

    def one_query():
        counter["i"] += 1
        return index.search(queries[counter["i"] % len(queries)])

    benchmark(one_query)


def test_e08_incremental_add_speed(benchmark):
    _, db = build_corpus(1000)
    FullTextIndex(db)
    counter = {"i": 0}

    def add_doc():
        counter["i"] += 1
        db.create({"Subject": f"memo {counter['i']}",
                   "Body": "status update with budget numbers " * 10})

    benchmark(add_doc)


#: E8d: the edited term, its match count, the corpus size and the edit
#: counts between two searches.
PATCH_WORD = "harbor"
PATCH_MATCHES = 2_000
PATCH_DOCS = 4_000
PATCH_EDITS = (1, 10, 100, 1_000)
#: Each cell is the median of this many edit-then-search trials.
PATCH_TRIALS = 9


def build_patch_index():
    """4,000 short memos; every other one holds ``PATCH_WORD`` 1-5 times."""
    deployment = build_deployment(1, seed=84)
    db = deployment.databases[0]
    holders = []
    for number in range(PATCH_DOCS):
        words = ["memo", str(number)]
        if number % (PATCH_DOCS // PATCH_MATCHES) == 0:
            words += [PATCH_WORD] * deployment.rng.randint(1, 5)
        doc = db.create({"Subject": f"note {number}", "Body": " ".join(words)})
        if PATCH_WORD in words:
            holders.append(doc.unid)
    return FullTextIndex(db), holders, deployment.rng


def search_after_edits(index, holders, rng, edits: int, rebuild: bool) -> float:
    """Edit ``edits`` holders of the word (each gets a new tf), then time
    one top-25 search; ``rebuild`` drops the word's record first, so the
    search merges its postings afresh and sorts every match as a fresh
    list."""
    db = index.db
    for unid in rng.sample(holders, edits):
        tf = rng.randint(1, 5)
        db.update(unid, {"Body": " ".join(["memo", unid] + [PATCH_WORD] * tf)})
    if rebuild:
        index._terms.pop(PATCH_WORD, None)
    start = time.perf_counter()
    hits = index.search(PATCH_WORD, limit=TOP_K)
    elapsed = time.perf_counter() - start
    assert len(hits) == TOP_K
    return elapsed


def test_e08d_search_after_edits_patches_the_list(benchmark):
    index, holders, rng = build_patch_index()
    rows = []

    def sweep():
        rows.clear()
        index.search(PATCH_WORD, limit=TOP_K)  # builds the lists
        for edits in PATCH_EDITS:
            patched, rebuilt = [], []
            for _ in range(PATCH_TRIALS):
                patched.append(search_after_edits(index, holders, rng, edits, False))
                rebuilt.append(search_after_edits(index, holders, rng, edits, True))
            patch_ms = round(statistics.median(patched) * 1000, 3)
            rebuild_ms = round(statistics.median(rebuilt) * 1000, 3)
            rows.append([edits, patch_ms, rebuild_ms,
                         round(rebuild_ms / max(patch_ms, 1e-6), 1)])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"E8d  top-25 search on a {PATCH_MATCHES:,}-match term right after k edits",
        ["edits k", "patched list ms", "rebuilt list ms", "rebuilt/patched"],
        rows,
        note="patched: the search bisects each edited entry out and back in; "
             "rebuilt: the term's record is dropped and rebuilt; "
             f"medians of {PATCH_TRIALS}",
    )
    # The patched lists rank exactly as a fresh index does.
    fresh = FullTextIndex(index.db)
    assert index.search(PATCH_WORD) == fresh.search(PATCH_WORD)
    fresh.close()
    cells = {row[0]: row for row in rows}
    assert cells[1][1] * 2 < cells[1][2]
