"""E13 — Change-feed cost vs. database size (update-sequence journal).

Claim (paper shape): with a by-seq journal the cost of finding "what
changed since the last pass" is proportional to the *delta*, independent
of database size — the property CouchDB's ``_changes`` feed inherits from
Notes-style incremental replication. The baseline is the pre-journal full
scan, written out below: it pays O(database) per pass, so its line grows
linearly while the journal's stays flat.
"""

from __future__ import annotations

import time

from repro.bench.runners import build_changefeed_db, build_deployment, populate
from repro.bench.tables import print_table
from repro.replication import Replicator, converged

N_CHANGES = 100


def scan_changed_since(db, cutoff: float) -> tuple[list, list, int]:
    """The pre-journal baseline: examine every document and stub and keep
    those changed at/after ``cutoff``. The corpus has a single writer, so
    a note's own ``modified``/``deleted_at`` time is its local change
    time. Returns ``(docs, stubs, notes examined)``."""
    examined = 0
    docs = []
    for doc in db.all_documents():
        examined += 1
        if doc.modified >= cutoff:
            docs.append(doc)
    stubs = []
    for stub in db.stubs.values():
        examined += 1
        if stub.deleted_at >= cutoff:
            stubs.append(stub)
    return docs, stubs, examined


def run_cell(n_docs: int) -> tuple[int, float, int, float]:
    """(journal candidates, journal s, scan candidates, scan s) for one
    change-feed read on a database with ``N_CHANGES`` fresh edits."""
    db, mark_seq, mark_time = build_changefeed_db(n_docs, N_CHANGES)
    start = time.perf_counter()
    db.changed_since_seq(mark_seq)
    journal_seconds = time.perf_counter() - start
    journal_cost = db.last_scan_cost
    start = time.perf_counter()
    docs, _, scan_cost = scan_changed_since(db, mark_time)
    scan_seconds = time.perf_counter() - start
    assert len(docs) == N_CHANGES
    return journal_cost, journal_seconds, scan_cost, scan_seconds


def test_e13_table(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (2_000, 10_000, 50_000):
            journal_cost, journal_s, scan_cost, scan_s = run_cell(n_docs)
            rows.append(
                [n_docs, journal_cost, f"{journal_s * 1e6:.0f}",
                 scan_cost, f"{scan_s * 1e6:.0f}",
                 round(scan_s / max(journal_s, 1e-9), 1)]
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"E13  change-feed read cost vs database size ({N_CHANGES} changed docs)",
        ["docs", "journal cand", "journal us", "scan cand", "scan us",
         "scan/journal"],
        rows,
        note="journal examines the delta; the baseline scans the database",
    )
    by_size = {r[0]: r for r in rows}
    # The journal line is flat: candidates examined equal the change count
    # at every size — including the acceptance point (50k docs, 100
    # changes, <= ~100 candidates).
    assert all(r[1] <= N_CHANGES for r in rows)
    assert by_size[50_000][1] == by_size[2_000][1]
    # The baseline line is linear in database size.
    assert all(r[3] >= r[0] for r in rows)
    assert by_size[50_000][3] >= 20 * by_size[2_000][1]
    # At the largest size the suffix read is decisively faster.
    assert by_size[50_000][5] > 5


def test_e13_replication_pass_examines_delta(benchmark):
    """The same property measured end-to-end through a replication pass:
    ``docs_scanned`` tracks journal entries visited, not database size,
    while the history-free ``full_copy`` baseline visits every note."""
    deployment = build_deployment(3, seed=131)
    a, b, c = deployment.databases
    populate(a, 2_000, deployment.rng, body_bytes=64, advance=0.001)
    deployment.clock.advance(1)
    rep = Replicator()
    rep.pull(b, a)
    rep.full_copy(c, a)
    deployment.clock.advance(1)

    def one_round():
        for unid in deployment.rng.sample(a.unids(), 20):
            a.update(unid, {"Status": "tick"})
        deployment.clock.advance(1)
        via_journal = rep.pull(b, a)
        via_copy = rep.full_copy(c, a)
        deployment.clock.advance(1)
        return via_journal, via_copy

    via_journal, via_copy = benchmark.pedantic(
        one_round, rounds=1, iterations=1
    )
    assert via_journal.docs_transferred == 20
    assert via_journal.docs_scanned <= 20
    assert via_copy.docs_scanned >= 2_000
    assert converged([a, b, c])
