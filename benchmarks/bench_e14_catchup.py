"""E14 — Seq-checkpointed catch-up: reopen/refresh cost rides the delta.

Claim: with every derived structure keeping the checkpoint of the state it
last indexed, bringing a stale consumer current costs O(log n + changes)
— flat in database size, linear in the delta — while the baseline, an
explicit ``rebuild()`` (what a consumer without a usable checkpoint
pays), costs O(database). Measured on both consumers the checkpoint
serves:

* a manual view refreshed after a 100-document delta (top-up vs rebuild)
* the full-text index reopened from its persisted checkpoint (re-tokenize
  the delta vs re-tokenize everything)
"""

from __future__ import annotations

import gc
import time

from repro.bench.runners import build_catchup_corpus, catchup_view
from repro.bench.tables import print_table
from repro.fulltext import FullTextIndex

DELTA = 100


def _timed(fn):
    """Time ``fn`` with the allocator settled — a collection triggered by
    the previous path's garbage must not be billed to this one."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_cell(tmp_path, n_docs: int):
    engine, db = build_catchup_corpus(
        str(tmp_path / f"catchup{n_docs}"), n_docs, DELTA
    )
    try:
        # -- view refresh: top-up vs rebuild on identical staleness ------
        topup_view = catchup_view(db, mode="manual", persist=False)
        rebuild_view = catchup_view(db, mode="manual", persist=False)
        db.clock.advance(1)
        for unid in db.rng.sample(db.unids(), DELTA):
            db.update(unid, {"Subject": f"moved {db.rng.random():.4f}"})

        path, view_topup = _timed(topup_view.refresh)
        assert path == "topup", path

        _, view_rebuild = _timed(rebuild_view.rebuild)
        assert topup_view.all_unids() == rebuild_view.all_unids()

        # -- full-text reopen: checkpoint load + top-up vs full rebuild --
        warm, ft_topup = _timed(lambda: FullTextIndex(db, persist=True))
        assert warm.loaded_from_disk and warm.catch_up.last_path == "topup"

        cold, ft_rebuild = _timed(lambda: FullTextIndex(db))
        # postings_snapshot materializes the lazy base segment — done
        # after the clocks stop so the equivalence check isn't billed.
        assert warm.postings_snapshot() == cold.postings_snapshot()
        assert warm.document_count == cold.document_count
        warm.close()
        cold.close()
        return view_topup, view_rebuild, ft_topup, ft_rebuild
    finally:
        engine.close()


def test_e14_catchup_table(benchmark, tmp_path):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (5_000, 50_000):
            view_topup, view_rebuild, ft_topup, ft_rebuild = run_cell(
                tmp_path, n_docs
            )
            catchup = view_topup + ft_topup
            rebuild = view_rebuild + ft_rebuild
            rows.append([
                n_docs, DELTA,
                round(view_topup * 1000, 2), round(view_rebuild * 1000, 2),
                round(ft_topup * 1000, 2), round(ft_rebuild * 1000, 2),
                round(rebuild / max(catchup, 1e-9), 1),
            ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E14  seq-checkpointed catch-up vs rebuild (ms), delta fixed at 100",
        ["docs", "delta", "view topup", "view rebuild",
         "ft reopen", "ft rebuild", "rebuild/catchup"],
        rows,
        note="catch-up rides the delta; the rebuild path pays the full "
             "database at every size",
    )

    def cell(n):
        return next(r for r in rows if r[0] == n)

    # The headline claim: >= 10x at 50k docs with a 100-doc delta.
    assert cell(50_000)[6] >= 10, rows
    # Rebuild cost is O(database): 10x corpus, clearly bigger bill.
    assert cell(50_000)[3] > cell(5_000)[3] * 3
    assert cell(50_000)[5] > cell(5_000)[5] * 3
    # Catch-up is O(changes): the view top-up must not scale with the
    # corpus (same delta, 10x documents, generous 8x slack for tree
    # depth and cache effects).
    assert cell(50_000)[2] < max(cell(5_000)[2], 0.05) * 8
