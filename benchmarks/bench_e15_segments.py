"""E15 — Segment-stack checkpoints: close cost rides the delta too.

Claim: with derived structures persisted as a stack of immutable
segments, saving a checkpoint appends only the entries dirtied since the
last save — O(delta), flat in database size — where the pre-segment
layout rewrote the whole structure on every save. The ablation arm
rebuilds each consumer (untimed) and then times its save: a rebuilt
consumer has dropped its stack, so that save writes the whole structure
as one fresh segment — exactly the rewrite-everything save and its
O(database) bill. Measured on both stack consumers:

* a persisted view saving its sidecar after a 100-document delta
* the full-text index saving its checkpoint after the same delta

A segmented save is one fsync-bound commit of a few milliseconds, so
each cell reports the median over ``SAVES`` such deltas rather than one
shot (the later saves may fold the small delta segments, which is part
of the O(delta) bill). The ``ft KB/save`` column is the median of the
bytes those full-text saves hand to the engine (segments, folds and the
meta record).

E14 made *reopen* ride the delta; this closes the other end of the
session. Together a reopen → work → close cycle touches O(changes), not
O(database), at both ends.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.bench.runners import build_catchup_corpus, catchup_view
from repro.bench.tables import print_table
from repro.fulltext import FullTextIndex

DELTA = 100
SAVES = 5


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed_put(engine, fn):
    """``fn``'s seconds (as :func:`_timed`) and the bytes of the values
    it passed to ``engine.put``."""
    put, written = engine.put, [0]

    def counting(txn, key, value):
        written[0] += len(value)
        put(txn, key, value)

    engine.put = counting
    try:
        seconds = _timed(fn)
    finally:
        del engine.put
    return seconds, written[0]


def _apply_delta(db):
    db.clock.advance(1)
    for unid in db.rng.sample(db.unids(), DELTA):
        db.update(unid, {"Subject": f"edited {db.rng.random():.4f}"})


def run_cell(tmp_path, n_docs: int):
    engine, db = build_catchup_corpus(
        str(tmp_path / f"segments{n_docs}"), n_docs, DELTA
    )
    try:
        view = catchup_view(db)  # warm load + top-up (auto mode)
        index = FullTextIndex(db, persist=True)
        assert view.loaded_from_disk and index.loaded_from_disk

        # -- segmented save: appends the delta as one new segment --------
        view_saves = [_timed(view.save_index)]
        ft_saves = [_timed_put(engine, index.save_checkpoint)]
        view_stats = view.catch_up.segment_stats["entries"]
        ft_stats = index.catch_up.segment_stats["postings"]
        assert view_stats.segments == 2, view_stats
        assert ft_stats.segments == 2, ft_stats
        for _ in range(SAVES - 1):
            _apply_delta(db)
            view_saves.append(_timed(view.save_index))
            ft_saves.append(_timed_put(engine, index.save_checkpoint))
        view_segmented = statistics.median(view_saves)
        ft_segmented = statistics.median(seconds for seconds, _ in ft_saves)
        ft_bytes = statistics.median(written for _, written in ft_saves)

        # -- ablation: rewrite the whole structure as one segment ---------
        _apply_delta(db)
        view.rebuild()
        index.rebuild()
        view_appended = view_stats.records_appended
        view_ablation = _timed(view.save_index)
        ft_ablation = _timed(index.save_checkpoint)
        assert view_stats.segments == 1 and ft_stats.segments == 1
        assert view_stats.records_appended - view_appended == len(view)

        index.close()
        view.close()
        return view_segmented, ft_segmented, view_ablation, ft_ablation, ft_bytes
    finally:
        engine.close()


def test_e15_segment_save_table(benchmark, tmp_path):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (5_000, 50_000):
            view_seg, ft_seg, view_abl, ft_abl, ft_bytes = run_cell(
                tmp_path, n_docs
            )
            segmented = view_seg + ft_seg
            ablation = view_abl + ft_abl
            rows.append([
                n_docs, DELTA,
                round(view_seg * 1000, 2), round(view_abl * 1000, 2),
                round(ft_seg * 1000, 2), round(ft_abl * 1000, 2),
                round(ablation / max(segmented, 1e-9), 1),
                round(ft_bytes / 1024, 1),
            ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E15  segment-stack checkpoint save vs whole-structure rewrite "
        f"(ms), delta fixed at 100, segmented saves the median of {SAVES}",
        ["docs", "delta", "view seg", "view rewrite",
         "ft seg", "ft rewrite", "rewrite/seg", "ft KB/save"],
        rows,
        note="a segmented save appends the delta; the ablation's save "
             "after a rebuild rewrites the whole structure at every size",
    )

    def cell(n):
        return next(r for r in rows if r[0] == n)

    # Headline: at 50k docs the rewrite-everything save costs >= 5x the
    # segmented one for the same 100-doc delta.
    assert cell(50_000)[6] >= 5, rows
    # The ablation is O(database): 10x the corpus, clearly bigger bill.
    assert cell(50_000)[3] > cell(5_000)[3] * 3, rows
    assert cell(50_000)[5] > cell(5_000)[5] * 3, rows
    # The segmented save is O(delta): flat within 2x across a 10x corpus
    # (1 ms floor keeps allocator noise out of the ratio).
    assert cell(50_000)[2] < max(cell(5_000)[2], 1.0) * 2, rows
    assert cell(50_000)[4] < max(cell(5_000)[4], 1.0) * 2, rows
