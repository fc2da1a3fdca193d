"""E5 — Incremental view-index maintenance vs. full rebuild.

Claim: keeping the view index up to date from change events costs O(delta ·
log n), while a rebuild costs O(n log n); so for small deltas the
incremental path wins by orders of magnitude and the gap grows with
database size.
"""

from __future__ import annotations

import gc
import time

from repro.bench.runners import build_deployment, populate
from repro.bench.tables import print_table
from repro.views import SortOrder, View, ViewColumn


def make_view(db, mode):
    return View(
        db,
        "bench",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Categories", item="Categories", categorized=True),
            ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
        mode=mode,
    )


def run_cell(n_docs: int, delta: int):
    deployment = build_deployment(1, seed=n_docs)
    db = deployment.databases[0]
    populate(db, n_docs, deployment.rng, advance=0.0)
    incremental_view = make_view(db, "auto")
    # Timed through rebuild(), not refresh(): a refresh would top up
    # from the checkpoint (E14), and this row is the rebuild baseline.
    manual_view = make_view(db, "manual")
    unids = db.unids()

    # Collect before each timed section, so a gen-2 collection of what
    # earlier cells (or earlier benchmark files) allocated never lands
    # inside it.
    gc.collect()
    start = time.perf_counter()
    for index in range(delta):
        db.update(unids[index], {"Subject": f"moved {index}"})
    incremental_seconds = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    manual_view.rebuild()
    rebuild_seconds = time.perf_counter() - start
    assert incremental_view.all_unids() == manual_view.all_unids()
    return incremental_seconds, rebuild_seconds


def test_e05_table(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (500, 2000):
            for delta in (1, 20):
                incremental, rebuild = run_cell(n_docs, delta)
                rows.append([
                    n_docs, delta,
                    round(incremental * 1000, 3), round(rebuild * 1000, 3),
                    round(rebuild / max(incremental, 1e-9), 1),
                ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E5  view maintenance: incremental vs rebuild (ms)",
        ["docs", "delta", "incremental ms", "rebuild ms", "rebuild/incr"],
        rows,
        note="incremental scales with delta; rebuild scales with db size",
    )

    def cell(n, d):
        return next(r for r in rows if r[0] == n and r[1] == d)

    assert all(r[4] > 2 for r in rows), "incremental must win everywhere"
    # rebuild grows with n at fixed delta; ratio grows with n
    assert cell(2000, 1)[3] > cell(500, 1)[3]
    assert cell(2000, 1)[4] > cell(500, 1)[4]


def test_e05_warm_open_table(benchmark, tmp_path):
    """View-open cost: rebuild (cold) vs loading the persisted index (warm)
    — why the NSF stored view indexes."""
    import random

    from repro.core import NotesDatabase
    from repro.sim import VirtualClock
    from repro.storage import StorageEngine

    rows = []

    def persisted_view(db, persist):
        return View(
            db, "Persisted",
            selection='SELECT Form = "Memo"',
            columns=[
                ViewColumn(title="Categories", item="Categories",
                           categorized=True),
                ViewColumn(title="Subject", item="Subject",
                           sort=SortOrder.ASCENDING),
            ],
            persist=persist,
        )

    def sweep():
        rows.clear()
        for n_docs in (500, 2000):
            path = str(tmp_path / f"warm{n_docs}")
            engine = StorageEngine(path)
            db = NotesDatabase("w.nsf", clock=VirtualClock(),
                               rng=random.Random(n_docs), engine=engine)
            populate(db, n_docs, random.Random(1), advance=0.0)
            view = persisted_view(db, persist=True)
            expected = view.all_unids()
            view.close()
            engine.close()

            # Both opens are timed on the reopened database, interleaved,
            # so a slow stretch of the host slows both alike.
            engine = StorageEngine(path)
            db = NotesDatabase("w.nsf", clock=VirtualClock(),
                               rng=random.Random(2), engine=engine)
            cold_times, warm_times = [], []
            for _ in range(5):
                gc.collect()
                start = time.perf_counter()
                view = persisted_view(db, persist=True)
                warm_times.append(time.perf_counter() - start)
                assert view.loaded_from_disk
                assert view.all_unids() == expected
                gc.collect()
                start = time.perf_counter()
                view.rebuild()
                cold_times.append(time.perf_counter() - start)
                assert view.all_unids() == expected
                # Detach without saving: the next round loads the same index.
                db.unsubscribe(view._on_change)
                db.unregister_checkpointer(view._meta_key)
            engine.close()
            cold = min(cold_times)
            warm_seconds = min(warm_times)
            rows.append([
                n_docs, round(cold * 1000, 2), round(warm_seconds * 1000, 2),
                round(cold / max(warm_seconds, 1e-9), 1),
            ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E5b  view open: cold rebuild vs persisted index load (ms)",
        ["docs", "cold open ms", "warm open ms", "cold/warm"],
        rows,
        note="a stored view index skips formula evaluation and sorting",
    )
    assert all(r[3] > 1.5 for r in rows)


def test_e05_incremental_update_speed(benchmark):
    deployment = build_deployment(1, seed=55)
    db = deployment.databases[0]
    populate(db, 1000, deployment.rng, advance=0.0)
    view = make_view(db, "auto")
    unids = db.unids()
    counter = {"i": 0}

    def one_update():
        counter["i"] += 1
        db.update(unids[counter["i"] % 1000],
                  {"Subject": f"s{counter['i']}"})

    benchmark(one_update)
    assert len(view) == 1000


def test_e05_rebuild_speed(benchmark):
    deployment = build_deployment(1, seed=56)
    db = deployment.databases[0]
    populate(db, 1000, deployment.rng, advance=0.0)
    view = make_view(db, "manual")
    benchmark(view.rebuild)
