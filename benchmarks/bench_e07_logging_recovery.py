"""E7 — Transaction logging (the R5 feature) vs. force-at-commit.

Claims: (a) commit throughput with a write-ahead log beats forcing every
dirty page at commit — the sequential-log-write argument; (b) restart
recovery time scales with the log generated since the last checkpoint, so
more frequent checkpoints buy faster recovery; (c) a checkpoint costs what
changed since the last one, not the size of the store: it appends an
index delta to the ``.chk`` instead of rewriting the whole index; (d) a
note is one compact binary record (a marshal tuple with integer item
types), smaller than the JSON text of the same note, and opening a store
decodes each one without a JSON parse.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.bench.tables import print_table
from repro.core import NotesDatabase
from repro.sim import VirtualClock
from repro.storage import StorageEngine


# Modeled 1999-class disk: a random page write costs a seek (~8 ms); the
# log is written sequentially at ~15 MB/s. The benchmark host keeps its
# files on memory-backed storage where seeks are invisible, so the modeled
# column restores the physical effect the paper's claim rests on (see
# DESIGN.md, substitution table).
SEEK_MS = 8.0
LOG_MB_PER_S = 15.0


def commit_throughput(tmp_path, durability: str, n_txns: int = 100) -> dict:
    """Transactions update 10 scattered keys each (a typical note save
    touches the note, the note table, and several view-index pages): the
    force discipline must write every dirtied page at commit, the WAL
    discipline appends one sequential batch and flushes once."""
    import random

    engine = StorageEngine(str(tmp_path / f"tp-{durability}"),
                           durability=durability, pool_size=512)
    rng = random.Random(7)
    payload = b"x" * 600
    for index in range(400):
        engine.set(f"key-{index}".encode(), payload)
    if durability == "wal":
        engine.checkpoint()  # start the measured window with an empty log
    pages_before = engine._pages.page_writes
    log_before = engine._wal.end_lsn if engine._wal else 0
    writes = write_set_bytes = 0
    start = time.perf_counter()
    for _ in range(n_txns):
        txn = engine.begin()
        for __ in range(10):
            key = f"key-{rng.randrange(400)}".encode()
            engine.put(txn, key, payload)
        engine.commit(txn)
        writes += len(txn.writes)
        write_set_bytes += sum(
            len(key) + len(value) for key, value in txn.writes.items()
        )
    elapsed = time.perf_counter() - start
    log_bytes = (engine._wal.end_lsn if engine._wal else 0) - log_before
    if durability == "wal":
        # account the deferred page write-back a checkpoint would do
        engine.checkpoint()
    pages = engine._pages.page_writes - pages_before
    engine.close()
    modeled_ms = (
        pages * SEEK_MS + (log_bytes / (LOG_MB_PER_S * 1e6)) * 1000.0
    ) / n_txns
    return {
        "tps": n_txns / elapsed,
        "pages_per_commit": pages / n_txns,
        "log_bytes_per_commit": log_bytes / n_txns,
        "write_set_bytes_per_commit": write_set_bytes / n_txns,
        "log_framing_per_write": (log_bytes - write_set_bytes) / writes,
        "modeled_ms_per_commit": modeled_ms,
    }


def recovery_cost(tmp_path, txns_since_checkpoint: int, tag: str):
    engine = StorageEngine(str(tmp_path / f"rec-{tag}"))
    payload = b"y" * 400
    for index in range(50):
        engine.set(f"pre-{index}".encode(), payload)
    engine.checkpoint()
    for index in range(txns_since_checkpoint):
        engine.set(f"post-{index}".encode(), payload)
    engine.simulate_crash()
    start = time.perf_counter()
    recovered = StorageEngine(str(tmp_path / f"rec-{tag}"))
    elapsed = time.perf_counter() - start
    report = recovered.last_recovery
    assert recovered.get(b"post-0" if txns_since_checkpoint else b"pre-0")
    recovered.close()
    return elapsed, report.ops_replayed


def checkpoint_cost(tmp_path, n_keys: int, updates: int = 100) -> dict:
    """``.chk`` bytes one checkpoint writes, and its time, after
    ``updates`` keys of an ``n_keys`` store change. The store was closed
    cleanly and reopened first, so its ``.chk`` is a lone base."""
    path = str(tmp_path / f"chk-{n_keys}")
    engine = StorageEngine(path)
    for start in range(0, n_keys, 1000):
        txn = engine.begin()
        for index in range(start, min(start + 1000, n_keys)):
            engine.put(txn, b"key-%06d" % index, b"z" * 100)
        engine.commit(txn)
    engine.close()
    chk = path + ".chk"
    base = os.path.getsize(chk)
    engine = StorageEngine(path)
    for index in random.Random(n_keys).sample(range(n_keys), updates):
        engine.set(b"key-%06d" % index, b"u" * 100)
    start = time.perf_counter()
    engine.checkpoint()
    seconds = time.perf_counter() - start
    size = os.path.getsize(chk)
    # An appended delta grew the file; a rewrite replaced all of it.
    written = size - base if getattr(engine, "_delta_bytes", 0) else size
    engine.close()
    return {"base_bytes": base, "written": written, "ms": seconds * 1000}


def open_cost(tmp_path, n_notes: int) -> dict:
    """Build a store of ``n_notes`` 4-item memos (no log, then one
    checkpoint), then time opening it in ``wal`` mode: the engine plus
    the database's decode of every note record."""
    path = str(tmp_path / f"open-{n_notes}")
    engine = StorageEngine(path, durability="none")
    db = NotesDatabase("open.nsf", clock=VirtualClock(),
                       rng=random.Random(n_notes), engine=engine)
    for index in range(n_notes):
        db.clock.advance(1)
        db.create({"Form": "Memo", "Subject": f"memo {index} on the budget",
                   "Body": "quarterly figures and plans " * 24,
                   "Amount": index}, author="alice/Acme")
    engine.checkpoint()
    engine.close()
    start = time.perf_counter()
    engine = StorageEngine(path)
    reopened = NotesDatabase("open.nsf", clock=VirtualClock(),
                             rng=random.Random(1), engine=engine)
    seconds = time.perf_counter() - start
    assert len(reopened) == n_notes
    record_bytes = json_bytes = 0
    for seq, doc in reopened.journal_entries_since(0):
        record_bytes += len(engine.get(b"doc:" + doc.unid.encode()))
        # The JSON layout stores used before the binary record.
        json_bytes += len(json.dumps([seq, doc.to_dict()]).encode())
    engine.close()
    return {"ms": seconds * 1000, "record_bytes": record_bytes / n_notes,
            "json_bytes": json_bytes / n_notes}


def test_e07_commit_throughput_table(benchmark, tmp_path):
    rows = []

    def sweep():
        rows.clear()
        for durability in ("none", "wal", "force"):
            result = commit_throughput(tmp_path, durability)
            log = result["log_bytes_per_commit"]
            rows.append([
                durability,
                round(result["tps"]),
                round(result["pages_per_commit"], 1),
                round(result["log_bytes_per_commit"]),
                round(result["modeled_ms_per_commit"], 2),
                round(result["write_set_bytes_per_commit"]),
                round(result["log_framing_per_write"], 1) if log else "-",
            ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E7a  commit cost by durability mode (10 updates per txn)",
        ["mode", "commits/s (tmpfs)", "page writes/commit", "log B/commit",
         "modeled ms/commit (disk)", "write-set B/commit", "log framing B/write"],
        rows,
        note=f"modeled disk: {SEEK_MS} ms/page seek, "
             f"{LOG_MB_PER_S} MB/s sequential log — the 1999 physics the "
             "tmpfs timing column hides",
    )
    by_mode = {r[0]: r for r in rows}
    # Force writes every dirtied page at commit; WAL defers them and pays
    # sequential log bytes instead -> far cheaper on seek-bound disks.
    assert by_mode["force"][2] > 4 * by_mode["wal"][2]
    assert by_mode["wal"][4] < by_mode["force"][4] / 2
    assert by_mode["none"][1] >= by_mode["wal"][1]
    # The log holds each commit's write-set and little else: one record
    # per transaction, a few bytes of framing per write.
    assert by_mode["wal"][6] < 16


def test_e07_recovery_scales_with_log(benchmark, tmp_path):
    rows = []

    def sweep():
        rows.clear()
        for txns in (0, 100, 400, 1600):
            seconds, replayed = recovery_cost(tmp_path, txns, tag=str(txns))
            rows.append([txns, replayed, round(seconds * 1000, 2)])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E7b  restart recovery vs log since checkpoint",
        ["txns since ckpt", "ops replayed", "recovery ms"],
        rows,
        note="recovery work ~ log length; checkpoints bound restart time",
    )
    replayed = [r[1] for r in rows]
    assert replayed == sorted(replayed)
    assert rows[0][1] == 0  # checkpoint right before crash: nothing to redo
    assert rows[-1][2] > rows[0][2]


def test_e07_checkpoint_cost_table(benchmark, tmp_path):
    rows = []

    def sweep():
        rows.clear()
        for n_keys in (1_000, 10_000, 100_000):
            cost = checkpoint_cost(tmp_path, n_keys)
            rows.append([n_keys, cost["base_bytes"], cost["written"],
                         round(cost["ms"], 2)])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E7c  one checkpoint after a 100-key update, by store size",
        ["keys", ".chk base B", ".chk B written", "checkpoint ms"],
        rows,
        note="the checkpoint appends the index entries it changed; only a "
             "fold (deltas past half the base, or a clean close) rewrites "
             "the base",
    )
    by_keys = {r[0]: r for r in rows}
    # Flat in the store size: the 100k store's checkpoint writes what the
    # 1k store's does, not 100 times more.
    assert by_keys[100_000][2] <= 2 * by_keys[1_000][2]
    assert by_keys[100_000][2] < by_keys[100_000][1] / 50


def test_e07_open_time_table(benchmark, tmp_path):
    rows = []

    def sweep():
        rows.clear()
        for n_notes in (1_000, 5_000, 20_000):
            cost = open_cost(tmp_path, n_notes)
            rows.append([n_notes, round(cost["ms"], 1),
                         round(cost["ms"] * 1000 / n_notes, 1),
                         round(cost["record_bytes"]),
                         round(cost["json_bytes"])])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E7d  opening a store, by note count (4-item memos)",
        ["notes", "open ms", "us/note", "record B/note", "JSON B/note"],
        rows,
        note="each note is one marshal record with integer item types; "
             "the JSON column is the same notes in the layout older stores "
             "used. Times are host-dependent and not asserted",
    )
    # Only the bytes are asserted: the binary record is smaller than the
    # JSON text of the same note at every size.
    for row in rows:
        assert row[3] < row[4]


def test_e07_wal_commit_speed(benchmark, tmp_path):
    engine = StorageEngine(str(tmp_path / "speed-wal"))
    counter = {"i": 0}

    def one_commit():
        counter["i"] += 1
        engine.set(f"k{counter['i']}".encode(), b"v" * 256)

    benchmark(one_commit)
    engine.close()


def test_e07_force_commit_speed(benchmark, tmp_path):
    engine = StorageEngine(str(tmp_path / "speed-force"), durability="force")
    counter = {"i": 0}

    def one_commit():
        counter["i"] += 1
        engine.set(f"k{counter['i']}".encode(), b"v" * 256)

    benchmark(one_commit)
    engine.close()
