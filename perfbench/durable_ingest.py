"""durable_ingest: one writer against a WAL-logged NSF with persisted indexes.

A seeded create/update/delete mix (30/40/30, uniformly chosen victims, so
the population holds steady) goes through ``NotesDatabase`` on a
``StorageEngine`` with durability ``"wal"`` (one fsync per commit). The
database carries one persisted auto-mode view and one persisted full-text
index. Every 200 writes the writer purges the deletion stubs older than
the previous checkpoint (untimed), then calls ``db.save_checkpoints()``
and ``engine.checkpoint()``, timed as one checkpoint. The heap (3000
memos, about 12 MiB) is many times the 256-page (1 MiB) buffer pool, so
before-image reads miss. The schedule is timed in three passes, each on
a fresh copy of the store. The run ends with close, timed reopens, and
verification. After each reopen an untraced probe pass pages the
disk-loaded view and searches the full-text index; last, an in-memory
standby pulls a few rounds of writes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from common import (
    MEMO_SELECTION,
    Corpus,
    Session,
    copy_store,
    exact_mix,
    memo_columns,
    payload_bytes,
    probe_reads,
    probe_standby,
    read_plan,
    words_of,
)

N_DOCS = 3000
CHECKPOINT_EVERY = 200  # writes
MIX = {"create": 0.3, "update": 0.4, "delete": 0.3}
CHECKPOINTS = 16  # the timed schedule: 3200 writes
# Rounds played untimed on the base store. After them the view's and the
# full-text index's segment stacks hold MergePolicy.max_segments (8)
# segments, so every timed checkpoint folds, as on a long-running server.
# Without them the first 7 timed checkpoints cost half the rest, and
# checkpoint_p50_ms sat on that step.
WARMUP = 8
POOL_PAGES = 256
REOPENS = 9  # reopen_s is the median of this many close-and-reopen cycles
READS = 45  # probe page reads and searches after each reopen
SYNCS = 400  # probe standby pulls
TITLE = "ingest.nsf"
VIEW = "ByCategory"


@dataclass
class _State:
    engine: object
    db: object
    view: object
    index: object
    # The model: writer slot -> UNID, UNID -> Subject and searchable words.
    unid_of: dict
    subject: dict
    words: dict
    purge_before: float
    payload: int = 0


class DurableIngest:
    name = "durable_ingest"
    # Timed passes of the schedule, each on a fresh copy of the store: a
    # write's time is its fastest of the three. Shared disks and hosts
    # have slow stretches of seconds that, in a single pass, moved p99_ms
    # by 30% from run to run.
    replays = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.corpus = Corpus(rng, N_DOCS)
        self.op_seed = rng.getrandbits(64)
        self.db_seed = rng.getrandbits(64)
        self.workdir = workdir
        schedule = self.operations()
        split = WARMUP * (CHECKPOINT_EVERY + 1)
        self.schedule = schedule[split:]
        self._build_base(schedule[:split])

    def _open(self, path: Path, rng_offset: int):
        from repro.core import NotesDatabase
        from repro.fulltext import FullTextIndex
        from repro.sim.clock import VirtualClock
        from repro.storage import StorageEngine
        from repro.views import View

        engine = StorageEngine(str(path), pool_size=POOL_PAGES, durability="wal")
        db = NotesDatabase(TITLE, clock=VirtualClock(self.clock_start),
                           rng=random.Random(self.db_seed + rng_offset),
                           replica_id=self.replica_id, engine=engine)
        view = View(db, VIEW, selection=MEMO_SELECTION, columns=memo_columns(True),
                    persist=True)
        return engine, db, view, FullTextIndex(db, persist=True)

    def _build_base(self, warmup: list[tuple]) -> None:
        """The store every pass starts from: the corpus, persisted indexes,
        then the ``warmup`` rounds played untimed."""
        from repro.core import NotesDatabase
        from repro.fulltext import FullTextIndex
        from repro.sim.clock import VirtualClock
        from repro.storage import StorageEngine
        from repro.views import View

        self.base = self.workdir / "base"
        engine = StorageEngine(str(self.base), durability="none")
        db = NotesDatabase(TITLE, clock=VirtualClock(), rng=random.Random(self.db_seed),
                           engine=engine)
        self.replica_id = db.replica_id
        unids = []
        for items in self.corpus.docs:
            db.clock.advance(0.01)
            unids.append(db.create(items, author="loader").unid)
        view = View(db, VIEW, selection=MEMO_SELECTION, columns=memo_columns(True),
                    persist=True)
        index = FullTextIndex(db, persist=True)
        db.save_checkpoints()
        docs = self.corpus.docs
        base = _State(engine, db, view, index, unid_of=dict(enumerate(unids)),
                      subject={u: d["Subject"] for u, d in zip(unids, docs)},
                      words={u: words_of(d) for u, d in zip(unids, docs)},
                      purge_before=db.clock.now)
        played = Session(float("inf"))
        self._loop(base, played, warmup)
        if played.failed:
            raise RuntimeError("the warm-up rounds failed")
        self.clock_start = db.clock.now + 1.0
        engine.close()
        self.unid_of, self.subjects, self.words = base.unid_of, base.subject, base.words

    def stage(self, index: int) -> Path:
        path = self.workdir / f"run{index}"
        copy_store(self.base, path)
        return path

    def setup(self, path: Path) -> _State:
        engine, db, view, index = self._open(path, 1)
        return _State(engine, db, view, index, unid_of=dict(self.unid_of),
                      subject=dict(self.subjects), words=dict(self.words),
                      purge_before=self.clock_start)

    def teardown(self, state: _State) -> None:
        state.db.close()

    # -- the write schedule -------------------------------------------------------

    def operations(self) -> list[tuple]:
        """(kind, slot, items): rounds of 200 writes, each then a checkpoint.

        Each round holds exactly the create/update/delete shares, shuffled.
        The generator keeps its own list of live slots, so victims are
        uniform over live documents without asking the database.
        """
        rng = random.Random(self.op_seed)
        live = list(range(N_DOCS))
        next_slot = N_DOCS
        schedule = []
        for _ in range(WARMUP + CHECKPOINTS):
            for kind in exact_mix(MIX, CHECKPOINT_EVERY, rng):
                if kind == "create":
                    live.append(next_slot)
                    next_slot += 1
                    schedule.append((kind, live[-1], self.corpus.memo(live[-1], rng)))
                elif kind == "update":
                    slot = live[rng.randrange(len(live))]
                    items = {"Body": self.corpus.body(rng)}
                    if rng.random() < 0.5:
                        items["Subject"] = self.corpus.subject(rng, slot)
                    schedule.append((kind, slot, items))
                else:
                    position = rng.randrange(len(live))
                    live[position], live[-1] = live[-1], live[position]
                    schedule.append((kind, live.pop(), None))
            schedule.append(("checkpoint", None, None))
        return schedule

    # -- the measured loop --------------------------------------------------------

    def run(self, state: _State, session: Session) -> None:
        session.start()
        self._loop(state, session, self.schedule)
        session.stop()

    def _loop(self, state: _State, session: Session, schedule: list[tuple]) -> None:
        db = state.db
        for kind, slot, items in schedule:
            if not session.running():
                break
            if kind == "checkpoint":
                # Stubs older than the previous checkpoint are purged, as a
                # server's purge interval would, so the store reaches a
                # steady size whatever the run length. Untimed: the purge
                # is a transaction of its own, not checkpoint work.
                db.purge_stubs(older_than=state.purge_before)
                state.purge_before = db.clock.now
                session.measure("checkpoint", self._checkpoint, state)
                continue
            db.clock.advance(0.01)
            if kind == "create":
                doc = session.op("create", db.create, items, author="writer")
                if session.check(doc is not None, "create failed"):
                    state.unid_of[slot] = doc.unid
                    state.subject[doc.unid] = items["Subject"]
                    state.words[doc.unid] = words_of(items)
                state.payload += payload_bytes(items)
            elif kind == "update":
                unid = state.unid_of[slot]
                doc = session.op("edit", db.update, unid, items, author="writer")
                session.check(doc is not None and doc.get("Body") == items["Body"],
                              f"update of {unid} did not apply")
                state.subject[unid] = items.get("Subject", state.subject[unid])
                state.words[unid] = words_of({"Subject": state.subject[unid],
                                              "Body": items["Body"]})
                state.payload += payload_bytes(items)
            else:
                unid = state.unid_of.pop(slot)
                session.op("delete", db.delete, unid, author="writer")
                session.check(unid not in db, f"delete of {unid} did not apply")
                state.words.pop(unid, None)
                state.subject.pop(unid, None)
                state.payload += len(unid)

    @staticmethod
    def _checkpoint(state: _State) -> None:
        state.db.save_checkpoints()
        state.engine.checkpoint()

    # -- end of run: close, reopen, verify ---------------------------------------------

    @staticmethod
    def _check_rebuild(session: Session, db, view, index) -> None:
        from repro.fulltext import FullTextIndex
        from repro.views import View

        fresh_view = View(db, "fresh", selection=MEMO_SELECTION, columns=memo_columns(True))
        fresh_index = FullTextIndex(db)
        session.check(
            [(e.unid, e.values, e.level) for e in view.entries()]
            == [(e.unid, e.values, e.level) for e in fresh_view.entries()],
            "loaded view differs from a fresh rebuild")
        session.check(index.postings_snapshot() == fresh_index.postings_snapshot(),
                      "loaded full-text index differs from a fresh rebuild")
        fresh_view.close()
        fresh_index.close()

    def finish(self, state: _State, session: Session, path: Path) -> dict[str, float]:
        count, fingerprint = len(state.db), state.db.state_fingerprint()
        plan = read_plan(self.corpus, state.words, READS, len(state.view),
                         random.Random(self.op_seed + 1))
        self.teardown(state)
        # Reopens alternate with probe passes, so that both spread over
        # seconds of the run rather than falling into one slow stretch.
        for attempt in range(REOPENS):
            # Each close writes the store: let the kernel write it back
            # before the timed reopen reads it.
            os.sync()
            reopened = session.measure("reopen", self._open, path, 2 + attempt,
                                       trace=None if attempt else "reopen")
            if reopened is None:
                raise RuntimeError("reopen failed")
            engine, db, view, index = reopened
            session.check(len(db) == count and db.state_fingerprint() == fingerprint,
                          "reopened database differs from the one closed")
            session.check(view.loaded_from_disk and index.loaded_from_disk,
                          "reopen rebuilt an index instead of loading it")
            if attempt == 0:
                self._check_rebuild(session, db, view, index)
            probe_reads(session, view, index, plan)
            if attempt < REOPENS - 1:
                db.close()
        # The reopened clock restarts where the set-up's did: move it past
        # every write of the loop before the standby's rounds write.
        db.clock.advance(0.01 * len(self.schedule) + 1.0)
        metrics = probe_standby(session, db, SYNCS, "writer")
        engine.close()
        return {
            **metrics,
            "view_p50_ms": session.p50("view"),
            "search_p50_ms": session.p50("search"),
            "edit_p50_ms": session.p50("edit"),
            "checkpoint_p50_ms": session.p50("checkpoint"),
            "reopen_s": session.median_s("reopen"),
            "write_amp": session.bytes_written / max(state.payload, 1),
        }
