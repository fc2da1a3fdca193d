"""Tests for the transactional storage engine."""

import random

import pytest

from repro.core import DeletionStub, NotesDatabase
from repro.errors import StorageError, WalError
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.storage.pages import PAGE_SIZE


@pytest.fixture
def engine(tmp_path):
    eng = StorageEngine(str(tmp_path / "db"))
    yield eng
    if eng._open:
        eng.close()


class TestBasics:
    def test_set_get(self, engine):
        engine.set(b"k", b"v")
        assert engine.get(b"k") == b"v"

    def test_missing_key_gives_none(self, engine):
        assert engine.get(b"nope") is None

    def test_overwrite(self, engine):
        engine.set(b"k", b"v1")
        engine.set(b"k", b"v2")
        assert engine.get(b"k") == b"v2"

    def test_remove(self, engine):
        engine.set(b"k", b"v")
        engine.remove(b"k")
        assert engine.get(b"k") is None
        assert b"k" not in engine

    def test_empty_value(self, engine):
        engine.set(b"empty", b"")
        assert engine.get(b"empty") == b""
        assert b"empty" in engine

    def test_large_value_chunked_across_pages(self, engine):
        blob = bytes(range(256)) * 200  # ~51 KB, spans many pages
        engine.set(b"blob", blob)
        assert engine.get(b"blob") == blob

    def test_len_and_keys(self, engine):
        engine.set(b"a", b"1")
        engine.set(b"b", b"2")
        assert len(engine) == 2
        assert set(engine.keys()) == {b"a", b"b"}

    def test_bad_durability_mode_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            StorageEngine(str(tmp_path / "x"), durability="fsync-maybe")

    def test_closed_engine_rejects_io(self, tmp_path):
        engine = StorageEngine(str(tmp_path / "c"))
        engine.close()
        with pytest.raises(StorageError):
            engine.get(b"k")


class TestTransactions:
    def test_uncommitted_writes_invisible(self, engine):
        txn = engine.begin()
        engine.put(txn, b"k", b"v")
        assert engine.get(b"k") is None
        assert engine.get(b"k", txn) == b"v"

    def test_commit_publishes(self, engine):
        txn = engine.begin()
        engine.put(txn, b"k", b"v")
        engine.commit(txn)
        assert engine.get(b"k") == b"v"

    def test_abort_discards(self, engine):
        txn = engine.begin()
        engine.put(txn, b"k", b"v")
        engine.abort(txn)
        assert engine.get(b"k") is None

    def test_transactional_delete(self, engine):
        engine.set(b"k", b"v")
        txn = engine.begin()
        engine.delete(txn, b"k")
        assert engine.get(b"k") == b"v"  # still visible to others
        assert engine.get(b"k", txn) is None
        engine.commit(txn)
        assert engine.get(b"k") is None

    def test_multi_key_atomicity(self, engine):
        txn = engine.begin()
        engine.put(txn, b"a", b"1")
        engine.put(txn, b"b", b"2")
        engine.delete(txn, b"c")  # delete of missing key: tolerated at commit
        engine.commit(txn)
        assert engine.get(b"a") == b"1" and engine.get(b"b") == b"2"

    def test_use_after_commit_rejected(self, engine):
        txn = engine.begin()
        engine.put(txn, b"k", b"v")
        engine.commit(txn)
        with pytest.raises(WalError):
            engine.put(txn, b"k2", b"v2")

    def test_use_after_abort_rejected(self, engine):
        txn = engine.begin()
        engine.abort(txn)
        with pytest.raises(WalError):
            engine.commit(txn)

    def test_last_write_wins_within_txn(self, engine):
        txn = engine.begin()
        engine.put(txn, b"k", b"first")
        engine.put(txn, b"k", b"second")
        engine.commit(txn)
        assert engine.get(b"k") == b"second"


class TestSpaceReuse:
    def test_deleted_space_reused(self, engine):
        for round_number in range(5):
            for index in range(50):
                engine.set(f"k{index}".encode(), b"x" * 500)
            for index in range(50):
                engine.remove(f"k{index}".encode())
        # 5 rounds of 50 x 500B fit comfortably if space is reused.
        assert engine._pages.page_count < 40

    def test_many_keys(self, engine):
        for index in range(500):
            engine.set(f"key-{index:04d}".encode(), f"value {index}".encode())
        assert len(engine) == 500
        assert engine.get(b"key-0250") == b"value 250"


class TestWritePath:
    """A note change is one transaction: one log force, whatever the pool
    holds, and chunk placement fetches one existing page at most."""

    @pytest.fixture
    def notes(self, tmp_path):
        # A heap many times the 8-page pool: the oldest notes' pages have
        # been evicted, and the pool's frames are dirty.
        engine = StorageEngine(str(tmp_path / "nsf"), pool_size=8)
        db = NotesDatabase("write.nsf", clock=VirtualClock(),
                           rng=random.Random(7), engine=engine)
        for index in range(30):
            db.clock.advance(1)
            db.create({"Subject": f"memo {index}", "Body": "x" * 1500})
        yield engine, db
        engine.close()

    @pytest.mark.parametrize(
        "operation", ["create", "update", "delete", "raw_put", "raw_delete"]
    )
    def test_one_fsync_per_note_change(self, notes, operation):
        engine, db = notes
        gone = db.unids()[-1]
        revived = db.get(gone).copy()
        db.delete(gone)
        db.clock.advance(1)
        now, tick = db.clock.timestamp()
        revived.bump_revision((now, tick), "peer")
        # A note whose page is not in the pool: reading it would evict a
        # dirty frame, and that write-back forces the log first.
        cold = next(
            unid for unid in db.unids()
            if engine._index[b"doc:" + unid.encode()][0][0] not in engine._pool._frames
        )
        stub = DeletionStub(cold, db.get(cold).seq + 1, (now, tick), now, "peer")
        writes = {
            "create": lambda: db.create({"Subject": "new", "Body": "y" * 1500}),
            "update": lambda: db.update(cold, {"Body": "z" * 1700}),
            "delete": lambda: db.delete(cold),
            "raw_put": lambda: db.raw_put(revived),
            "raw_delete": lambda: db.raw_delete(stub),
        }
        flushes = engine._wal.flushes
        writes[operation]()
        assert engine._wal.flushes - flushes == 1

    def test_note_records_stay_on_the_page_already_written(self, notes):
        """A new note's ``doc:`` and ``seq:`` records share a page, and an
        update rewrites each in the hole its old value left, so a note
        change dirties no page beyond the ones it must."""
        engine, db = notes

        def pages(unid):
            return [
                [page for page, _ in engine._index[prefix + unid.encode()]]
                for prefix in (b"doc:", b"seq:")
            ]

        doc = db.create({"Subject": "new", "Body": "y" * 1500})
        before = pages(doc.unid)
        assert before[0] == before[1]
        for unid in (doc.unid, db.unids()[0]):
            before = pages(unid)
            db.clock.advance(1)
            db.update(unid, {"Body": "z" * 1400})
            assert pages(unid) == before

    def test_mixed_size_churn_reuses_space(self, tmp_path):
        engine = StorageEngine(str(tmp_path / "churn"), pool_size=16)
        rng = random.Random(11)
        live: dict[bytes, int] = {}
        peak = 0
        inserts = []

        def count_fetches(insert):
            def counted(chunk):
                before = engine._pool.hits + engine._pool.misses
                location = insert(chunk)
                inserts.append(engine._pool.hits + engine._pool.misses - before)
                return location
            return counted

        # Fresh pages come from new_page, not fetch: a fetch is a probe of
        # an existing page.
        engine._insert_chunk = count_fetches(engine._insert_chunk)
        for _ in range(3000):
            if len(live) > 20 and rng.random() < 0.5:
                key = rng.choice(sorted(live))
                engine.remove(key)
                del live[key]
            else:
                key = f"k{rng.randrange(60)}".encode()
                value = b"v" * rng.randint(300, 3000)
                engine.set(key, value)
                live[key] = len(value)
            peak = max(peak, sum(live.values()))
        assert engine._pages.page_count <= 1.5 * peak / PAGE_SIZE + 4
        assert max(inserts) <= 1
        for key, length in live.items():
            assert len(engine.get(key)) == length
        engine.close()

    def test_stale_free_estimate_is_refiled(self, engine):
        engine.set(b"a", b"a" * 3000)
        engine.set(b"b", b"b" * 3000)
        (page_a, _), = engine._index[b"a"]
        # A figure that is too high (a crash can leave one) sends the
        # probe to a page that does not fit; placement re-files it and
        # carries on.
        engine._set_free(page_a, 4000)
        engine.set(b"c", b"c" * 3000)
        assert engine._index[b"c"][0][0] != page_a
        assert engine._free[page_a] < 3000
        assert engine.get(b"a") == b"a" * 3000
        assert engine.get(b"c") == b"c" * 3000


class TestDurabilityModes:
    def test_force_mode_survives_reopen(self, tmp_path):
        engine = StorageEngine(str(tmp_path / "f"), durability="force")
        engine.set(b"k", b"v")
        engine.close()
        reopened = StorageEngine(str(tmp_path / "f"), durability="force")
        assert reopened.get(b"k") == b"v"
        reopened.close()

    def test_none_mode_works_in_memory(self, tmp_path):
        engine = StorageEngine(str(tmp_path / "n"), durability="none")
        engine.set(b"k", b"v")
        assert engine.get(b"k") == b"v"
        engine.close()
