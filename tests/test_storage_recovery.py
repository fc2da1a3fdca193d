"""Crash-recovery tests: the WAL discipline actually holds."""

import json
import os
import struct
import zlib

import pytest

from repro.errors import StorageError, WalError
from repro.storage import StorageEngine
from repro.storage import engine as engine_mod
from repro.storage.pages import PAGE_SIZE


def reopen(tmp_path, name="db", **kw):
    return StorageEngine(str(tmp_path / name), **kw)


class TestCrashRecovery:
    def test_committed_survive_crash(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"a", b"1")
        engine.set(b"b", b"2")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.get(b"a") == b"1"
        assert recovered.get(b"b") == b"2"
        recovered.close()

    def test_uncommitted_lost_on_crash(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"keep", b"yes")
        txn = engine.begin()
        engine.put(txn, b"lose", b"no")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.get(b"keep") == b"yes"
        assert recovered.get(b"lose") is None
        recovered.close()

    def test_aborted_txn_not_replayed(self, tmp_path):
        engine = reopen(tmp_path)
        txn = engine.begin()
        engine.put(txn, b"k", b"v")
        engine.abort(txn)
        engine.set(b"other", b"x")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.get(b"k") is None
        assert recovered.get(b"other") == b"x"
        recovered.close()

    def test_delete_survives_crash(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"k", b"v")
        engine.remove(b"k")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.get(b"k") is None
        recovered.close()

    def test_recovery_report_counts(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"a", b"1")
        engine.set(b"b", b"2")
        engine.remove(b"a")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        report = recovered.last_recovery
        assert report.committed_txns == 3
        assert report.puts_replayed == 2
        assert report.deletes_replayed == 1
        recovered.close()

    def test_checkpoint_truncates_log(self, tmp_path):
        engine = reopen(tmp_path)
        for index in range(20):
            engine.set(f"k{index}".encode(), b"v")
        engine.checkpoint()
        assert engine._wal.end_lsn == 0
        engine.set(b"after", b"chk")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.last_recovery.committed_txns == 1  # only post-ckpt
        assert recovered.get(b"k7") == b"v"
        assert recovered.get(b"after") == b"chk"
        recovered.close()

    def test_multiple_crash_cycles(self, tmp_path):
        expected = {}
        for cycle in range(5):
            engine = reopen(tmp_path)
            for key, value in expected.items():
                assert engine.get(key) == value, f"cycle {cycle}"
            key = f"cycle-{cycle}".encode()
            engine.set(key, str(cycle).encode() * 10)
            expected[key] = str(cycle).encode() * 10
            if cycle % 2 == 0:
                engine.checkpoint()
            engine.simulate_crash()
        final = reopen(tmp_path)
        for key, value in expected.items():
            assert final.get(key) == value
        final.close()

    def test_update_before_crash_keeps_latest(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"k", b"old")
        engine.checkpoint()
        engine.set(b"k", b"new")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.get(b"k") == b"new"
        recovered.close()

    def test_large_value_recovery(self, tmp_path):
        blob = b"\x42" * 30_000
        engine = reopen(tmp_path)
        engine.set(b"blob", blob)
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.get(b"blob") == blob
        recovered.close()

    def test_clean_close_then_open_has_no_log_work(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"k", b"v")
        engine.close()
        recovered = reopen(tmp_path)
        assert recovered.last_recovery.committed_txns == 0
        assert recovered.get(b"k") == b"v"
        recovered.close()


class TestCommitRecord:
    def test_open_transaction_logs_nothing_and_commit_logs_one_record(
        self, tmp_path, monkeypatch
    ):
        engine = reopen(tmp_path, pool_size=2)
        for index in range(20):
            engine.set(b"k%d" % index, bytes([index]) * 3000)
        wal = engine._wal
        end, appends = wal.end_lsn, wal.appends
        txn = engine.begin()
        engine.put(txn, b"new", b"n" * 3000)
        engine.delete(txn, b"k3")
        # Reads through the transaction evict the dirty pages the
        # autocommits above left; the write-ahead hook finds nothing new.
        writes_before = engine._pages.page_writes
        for index in range(10):
            engine.get(b"k%d" % index, txn)
        assert engine._pages.page_writes > writes_before
        assert (wal.end_lsn, wal.appends) == (end, appends)
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        engine.commit(txn)
        assert wal.appends == appends + 1
        assert len(fsyncs) == 1
        empty = engine.begin()
        end = wal.end_lsn
        engine.commit(empty)
        assert wal.end_lsn == end and len(fsyncs) == 1
        engine.close()

    def test_uncommitted_write_never_resurrects(self, tmp_path):
        """An open transaction whose reads evict a dirty page, then a crash,
        then two more commits and a crash: its write must stay lost."""
        engine = reopen(tmp_path, pool_size=2)
        for index in range(20):
            engine.set(b"k%d" % index, b"v" * 3000)
        engine.checkpoint()
        engine.set(b"k0", b"w" * 3000)  # dirties a page
        txn = engine.begin()
        engine.put(txn, b"ghost", b"never committed")
        for index in range(15, 20):
            engine.get(b"k%d" % index, txn)
        engine.simulate_crash()
        engine = reopen(tmp_path, pool_size=2)
        engine.set(b"a", b"1")
        engine.set(b"b", b"2")
        engine.simulate_crash()
        recovered = reopen(tmp_path, pool_size=2)
        assert recovered.get(b"ghost") is None
        assert recovered.get(b"k0") == b"w" * 3000
        assert recovered.get(b"b") == b"2"
        recovered.close()

    def test_torn_tail_does_not_break_the_next_recovery(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"a", b"1")
        engine.set(b"b", b"2")
        engine.simulate_crash()
        wal_path = str(tmp_path / "db.wal")
        os.truncate(wal_path, os.path.getsize(wal_path) - 3)
        engine = reopen(tmp_path)
        assert engine.get(b"a") == b"1"
        assert engine.get(b"b") is None  # its commit never completed
        engine.set(b"c", b"3")
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert recovered.get(b"a") == b"1"
        assert recovered.get(b"c") == b"3"
        recovered.close()

    def test_replay_never_frees_a_slot_eviction_reused(self, tmp_path):
        """Dirty pages written back after the checkpoint free and reuse
        slots the checkpoint's index still names; replaying the log must
        not delete another key's chunk through those stale locations."""
        engine = reopen(tmp_path, pool_size=2)
        txn = engine.begin()
        for key, size in ((b"k3", 338), (b"k2", 117), (b"k4", 3000), (b"k1", 622)):
            engine.put(txn, key, key[1:] * size)
        engine.commit(txn)
        engine.simulate_crash()
        engine = reopen(tmp_path, pool_size=2)
        txn = engine.begin()
        engine.put(txn, b"k0", b"0" * 2179)
        engine.put(txn, b"k2", b"2" * 52)
        engine.commit(txn)
        txn = engine.begin()
        engine.put(txn, b"k3", b"3" * 1025)
        engine.delete(txn, b"k0")
        engine.commit(txn)
        engine.simulate_crash()
        recovered = reopen(tmp_path, pool_size=2)
        assert {key: recovered.get(key) for key in recovered.keys()} == {
            b"k1": b"1" * 622, b"k2": b"2" * 52,
            b"k3": b"3" * 1025, b"k4": b"4" * 3000,
        }
        recovered.close()
        reopened = reopen(tmp_path, pool_size=2)
        assert reopened.get(b"k2") == b"2" * 52
        reopened.close()


class CrashPoint(Exception):
    """Injected failure standing in for the process dying mid-write."""


def arm(engine, fail_at=None, points=("_pages.write", "_pages.sync",
                                       "_persist_index", "_free_locations")):
    """Count calls to the engine's write points; raise CrashPoint on the
    ``fail_at``-th. With ``fail_at=None`` it only counts.

    The default points are those of a ``force`` commit: each page
    write-back, the heap fsync, the ``.chk`` delta append, and the frees
    of the before-image slots that follow it.
    """
    counter = {"n": 0}
    for point in points:
        owner_name, _, attr = point.rpartition(".")
        owner = getattr(engine, owner_name) if owner_name else engine
        original = getattr(owner, attr)

        def inner(*args, original=original, **kwargs):
            counter["n"] += 1
            if fail_at is not None and counter["n"] == fail_at:
                raise CrashPoint(f"write point {fail_at}")
            return original(*args, **kwargs)

        setattr(owner, attr, inner)
    return counter


def contents(engine):
    return {key: engine.get(key) for key in engine.keys()}


def live_slots(engine):
    """Live heap slots across every page (each should be some key's chunk)."""
    count = 0
    for page_id in range(1, engine._pages.page_count + 1):
        count += len(engine._pool.fetch(page_id).slots())
        engine._pool.unpin(page_id)
    return count


class TestForceMode:
    def test_committed_writes_survive_a_crash(self, tmp_path):
        engine = reopen(tmp_path, durability="force")
        engine.set(b"a", b"1")
        engine.checkpoint()
        engine.set(b"b", b"2")
        engine.set(b"a", b"3")
        engine.simulate_crash()
        recovered = reopen(tmp_path, durability="force")
        assert contents(recovered) == {b"a": b"3", b"b": b"2"}
        recovered.close()

    @staticmethod
    def force_scenario(path):
        """A force store of single- and multi-chunk values behind a
        2-page pool, and the commit under test: updates (one growing past
        a page), a delete and an insert."""
        engine = StorageEngine(path, durability="force", pool_size=2)
        for index in range(6):
            engine.set(b"k%d" % index, bytes([65 + index]) * (700 * index + 10))
        engine.checkpoint()
        engine.set(b"k1", b"x" * 50)
        before = contents(engine)

        def commit():
            txn = engine.begin()
            engine.put(txn, b"k1", b"y" * 5000)
            engine.put(txn, b"k2", b"z" * 20)
            engine.delete(txn, b"k3")
            engine.put(txn, b"new", b"n" * 900)
            engine.commit(txn)

        after = {**before, b"k1": b"y" * 5000, b"k2": b"z" * 20,
                 b"new": b"n" * 900}
        del after[b"k3"]
        return engine, commit, before, after

    def test_force_commit_is_atomic_under_crash(self, tmp_path):
        engine, commit, before, after = self.force_scenario(str(tmp_path / "clean"))
        counter = arm(engine)
        commit()
        write_points = counter["n"]
        engine.close()
        assert write_points >= 4

        for fail_at in range(1, write_points + 1):
            path = str(tmp_path / f"crash{fail_at}")
            engine, commit, before, after = self.force_scenario(path)
            arm(engine, fail_at=fail_at)
            with pytest.raises(CrashPoint):
                commit()
            engine.simulate_crash()
            recovered = StorageEngine(path, durability="force", pool_size=2)
            state = contents(recovered)
            assert state in (before, after), fail_at
            # Open swept the chunks the crash stranded on either side of
            # the delta: every live slot belongs to a key.
            assert live_slots(recovered) == sum(
                len(locations) for locations in recovered._index.values()
            ), fail_at
            # The store stays writable: what the crash stranded is swept,
            # so later commits and another crash lose nothing.
            recovered.set(b"later", b"l" * 3000)
            recovered.set(b"k0", b"w" * 2000)
            recovered.simulate_crash()
            again = StorageEngine(path, durability="force", pool_size=2)
            assert contents(again) == {
                **state, b"later": b"l" * 3000, b"k0": b"w" * 2000}, fail_at
            again.close()


def chk_base(tmp_path, name="db"):
    """The ``.chk`` file's base and the bytes of its delta chain."""
    data = (tmp_path / f"{name}.chk").read_bytes()
    end = data.index(b"\n") + 1
    return data[:end], data[end:]


class TestCheckpointChain:
    """The ``.chk`` is a JSON base plus appended index deltas; each crash
    point of a checkpoint reopens to the committed state."""

    @staticmethod
    def churn(engine, keys=40, updates=5, tag=b"v"):
        """Seed ``keys`` keys, checkpoint them into a base, then update a
        few: a delta's worth of change."""
        for index in range(keys):
            engine.set(b"k%d" % index, tag * (30 + index))
        engine.checkpoint()
        for index in range(updates):
            engine.set(b"k%d" % index, b"u" * (index + 1) * 200)
        engine.remove(b"k%d" % (keys - 1))
        return contents(engine)

    def test_checkpoint_appends_a_delta_behind_the_base(self, tmp_path):
        engine = reopen(tmp_path)
        self.churn(engine)
        base, deltas = chk_base(tmp_path)
        assert deltas == b""
        engine.checkpoint()
        assert chk_base(tmp_path)[0] == base  # the base is not rewritten
        assert 0 < len(chk_base(tmp_path)[1]) < len(base) // 2
        engine.checkpoint()  # nothing changed since: nothing written
        assert len(chk_base(tmp_path)[1]) == engine._delta_bytes
        engine.close()

    def test_cleanly_closed_store_is_a_lone_base(self, tmp_path):
        engine = reopen(tmp_path)
        state = self.churn(engine)
        engine.checkpoint()
        engine.set(b"k0", b"last")
        engine.close()
        data = (tmp_path / "db.chk").read_bytes()
        assert data.count(b"\n") == 1 and data.endswith(b"\n")
        assert set(json.loads(data)) == {"index", "free"}
        assert os.path.getsize(tmp_path / "db.wal") == 0
        reopened = reopen(tmp_path)
        assert contents(reopened) == {**state, b"k0": b"last"}
        reopened.close()

    def test_chain_folds_into_a_fresh_base_at_half_its_size(self, tmp_path):
        engine = reopen(tmp_path)
        state = self.churn(engine, updates=0)
        base, _ = chk_base(tmp_path)
        for round_ in range(40):
            engine.set(b"k%d" % (round_ % 39), b"r%d" % round_)
            state[b"k%d" % (round_ % 39)] = b"r%d" % round_
            engine.checkpoint()
            assert 2 * engine._delta_bytes < engine._base_bytes
        assert chk_base(tmp_path)[0] != base
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert contents(recovered) == state
        recovered.close()

    def test_crash_between_page_flush_and_delta(self, tmp_path):
        engine = reopen(tmp_path)
        state = self.churn(engine)
        arm(engine, fail_at=1, points=("_persist_index",))
        with pytest.raises(CrashPoint):
            engine.checkpoint()
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert contents(recovered) == state
        recovered.close()

    def test_crash_between_delta_and_log_truncate(self, tmp_path):
        engine = reopen(tmp_path)
        state = self.churn(engine)
        arm(engine, fail_at=1, points=("_wal.truncate",))
        with pytest.raises(CrashPoint):
            engine.checkpoint()
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert contents(recovered) == state
        recovered.close()

    @pytest.mark.parametrize("cut", [1, 5, 9, 30])
    def test_torn_delta_tail(self, tmp_path, cut):
        engine = reopen(tmp_path)
        state = self.churn(engine)
        engine.checkpoint()  # one whole delta the torn one follows
        engine.set(b"k7", b"seven")
        state[b"k7"] = b"seven"
        arm(engine, fail_at=1, points=("_wal.truncate",))
        with pytest.raises(CrashPoint):
            engine.checkpoint()
        engine.simulate_crash()
        chk = tmp_path / "db.chk"
        os.truncate(chk, os.path.getsize(chk) - cut)  # the append tore
        recovered = reopen(tmp_path)
        assert contents(recovered) == state
        # The torn bytes are gone, so later deltas follow whole ones.
        recovered.set(b"k8", b"eight")
        recovered.checkpoint()
        recovered.set(b"k9", b"nine")
        recovered.simulate_crash()
        again = reopen(tmp_path)
        assert contents(again) == {**state, b"k8": b"eight", b"k9": b"nine"}
        again.close()

    def test_corrupt_delta_tail(self, tmp_path):
        engine = reopen(tmp_path)
        state = self.churn(engine)
        arm(engine, fail_at=1, points=("_wal.truncate",))
        with pytest.raises(CrashPoint):
            engine.checkpoint()
        engine.simulate_crash()
        with open(tmp_path / "db.chk", "r+b") as chk:
            chk.seek(-3, os.SEEK_END)
            chk.write(b"\xde\xad\xbe")
        recovered = reopen(tmp_path)
        assert contents(recovered) == state
        recovered.close()

    @pytest.mark.parametrize("during", ["checkpoint", "close"])
    def test_crash_mid_base_rewrite(self, tmp_path, monkeypatch, during):
        engine = reopen(tmp_path)
        state = self.churn(engine)
        engine.checkpoint()
        for index in range(39):  # enough change that a checkpoint folds
            engine.set(b"k%d" % index, b"f" * 40)
            state[b"k%d" % index] = b"f" * 40

        def torn_write(path, snapshot):
            with open(path + ".tmp", "wb") as out:
                out.write(json.dumps(snapshot).encode()[:100])
            raise CrashPoint("mid base rewrite")

        monkeypatch.setattr(engine_mod, "write_snapshot", torn_write)
        with pytest.raises(CrashPoint):
            getattr(engine, during)()
        monkeypatch.undo()
        engine.simulate_crash()
        recovered = reopen(tmp_path)
        assert contents(recovered) == state
        recovered.close()


class TestOlderStores:
    def test_log_in_the_older_layout_is_refused(self, tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"k", b"v")
        engine.close()
        # BEGIN, PUT, COMMIT of txn 1 as the older layout framed them.
        with open(tmp_path / "db.wal", "wb") as log:
            for rtype, key, value in ((1, b"", b""), (2, b"x", b"y"), (4, b"", b"")):
                payload = struct.pack("<BQ", rtype, 1) + b"".join(
                    struct.pack("<I", len(part)) + part for part in (key, value)
                )
                log.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
                log.write(payload)
        with pytest.raises(WalError, match="previous build"):
            reopen(tmp_path)

    def test_cleanly_closed_store_with_a_txn_counter_opens(self, tmp_path):
        engine = reopen(tmp_path)
        for index in range(50):
            engine.set(b"k%d" % index, b"v%d" % index)
        engine.close()
        chk = tmp_path / "db.chk"
        snapshot = json.loads(chk.read_text())
        snapshot["next_txn"] = 51  # the older builds' transaction counter
        chk.write_text(json.dumps(snapshot))
        reopened = reopen(tmp_path)
        assert {key: reopened.get(key) for key in reopened.keys()} == {
            b"k%d" % index: b"v%d" % index for index in range(50)
        }
        reopened.set(b"after", b"x")
        reopened.close()
        assert "next_txn" not in json.loads(chk.read_text())


class TestFailedOpen:
    """An open that raises leaves none of the store's files open."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every file the page file and the log open from here on."""
        from repro.storage import pagedfile as pagedfile_mod
        from repro.storage import wal as wal_mod

        files = []

        def tracking_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            files.append(handle)
            return handle

        for module in (pagedfile_mod, wal_mod):
            monkeypatch.setattr(module, "open", tracking_open, raising=False)
        return files

    @staticmethod
    def stored(tmp_path):
        engine = reopen(tmp_path)
        engine.set(b"k", b"v")
        engine.close()

    def test_log_in_the_older_layout(self, tmp_path, opened):
        self.stored(tmp_path)
        with open(tmp_path / "db.wal", "wb") as log:
            payload = struct.pack("<BQ", 1, 1) + struct.pack("<I", 0) * 2
            log.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            log.write(payload)
        del opened[:]
        with pytest.raises(WalError):
            reopen(tmp_path)
        assert opened and all(handle.closed for handle in opened)

    def test_unreadable_checkpoint(self, tmp_path, opened):
        self.stored(tmp_path)
        (tmp_path / "db.chk").write_bytes(b"{not json\n")
        del opened[:]
        with pytest.raises(ValueError):
            reopen(tmp_path)
        assert opened and all(handle.closed for handle in opened)

    def test_foreign_page_file(self, tmp_path, opened):
        (tmp_path / "db.pages").write_bytes(b"x" * 2 * PAGE_SIZE)
        with pytest.raises(StorageError, match="not a repro page file"):
            reopen(tmp_path)
        assert opened and all(handle.closed for handle in opened)

    def test_recovery_checkpoint_fails(self, tmp_path, opened, monkeypatch):
        engine = reopen(tmp_path)
        engine.set(b"k", b"v")
        engine.simulate_crash()

        def fail(self):
            raise OSError("disk full")

        monkeypatch.setattr(StorageEngine, "checkpoint", fail)
        del opened[:]
        with pytest.raises(OSError, match="disk full"):
            reopen(tmp_path)
        assert opened and all(handle.closed for handle in opened)
        monkeypatch.undo()
        recovered = reopen(tmp_path)
        assert recovered.get(b"k") == b"v"
        recovered.close()
