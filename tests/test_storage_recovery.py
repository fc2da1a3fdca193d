"""Crash-recovery tests: the WAL discipline actually holds."""

import json
import os
import struct
import zlib

import pytest

from repro.errors import WalError
from repro.storage import StorageEngine


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
