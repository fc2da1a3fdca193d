"""Tests for the write-ahead log."""

import struct

import pytest

from repro.errors import WalError
from repro.storage import WriteAheadLog
from repro.storage.wal import decode_commit, encode_commit


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(str(tmp_path / "test.wal"))
    yield log
    log.close()


def commit(key: bytes, value: bytes | None = b"v") -> bytes:
    return encode_commit({key: value})


def keys_of(log: WriteAheadLog) -> list[bytes]:
    return [key for payload in log.records() for key, _ in decode_commit(payload)]


class TestRecords:
    def test_encode_decode_roundtrip(self):
        writes = {b"a": b"1", b"gone": None, b"b": b"two"}
        assert list(decode_commit(encode_commit(writes))) == list(writes.items())

    def test_delete_carries_no_image(self):
        put, delete = commit(b"gone", b""), commit(b"gone", None)
        assert len(delete) == len(put)  # a delete's length field is its mark
        assert list(decode_commit(delete)) == [(b"gone", None)]
        assert list(decode_commit(put)) == [(b"gone", b"")]

    def test_binary_safe_payloads(self):
        writes = {bytes(range(256)): b"\xff" * 10}
        assert list(decode_commit(encode_commit(writes))) == list(writes.items())

    def test_framing_is_eight_bytes_per_write(self):
        writes = {b"k%d" % index: b"x" * index for index in range(10)}
        payload = encode_commit(writes)
        data = sum(len(key) + len(value) for key, value in writes.items())
        assert len(payload) == 1 + 8 * len(writes) + data

    def test_older_layout_is_refused(self):
        # A PUT record as the older BEGIN/PUT/.../COMMIT layout wrote it:
        # type, txn id, then length-prefixed key and after-image.
        older = struct.pack("<BQ", 2, 7) + b"".join(
            struct.pack("<I", len(field)) + field for field in (b"k", b"v")
        )
        with pytest.raises(WalError, match="previous build"):
            list(decode_commit(older))


class TestAppendReplay:
    def test_lsn_is_monotonic(self, wal):
        lsns = [wal.append(commit(b"k")) for _ in range(5)]
        assert lsns == sorted(lsns) and len(set(lsns)) == 5

    def test_records_replay_in_order(self, wal):
        originals = [commit(b"a", b"1"), commit(b"b", None), commit(b"c", b"3")]
        for payload in originals:
            wal.append(payload)
        wal.flush()
        assert list(wal.records()) == originals

    def test_replay_from_lsn(self, wal):
        wal.append(commit(b"first"))
        middle = wal.append(commit(b"middle"))
        wal.append(commit(b"last"))
        wal.flush()
        replayed = list(wal.records(from_lsn=middle))
        assert replayed == [commit(b"middle"), commit(b"last")]

    def test_flush_is_idempotent(self, wal):
        wal.append(commit(b"k"))
        wal.flush()
        flushes = wal.flushes
        wal.flush()
        assert wal.flushes == flushes

    def test_truncate_resets(self, wal):
        wal.append(commit(b"k"))
        wal.flush()
        wal.truncate()
        assert wal.end_lsn == 0
        assert list(wal.records()) == []

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "re.wal")
        log = WriteAheadLog(path)
        log.append(commit(b"x", b"y"))
        log.close()
        reopened = WriteAheadLog(path)
        assert list(reopened.records()) == [commit(b"x", b"y")]
        reopened.close()


class TestCrashTail:
    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        log = WriteAheadLog(path)
        log.append(commit(b"good", b"1"))
        log.flush()
        log.append(commit(b"half", b"2"))
        log._file.flush()
        log._file.close()
        # chop the last record in half
        with open(path, "r+b") as raw:
            raw.seek(0, 2)
            size = raw.tell()
            raw.truncate(size - 5)
        survivor = WriteAheadLog(path)
        assert keys_of(survivor) == [b"good"]
        survivor.close()

    def test_corrupt_tail_treated_as_torn(self, tmp_path):
        path = str(tmp_path / "corrupt.wal")
        log = WriteAheadLog(path)
        log.append(commit(b"good", b"1"))
        last = log.append(commit(b"bad", b"2"))
        log.close()
        with open(path, "r+b") as raw:
            raw.seek(last + 10)
            raw.write(b"\xde\xad")
        survivor = WriteAheadLog(path)
        assert keys_of(survivor) == [b"good"]
        survivor.close()

    def test_corruption_before_tail_raises(self, tmp_path):
        path = str(tmp_path / "midcorrupt.wal")
        log = WriteAheadLog(path)
        first = log.append(commit(b"one", b"1"))
        log.append(commit(b"two", b"2"))
        log.close()
        with open(path, "r+b") as raw:
            raw.seek(first + 10)
            raw.write(b"\xde\xad")
        survivor = WriteAheadLog(path)
        with pytest.raises(WalError):
            list(survivor.records())
        survivor.close()

    def test_abandon_discards_unflushed(self, tmp_path):
        path = str(tmp_path / "abandon.wal")
        log = WriteAheadLog(path)
        log.append(commit(b"durable", b"1"))
        log.flush()
        log.append(commit(b"volatile", b"2"))
        log.abandon()
        survivor = WriteAheadLog(path)
        assert keys_of(survivor) == [b"durable"]
        survivor.close()
