"""Crash recovery: replay the write-ahead log onto the page store.

The engine uses a *no-steal, no-force* discipline for transaction data:
uncommitted writes never reach the heap or the log, and committed writes
are not forced at commit (their log record is). A transaction is in the
log only as its commit record, so recovery is one redo pass: replay the
writes of every whole record in log order onto the checkpoint's index.
Replay never frees a key's checkpoint-time chunks — pages written back
after the checkpoint may have reused those slots for other keys — it
only re-points the key; the engine then sweeps every slot the replayed
index leaves unreferenced. Replay is idempotent at the key/value level:
a put stores the same value (possibly at a new heap location) and a
delete of an absent key is a no-op. A torn final record belongs to a
commit that never returned, and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.wal import WriteAheadLog, decode_commit


@dataclass
class RecoveryReport:
    """What a recovery pass saw and did — recorded for experiment E7."""

    committed_txns: int = 0
    puts_replayed: int = 0
    deletes_replayed: int = 0

    @property
    def ops_replayed(self) -> int:
        return self.puts_replayed + self.deletes_replayed


def replay(engine, wal: WriteAheadLog) -> RecoveryReport:
    """Replay every committed write in ``wal`` onto ``engine``.

    ``engine`` is a :class:`repro.storage.engine.StorageEngine`; replay goes
    through its ``_repoint`` hook, and the engine sweeps orphaned slots after.
    """
    report = RecoveryReport()
    for payload in wal.records():
        for key, value in decode_commit(payload):
            engine._repoint(key, value)
            if value is None:
                report.deletes_replayed += 1
            else:
                report.puts_replayed += 1
        report.committed_txns += 1
    return report
