"""Crash recovery: replay the write-ahead log onto the page store.

The engine uses a *no-steal, no-force* discipline for transaction data:
uncommitted writes never reach the heap or the log, and committed writes
are not forced at commit (their log record is). A transaction is in the
log only as its commit record, so recovery is one redo pass: re-apply the
writes of every whole record in log order. Replay is idempotent at the
key/value level: re-applying a put stores the same value (possibly at a
new heap location) and re-applying a delete of an absent key is a no-op.
A torn final record belongs to a commit that never returned, and is
skipped.
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
    """Re-apply every committed write in ``wal`` to ``engine``.

    ``engine`` is a :class:`repro.storage.engine.StorageEngine`; replay uses
    its internal apply hooks so the heap, index and free map stay coherent.
    """
    report = RecoveryReport()
    for payload in wal.records():
        for key, value in decode_commit(payload):
            if value is None:
                engine._apply_delete(key, missing_ok=True)
                report.deletes_replayed += 1
            else:
                engine._apply_put(key, value)
                report.puts_replayed += 1
        report.committed_txns += 1
    return report
