"""The replicator: pairwise incremental convergence of two replicas.

One *pass* pulls changes from a source replica into a target replica:

1. Read the target's receive cursor for the source: the source's update
   seq as of the last pass, valid only under the source journal it was
   cut from. The candidates are the source's journal suffix past it — a
   link with no cursor, or one cut from another journal, starts at seq 0.
2. :meth:`Replicator.apply` decides what each candidate does to the
   target. A document is compared by originator id and ``$Revisions``
   ancestry against the target's copy: plain updates install, known
   revisions are skipped, genuine divergence goes to the conflict policy.
   Deletion stubs propagate the same way; a stub beats every revision it
   has seen (in either direction), while a document edited *after* (more
   revisions than) the deletion survives it.
3. The cursor advances on both ends after every batch and at the end.

``apply`` is also what the event-driven cluster replicator pushes each
change through, so a scheduled pass and a cluster push never disagree on
what a note does to a replica.

``full_copy`` implements the naive baseline (ship everything every time) and
``versioning="timestamp"`` the clock-skew-vulnerable ablation; experiment E1
compares all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LinkFailure, ReplicationError
from repro.core.database import ChangeKind, DeletionStub, NotesDatabase
from repro.core.document import Document
from repro.replication.conflicts import ConflictPolicy, detect, resolve
from repro.replication.network import SimulatedNetwork
from repro.replication.selective import SelectiveReplication


@dataclass
class ReplicationStats:
    """Outcome of one replication pass (or an accumulation of passes)."""

    docs_examined: int = 0
    # Journal entries the source had to look at to find the candidates:
    # O(changes), never O(database) (``full_copy`` counts every note).
    docs_scanned: int = 0
    docs_transferred: int = 0
    docs_skipped: int = 0
    stubs_transferred: int = 0
    conflicts: int = 0
    merges: int = 0
    lost_updates: int = 0
    bytes_transferred: int = 0
    seconds: float = 0.0
    # Per-link seq cursors checkpointed mid-pass (resumable exchanges).
    cursor_checkpoints: int = 0
    # Edge-level outcomes, filled in by the scheduler: a skipped or
    # failed edge is never indistinguishable from a no-op exchange.
    edges_attempted: int = 0
    edges_skipped: int = 0  # unreachable when the round reached them
    edges_deferred: int = 0  # gated out by backoff / open breaker
    edges_failed: int = 0  # attempt died (drop, flap, mid-exchange abort)
    edges_retried: int = 0  # attempts made while recovering from failure
    # Replica pairs skipped because both seq cursors already sat at the
    # partner's update_seq — a no-op decided without opening the link.
    noop_pairs: int = 0
    conflict_unids: list[str] = field(default_factory=list)

    def merge_from(self, other: "ReplicationStats") -> None:
        self.docs_examined += other.docs_examined
        self.docs_scanned += other.docs_scanned
        self.docs_transferred += other.docs_transferred
        self.docs_skipped += other.docs_skipped
        self.stubs_transferred += other.stubs_transferred
        self.conflicts += other.conflicts
        self.merges += other.merges
        self.lost_updates += other.lost_updates
        self.bytes_transferred += other.bytes_transferred
        self.seconds += other.seconds
        self.cursor_checkpoints += other.cursor_checkpoints
        self.edges_attempted += other.edges_attempted
        self.edges_skipped += other.edges_skipped
        self.edges_deferred += other.edges_deferred
        self.edges_failed += other.edges_failed
        self.edges_retried += other.edges_retried
        self.noop_pairs += other.noop_pairs
        self.conflict_unids.extend(other.conflict_unids)


_STUB_WIRE_SIZE = 96  # bytes accounted per deletion stub on the wire


class Replicator:
    """Runs replication passes over a simulated network.

    Parameters
    ----------
    network:
        The :class:`SimulatedNetwork` used for reachability and traffic
        accounting. Optional — pass None for pure in-process replication.
    conflict_policy:
        How divergent edits are resolved (default: conflict documents).
    versioning:
        ``"oid"`` (sequence numbers + ancestry, the Notes design) or
        ``"timestamp"`` (modified-time comparison, the ablation that loses
        updates under clock skew).
    field_level:
        When True, a plain update of a document the target already holds
        transfers only the *items changed since the target's revision*
        (plus the envelope) instead of the whole note — the R5 field-level
        replication optimisation. Semantically identical; only the wire
        accounting and the reconstruction path differ.
    batch_size:
        Journal entries applied per resumable batch. After each full
        batch the per-link seq cursor is checkpointed on both ends, so an
        exchange killed mid-flight (link flap, crash, injected abort)
        resumes from the cursor — re-examining at most one batch — instead
        of re-reading the whole suffix.
    resumable:
        When False, the all-or-nothing ablation benchmark E16 measures
        against: documents are *staged* during the pass and installed
        only if the whole exchange completes, with the cursor recorded
        only at the end — an interrupted exchange wastes everything it
        transferred and restarts from the previous cursor, exactly the
        checkpoint-free behaviour resumable exchanges exist to avoid.
    """

    def __init__(
        self,
        network: SimulatedNetwork | None = None,
        conflict_policy: ConflictPolicy = ConflictPolicy.CONFLICT_DOC,
        versioning: str = "oid",
        field_level: bool = False,
        batch_size: int = 64,
        resumable: bool = True,
    ) -> None:
        if versioning not in ("oid", "timestamp"):
            raise ReplicationError(f"unknown versioning {versioning!r}")
        if batch_size < 1:
            raise ReplicationError(f"bad batch_size {batch_size!r}")
        self.network = network
        self.conflict_policy = conflict_policy
        self.versioning = versioning
        self.field_level = field_level
        self.batch_size = batch_size
        self.resumable = resumable

    # -- public passes -----------------------------------------------------

    def pull(
        self,
        target: NotesDatabase,
        source: NotesDatabase,
        selective: SelectiveReplication | None = None,
        into: ReplicationStats | None = None,
    ) -> ReplicationStats:
        """One incremental pass: bring ``target`` up to date from ``source``.

        The source's journal suffix past the receive cursor is applied in
        journal order. Resumable mode installs as it goes and checkpoints
        the cursor after every full batch, so an exchange killed between
        checkpoints re-examines at most ``batch_size`` entries on the
        next attempt. The all-or-nothing ablation stages every install
        and applies them only once the whole suffix transferred.

        ``into`` lets a caller keep the partial counters of a pass that a
        :class:`~repro.errors.LinkFailure` kills mid-flight — the
        schedulers pass their round accumulator so interrupted work is
        still accounted.
        """
        self._check_pair(source, target)
        stats = into if into is not None else ReplicationStats()
        if self.network is not None:
            # May raise LinkFailure (drop / flap) and may arm a
            # mid-exchange abort that a later transfer fires.
            self.network.begin_attempt(source.server, target.server)
        # Capture the source's sequence BEFORE applying anything: observers
        # of the target (cluster push-back, agents) may write into the
        # source mid-pass, and those writes must be re-examined next time.
        source_seq = source.update_seq
        entries = source.journal_entries_since(
            self._receive_cursor(target, source) or 0
        )
        stats.docs_scanned += source.last_scan_cost
        staged: list | None = [] if not self.resumable else None
        in_batch = 0
        for seq, note in entries:
            if isinstance(note, DeletionStub):
                self._consider_stub(target, source, note, stats, staged)
            else:
                self._consider_document(
                    target, source, note, selective, stats, staged
                )
            in_batch += 1
            if staged is None and in_batch >= self.batch_size:
                self._record_cursor(source, target, seq)
                stats.cursor_checkpoints += 1
                in_batch = 0
        if staged is not None:
            for apply in staged:
                apply(stats)
        self._record_cursor(source, target, source_seq)
        return stats

    @staticmethod
    def _receive_cursor(
        target: NotesDatabase, source: NotesDatabase
    ) -> int | None:
        """``target``'s seq cursor into ``source``'s journal, or None.

        None when the link has no cursor, or when the cursor was cut from
        another journal: a source whose journal was reseeded (see
        ``NotesDatabase._recover_journal``) reissues seqs from scratch, so
        an old cursor would skip its notes.
        """
        if target.replication_journal.get(source.server) != source.journal_id:
            return None
        return target.replication_seq.get((source.server, "receive"))

    def _record_cursor(
        self, source: NotesDatabase, target: NotesDatabase, seq: int
    ) -> None:
        """Advance both ends' seq cursors for this link (never backwards
        within one source journal).

        The ``"receive"`` side is the resume point of the next pull; the
        ``"send"`` side is the stub-purge acknowledgement — both are safe
        to record mid-pass because every journal entry at/below ``seq``
        has been applied to (or judged already present in) the target.
        """
        cursor = self._receive_cursor(target, source)
        if cursor is None or seq > cursor:
            target.replication_seq[(source.server, "receive")] = seq
            target.replication_journal[source.server] = source.journal_id
        send = (target.server, "send")
        if seq > source.replication_seq.get(send, -1):
            source.replication_seq[send] = seq

    def is_noop(self, a: NotesDatabase, b: NotesDatabase) -> bool:
        """Whether an exchange between ``a`` and ``b`` would apply nothing.

        True when each side's receive cursor already sits at the other's
        ``update_seq`` — decidable from two dict reads, without opening
        the link or walking any journal. The scheduler uses this to skip
        quiet edges entirely (they are not even exposed to link faults).
        """
        return (
            self._receive_cursor(a, b) == b.update_seq
            and self._receive_cursor(b, a) == a.update_seq
        )

    def replicate(
        self,
        a: NotesDatabase,
        b: NotesDatabase,
        selective_a: SelectiveReplication | None = None,
        selective_b: SelectiveReplication | None = None,
        into: ReplicationStats | None = None,
    ) -> ReplicationStats:
        """A full exchange: pull into ``a``, then pull into ``b``.

        ``selective_a`` filters what *a receives*; ``selective_b`` what *b*
        receives.
        """
        stats = into if into is not None else ReplicationStats()
        self.pull(a, b, selective=selective_a, into=stats)
        self.pull(b, a, selective=selective_b, into=stats)
        return stats

    def full_copy(
        self, target: NotesDatabase, source: NotesDatabase
    ) -> ReplicationStats:
        """Baseline: transfer *every* document regardless of history."""
        self._check_pair(source, target)
        stats = ReplicationStats()
        source_seq = source.update_seq
        for doc in source.all_documents():
            stats.docs_examined += 1
            stats.docs_scanned += 1
            self._transfer(source, target, doc.size(), stats)
            self._install(target, doc, stats)
        for stub in source.stubs.values():
            self._consider_stub(target, source, stub, stats)
        target.replication_seq[(source.server, "receive")] = source_seq
        target.replication_journal[source.server] = source.journal_id
        return stats

    def apply(
        self,
        target: NotesDatabase,
        source: NotesDatabase,
        note: Document | DeletionStub,
        stats: ReplicationStats,
    ) -> None:
        """Decide what one note from ``source`` does to ``target``.

        The per-note rule every replication path shares: a document goes
        through the originator-id/ancestry comparison (losing to a target
        stub that has seen its revision), a stub deletes every revision
        it has seen. Scheduled pulls apply their journal suffix this way
        and the cluster replicator pushes each change through it, so the
        two can never resolve the same race differently. Transfers are
        accounted in ``stats`` (and on the network, if any); a
        :class:`~repro.errors.LinkFailure` from the network propagates
        before the target changes.
        """
        if isinstance(note, DeletionStub):
            self._consider_stub(target, source, note, stats)
        else:
            self._consider_document(target, source, note, None, stats)

    # -- document path ------------------------------------------------------

    def _consider_document(
        self,
        target: NotesDatabase,
        source: NotesDatabase,
        doc: Document,
        selective: SelectiveReplication | None,
        stats: ReplicationStats,
        sink: list | None = None,
    ) -> None:
        """Examine one candidate; install, skip, or resolve a conflict.

        With ``sink`` (the all-or-nothing ablation) the wire transfer is
        still accounted now, but the target-mutating step is appended to
        ``sink`` as a deferred action instead of applied — each pass
        touches any UNID at most once, so decisions made against the
        pre-exchange target state stay valid at apply time.
        """
        stats.docs_examined += 1
        if selective is not None:
            if not selective.accepts(doc, db=source):
                stats.docs_skipped += 1
                return
            doc = selective.prepare(doc)
        # A deletion stub on the target beats an older incoming revision.
        stub = target.stubs.get(doc.unid)
        if stub is not None:
            if self._stub_beats_doc(stub, doc):
                stats.docs_skipped += 1
                return
        local = target.try_get(doc.unid)
        if local is None:
            self._transfer(source, target, doc.size(), stats)
            self._install(target, doc, stats, sink)
            return
        relation = self._relation(local, doc)
        if relation == "same" or relation == "local_newer":
            stats.docs_skipped += 1
            return
        if relation == "incoming_newer":
            if self.field_level:
                self._install_field_delta(
                    source, target, local, doc, stats, sink
                )
            else:
                self._transfer(source, target, doc.size(), stats)
                self._install(target, doc, stats, sink)
            return
        self._transfer(source, target, doc.size(), stats)
        incoming = doc.copy()

        def apply(stats_: ReplicationStats) -> None:
            outcome = resolve(target, local, incoming, self.conflict_policy)
            stats_.conflicts += 1
            if outcome.merged:
                stats_.merges += 1
            if outcome.lost_update:
                stats_.lost_updates += 1
            if outcome.conflict_doc_unid is not None:
                stats_.conflict_unids.append(outcome.conflict_doc_unid)

        if sink is None:
            apply(stats)
        else:
            sink.append(apply)

    def _relation(self, local: Document, incoming: Document) -> str:
        if self.versioning == "oid":
            return detect(local, incoming)
        # Timestamp ablation: whoever was modified later wins outright —
        # concurrent edits are never recognised as conflicts.
        if incoming.modified > local.modified:
            return "incoming_newer"
        if incoming.modified < local.modified:
            return "local_newer"
        return "same" if local.oid == incoming.oid else "incoming_newer"

    def _install(
        self,
        target: NotesDatabase,
        doc: Document,
        stats: ReplicationStats,
        sink: list | None = None,
    ) -> None:
        copy = doc.copy()

        def apply(stats_: ReplicationStats) -> None:
            target.raw_put(copy, ChangeKind.REPLACE)
            stats_.docs_transferred += 1

        if sink is None:
            apply(stats)
        else:
            sink.append(apply)

    _ENVELOPE_WIRE_SIZE = 160  # unid + oid + revisions + author trail

    def _install_field_delta(
        self,
        source: NotesDatabase,
        target: NotesDatabase,
        local: Document,
        incoming: Document,
        stats: ReplicationStats,
        sink: list | None = None,
    ) -> None:
        """Ship only the items changed since the target's revision.

        ``incoming`` descends from ``local`` (the caller checked), so every
        item whose change stamp is newer than ``local``'s revision stamp is
        exactly the delta. The target document is *reconstructed* from its
        local copy plus the delta — proving the delta suffices — and must
        equal the source revision item-for-item.
        """
        base_stamp = tuple(local.seq_time)
        changed = {
            name
            for name, stamp in incoming.item_times.items()
            if tuple(stamp) > base_stamp
        }
        # Items present on either side without a change stamp (constructed
        # outside the normal update path) are shipped defensively.
        for item in incoming:
            if item.name not in incoming.item_times and (
                local.item(item.name) != item
            ):
                changed.add(item.name)
        delta_bytes = self._ENVELOPE_WIRE_SIZE
        rebuilt = local.copy()
        for name in changed:
            item = incoming.item(name)
            if item is None:
                if name in rebuilt:
                    rebuilt.remove_item(name)
            else:
                rebuilt.set(name, item)
                value = item.value
                if isinstance(value, str):
                    delta_bytes += len(name) + len(value) + 8
                elif isinstance(value, list):
                    delta_bytes += len(name) + 8 + sum(
                        len(e) if isinstance(e, str) else 8 for e in value
                    )
                elif isinstance(value, dict):  # attachments: base64 payload
                    delta_bytes += len(name) + 8 + sum(
                        len(v) if isinstance(v, str) else 8
                        for v in value.values()
                    )
                else:
                    delta_bytes += len(name) + 16
            if name in incoming.item_times:
                rebuilt.item_times[name] = tuple(incoming.item_times[name])
        rebuilt.seq = incoming.seq
        rebuilt.seq_time = tuple(incoming.seq_time)
        rebuilt.modified = incoming.modified
        rebuilt.created = incoming.created
        rebuilt.parent_unid = incoming.parent_unid
        rebuilt.revisions = [tuple(s) for s in incoming.revisions]
        rebuilt.updated_by = list(incoming.updated_by)
        self._transfer(source, target, delta_bytes, stats)

        def apply(stats_: ReplicationStats) -> None:
            target.raw_put(rebuilt, ChangeKind.REPLACE)
            stats_.docs_transferred += 1

        if sink is None:
            apply(stats)
        else:
            sink.append(apply)

    # -- stub path ---------------------------------------------------------

    def _consider_stub(
        self,
        target: NotesDatabase,
        source: NotesDatabase,
        stub: DeletionStub,
        stats: ReplicationStats,
        sink: list | None = None,
    ) -> None:
        local = target.try_get(stub.unid)
        if local is not None and not self._stub_beats_doc(stub, local):
            return  # the document was revised past the deletion; it survives
        existing = target.stubs.get(stub.unid)
        if existing is not None and tuple(existing.seq_time) >= tuple(stub.seq_time):
            return
        self._transfer(source, target, _STUB_WIRE_SIZE, stats)

        def apply(stats_: ReplicationStats) -> None:
            target.raw_delete(stub)
            stats_.stubs_transferred += 1

        if sink is None:
            apply(stats)
        else:
            sink.append(apply)

    @staticmethod
    def _stub_beats_doc(stub: DeletionStub, doc: Document) -> bool:
        """Deletion-wins rule: the stub supersedes revisions it has seen."""
        return (stub.seq, tuple(stub.seq_time)) > (doc.seq, tuple(doc.seq_time))

    # -- transfer accounting -------------------------------------------------

    def _transfer(
        self,
        source: NotesDatabase,
        target: NotesDatabase,
        nbytes: int,
        stats: ReplicationStats,
    ) -> None:
        """Account ``nbytes`` sent from ``source`` to ``target``; on a
        network this may raise :class:`~repro.errors.LinkFailure`."""
        stats.bytes_transferred += nbytes
        if self.network is not None:
            stats.seconds += self.network.transfer(
                source.server, target.server, nbytes
            )

    # -- guards -----------------------------------------------------------

    def _check_pair(self, source: NotesDatabase, target: NotesDatabase) -> None:
        if source.replica_id != target.replica_id:
            raise ReplicationError(
                f"replica ids differ: {source.replica_id} vs {target.replica_id}"
            )
        if source is target:
            raise ReplicationError("cannot replicate a database with itself")
        if self.network is not None:
            if not self.network.is_reachable(source.server, target.server):
                raise LinkFailure(
                    f"{source.server} unreachable from {target.server}"
                )
