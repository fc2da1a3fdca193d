"""The event-driven cluster replicator.

Subscribes to every member replica; each local change is pushed at once to
the other members through :meth:`Replicator.apply
<repro.replication.replicator.Replicator.apply>` — the very rule a
scheduled pull applies per note — so echoes, concurrent edits and
update/delete races end exactly as they would under scheduled
replication, whatever order stalled links drain in. Pushes to an unreachable
member stall that link; ``catch_up`` is the restart path that drains
stalled links, and ``seed`` the cluster-join path that levels members by
replaying whole journals.

The backlog *is* the database's update-sequence journal: a stalled link
keeps only the origin seq it last drained, and ``catch_up`` replays
``journal_entries_since`` that cursor — O(1) state per link however many
changes pile up during the outage, with a drain bounded by the number of
distinct changed notes. The only per-note bookkeeping left is a small
side-table of *un-journaled* events (trash moves and cutoff purges, neither
of which writes a journal entry) so a drain reproduces them too.

A soft delete or restore is not a note change: it moves a held note into or
out of the trash, and each member moves its own copy the same way
(``NotesDatabase.raw_trash``). So a restore brings the note back on every
member, and after a seed a note is in the trash on every member if it was
in any member's trash.

Successful pushes acknowledge the origin's ``update_seq`` into
``replication_seq[(target, "send")]`` — the same ledger scheduled
replication uses — which is what makes seq-acknowledged stub purging safe
inside a cluster: a stub may only be purged once every known partner's
acknowledged seq has passed it, and a stalled link stops acknowledging
until its drain completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.core.database import ChangeKind, DeletionStub, NotesDatabase
from repro.core.document import Document
from repro.errors import LinkFailure
from repro.replication.conflicts import ConflictPolicy
from repro.replication.network import SimulatedNetwork
from repro.replication.replicator import (
    _STUB_WIRE_SIZE,
    ReplicationStats,
    Replicator,
)


@dataclass
class ClusterReplicationStats:
    pushes: int = 0
    queued: int = 0
    drained: int = 0
    replayed: int = 0
    # Journal entries a drain left out as echoes of the target's own notes.
    echoes_skipped: int = 0
    conflicts: int = 0
    bytes_pushed: int = 0
    catch_up_seconds: float = 0.0
    # Pushes/drains a link fault killed; the link (re-)stalls and the
    # next catch_up resumes from its advanced seq cursor.
    interrupted: int = 0
    push_latency: list[float] = field(default_factory=list)


class ClusterReplicator:
    """Keeps a family of cluster replicas synchronized in near-real-time."""

    def __init__(
        self,
        network: SimulatedNetwork,
        conflict_policy: ConflictPolicy = ConflictPolicy.CONFLICT_DOC,
    ) -> None:
        self.network = network
        self.conflict_policy = conflict_policy
        # The shared per-note rule (whole-document pushes, OID versioning).
        self._rule = Replicator(network, conflict_policy=conflict_policy)
        self.stats = ClusterReplicationStats()
        self._members: list[NotesDatabase] = []
        # (source server, target server) -> origin seq last known pushed.
        # A link appears here only while stalled; catch_up replays the
        # journal suffix past the cursor and removes it.
        self._stalled: dict[tuple[str, str], int] = {}
        # Events the journal cannot replay (trash moves and cutoff purges
        # never journal): (link) -> {unid: stub | None}. None means "move
        # the target's copy into or out of the trash as the source's is".
        self._pending: dict[tuple[str, str], dict[str, DeletionStub | None]] = {}
        self._pushing = False

    # -- membership -----------------------------------------------------

    def attach(self, db: NotesDatabase) -> None:
        """Add a replica to the cluster-replication family.

        Every member pair is registered in ``replication_seq`` at ack 0,
        so seq-acknowledged stub purging knows the partner exists *before*
        the first push — a stub can never be purged out from under a
        cluster mate that has acknowledged nothing yet. Attaching a
        member twice is a no-op.
        """
        if db in self._members:
            return
        if self._members and db.replica_id != self._members[0].replica_id:
            from repro.errors import ClusterError

            raise ClusterError("cluster replicas must share a replica id")
        for member in self._members:
            member.replication_seq.setdefault((db.server, "send"), 0)
            db.replication_seq.setdefault((member.server, "send"), 0)
        self._members.append(db)
        db.subscribe(self._make_handler(db))

    def _make_handler(self, origin: NotesDatabase):
        def handler(kind: ChangeKind, payload, old: Document | None) -> None:
            if self._pushing:
                return  # change caused by a cluster push: do not echo
            if kind in (ChangeKind.CREATE, ChangeKind.UPDATE,
                        ChangeKind.REPLACE):
                self._push_all(origin, payload, journaled=True)
            elif kind == ChangeKind.RESTORE or origin.in_trash(payload.unid):
                self._push_all(origin, payload.unid, journaled=False)
            elif kind == ChangeKind.DELETE:
                # delete() journals a stub; a cutoff purge synthesizes one
                # that the journal never sees.
                self._push_all(
                    origin, payload, journaled=payload.unid in origin.stubs
                )

        return handler

    # -- pushing ----------------------------------------------------------

    def _push_all(
        self,
        origin: NotesDatabase,
        note: Document | DeletionStub | str,
        journaled: bool,
    ) -> None:
        """Push ``note`` (a bare UNID: its trash move) to every member."""
        for member in self._members:
            if member is origin:
                continue
            link = (origin.server, member.server)
            if self.network.is_reachable(*link):
                try:
                    self.network.begin_attempt(*link)
                    self._push_one(origin, member, note)
                except LinkFailure:
                    # The push died on the wire (drop/flap/abort).
                    self.stats.interrupted += 1
                else:
                    if link not in self._stalled:
                        self._ack(origin, member)
                    elif not journaled:
                        # The link's drain replays older journal entries
                        # first; the event must land again after them.
                        self._queue(link, note)
                    continue
            # Stall the link at the seq *before* this change (the notify
            # runs after the journal append, so update_seq is this
            # change's seq). Un-journaled events leave the cursor at the
            # current seq and ride the pending table.
            self._stalled.setdefault(
                link, origin.update_seq - 1 if journaled else origin.update_seq
            )
            if not journaled:
                self._queue(link, note)
            self.stats.queued += 1

    def _queue(self, link: tuple[str, str], note: DeletionStub | str) -> None:
        """Record an un-journaled event (a cutoff stub or a trash move) for
        ``link``'s drain, replacing any earlier one for the same note."""
        if isinstance(note, DeletionStub):
            self._pending.setdefault(link, {})[note.unid] = note
        else:
            self._pending.setdefault(link, {})[note] = None

    def _ack(self, origin: NotesDatabase, target: NotesDatabase) -> None:
        """Record that ``target`` holds everything up to origin's seq."""
        origin.replication_seq[(target.server, "send")] = origin.update_seq

    def _push_one(
        self,
        origin: NotesDatabase,
        target: NotesDatabase,
        note: Document | DeletionStub | str,
    ) -> None:
        """Apply one note from ``origin`` to ``target`` under the shared
        rule (a bare UNID: move ``target``'s copy as ``origin``'s is), with
        the echo guard up so the target does not re-push it."""
        outcome = ReplicationStats()
        self._pushing = True
        try:
            if isinstance(note, str):
                self._move_trash(origin, target, note, outcome)
            else:
                self._rule.apply(target, origin, note, outcome)
        finally:
            self._pushing = False
        if outcome.bytes_transferred:
            self.stats.pushes += 1
            self.stats.bytes_pushed += outcome.bytes_transferred
            self.stats.push_latency.append(outcome.seconds)
        self.stats.conflicts += outcome.conflicts

    def _move_trash(
        self,
        origin: NotesDatabase,
        target: NotesDatabase,
        unid: str,
        outcome: ReplicationStats,
    ) -> None:
        """Put ``target``'s copy of ``unid`` into the trash, or take it
        out, as ``origin``'s copy is; the move costs a stub-sized message.
        Nothing moves when either side no longer holds the note (a stub
        settles it through the journal instead)."""
        trashed = origin.in_trash(unid)
        if not trashed and unid not in origin:
            return
        if not (unid in target if trashed else target.in_trash(unid)):
            return
        outcome.bytes_transferred += _STUB_WIRE_SIZE
        outcome.seconds += self.network.transfer(
            origin.server, target.server, _STUB_WIRE_SIZE
        )
        target.raw_trash(unid, trashed)

    # -- catch-up after failure ------------------------------------------

    def catch_up(self) -> int:
        """Drain every stalled link that is reachable again.

        Per link this is one ``journal_entries_since(cursor)`` call — a
        binary search plus a walk over the notes actually changed during
        the outage — followed by the (rare) un-journaled pending events.
        The *current* revision is pushed, so repeated edits to one note
        during the outage cost a single transfer, and a note the source
        got from the target itself (say, in the drain of the opposite
        link just before) is not pushed back: the same echo rule a
        scheduled pull applies.

        Drains are *resumable*: the link's seq cursor advances after
        every pushed entry, so a drain killed mid-flight by a link fault
        leaves the link stalled at its progress point and the next
        ``catch_up`` replays only what is still missing — never the whole
        outage again. Returns the number of changes applied; a completed
        drain acknowledges the origin's seq so stub purging may proceed.
        """
        started = perf_counter()
        drained = 0
        for link, cursor in list(self._stalled.items()):
            if not self.network.is_reachable(*link):
                continue
            source = self._member_on(link[0])
            target = self._member_on(link[1])
            if source is None or target is None:
                continue
            try:
                self.network.begin_attempt(*link)
                entries = source.journal_entries_since(cursor, echoes_of=target)
                self.stats.echoes_skipped += source.last_echoes_skipped
                for seq, note in entries:
                    self._push_one(source, target, note)
                    self._stalled[link] = seq  # the drain's resume point
                    drained += 1
                # Un-journaled events last: a soft delete during the
                # outage must override the revision it shadows.
                pending = self._pending.get(link, {})
                for unid in list(pending):
                    stub = pending[unid]
                    self._push_one(
                        source,
                        target,
                        unid if stub is None else source.stubs.get(unid, stub),
                    )
                    del pending[unid]
                    drained += 1
                self._pending.pop(link, None)
                del self._stalled[link]
                self._ack(source, target)
            except LinkFailure:
                # Fault mid-drain: the link stays stalled at the cursor
                # it reached; the next catch_up resumes from there.
                self.stats.interrupted += 1
        self.stats.drained += drained
        self.stats.replayed += drained
        self.stats.catch_up_seconds += perf_counter() - started
        return drained

    def seed(self, origin: NotesDatabase) -> int:
        """Level every member with ``origin`` (the cluster-join path).

        Each member's whole journal and trash replay into ``origin``, then
        ``origin``'s into each member — a ``catch_up`` of links stalled
        at seq 0 with every trashed note pending, so every note goes
        through the shared rule with echo suppressed, and each completed
        replay acknowledges the seq it reached. A member that already
        holds some notes (at any revision) ends up holding what scheduled
        replication would give it, and a note any member had in its trash
        ends in the trash everywhere. A member that is unreachable stays
        stalled for a later ``catch_up``. Returns the number of notes
        replayed.
        """
        others = [member for member in self._members if member is not origin]
        for member in others:
            self._replay_all(member, origin)
        replayed = self.catch_up()
        for member in others:
            self._replay_all(origin, member)
        return replayed + self.catch_up()

    def _replay_all(self, source: NotesDatabase, target: NotesDatabase) -> None:
        """Stall the link at seq 0 with ``source``'s trash moves pending."""
        link = (source.server, target.server)
        self._stalled[link] = 0
        self._pending.setdefault(link, {}).update(dict.fromkeys(source.trash))

    def _member_on(self, server: str) -> NotesDatabase | None:
        for member in self._members:
            if member.server == server:
                return member
        return None

    @property
    def backlog_size(self) -> int:
        """Distinct notes awaiting drain across all stalled links.

        Computed from the journal (the suffix past each link's cursor)
        plus the pending un-journaled events — the replicator itself no
        longer stores per-note backlog state.
        """
        total = 0
        for link, cursor in self._stalled.items():
            source = self._member_on(link[0])
            if source is None:
                continue
            docs, stubs = source.changed_since_seq(cursor)
            total += len(docs) + len(stubs)
        for pending in self._pending.values():
            total += len(pending)
        return total
