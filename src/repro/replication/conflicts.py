"""Conflict detection and resolution.

Two replicas that edit the same document between replications have
*diverged*: neither revision's stamp appears in the other's ``$Revisions``
ancestry. Notes' signature answer is the **conflict document**: the losing
revision is preserved as a response note flagged ``$Conflict`` beneath the
winner, so no update is silently discarded and a human (or agent) merges.

Three policies are implemented so experiment E3 can compare them:

``CONFLICT_DOC`` (Notes default)
    Winner replaces the main note; loser becomes a ``$Conflict`` response.
    The conflict response's UNID is *derived deterministically* from the
    losing revision so every replica materialises the identical conflict
    note and replication converges without duplicating it.
``MERGE``
    Field-level merge: items changed on only one side since the divergence
    point are combined. Items genuinely edited on both sides force the
    CONFLICT_DOC path (no silent loss).
``LWW``
    Last-writer-wins — the baseline ablation that silently discards the
    losing revision (and lets E3 count the lost updates).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from repro.core.database import ChangeKind, NotesDatabase
from repro.core.document import Document


class ConflictPolicy(str, Enum):
    CONFLICT_DOC = "conflict_doc"
    MERGE = "merge"
    LWW = "lww"


@dataclass
class ConflictOutcome:
    """What resolution did (for stats and tests)."""

    winner_unid: str
    conflict_doc_unid: str | None = None
    merged: bool = False
    lost_update: bool = False


def detect(local: Document, incoming: Document) -> str:
    """Classify the relation between a local and an incoming revision.

    Returns one of:

    * ``"same"`` — identical revision stamps; nothing to do.
    * ``"incoming_newer"`` — the incoming revision descends from the local
      one (plain update).
    * ``"local_newer"`` — the local revision descends from the incoming one
      (we are ahead; nothing to pull).
    * ``"conflict"`` — divergent histories.
    """
    if local.oid == incoming.oid:
        return "same"
    if incoming.has_ancestor_stamp(local.seq_time) and incoming.seq >= local.seq:
        return "incoming_newer"
    if local.has_ancestor_stamp(incoming.seq_time) and local.seq >= incoming.seq:
        return "local_newer"
    return "conflict"


def divergence_point(local: Document, incoming: Document) -> tuple[float, int] | None:
    """Latest revision stamp both histories share (None when unrelated)."""
    shared = set(map(tuple, local.revisions)) & set(map(tuple, incoming.revisions))
    return max(shared) if shared else None


def conflict_unid(loser: Document) -> str:
    """Deterministic UNID for the conflict note preserving ``loser``.

    Every replica that resolves the same conflict derives the same UNID, so
    the conflict notes themselves converge instead of multiplying.
    """
    digest = hashlib.sha256(
        f"{loser.unid}/{loser.seq}/{loser.seq_time}".encode()
    ).hexdigest()
    return digest[:32].upper()


def make_conflict_document(winner: Document, loser: Document) -> Document:
    """Build the ``$Conflict`` response note preserving the losing revision."""
    conflict = loser.copy()
    conflict.unid = conflict_unid(loser)
    conflict.parent_unid = winner.unid
    conflict.note_id = 0
    conflict.set("$Conflict", "1")
    conflict.item_times["$Conflict"] = loser.seq_time
    return conflict


def merge_documents(local: Document, incoming: Document) -> Document | None:
    """Field-level merge, or None when the same item changed on both sides.

    Uses per-item change stamps relative to the divergence point: an item is
    "touched" on a side when its stamp is later than the last shared
    revision. Disjoint touch-sets merge cleanly; overlapping ones do not.
    The merged document is *deterministic* — both replicas build an
    identical result (same items, same envelope) so it replicates as "same".
    """
    base_stamp = divergence_point(local, incoming)
    if base_stamp is None:
        return None

    def touched(doc: Document) -> set[str]:
        return {
            name
            for name, stamp in doc.item_times.items()
            if tuple(stamp) > base_stamp
        }

    local_touched = touched(local)
    incoming_touched = touched(incoming)
    if local_touched & incoming_touched:
        return None

    winner = incoming if incoming.oid.newer_than(local.oid) else local
    merged = winner.copy()
    for side, names in ((local, local_touched), (incoming, incoming_touched)):
        for name in names:
            item = side.item(name)
            if item is None:
                if name in merged:
                    merged.remove_item(name)
            else:
                merged.set(name, item)
            merged.item_times[name] = tuple(side.item_times[name])
    # Deterministic merged envelope: both replicas compute the same stamp.
    merge_stamp = max(tuple(local.seq_time), tuple(incoming.seq_time))
    merged.seq = max(local.seq, incoming.seq) + 1
    merged.seq_time = merge_stamp
    merged.modified = merge_stamp[0]
    history = {tuple(s) for s in local.revisions} | {
        tuple(s) for s in incoming.revisions
    }
    history.add(merge_stamp)
    merged.revisions = sorted(history)[-64:]
    merged.updated_by = sorted(set(local.updated_by) | set(incoming.updated_by))
    return merged


def resolve(
    db: NotesDatabase,
    local: Document,
    incoming: Document,
    policy: ConflictPolicy,
) -> ConflictOutcome:
    """Apply ``policy`` to a detected conflict inside ``db``.

    ``local`` is the document currently in ``db``; ``incoming`` arrived from
    the replication partner.
    """
    if policy == ConflictPolicy.MERGE:
        merged = merge_documents(local, incoming)
        if merged is not None:
            db.raw_put(merged, ChangeKind.REPLACE)
            return ConflictOutcome(winner_unid=merged.unid, merged=True)
        # overlapping edits: fall through to conflict documents
        policy = ConflictPolicy.CONFLICT_DOC

    incoming_wins = incoming.oid.newer_than(local.oid)
    winner = incoming if incoming_wins else local
    loser = local if incoming_wins else incoming

    if policy == ConflictPolicy.LWW:
        if incoming_wins:
            db.raw_put(incoming.copy(), ChangeKind.REPLACE)
        return ConflictOutcome(winner_unid=winner.unid, lost_update=True)

    conflict = make_conflict_document(winner, loser)
    if incoming_wins:
        db.raw_put(incoming.copy(), ChangeKind.REPLACE)
    # The conflict note's UNID is derived from the losing revision, so a
    # note or stub already held under it is this conflict, resolved here
    # before and perhaps edited or deleted since: that later state stands.
    if db.held(conflict.unid) is None and db.stub(conflict.unid) is None:
        db.raw_put(conflict, ChangeKind.REPLACE)
    return ConflictOutcome(
        winner_unid=winner.unid, conflict_doc_unid=conflict.unid
    )
