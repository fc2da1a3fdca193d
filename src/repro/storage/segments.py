"""The shared multi-segment sidecar store (LSM/Lucene-style segments).

Derived structures (the full-text index, persisted view indexes) keep
their on-disk payload as a *stack of immutable segments*: each segment is
a directory (one small marshal record parsed eagerly on open) over a
blob of concatenated marshal records (fetched lazily, materialized per
key on first touch). Saving a checkpoint appends the live overlay as a
**new** segment instead of rewriting the whole structure, so close cost
is O(delta). Segments fold back together by a binary-counter rule (the
"logarithmic method"): a segment that holds at least as many bytes as
its older neighbour folds into it, so K equal appends leave at most
log2(K) + 1 segments and copy each record about log2(K) times — the
amortization argument of an LSM tree or Lucene's tiered segment merges.
Two backstops fold the smallest adjacent pair: while the stack holds
more than :data:`MAX_SEGMENTS` segments, and while deleted keys mask
more than half of its records (a delete appends no blob bytes, so the
counter cannot see them).

A segment's directory record is ``marshal.dumps((keys, lengths,
tombstones))``: its record keys in sorted order, each record's byte
length (records lie back to back in key order, so offsets are running
sums) and the sorted keys it deletes. Keeping the keys sorted lets a
consumer number a segment's keys by rank (:meth:`SegmentStack.numbering`)
without writing a table for it.

A key's live record is the one in the newest segment containing it;
older copies are dead weight until a fold drops them. A delete writes a
*tombstone* entry for the key into the segment being appended (the
LSM-tree rule): while a key's newest entry is a tombstone, the key is
gone from every read. A fold keeps the newest entry of each key in the
pair and drops a tombstone once no segment below the pair holds a record
of its key, so a fold into the bottom segment leaves no tombstone. A
consumer that keeps a key live in several segments at once (the
full-text index: each segment's postings record for a term holds the
postings of the documents written in that segment) reads them all
through :meth:`SegmentStack.records` and passes a ``combine`` callback
that resolves every key of a fold.

The stack never owns a transaction: callers pass the engine transaction
that also carries their checkpoint meta record, so an append or a merge
commits atomically with the checkpoint describing it — a crash before
the commit leaves the previous checkpoint fully intact (the segment
battery in ``tests/test_segments_crash.py`` kills the engine at every
write point to prove it). The stack's *manifest* (segment ids and the id
counter) is a plain JSON-able dict the consumer embeds in its own meta
record for the same reason; it does not grow with deletes.
"""

from __future__ import annotations

import marshal
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Iterator

#: ``combine(index)`` starts a fold of the pair at ``index`` and returns
#: ``resolve(key, older_record, newer_record)``, which resolves each key
#: of that fold (see :meth:`SegmentStack.fold`).
Combine = Callable[[int], Callable[[str, Any, Any], Any]]

#: Fold (smallest adjacent pair first) while a stack holds more segments.
MAX_SEGMENTS = 8


@dataclass
class SegmentStats:
    """Per-stack counters, exposed through ``CatchUpStats.segment_stats``.

    ``segments`` / ``total_entries`` (records, not tombstones) /
    ``tombstones`` (keys whose newest entry is a tombstone) describe the
    current stack state; the rest accumulate over the stack's lifetime.
    """

    segments: int = 0
    total_entries: int = 0
    tombstones: int = 0
    appends: int = 0
    records_appended: int = 0
    merges: int = 0
    bytes_folded: int = 0


class _Segment:
    """One immutable on-disk segment: directory + lazily-fetched blob.

    ``directory`` maps each record key, in sorted order, to its
    ``(offset, length)`` in the blob; ``tombstones`` holds the keys the
    segment deletes.
    """

    __slots__ = (
        "seg_id", "directory", "tombstones", "blob", "cache", "size",
        "numberings",
    )

    def __init__(
        self,
        seg_id: int,
        directory: dict[str, tuple[int, int]],
        tombstones: frozenset[str],
        blob: bytes | None,
        cache: dict[str, Any] | None = None,
    ) -> None:
        self.seg_id = seg_id
        self.directory = directory
        self.tombstones = tombstones
        # None = committed earlier, fetch from the engine on first touch.
        self.blob = blob
        self.cache = cache if cache is not None else {}
        # Blob length, without the blob: offsets ascend in directory
        # order, so the last entry ends the blob.
        start, length = next(reversed(directory.values()), (0, 0))
        self.size = start + length
        # prefix -> the sorted keys under it, prefix stripped.
        self.numberings: dict[str, list[str]] = {}

    @classmethod
    def decode(cls, seg_id: int, raw: bytes) -> "_Segment":
        keys, lengths, tombstones = marshal.loads(raw)
        offsets = accumulate(lengths, initial=0)
        directory = dict(zip(keys, zip(offsets, lengths)))
        return cls(seg_id, directory, frozenset(tombstones), blob=None)

    def encode(self) -> bytes:
        return marshal.dumps((
            list(self.directory),
            [length for _, length in self.directory.values()],
            sorted(self.tombstones),
        ))


class SegmentStack:
    """N immutable segments behind one namespace of keys."""

    def __init__(
        self, engine, namespace: bytes, stats: SegmentStats | None = None
    ) -> None:
        self.engine = engine
        self.namespace = namespace
        self.stats = stats if stats is not None else SegmentStats()
        self._segments: list[_Segment] = []
        # Keys whose newest entry is a tombstone over an older record.
        self._tombstones: set[str] = set()
        # key -> position (index into _segments) of its newest record.
        self._newest: dict[str, int] = {}
        self._next_id = 1
        self._refresh_stats()

    # -- engine keys ------------------------------------------------------

    def _dir_key(self, seg_id: int) -> bytes:
        return self.namespace + b":dir:" + str(seg_id).encode()

    def _blob_key(self, seg_id: int) -> bytes:
        return self.namespace + b":blob:" + str(seg_id).encode()

    # -- manifest ----------------------------------------------------------

    def manifest(self) -> dict:
        """JSON-able description the consumer embeds in its meta record."""
        return {
            "segments": [segment.seg_id for segment in self._segments],
            "next_id": self._next_id,
        }

    def load(self, manifest: dict) -> bool:
        """Adopt a persisted manifest: parse directories, leave blobs lazy.

        Returns False (the stack stays empty; the caller treats the
        checkpoint as absent and rebuilds) when any referenced segment
        directory is missing — a manifest that outlived its segments is
        never trusted, whatever tore it.
        """
        segments: list[_Segment] = []
        for seg_id in manifest.get("segments", ()):
            raw = self.engine.get(self._dir_key(seg_id))
            if raw is None:
                return False
            segments.append(_Segment.decode(seg_id, raw))
        self._segments = segments
        self._next_id = int(manifest.get("next_id", 1))
        self._rebuild_newest()
        self._refresh_stats()
        return True

    @staticmethod
    def delete_manifest(engine, txn, namespace: bytes, manifest: dict) -> None:
        """Delete every engine key a persisted manifest references,
        without constructing a stack (clears a superseded layout)."""
        for seg_id in manifest.get("segments", ()):
            for key in (
                namespace + b":dir:" + str(seg_id).encode(),
                namespace + b":blob:" + str(seg_id).encode(),
            ):
                engine.delete(txn, key)

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def get(self, key: str) -> Any:
        """Newest live record for ``key``, or None."""
        if key in self._tombstones:
            return None
        position = self._newest.get(key)
        if position is None:
            return None
        return self._record(self._segments[position], key)

    def position_of(self, key: str) -> int | None:
        """Index of the newest segment containing a live ``key``."""
        if key in self._tombstones:
            return None
        return self._newest.get(key)

    def records(self, key: str) -> list[tuple[int, Any]]:
        """Every segment's record for ``key``, oldest position first, for
        a consumer that keeps the key live in several segments."""
        out = []
        for position, segment in enumerate(self._segments):
            if key in segment.directory:
                out.append((position, self._record(segment, key)))
        return out

    def numbering(self, position: int, prefix: str) -> list[str]:
        """The record keys under ``prefix`` in segment ``position``, in
        sorted order with the prefix stripped: a key's number in that
        segment is its index here. Computed once per segment."""
        segment = self._segments[position]
        table = segment.numberings.get(prefix)
        if table is None:
            keys = list(segment.directory)
            first = bisect_left(keys, prefix)
            end = bisect_left(keys, prefix[:-1] + chr(ord(prefix[-1]) + 1))
            skip = len(prefix)
            table = segment.numberings[prefix] = [
                key[skip:] for key in keys[first:end]
            ]
        return table

    def __contains__(self, key: str) -> bool:
        return key in self._newest and key not in self._tombstones

    def keys(self) -> Iterator[str]:
        """Every key with a record in any segment, tombstoned included."""
        return iter(self._newest)

    def live_keys(self) -> Iterator[str]:
        return (key for key in self._newest if key not in self._tombstones)

    def live_count(self) -> int:
        return len(self._newest) - len(self._tombstones)

    def live_items(self) -> Iterator[tuple[str, Any]]:
        """(key, newest record) for every live key."""
        for key in self.live_keys():
            yield key, self._record(self._segments[self._newest[key]], key)

    def _record(self, segment: _Segment, key: str) -> Any:
        entry = segment.cache.get(key)
        if entry is None:
            start, length = segment.directory[key]
            if segment.blob is None:
                segment.blob = (
                    self.engine.get(self._blob_key(segment.seg_id)) or b""
                )
            entry = marshal.loads(segment.blob[start:start + length])
            segment.cache[key] = entry
        return entry

    # -- writes ------------------------------------------------------------

    def append(
        self, txn, records: dict[str, Any], remove: set[str] | frozenset = frozenset()
    ) -> None:
        """Write ``records`` as a new top segment inside ``txn``.

        ``remove`` deletes keys whose record died without a successor:
        each becomes a tombstone entry of the new segment. A key
        re-appearing in ``records`` is live again (the new segment is now
        its home). The in-memory cache is seeded from ``records``, so
        post-append reads parse nothing.
        """
        # Tombstone only keys some segment still carries live; a key
        # created and dropped between two checkpoints never reached disk
        # at all, and an already deleted one needs no second tombstone.
        tombstones = {
            key for key in remove
            if key not in records
            and key in self._newest
            and key not in self._tombstones
        }
        self._segments.append(self._write_segment(txn, dict(records), tombstones))
        position = len(self._segments) - 1
        for key in records:
            self._newest[key] = position
        self._tombstones -= records.keys()
        self._tombstones |= tombstones
        self.stats.appends += 1
        self.stats.records_appended += len(records)
        self._refresh_stats()

    def maintain(self, txn, combine: Combine | None = None) -> list[int]:
        """Fold until every segment holds fewer bytes than its older
        neighbour and neither backstop holds; returns the fold indices.

        After an append only the top pair can break the byte rule, so a
        save folds the top pair while the newer segment is at least as
        big as the older one — a carry in a binary counter. Then the
        smallest adjacent pair folds while the stack holds more than
        :data:`MAX_SEGMENTS` segments or deleted keys mask more than
        half of its records; a lone segment that is mostly masked is
        compacted on its own. ``combine`` goes to every
        :meth:`fold`.
        """
        folded: list[int] = []
        while (index := self._pick_fold_index()) is not None:
            self.fold(txn, index, combine)
            folded.append(index)
        return folded

    def _mostly_masked(self) -> bool:
        """True when deleted keys mask more than half of the stack's
        records (tombstone entries do not count)."""
        tombstones = self._tombstones
        if not tombstones:
            return False
        masked = sum(
            len(segment.directory.keys() & tombstones)
            for segment in self._segments
        )
        return 2 * masked > self.stats.total_entries

    def _pick_fold_index(self) -> int | None:
        """The adjacent pair to fold next, or None when none must.

        The newest pair whose newer segment holds at least as many bytes
        as the older comes first; then, if a backstop holds, the smallest
        pair (or the lone segment). Folds must respect stack order:
        merging non-neighbours would reorder which copy is newest.
        """
        sizes = [segment.size for segment in self._segments]
        for index in range(len(sizes) - 2, -1, -1):
            if sizes[index + 1] >= sizes[index]:
                return index
        if len(sizes) <= MAX_SEGMENTS and not self._mostly_masked():
            return None
        pairs = range(len(sizes) - 1)
        return min(pairs, key=lambda i: sizes[i] + sizes[i + 1], default=0)

    def fold(self, txn, index: int, combine: Combine | None = None) -> None:
        """Fold segments ``index`` and ``index + 1`` into one fresh
        segment at ``index`` (or compact ``index`` alone when it is the
        only segment), dropping deleted keys and superseded copies.

        Without ``combine`` a key keeps its newest copy. With it, every
        key that is not deleted resolves through ``combine(index)(key,
        older_record, newer_record)`` (either record may be None;
        returning None drops the key), called while :meth:`position_of`
        still answers in the positions from before the fold. A tombstone
        stays only while its key is still deleted and a segment below the
        pair still holds a record of the key.
        """
        older = self._segments[index]
        pair = self._segments[index:index + 2]
        newer = pair[1] if len(pair) == 2 else None
        keys = set(older.directory)
        if newer is not None:
            keys |= newer.directory.keys()
        deleted = keys & self._tombstones
        keys -= deleted
        newer_position = index + len(pair) - 1
        records: dict[str, Any] = {}
        resolve = combine(index) if combine is not None else None
        for key in keys:
            in_newer = newer is not None and key in newer.directory
            if resolve is not None:
                merged = resolve(
                    key,
                    self._record(older, key) if key in older.directory else None,
                    self._record(newer, key) if in_newer else None,
                )
                if merged is not None:
                    records[key] = merged
            elif self._newest[key] <= newer_position:
                # Not superseded by a segment above the pair.
                records[key] = self._record(newer if in_newer else older, key)
        below = self._segments[:index]
        tombstones = {
            key
            for victim in pair
            for key in victim.tombstones
            if key in self._tombstones
            and any(key in segment.directory for segment in below)
        }
        for victim in pair:
            self.stats.bytes_folded += victim.size
            self.engine.delete(txn, self._dir_key(victim.seg_id))
            self.engine.delete(txn, self._blob_key(victim.seg_id))
        self._renumber(index, pair, records)
        self._segments[index:index + 2] = [
            self._write_segment(txn, records, tombstones)
        ]
        self.stats.merges += 1
        self._refresh_stats()

    def _renumber(
        self, index: int, pair: list[_Segment], records: dict[str, Any]
    ) -> None:
        """Move ``_newest`` to the positions after ``pair`` folds into
        ``records`` at ``index``, touching only the pair's keys and those
        of the segments above it — a fold of two small segments stays
        O(pair), however big the segments below."""
        newest, top = self._newest, index + len(pair) - 1
        for key in {key for segment in pair for key in segment.directory}:
            if newest[key] > top:
                continue  # superseded above the pair: shifted below
            home = index if key in records else next((
                position for position in range(index - 1, -1, -1)
                if key in self._segments[position].directory
            ), None)
            if home is None:
                del newest[key]
                self._tombstones.discard(key)
            else:
                newest[key] = home
        for position in range(top + 1, len(self._segments)):
            for key in self._segments[position].directory:
                if newest[key] == position:
                    newest[key] = position - 1

    def _write_segment(
        self, txn, records: dict[str, Any], tombstones: set[str] | frozenset
    ) -> _Segment:
        """Put ``records`` and ``tombstones`` under a fresh segment id
        inside ``txn``; the segment's cache adopts ``records``."""
        parts: list[bytes] = []
        directory: dict[str, tuple[int, int]] = {}
        offset = 0
        for key in sorted(records):
            record_bytes = marshal.dumps(records[key])
            directory[key] = (offset, len(record_bytes))
            offset += len(record_bytes)
            parts.append(record_bytes)
        seg_id = self._next_id
        self._next_id += 1
        blob = b"".join(parts)
        segment = _Segment(
            seg_id, directory, frozenset(tombstones), blob=blob, cache=records
        )
        self.engine.put(txn, self._dir_key(seg_id), segment.encode())
        self.engine.put(txn, self._blob_key(seg_id), blob)
        return segment

    # -- bookkeeping -------------------------------------------------------

    def _rebuild_newest(self) -> None:
        """Derive ``_newest`` and ``_tombstones`` from the directories,
        oldest segment first."""
        newest: dict[str, int] = {}
        tombstones: set[str] = set()
        for position, segment in enumerate(self._segments):
            newest.update(dict.fromkeys(segment.directory, position))
            if tombstones:
                tombstones = {
                    key for key in tombstones if key not in segment.directory
                }
            tombstones.update(
                key for key in segment.tombstones if key in newest
            )
        self._newest = newest
        self._tombstones = tombstones

    def _refresh_stats(self) -> None:
        self.stats.segments = len(self._segments)
        self.stats.total_entries = sum(
            len(segment.directory) for segment in self._segments
        )
        self.stats.tombstones = len(self._tombstones)
