"""The shared multi-segment sidecar store (LSM/Lucene-style segments).

Derived structures (the full-text index, persisted view indexes) keep
their on-disk payload as a *stack of immutable segments*: each segment is
an offset directory (``key -> (offset, length)``, one small marshal
record parsed eagerly on open) over a blob of concatenated marshal
records (fetched lazily, materialized per key on first touch). Saving a
checkpoint appends the live overlay as a **new** segment instead of
rewriting the whole structure, so close cost is O(delta). Segments fold
back together by a binary-counter rule (the "logarithmic method"): a
segment that holds at least as many bytes as its older neighbour folds
into it, so K equal appends leave at most log2(K) + 1 segments and copy
each record about log2(K) times — the amortization argument of an LSM
tree or Lucene's tiered segment merges. Two backstops fold the smallest
adjacent pair: while the stack holds more than :data:`MAX_SEGMENTS`
segments, and while tombstones mask more than half of its directory
entries (a delete appends no bytes, so the counter cannot see them).

A key's live record is the one in the newest segment containing it;
older copies are dead weight until a fold drops them, and a tombstone in
the manifest masks a deleted key in every segment. A consumer that keeps
a key live in several segments at once (the full-text index: each
segment's postings record for a term holds the postings of the documents
written in that segment) reads them all through :meth:`records` and
passes a ``combine`` callback that resolves every key of a fold.

The stack never owns a transaction: callers pass the engine transaction
that also carries their checkpoint meta record, so an append or a merge
commits atomically with the checkpoint describing it — a crash before
the commit leaves the previous checkpoint fully intact (the segment
battery in ``tests/test_segments_crash.py`` kills the engine at every
write point to prove it). The stack's *manifest* (segment ids,
tombstones, id counter) is a plain JSON-able dict the consumer embeds in
its own meta record for the same reason.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: ``combine(index, key, older_record, newer_record)``: resolves ``key``
#: in a fold of the pair at ``index`` (see :meth:`SegmentStack.fold`).
Combine = Callable[[int, str, Any, Any], Any]

#: Fold (smallest adjacent pair first) while a stack holds more segments.
MAX_SEGMENTS = 8


@dataclass
class SegmentStats:
    """Per-stack counters, exposed through ``CatchUpStats.segment_stats``.

    ``segments`` / ``total_entries`` / ``tombstones`` describe the
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
    """One immutable on-disk segment: directory + lazily-fetched blob."""

    __slots__ = ("seg_id", "directory", "blob", "cache", "size")

    def __init__(
        self,
        seg_id: int,
        directory: dict[str, tuple[int, int]],
        blob: bytes | None,
        cache: dict[str, Any] | None = None,
    ) -> None:
        self.seg_id = seg_id
        self.directory = directory
        # None = committed earlier, fetch from the engine on first touch.
        self.blob = blob
        self.cache = cache if cache is not None else {}
        # Blob length, without the blob: offsets ascend in directory
        # order (_write_segment lays the records out in that order), so
        # the last entry ends the blob.
        start, length = next(reversed(directory.values()), (0, 0))
        self.size = start + length


class SegmentStack:
    """N immutable segments + tombstones behind one namespace of keys."""

    def __init__(
        self, engine, namespace: bytes, stats: SegmentStats | None = None
    ) -> None:
        self.engine = engine
        self.namespace = namespace
        self.stats = stats if stats is not None else SegmentStats()
        self._segments: list[_Segment] = []
        self._tombstones: set[str] = set()
        # key -> position (index into _segments) of its newest occurrence.
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
            "tombstones": sorted(self._tombstones),
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
            segments.append(_Segment(seg_id, marshal.loads(raw), blob=None))
        self._segments = segments
        self._tombstones = set(manifest.get("tombstones", ()))
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

    def __contains__(self, key: str) -> bool:
        return key in self._newest and key not in self._tombstones

    def keys(self) -> Iterator[str]:
        """Every key present in any segment, tombstoned included."""
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

        ``remove`` tombstones keys whose record died without a successor;
        a key re-appearing in ``records`` sheds any existing tombstone
        (the new segment is now its live home). The in-memory cache is
        seeded from ``records``, so post-append reads parse nothing.
        """
        self._segments.append(self._write_segment(txn, dict(records)))
        position = len(self._segments) - 1
        for key in records:
            self._newest[key] = position
        self._tombstones -= set(records)
        # Tombstone only keys some segment still carries; a key created
        # and dropped between two checkpoints never reached disk at all.
        self._tombstones |= {
            key for key in set(remove) - set(records) if key in self._newest
        }
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
        :data:`MAX_SEGMENTS` segments or tombstones mask more than half
        of its directory entries; a lone segment that is mostly masked
        is compacted on its own. ``combine`` goes to every :meth:`fold`.
        """
        folded: list[int] = []
        while (index := self._pick_fold_index()) is not None:
            self.fold(txn, index, combine)
            folded.append(index)
        return folded

    def _mostly_masked(self) -> bool:
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
        only segment), dropping tombstoned keys and superseded copies.

        Without ``combine`` a key keeps its newest copy. With it, every
        key that is not tombstoned resolves through ``combine(index, key,
        older_record, newer_record)`` (either record may be None;
        returning None drops the key), called while :meth:`position_of`
        still answers in the positions from before the fold.
        """
        older = self._segments[index]
        pair = self._segments[index:index + 2]
        newer = pair[1] if len(pair) == 2 else None
        keys = set(older.directory)
        if newer is not None:
            keys |= set(newer.directory)
        keys -= self._tombstones
        newer_position = index + len(pair) - 1
        records: dict[str, Any] = {}
        for key in keys:
            in_newer = newer is not None and key in newer.directory
            if combine is not None:
                merged = combine(
                    index,
                    key,
                    self._record(older, key) if key in older.directory else None,
                    self._record(newer, key) if in_newer else None,
                )
                if merged is not None:
                    records[key] = merged
            elif self._newest[key] <= newer_position:
                # Not superseded by a segment above the pair.
                records[key] = self._record(newer if in_newer else older, key)
        for victim in pair:
            self.stats.bytes_folded += victim.size
            self.engine.delete(txn, self._dir_key(victim.seg_id))
            self.engine.delete(txn, self._blob_key(victim.seg_id))
        self._renumber(index, pair, records)
        self._segments[index:index + 2] = [self._write_segment(txn, records)]
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

    def _write_segment(self, txn, records: dict[str, Any]) -> _Segment:
        """Put ``records`` under a fresh segment id inside ``txn``; the
        segment's cache adopts ``records``."""
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
        self.engine.put(txn, self._dir_key(seg_id), marshal.dumps(directory))
        self.engine.put(txn, self._blob_key(seg_id), blob)
        return _Segment(seg_id, directory, blob=blob, cache=records)

    # -- bookkeeping -------------------------------------------------------

    def _rebuild_newest(self) -> None:
        self._newest = {}
        for position, segment in enumerate(self._segments):
            self._newest.update(dict.fromkeys(segment.directory, position))

    def _refresh_stats(self) -> None:
        self.stats.segments = len(self._segments)
        self.stats.total_entries = sum(
            len(segment.directory) for segment in self._segments
        )
        self.stats.tombstones = len(self._tombstones)
