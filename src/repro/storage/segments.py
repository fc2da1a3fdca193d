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
tree or Lucene's tiered segment merges. A configurable merge policy
adds backstops on the segment count and the fraction of dead entries.

Two read disciplines exist, chosen per stack:

``newest_wins=True`` (view entries, the full-text doc→terms table)
    A key's live record is the one in the newest segment containing it;
    older copies are dead weight until a fold drops them. Deletions are
    tombstones in the manifest, masking every segment.
``newest_wins=False`` (the full-text term→postings table)
    Every segment's record for a key is live data (each holds the
    postings contributed by the documents written in that segment);
    reads see all of them and the *consumer* decides which sub-entries
    still count. Folds combine pairs through a consumer callback.

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

Combine = Callable[[str, Any, Any], Any]


@dataclass(frozen=True)
class MergePolicy:
    """When to fold segments back together, beyond the binary-counter
    rule every stack follows (see :meth:`SegmentStack.maintain`).

    ``max_segments``
        Fold (smallest adjacent pair first) while the stack holds more
        segments than this.
    ``max_dead_ratio``
        Fold while more than this fraction of directory entries across
        all segments is dead (superseded by a newer segment or
        tombstoned). Only meaningful for ``newest_wins`` stacks.
    """

    max_segments: int = 8
    max_dead_ratio: float = 0.5


DEFAULT_POLICY = MergePolicy()

#: The ablation: every append is immediately folded into one segment, so
#: a checkpoint always rewrites the whole structure — the pre-segment
#: O(index) close cost E15 measures the stack against.
SINGLE_SEGMENT = MergePolicy(max_segments=1, max_dead_ratio=1.0)


@dataclass
class SegmentStats:
    """Per-stack counters, exposed through ``CatchUpStats.segment_stats``.

    ``segments`` / ``total_entries`` / ``dead_entries`` mirror the
    current stack state; the rest accumulate over the stack's lifetime.
    """

    segments: int = 0
    total_entries: int = 0
    dead_entries: int = 0
    appends: int = 0
    records_appended: int = 0
    merges: int = 0
    bytes_folded: int = 0

    @property
    def dead_ratio(self) -> float:
        if self.total_entries == 0:
            return 0.0
        return self.dead_entries / self.total_entries


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
        # Blob length, computed from the directory without the blob.
        self.size = sum(length for _, length in directory.values())


class SegmentStack:
    """N immutable segments + tombstones behind one namespace of keys."""

    def __init__(
        self,
        engine,
        namespace: bytes,
        policy: MergePolicy | None = None,
        newest_wins: bool = True,
        stats: SegmentStats | None = None,
    ) -> None:
        self.engine = engine
        self.namespace = namespace
        self.policy = policy or DEFAULT_POLICY
        self.newest_wins = newest_wins
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
        """Newest live record for ``key`` (newest-wins stacks), or None."""
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
        """Every segment's record for ``key``, oldest position first —
        the accumulate-stack read (each record is independently live)."""
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
        """(key, newest record) for every live key (newest-wins stacks)."""
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
        self._segments.append(
            _Segment(seg_id, directory, blob=blob, cache=dict(records))
        )
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

    def maintain(
        self,
        txn,
        combine: Combine | None = None,
        mirror: Callable[[int, set[str]], None] | None = None,
    ) -> list[int]:
        """Fold until every segment holds fewer bytes than its older
        neighbour and the merge policy is satisfied; returns fold indices.

        After an append only the top pair can break the byte rule, so a
        save folds the top pair while the newer segment is at least as
        big as the older one — a carry in a binary counter. The policy's
        backstops then fold the smallest adjacent pair while there are
        too many segments or dead entries.

        ``mirror(index, newer_keys)`` runs after each fold with the
        directory keys the pair's newer segment held *before* folding —
        a consumer replays the same folds on a sibling stack in
        positional lockstep this way (the full-text index folds its
        terms stack wherever the docs stack folds, and needs the
        pre-fold newer directory to tell which postings died).
        """
        folded: list[int] = []

        def run_fold(index: int) -> None:
            newer_keys = (
                set(self._segments[index + 1].directory)
                if index + 1 < len(self._segments)
                else set()
            )
            self.fold(txn, index, combine)
            if mirror is not None:
                mirror(index, newer_keys)
            folded.append(index)

        while len(self._segments) > 1:
            index = self._pick_fold_index()
            if index is None:
                break
            run_fold(index)
        if (
            len(self._segments) == 1
            and self.stats.dead_entries > 0
            and self.stats.dead_ratio > self.policy.max_dead_ratio
        ):
            run_fold(0)
        return folded

    def _violates_policy(self) -> bool:
        if len(self._segments) > self.policy.max_segments:
            return True
        return (
            self.newest_wins
            and self.stats.dead_entries > 0
            and self.stats.dead_ratio > self.policy.max_dead_ratio
        )

    def _pick_fold_index(self) -> int | None:
        """The adjacent pair to fold next, or None when none must.

        The newest pair whose newer segment holds at least as many bytes
        as the older comes first; then, if the policy is still violated,
        the smallest pair. Folds must respect stack order: merging
        non-neighbours would reorder which copy is newest.
        """
        sizes = [segment.size for segment in self._segments]
        for index in range(len(sizes) - 2, -1, -1):
            if sizes[index + 1] >= sizes[index]:
                return index
        if not self._violates_policy():
            return None
        best = 0
        best_cost = None
        for index in range(len(sizes) - 1):
            cost = sizes[index] + sizes[index + 1]
            if best_cost is None or cost < best_cost:
                best, best_cost = index, cost
        return best

    def fold(self, txn, index: int, combine: Combine | None = None) -> None:
        """Fold segments ``index`` and ``index + 1`` into one fresh
        segment at ``index`` (or compact ``index`` alone when it is the
        only segment), dropping dead entries.

        ``combine(key, older_record, newer_record)`` resolves keys for
        accumulate stacks (either argument may be None; returning None
        drops the key). Newest-wins stacks resolve by position and need
        no callback.
        """
        older = self._segments[index]
        newer = (
            self._segments[index + 1]
            if index + 1 < len(self._segments)
            else None
        )
        records: dict[str, Any] = {}
        keys = set(older.directory)
        if newer is not None:
            keys |= set(newer.directory)
        newer_position = index + (1 if newer is not None else 0)
        for key in keys:
            if self.newest_wins:
                if key in self._tombstones:
                    continue
                if self._newest[key] > newer_position:
                    continue  # a later segment superseded this copy
                source = (
                    newer
                    if newer is not None and key in newer.directory
                    else older
                )
                records[key] = self._record(source, key)
            else:
                if combine is None:
                    raise ValueError(
                        "accumulate stacks need a combine callback to fold"
                    )
                merged = combine(
                    key,
                    self._record(older, key) if key in older.directory else None,
                    self._record(newer, key)
                    if newer is not None and key in newer.directory
                    else None,
                )
                if merged is not None:
                    records[key] = merged
        self.stats.bytes_folded += older.size + (newer.size if newer else 0)
        for victim in (older, newer) if newer is not None else (older,):
            self.engine.delete(txn, self._dir_key(victim.seg_id))
            self.engine.delete(txn, self._blob_key(victim.seg_id))
        parts = []
        directory = {}
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
        merged_segment = _Segment(seg_id, directory, blob=blob, cache=records)
        if newer is not None:
            self._segments[index:index + 2] = [merged_segment]
        else:
            self._segments[index] = merged_segment
        self._rebuild_newest()
        self._tombstones &= set(self._newest)
        self.stats.merges += 1
        self._refresh_stats()

    # -- bookkeeping -------------------------------------------------------

    def _rebuild_newest(self) -> None:
        self._newest = {}
        for position, segment in enumerate(self._segments):
            for key in segment.directory:
                self._newest[key] = position

    def _refresh_stats(self) -> None:
        self.stats.segments = len(self._segments)
        total = sum(len(segment.directory) for segment in self._segments)
        self.stats.total_entries = total
        if self.newest_wins:
            self.stats.dead_entries = total - self.live_count()
        else:
            # Deadness lives in sub-entries the consumer understands; the
            # consumer drives this stack's folds off a newest-wins sibling.
            self.stats.dead_entries = 0
