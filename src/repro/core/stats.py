"""Shared instrumentation for journal-driven catch-up consumers.

Every derived structure that rides the update-seq journal — views, the
full-text index, the cluster backlog — answers the same three questions
after a restart or a deferred batch: did it top up incrementally or fall
back to a rebuild, how many notes did it replay, and how long did the
catch-up take?  ``CatchUpStats`` gives them one shape for those answers
so benchmarks and operators read every consumer the same way.

``LinkHealth`` plays the same unifying role for everything that talks
over an unreliable link — the replication scheduler's edges and the mail
router's hops: one per-link counter block plus the
healthy → degraded → suspended circuit-breaker state machine, so
operators read every consumer of the network the same way too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class CatchUpStats:
    """Counters for one journal consumer's catch-up behaviour.

    ``rebuilds``
        Full from-scratch rebuilds (O(database) scans).
    ``topups``
        Incremental catch-ups replayed from
        ``NotesDatabase.changes_since`` (O(log n + changes)).
    ``notes_replayed``
        Notes (documents + deletion stubs) examined across all top-ups.
    ``purges_replayed``
        Purge-log entries applied across all top-ups.
    ``catch_up_seconds``
        Wall-clock time spent in top-ups and rebuilds combined.
    ``merges``
        Segment folds performed while saving checkpoints (consumers on
        the shared :class:`repro.storage.SegmentStack` record them here).
    ``segment_stats``
        Per-stack :class:`repro.storage.SegmentStats`, keyed by the
        consumer's name for the stack (``"entries"`` for a view,
        ``"postings"`` for the full-text index). Live objects — they
        track the stack as it moves.
    ``last_path``
        What the most recent catch-up actually did: ``"noop"``,
        ``"topup"``, ``"merge"`` (a top-up whose checkpoint save also
        folded segments), or ``"rebuild"`` (empty before the first one).
    """

    rebuilds: int = 0
    topups: int = 0
    notes_replayed: int = 0
    purges_replayed: int = 0
    catch_up_seconds: float = 0.0
    merges: int = 0
    segment_stats: dict = field(default_factory=dict, compare=False)
    last_path: str = field(default="", compare=False)

    def replay(
        self,
        changes: tuple[list[str], list[str]],
        reindex: Callable[[str], None],
    ) -> None:
        """Apply one ``NotesDatabase.changes_since`` result through the
        consumer's ``reindex`` and record it: a top-up, or ``"noop"``
        when nothing changed."""
        purged, changed = changes
        if not (purged or changed):
            self.record_noop()
            return
        started = perf_counter()
        for unid in purged + changed:
            reindex(unid)
        self.topups += 1
        self.notes_replayed += len(changed)
        self.purges_replayed += len(purged)
        self.catch_up_seconds += perf_counter() - started
        self.last_path = "topup"

    def record_rebuild(self, seconds: float) -> None:
        self.rebuilds += 1
        self.catch_up_seconds += seconds
        self.last_path = "rebuild"

    def record_noop(self) -> None:
        self.last_path = "noop"

    def record_merge(self, folds: int) -> None:
        """Folds performed by a checkpoint save; promotes ``last_path``
        to ``"merge"`` so top-up and top-up-plus-fold are tellable apart."""
        if folds > 0:
            self.merges += folds
            self.last_path = "merge"


HEALTHY = "healthy"
DEGRADED = "degraded"
SUSPENDED = "suspended"


@dataclass
class LinkHealth:
    """Per-link circuit-breaker state plus attempt counters.

    State machine: ``healthy`` links attempt freely; a failure moves the
    link to ``degraded`` with exponential backoff, and
    ``failure_threshold`` consecutive failures open the breaker
    (``suspended``) — only periodic *probes* go out until one succeeds,
    which snaps the link back to ``healthy`` and resets the counters
    that gate it. Every attempt-shaped decision (skip because
    unreachable, defer because backed off, retry after failure) is
    counted, so a silently-skipped edge is never indistinguishable from
    a no-op exchange.

    The backoff *delay* is computed here; the jitter *draw* comes from
    the caller's seeded RNG so replay determinism stays in one place.
    """

    state: str = HEALTHY
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    retries: int = 0  # attempts made while recovering from a failure
    skips: int = 0  # link unreachable at attempt time (no cost paid)
    deferrals: int = 0  # gated out by backoff / open breaker
    probes: int = 0  # attempts made with the breaker open
    consecutive_failures: int = 0
    next_attempt_at: float = 0.0  # virtual time before which we defer
    last_error: str = ""

    def ready(self, now: float) -> bool:
        return now >= self.next_attempt_at

    def record_skip(self) -> None:
        self.skips += 1

    def record_deferral(self) -> None:
        self.deferrals += 1

    def begin_attempt(self) -> bool:
        """Count an attempt; returns True when it is a retry."""
        self.attempts += 1
        if self.state == SUSPENDED:
            self.probes += 1
        if self.consecutive_failures > 0:
            self.retries += 1
            return True
        return False

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        self.state = HEALTHY
        self.next_attempt_at = 0.0
        self.last_error = ""

    def record_failure(
        self,
        now: float,
        error: str,
        *,
        backoff_base: float,
        backoff_cap: float,
        failure_threshold: int,
        probe_interval: float,
        jitter: float,
    ) -> float:
        """Register a failed attempt; returns the chosen backoff delay.

        ``jitter`` is a draw in [0, 1) from the caller's seeded RNG,
        stretching the delay by up to that fraction of itself.
        """
        self.failures += 1
        self.consecutive_failures += 1
        self.last_error = error
        if self.consecutive_failures >= failure_threshold:
            self.state = SUSPENDED
            exponent = self.consecutive_failures - failure_threshold
            delay = probe_interval * (2.0 ** exponent)
        else:
            self.state = DEGRADED
            delay = backoff_base * (2.0 ** (self.consecutive_failures - 1))
        delay = min(delay, backoff_cap) * (1.0 + jitter)
        self.next_attempt_at = now + delay
        return delay
