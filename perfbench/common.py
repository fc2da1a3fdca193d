"""Shared pieces of the standing benchmark: seeded inputs, timing, probes.

Everything here is benchmark-side. The program under test is reached only
through the public ``repro`` API; inputs are generated from the seed before
(or between) timed calls, never inside one.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate
from pathlib import Path
from time import perf_counter

# -- seeded inputs ------------------------------------------------------------

CATEGORIES = ("eng", "sales", "ops", "hr", "legal", "finance", "support", "research")
_CONSONANTS = "bdfgkmnprtvz"
_VOWELS = "aiou"
QUERY_SKIP = 50  # most frequent words never queried


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Pseudo-words the full-text tokenizer leaves untouched.

    Consonant-vowel syllables ending in a, i, o or u: no stemmer suffix
    matches, none is a stopword, and each is one ``[a-z]+`` token. So the
    brute-force reference search is plain set membership on split text,
    independent of the tokenizer under test. Word k has 2 + k % 3
    syllables: with Zipf use, a few words fill most of the text, and
    drawing their lengths would make every document size, and every cost
    that follows from it, differ from seed to seed.
    """
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
            for _ in range(2 + len(words) % 3)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class Zipf:
    """Rank sampler with P(rank k) proportional to 1 / (k + 1) ** s.

    The cumulative table is built once; a draw is one binary search.
    """

    def __init__(self, n: int, s: float = 1.0) -> None:
        self._cum = list(accumulate(1.0 / (k + 1) ** s for k in range(n)))
        self._n = n

    def draw(self, rng: random.Random) -> int:
        return self._rank(rng.random())

    def _rank(self, u: float) -> int:
        return min(bisect_right(self._cum, u * self._cum[-1]), self._n - 1)

    def stratified(self, n: int, rng: random.Random) -> list[int]:
        """``n`` ranks at evenly spaced quantiles, in shuffled order.

        The same multiset of ranks for every seed: a schedule built from
        these has the distribution's exact mix, not a sample of it, so its
        medians do not wander from seed to seed.
        """
        ranks = [self._rank((i + 0.5) / n) for i in range(n)]
        rng.shuffle(ranks)
        return ranks


def spread_evenly(n: int, low: int, high: int, rng: random.Random) -> list[int]:
    """``n`` integers evenly spaced over [low, high), in shuffled order."""
    values = [low + int((i + 0.5) * (high - low) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def exact_mix(shares: dict[str, float], n: int, rng: random.Random) -> list[str]:
    """``n`` kinds in exactly the given shares (rounded), in shuffled order."""
    bounds = list(accumulate(shares.values()))
    kinds = [next(kind for kind, edge in zip(shares, bounds) if (i + 0.5) / n < edge)
             for i in range(n)]
    rng.shuffle(kinds)
    return kinds


class Corpus:
    """Memo documents drawn from a Zipf vocabulary (one per seed)."""

    BODY_WORDS = 40

    def __init__(self, rng: random.Random, n_docs: int, vocab_size: int = 4000) -> None:
        self.rng = rng
        self.vocab = make_vocabulary(rng, vocab_size)
        self.word_zipf = Zipf(vocab_size)
        self.docs = [self.memo(index) for index in range(n_docs)]
        # Queries favour frequent words too, but skip the head of the
        # distribution (words in nearly every memo, like stopwords): the
        # typical query matches a few percent of the corpus, the most
        # popular ones about a tenth. Query rank k asks for the word with
        # the k-th highest document frequency in these memos, so the
        # hit-count mix, and with it search cost, is the same for every
        # seed rather than varying with each word's sampled frequency.
        frequency = Counter(word for items in self.docs for word in words_of(items))
        self.by_frequency = sorted(self.vocab, key=lambda word: -frequency[word])
        self.query_zipf = Zipf(vocab_size - QUERY_SKIP)

    def word(self, rng: random.Random) -> str:
        return self.vocab[self.word_zipf.draw(rng)]

    def body(self, rng: random.Random) -> str:
        return " ".join(self.word(rng) for _ in range(self.BODY_WORDS))

    def subject(self, rng: random.Random, index: int) -> str:
        return f"{self.word(rng)} {self.word(rng)} {index}"

    def memo(self, index: int, rng: random.Random | None = None) -> dict:
        rng = rng or self.rng
        return {
            "Form": "Memo",
            "Subject": self.subject(rng, index),
            "Body": self.body(rng),
            "Categories": rng.choice(CATEGORIES),
            "Amount": rng.randrange(10_000),
        }

    def queries(self, n: int, rng: random.Random, pairs: bool = True) -> list[list[str]]:
        """``n`` queries, a quarter of them two words (an implicit AND)
        unless ``pairs`` is false, word ranks stratified over the query
        distribution."""
        pairs = n // 4 if pairs else 0
        ranks = [[rank] for rank in self.query_zipf.stratified(n - pairs, rng)]
        ranks += [list(two) for two in zip(self.query_zipf.stratified(pairs, rng),
                                           self.query_zipf.stratified(pairs, rng))]
        rng.shuffle(ranks)
        return [[self.by_frequency[QUERY_SKIP + rank] for rank in query] for query in ranks]


def words_of(items: dict) -> set[str]:
    """Searchable words of a memo's Subject and Body, as the model sees them."""
    return set(items["Subject"].split()) | set(items["Body"].split())


def brute_force_search(words_by_unid: dict[str, set[str]], query: list[str]) -> set[str]:
    return {unid for unid, words in words_by_unid.items() if all(w in words for w in query)}


def payload_bytes(items: dict) -> int:
    """User payload of one write: its item dict as JSON."""
    return len(json.dumps(items))


# -- the program's designs, shared by workloads ---------------------------------

def memo_columns(categorized: bool):
    from repro.views import SortOrder, ViewColumn

    columns = [
        ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
        ViewColumn(title="Amount", item="Amount", totals=categorized),
    ]
    if categorized:
        columns.insert(0, ViewColumn(title="Categories", item="Categories", categorized=True))
    return columns


MEMO_SELECTION = 'SELECT Form = "Memo"'


def expected_rows(unids: list[str], category_of: dict[str, str] | None) -> list[tuple]:
    """Rows a view shows for ``unids`` (view order): ("cat", value, count)
    headings before each category run when categorized, ("doc", unid)."""
    if category_of is None:
        return [("doc", unid) for unid in unids]
    rows: list = []
    heading = None
    for unid in unids:
        category = category_of[unid]
        if heading is None or heading[1] != category:
            heading = ["cat", category, 0]
            rows.append(heading)
        heading[2] += 1
        rows.append(("doc", unid))
    return [tuple(row) for row in rows]


# -- files --------------------------------------------------------------------

ENGINE_SUFFIXES = (".pages", ".wal", ".chk")


def copy_store(src: Path, dst: Path) -> None:
    for suffix in ENGINE_SUFFIXES:
        source = Path(str(src) + suffix)
        if source.exists():
            shutil.copyfile(source, str(dst) + suffix)


def wchar() -> int:
    """Bytes this process has passed to write() so far (``/proc/self/io``)."""
    with open("/proc/self/io", encoding="ascii") as stats:
        for line in stats:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


# -- measurement session ----------------------------------------------------------

# Shared 2-CPU hosts drift between CPU speeds up to 2x apart, in phases
# that last from a second to longer than a run. A fixed spin loop, timed
# every CALIBRATE_EVERY seconds between operations, tracks that speed;
# every sample is scaled by REFERENCE_SPIN over the spin time around it,
# so times read as they would on a host where the spin takes 100 us. The
# scaling cancels the host's speed, not the program's: the spin loop runs
# no program code. Over ten seeds it halves the run-to-run spread of most
# web_browse times (view_p50_ms 22% -> 10%, ops_per_s 21% -> 10%).
CALIBRATE_EVERY = 0.02
REFERENCE_SPIN = 100e-6
# The spin cannot track the disk. Shared disks have slow-fsync episodes of
# 10-20 s in which fsync's p99 rises from 0.3 ms to 4 ms, and a 10 s write
# loop falls wholly inside or outside one. So each os.fsync inside a timed
# call counts REFERENCE_FSYNC instead of its wall time: a program that
# syncs more often still pays for every sync, but the disk's episodes do
# not show. What the syncs flush shows in write_amp, and in the traced
# run's storage.fsync_ms_total (real fsync time).
REFERENCE_FSYNC = 100e-6
OPS = "operation"
THROUGHPUT_WINDOW = 100  # operations per window of ops_per_s
# p99_ms is the median over equal windows of at least this many
# operations of each window's p99 (ten or more samples above it): a burst
# of slow I/O or host in one stretch of the run moves one window, not the
# metric.
TAIL_WINDOW = 1000
# A probe's page read (the blocks after a timed loop) chases pointers
# through every view entry, and the spin tracks it poorly: on one 50 s
# stretch of a shared host, spin-scaled page reads drifted by up to 23%
# between 5 s windows. Probe page reads are scaled instead by a walk over
# WALK_ITEMS shuffled tuples (about 8 MiB), timed every WALK_EVERY seconds
# while they run, to read as on a host where the walk takes REFERENCE_WALK;
# over the same stretch they drifted by at most 3%, and hub_sync's
# view_p50_ms spread fell from 24% (five seeds) to 7-12% (ten seeds). The
# walk evicts the caches, so it never runs inside a timed loop.
WALK_ITEMS = 60_000
WALK_EVERY = 0.2
REFERENCE_WALK = 2.5e-3


def _spin() -> float:
    start = perf_counter()
    total = 0
    for value in range(2000):
        total += value * value
    return perf_counter() - start


_walked: list[tuple[int, str]] = []


def _walk() -> float:
    if not _walked:
        _walked.extend((value, str(value)) for value in range(WALK_ITEMS))
        random.Random(0).shuffle(_walked)
    start = perf_counter()
    total = 0
    for value, _ in _walked:
        total += value
    return perf_counter() - start


_synced = [0.0, 0]  # wall seconds inside os.fsync, and calls, so far


def meter_fsync() -> None:
    """Route ``os.fsync`` through a wrapper that adds up its calls and time."""
    fsync = os.fsync

    def metered(fd):
        start = perf_counter()
        try:
            return fsync(fd)
        finally:
            _synced[0] += perf_counter() - start
            _synced[1] += 1

    os.fsync = metered


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def p99_ms(samples: list[float]) -> float:
    """99th percentile by nearest rank."""
    ordered = sorted(samples)
    rank = max(int(len(ordered) * 0.99 + 0.999999) - 1, 0)
    return ordered[rank] * 1e3


class Session:
    """One measured phase: a closed loop of operations plus side measures.

    A workload runs a fixed, seeded schedule, so every run of a seed ends
    in the same state whatever the program's speed; ``running`` caps it
    at the run's seconds, and a schedule cut short is a failed run.

    ``op`` times a workload operation (it feeds p50/p99/ops_per_s);
    ``measure`` times anything else a metric needs (set-up, checkpoints,
    probes, reopen), scaled by the spin or, with ``reference="walk"``, by
    the memory walk. Both count as attempted and count failures; checks
    run between timed calls, outside every timer.
    ``trace`` names the trace phase a call's spans belong to, or None to
    keep it out of the per-layer numbers.

    A schedule may be timed in several passes, each from ``start`` to
    ``stop``: each operation's time is then its minimum over the passes,
    so a stretch of slow host or disk during one pass does not show.
    """

    # reference -> (timing function, seconds between timings, reference time)
    REFERENCES = {
        "spin": (lambda: min(_spin() for _ in range(3)), CALIBRATE_EVERY, REFERENCE_SPIN),
        "walk": (_walk, WALK_EVERY, REFERENCE_WALK),
    }

    def __init__(self, seconds: float, tracer=None) -> None:
        self.seconds = seconds
        self.tracer = tracer
        # kind -> [(seconds outside os.fsync, fsync calls, reference,
        #           index of its calibration taken just before)]
        self.samples: dict[str, list[tuple[float, int, str, int]]] = defaultdict(list)
        # kind -> [(first, end)]: the samples each pass of it recorded
        self.passes: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self._pass_start: dict[str, int] = {}
        # reference -> its timings so far, and when the last was taken
        self._calibrations: dict[str, list[float]] = {name: [] for name in self.REFERENCES}
        self._calibrated_at = dict.fromkeys(self.REFERENCES, float("-inf"))
        self.attempted = 0
        self.failed = 0
        self._messages = 0
        self.deadline = float("inf")  # until start()
        self._wchar = 0
        # File bytes written during the measured loop (outside-in).
        self.bytes_written = 0

    def start(self) -> None:
        # Flush what set-up left in the page cache (staged store copies),
        # so that the kernel's write-back of it does not stall the loop.
        os.sync()
        self._wchar = wchar()
        self.deadline = perf_counter() + self.seconds
        self._pass_start = {kind: len(samples) for kind, samples in self.samples.items()}

    def stop(self) -> None:
        self.bytes_written = wchar() - self._wchar
        for kind, samples in self.samples.items():
            first = self._pass_start.get(kind, 0)
            if len(samples) > first:
                self.passes[kind].append((first, len(samples)))

    def running(self) -> bool:
        """False once the run's seconds are spent: the workload stops its
        schedule there rather than overrun, and the run fails, since its
        totals would cover only part of the schedule."""
        if perf_counter() < self.deadline:
            return True
        self.attempted += 1
        self.fail("--seconds ran out before the schedule ended")
        return False

    def _calibrate(self, reference: str, force: bool = False) -> int:
        timing, every, _ = self.REFERENCES[reference]
        calibrations = self._calibrations[reference]
        if force or perf_counter() - self._calibrated_at[reference] >= every:
            calibrations.append(timing())
            self._calibrated_at[reference] = perf_counter()
        return len(calibrations) - 1

    def op(self, kind: str, fn, *args, **kwargs):
        return self._timed(kind, True, "loop", "spin", fn, args, kwargs)

    def measure(self, kind: str, fn, *args, trace: str | None = "loop",
                reference: str = "spin", **kwargs):
        return self._timed(kind, False, trace, reference, fn, args, kwargs)

    def _timed(self, kind, main, trace, reference, fn, args, kwargs):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(trace)
        # The garbage collector waits while the call runs; a collection
        # the call made due runs at the next allocation after it, untimed.
        # Collections inside timed calls landed in about 1% of durable
        # writes, right at p99, and flipped p99_ms between 1.5 and 2.5 ms
        # from seed to seed.
        gc.disable()
        try:
            mark = self.started(reference)
            result = fn(*args, **kwargs)
            self.record(kind, mark)
        except Exception as exc:  # an operation that raises is a failed one
            self.fail(f"{kind} raised {exc!r}")
            return None
        finally:
            gc.enable()
            if tracer is not None:
                tracer.end()
        if main:
            self.samples[OPS].append(self.samples[kind][-1])
        return result

    def started(self, reference: str = "spin") -> tuple:
        """Start mark for a latency, also one that spans several timed calls."""
        calibration = self._calibrate(reference)
        return perf_counter(), *_synced, reference, calibration

    def record(self, kind: str, mark: tuple) -> None:
        now = perf_counter()
        start, sync_seconds, syncs, reference, calibration = mark
        self.samples[kind].append((now - start - (_synced[0] - sync_seconds),
                                   _synced[1] - syncs, reference, calibration))

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if self._messages < 10:
            self._messages += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    # -- results ---------------------------------------------------------

    def scaled(self, kind: str) -> list[float]:
        """Samples of ``kind`` in reference-speed seconds, fsyncs at
        REFERENCE_FSYNC each; the minimum over the passes where ``kind``
        was timed in more than one."""
        samples = self.samples.get(kind)
        if not samples:
            raise RuntimeError(f"no {kind!r} samples were measured")
        for reference in {reference for _, _, reference, _ in samples}:
            self._calibrate(reference, force=True)  # the last sample needs one after it
        values = [
            seconds * self.REFERENCES[reference][2]
            / statistics.median(self._calibrations[reference][max(index - 2, 0):index + 3])
            + syncs * REFERENCE_FSYNC
            for seconds, syncs, reference, index in samples
        ]
        passes = self.passes.get(kind, [])
        if len(passes) < 2:
            return values
        return [min(times) for times in zip(*(values[first:end] for first, end in passes))]

    def p50(self, kind: str) -> float:
        return median_ms(self.scaled(kind))

    def median_s(self, kind: str) -> float:
        return statistics.median(self.scaled(kind))

    def ops_per_s(self) -> float:
        """Median over windows of THROUGHPUT_WINDOW consecutive operations
        of each window's operations per second of operation time: the
        loop's throughput, robust to a stretch of slow host."""
        ops = self.scaled(OPS)
        rates = [THROUGHPUT_WINDOW / sum(ops[i:i + THROUGHPUT_WINDOW])
                 for i in range(0, len(ops) - THROUGHPUT_WINDOW + 1, THROUGHPUT_WINDOW)]
        return statistics.median(rates) if rates else len(ops) / sum(ops)

    def common_metrics(self) -> dict[str, float]:
        ops = self.scaled(OPS)
        windows = max(len(ops) // TAIL_WINDOW, 1)
        if len(ops) < 1000:
            print(f"perfbench: only {len(ops)} operations; p99 has fewer "
                  "than 10 samples above it", file=sys.stderr)
        return {
            "ops_per_s": self.ops_per_s(),
            "p50_ms": median_ms(ops),
            "p99_ms": statistics.median(
                p99_ms(ops[i * len(ops) // windows:(i + 1) * len(ops) // windows])
                for i in range(windows)),
            "success_rate": 1.0 - min(self.failed, self.attempted) / self.attempted,
        }


# -- probes: end-to-end metrics a workload's own loop lacks --------------------
#
# Every end-to-end metric is reported on every workload. Where a workload's
# loop has no such operation, a probe measures it on the workload's own
# data, in one block after the timed loop: nothing runs between the loop's
# operations, and what a probe writes stays out of write_amp. Probe calls
# are untraced (trace=None).

READ_PAGE = 30  # rows in a probe's view window
READ_HITS = 25  # hits a probe's search asks for
STANDBY_WRITES = 4  # primary updates per standby probe round


def read_plan(corpus: Corpus, words_by_unid: dict[str, set[str]], samples: int,
              view_rows: int, rng: random.Random) -> list[tuple[int, str, set[str]]]:
    """``samples`` (view start row, query, expected hits) for ``probe_reads``:
    starts evenly spread over a view of ``view_rows`` rows, and each
    query's hits by a brute-force scan of ``words_by_unid``.

    Queries are single words. With a quarter of two-word queries, whose
    hit counts are far below the others', the median query's hit count
    moved by a quarter from seed to seed, and search_p50_ms with it.
    """
    starts = spread_evenly(samples, 0, max(view_rows - READ_PAGE, 1), rng)
    return [(start, " ".join(query), brute_force_search(words_by_unid, query))
            for start, query in zip(starts, corpus.queries(samples, rng, pairs=False))]


def probe_reads(session: Session, view, index, plan: list[tuple[int, str, set[str]]]) -> None:
    """One timed pass of ``view_p50_ms`` and ``search_p50_ms`` samples:
    page a view and search a full-text index as a browser would, once per
    entry of ``plan``.

    A page is ``View.rows()`` windowed to 30 rows; a search asks for 25
    hits. Each search first runs untimed without a limit, and its hit set
    is checked against the plan; the timed one then finds the query's
    postings loaded, as a repeated query would.
    """
    view.rows()  # untimed warm-up
    for start, text, expected in plan:
        window = session.measure("view", lambda: view.rows()[start:start + READ_PAGE],
                                 trace=None, reference="walk")
        session.check(window is not None and len(window) == READ_PAGE, "view page short")
        session.check({hit.unid for hit in index.search(text)} == expected,
                      f"search {text!r} disagrees with a brute-force scan")
        hits = session.measure("search", index.search, text, limit=READ_HITS, trace=None)
        session.check(hits is not None
                      and {hit.unid for hit in hits} <= expected
                      and len(hits) == min(READ_HITS, len(expected)),
                      f"search {text!r} returned hits a brute-force scan does not")


def probe_standby(session: Session, primary, rounds: int, author: str) -> dict[str, float]:
    """``converge_p50_ms`` and ``wire_bytes_per_change``: an in-memory
    standby of ``primary`` pulls everything once, untimed; then each round
    ``author`` updates STANDBY_WRITES documents of the primary, and one
    field-level pull plus the convergence check is timed."""
    from repro.replication import Replicator, converged

    standby = primary.new_replica("standby")
    replicator = Replicator(field_level=True)
    replicator.pull(standby, primary)
    unids = sorted(primary.unids())
    wire_bytes = 0

    def sync():
        stats = replicator.pull(standby, primary)
        return stats, converged([primary, standby])

    for step in range(rounds):
        first = step * STANDBY_WRITES % len(unids)
        for unid in unids[first:first + STANDBY_WRITES]:
            primary.clock.advance(0.01)
            primary.update(unid, {"Status": f"synced {step}"}, author=author)
        outcome = session.measure("converge", sync, trace=None)
        if outcome is not None:
            stats, ok = outcome
            session.check(ok, "standby replica did not converge")
            wire_bytes += stats.bytes_transferred
    return {"converge_p50_ms": session.p50("converge"),
            "wire_bytes_per_change": wire_bytes / (rounds * STANDBY_WRITES)}


def probe_durable_copy(session: Session, source, path: Path, checkpoints: int,
                       reopens: int) -> dict[str, float]:
    """``write_amp``, ``checkpoint_p50_ms`` and ``reopen_s`` of a durable
    (``wal``) replica of the in-memory database ``source``.

    ``write_amp`` is the ``wchar`` of the pull that fills the replica per
    payload byte pulled. Then each of ``checkpoints`` steps updates three
    documents and times ``engine.checkpoint()``; last, the replica is
    closed and reopened ``reopens`` times.
    """
    from repro.core import NotesDatabase
    from repro.replication import Replicator
    from repro.storage import StorageEngine

    def engine():
        return StorageEngine(str(path), durability="wal")

    db = source.new_replica("vault", engine=engine())
    payload = sum(payload_bytes({name: doc.get(name) for name in doc.item_names})
                  for doc in source.all_documents())
    written = wchar()
    session.measure("persist", Replicator().pull, db, source, trace=None)
    write_amp = (wchar() - written) / payload
    session.check(db.state_fingerprint() == source.state_fingerprint(),
                  "durable replica differs from its source")
    unids = sorted(db.unids())
    for step in range(checkpoints):
        first = step * 3 % len(unids)
        for unid in unids[first:first + 3]:
            db.clock.advance(0.5)
            db.update(unid, {"Status": f"archived {step}"}, author="archiver")
        session.measure("checkpoint", db.engine.checkpoint, trace=None)
    count, fingerprint = len(db), db.state_fingerprint()
    for _ in range(reopens):
        db.close()
        db = session.measure(
            "reopen", lambda: NotesDatabase(source.title, replica_id=source.replica_id,
                                            server="vault", engine=engine()),
            trace=None)
        if db is None:
            raise RuntimeError("the durable replica did not reopen")
        session.check(len(db) == count and db.state_fingerprint() == fingerprint,
                      "reopened durable replica lost writes")
    db.close()
    return {"write_amp": write_amp, "checkpoint_p50_ms": session.p50("checkpoint"),
            "reopen_s": session.median_s("reopen")}
