"""Outside-in tracing for the per-layer run.

The tracer wraps entry points of each layer's classes from here, in the
benchmark's own files: nothing under ``src/`` changes. A *span* wrapper
records name, start, end, parent span and request id, and charges its
duration to the enclosing span, so a layer's self time is its duration
minus what its child spans cover. A *counter* wrapper only counts (and,
for ``os.fsync``, times) a call. Spans stay in memory and are written out
once, at the end of the run.

Observer callbacks are wrapped on the class before any database is
opened, so the bound methods views and full-text indexes hand to
``NotesDatabase.subscribe`` are the wrapped ones.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("web", "views", "fulltext", "formula", "security", "core",
          "storage", "segments", "replication")

# (module, class or None for a module function, attribute, span name).
# Spans in _UNKEPT are timed and nest like any other, but are too frequent
# (one per view row or per record) to keep individually in the span file.
_SPANS = [
    ("repro.web.server", "DominoWebServer", "handle", "web.handle"),
    ("repro.web.server", None, "render_view", "web.render"),
    ("repro.web.server", None, "render_view_entries_xml", "web.render"),
    ("repro.web.server", None, "render_search_results", "web.render"),
    ("repro.web.server", None, "render_document", "web.render"),
    ("repro.views.view", "View", "rows", "views.rows"),
    ("repro.views.view", "View", "_on_change", "views.maintain"),
    ("repro.views.view", "View", "save_index", "views.save"),
    ("repro.views.view", "View", "__init__", "views.open"),
    ("repro.fulltext.index", "FullTextIndex", "search", "fulltext.search"),
    ("repro.fulltext.index", "FullTextIndex", "_on_change", "fulltext.maintain"),
    ("repro.fulltext.index", "FullTextIndex", "save_checkpoint", "fulltext.save"),
    ("repro.fulltext.index", "FullTextIndex", "__init__", "fulltext.open"),
    ("repro.formula.evaluator", "Formula", "select_ex", "formula.select"),
    ("repro.security.acl", "AccessControlList", "can_read", "security.can_read"),
    ("repro.core.database", "NotesDatabase", "create", "core.write"),
    ("repro.core.database", "NotesDatabase", "update", "core.write"),
    ("repro.core.database", "NotesDatabase", "delete", "core.write"),
    ("repro.core.database", "NotesDatabase", "journal_entries_since", "core.journal_read"),
    ("repro.storage.engine", "StorageEngine", "commit", "storage.commit"),
    # Record-level engine calls are storage work too; as spans they keep
    # before-image reads out of the caller's self time.
    ("repro.storage.engine", "StorageEngine", "begin", "storage.record"),
    ("repro.storage.engine", "StorageEngine", "put", "storage.record"),
    ("repro.storage.engine", "StorageEngine", "delete", "storage.record"),
    ("repro.storage.engine", "StorageEngine", "get", "storage.record"),
    ("repro.storage.engine", "StorageEngine", "checkpoint", "storage.checkpoint"),
    ("repro.storage.engine", "StorageEngine", "__init__", "storage.open"),
    ("repro.storage.segments", "SegmentStack", "append", "segments.append"),
    ("repro.storage.segments", "SegmentStack", "fold", "segments.fold"),
    ("repro.replication.replicator", "Replicator", "replicate", "replication.exchange"),
    ("repro.replication.replicator", "Replicator", "pull", "replication.pull"),
]

# (module, class, attribute, counter name)
_COUNTERS = [
    ("repro.storage.bufferpool", "BufferPool", "fetch", "storage.fetch"),
    ("repro.storage.pagedfile", "PagedFile", "read", "storage.page_read"),
    ("repro.storage.pagedfile", "PagedFile", "write", "storage.page_write"),
    # Every record read out of a segment, whichever public read asked.
    ("repro.storage.segments", "SegmentStack", "_record", "segments.get"),
    # One call per matched document: the documents a search had to score.
    ("repro.fulltext.index", "FullTextIndex", "_score", "fulltext.scored"),
]

_UNKEPT = {"security.can_read", "formula.select", "storage.record"}

SPAN_CAP = 50_000


class Tracer:
    """Spans and counters, keyed by (phase, name).

    ``begin(phase)`` / ``end()`` bracket one timed call of the session; a
    phase of None leaves the wrappers inert (checks and probes).
    """

    def __init__(self) -> None:
        self.phase: str | None = None
        self.request = 0
        self.stack: list[list] = []
        self.next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        # (phase, name) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple, float] = defaultdict(float)
        self._patches: list[tuple] = []
        self._rows_built = 0
        self.epoch = perf_counter()

    def begin(self, phase: str | None) -> None:
        self.phase = phase
        self.request += 1

    def end(self) -> None:
        self.phase = None

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "views.rows": self._after_rows,
            "web.render": self._after_render,
            "core.journal_read": self._after_journal_read,
            "replication.exchange": self._after_exchange,
        }
        for module, owner, attr, name in _SPANS:
            self._patch(module, owner, attr,
                        lambda fn, name=name: self._span(name, fn, hooks.get(name),
                                                         keep=name not in _UNKEPT))
        for module, owner, attr, name in _COUNTERS:
            self._patch(module, owner, attr,
                        lambda fn, name=name: self._counter(name, fn))
        self._patch("repro.replication.network", "SimulatedNetwork", "transfer",
                    lambda fn: self._counter("replication.network_bytes", fn,
                                             amount=lambda args: args[3]))
        self._patch("os", None, "fsync",
                    lambda fn: self._counter("storage.fsync", fn, timed=True))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, module: str, owner: str | None, attr: str, make) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = target.__dict__[attr] if owner is not None else getattr(target, attr)
        self._patches.append((target, attr, original))
        setattr(target, attr, make(original))

    def _span(self, name: str, fn, hook=None, keep: bool = True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer.next_id, perf_counter(), 0.0]
            tracer.next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                stat = tracer.stats[phase, name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if keep and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((
                        frame[0], parent[0] if parent is not None else None,
                        name, frame[1], end, tracer.request,
                    ))
                elif keep:
                    tracer.dropped += 1
            if hook is not None:
                hook(phase, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, amount=None, timed: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            result = fn(*args, **kwargs)
            if timed:
                tracer.counts[phase, name + "_s"] += perf_counter() - start
            tracer.counts[phase, name] += 1 if amount is None else amount(args)
            return result

        return wrapper

    # -- result hooks -----------------------------------------------------------

    def _after_rows(self, phase, args, kwargs, rows) -> None:
        self._rows_built = len(rows)
        self.counts[phase, "views.rows_built"] += len(rows)

    def _after_render(self, phase, args, kwargs, html) -> None:
        if "count" not in kwargs:
            return  # a document or search page, not a view window
        skipped = max(kwargs.get("start", 1) - 1, 0)
        shown = max(min(kwargs["count"], self._rows_built - skipped), 0)
        self.counts[phase, "views.rows_shown"] += shown

    def _after_journal_read(self, phase, args, kwargs, entries) -> None:
        self.counts[phase, "core.scanned"] += args[0].last_scan_cost
        self.counts[phase, "core.live_entries"] += len(entries)

    def _after_exchange(self, phase, args, kwargs, stats) -> None:
        moved = stats.docs_transferred + stats.stubs_transferred
        self.counts[phase, "replication.transferred"] += moved
        self.counts[phase, "replication.examined"] += stats.docs_examined
        self.counts[phase, "replication.conflicts"] += stats.conflicts
        if moved == 0 and stats.conflicts == 0:
            self.counts[phase, "replication.noop_exchanges"] += 1

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, request in self.spans:
                out.write(json.dumps([span_id, parent, name,
                                      round(start - self.epoch, 9),
                                      round(end - self.epoch, 9), request]) + "\n")

    def active_layers(self) -> set[str]:
        names = [name for (_, name), stat in self.stats.items() if stat[0]]
        names += [name for (_, name), value in self.counts.items() if value]
        return {name.split(".")[0] for name in names}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; an idle layer reads 0.

        ``*_self_ms`` / ``*_self_us`` are mean self time per call of the
        span; ``*_calls`` and counts are totals over the traced loop;
        ``*_open_s`` is the span's total duration while reopening.
        """
        def calls(name, phase="loop"):
            return self.stats[phase, name][0]

        def self_mean(name, scale):
            count, _, self_time = self.stats["loop", name]
            return self_time / count * scale if count else 0.0

        def opened(name):
            return self.stats["reopen", name][1]

        def count(name, phase="loop"):
            return self.counts[phase, name]

        def ratio(a, b):
            return a / b if b else 0.0

        writes = calls("core.write")
        fetches = count("storage.fetch")
        return {
            "web.handle_self_ms": self_mean("web.handle", 1e3),
            "web.render_self_ms": self_mean("web.render", 1e3),
            "views.rows_self_ms": self_mean("views.rows", 1e3),
            "views.rows_calls": calls("views.rows"),
            "views.rows_per_row_shown": ratio(count("views.rows_built"),
                                              count("views.rows_shown")),
            "views.maintain_self_us": self_mean("views.maintain", 1e6),
            "views.save_self_ms": self_mean("views.save", 1e3),
            "views.open_s": opened("views.open"),
            "fulltext.search_self_ms": self_mean("fulltext.search", 1e3),
            "fulltext.search_calls": calls("fulltext.search"),
            "fulltext.hits_per_search": ratio(count("fulltext.scored"),
                                              calls("fulltext.search")),
            "fulltext.maintain_self_us": self_mean("fulltext.maintain", 1e6),
            "fulltext.save_self_ms": self_mean("fulltext.save", 1e3),
            "fulltext.open_s": opened("fulltext.open"),
            "formula.select_calls": calls("formula.select"),
            "formula.select_self_us": self_mean("formula.select", 1e6),
            "security.can_read_calls": calls("security.can_read"),
            "security.can_read_self_ms": self_mean("security.can_read", 1e3),
            "core.write_self_us": self_mean("core.write", 1e6),
            "core.journal_read_self_ms": self_mean("core.journal_read", 1e3),
            "core.scan_per_live_entry": ratio(count("core.scanned"),
                                              count("core.live_entries")),
            "storage.commit_calls": calls("storage.commit"),
            "storage.commit_self_us": self_mean("storage.commit", 1e6),
            "storage.fsyncs_per_write": ratio(count("storage.fsync"), writes),
            "storage.fsync_ms_total": count("storage.fsync_s") * 1e3,
            "storage.pool_hit_ratio": (
                1.0 - count("storage.page_read") / fetches if fetches else 0.0
            ),
            "storage.page_reads_per_write": ratio(count("storage.page_read"), writes),
            "storage.page_writes_per_write": ratio(count("storage.page_write"), writes),
            "storage.checkpoint_self_ms": self_mean("storage.checkpoint", 1e3),
            "storage.open_s": opened("storage.open"),
            "segments.appends": calls("segments.append"),
            "segments.append_self_ms": self_mean("segments.append", 1e3),
            "segments.folds": calls("segments.fold"),
            "segments.fold_self_ms": self_mean("segments.fold", 1e3),
            "segments.gets": count("segments.get") + count("segments.get", "reopen"),
            "replication.pull_calls": calls("replication.pull"),
            "replication.pull_self_ms": self_mean("replication.pull", 1e3),
            "replication.transferred_per_examined": ratio(
                count("replication.transferred"), count("replication.examined")),
            "replication.noop_exchanges": count("replication.noop_exchanges"),
            "replication.conflicts_per_change": ratio(
                count("replication.conflicts"), writes),
            "replication.network_bytes": count("replication.network_bytes"),
        }
