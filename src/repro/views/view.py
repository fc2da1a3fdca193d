"""The View: a sorted, categorized, incrementally-maintained index.

A view owns a B+tree whose keys are collation tuples built from the sorted
columns (plus a per-document tie-break, plus response markers in
hierarchical views) and whose values are display entries. Every path
that changes the index funnels through one per-document step,
``_reindex(unid)``: drop the entry, put it back if the note is live and
selected, re-key its responses. Two maintenance modes drive it:

``auto`` (default)
    The view subscribes to database change events and re-indexes each
    changed document as it happens — O(log n) per change.
``manual``
    The view keeps the :class:`~repro.core.database.Checkpoint` it last
    indexed and, on :meth:`refresh`, re-indexes what
    :meth:`~repro.core.database.NotesDatabase.changes_since` reports —
    O(log n + changes). Only when the database cannot say (another
    journal, a purge log that no longer reaches back) does it pay the
    O(n log n) "view rebuild" the paper calls out as the thing
    incremental indexing avoids; E5/E14 time :meth:`rebuild` directly
    as that baseline.

A persisted view stores the same checkpoint beside its entries, so a
reopen against a moved-on database tops up the same way.

Reading a page — the Domino web client's ``?OpenView&Start=n&Count=m``
— goes through :meth:`View.window`, a positional read of the counted
B+tree: O(log n + page) without categories. A categorized view also
keeps a heading index (every category prefix in collation order, with
its member count), so a page binary-searches for its first heading in
O(log H · log n) for H headings and then steps through the page by the
stored counts. That holds while every entry is visible to the caller.
The view keeps the set of entries whose document carries a READERS item
(updated as entries come and go, and rescanned when a READERS item
changes in place or the view is behind the database); when a caller
could be denied some of them, the window is a slice of :meth:`View.rows`,
which checks each document.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field as dataclass_field
from itertools import islice
from time import perf_counter
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ViewError
from repro.core.database import ChangeKind, NotesDatabase
from repro.core.document import Document, readers_epoch
from repro.core.sidecar import PersistedIndex
from repro.formula import compile_formula
from repro.security.acl import AclLevel
from repro.storage.btree import BPlusTree
from repro.views.column import Descending, SortOrder, ViewColumn, collate


class DocumentRow:
    """One document line in a view display.

    A view makes one per entry, on the entry's first read, and every later
    read returns that same object. A note change re-inserts its entry and
    a design change builds a new view, so a row never outlives the values
    it shows. ``html`` and ``xml`` are the row's rendered page fragments,
    which :mod:`repro.web.render` fills on the row's first render.
    """

    __slots__ = ("unid", "values", "level", "html", "xml")

    def __init__(self, unid: str, values: tuple, level: int = 0) -> None:
        self.unid = unid
        self.values = values
        self.level = level
        self.html: str | None = None
        self.xml: str | None = None

    def _fields(self) -> tuple:
        return (self.unid, self.values, self.level)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocumentRow):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"DocumentRow(unid={self.unid!r}, values={self.values!r}, "
                f"level={self.level!r})")


@dataclass(frozen=True)
class CategoryRow:
    """A category heading produced by a categorized column.

    ``subtotals`` maps each totals column's index to the sum over the
    heading's entries. :meth:`View.window` hands it out read-only, since
    every page that shows a heading shares one cached mapping.
    """

    value: Any
    level: int
    count: int
    subtotals: Mapping = dataclass_field(default_factory=dict, compare=False)


_NO_SUBTOTALS: Mapping = MappingProxyType({})


class _Entry:
    """A view's index value: one document's display values and level.
    ``row`` is its :class:`DocumentRow`, made on first read."""

    __slots__ = ("unid", "values", "level", "row")

    def __init__(self, unid: str, values: tuple, level: int) -> None:
        self.unid = unid
        self.values = values
        self.level = level
        self.row: DocumentRow | None = None

    def display(self, depth: int) -> DocumentRow:
        """This entry's row in a view with ``depth`` category columns."""
        row = self.row
        if row is None:
            row = self.row = DocumentRow(self.unid, self.values, self.level + depth)
        return row


class _HeadingIndex:
    """The category headings of a categorized view.

    ``prefixes`` holds every category prefix ``key[:d + 1]`` (one per
    categorized depth d) in collation order, which is also the order the
    headings appear in :meth:`View.rows`: a prefix sorts after every
    entry key below it and before the keys it begins, so heading ``i``
    sits at row ``i + tree.rank(prefixes[i])``. ``counts`` maps a prefix
    to the number of entries under it, and ``subtotals`` keeps the sums a
    page has shown, until an entry under the prefix comes or goes.
    """

    __slots__ = ("depth", "prefixes", "counts", "subtotals")

    def __init__(self, depth: int, keys: Iterable[tuple]) -> None:
        self.depth = depth
        self.prefixes: list[tuple] = []
        self.counts: dict[tuple, int] = {}
        self.subtotals: dict[tuple, Mapping] = {}
        counts = self.counts
        for key in keys:  # in collation order, so prefixes come in order
            for end in range(1, depth + 1):
                prefix = key[:end]
                count = counts.get(prefix)
                if count is None:
                    self.prefixes.append(prefix)
                    counts[prefix] = 1
                else:
                    counts[prefix] = count + 1

    def add(self, key: tuple) -> None:
        counts = self.counts
        for end in range(1, self.depth + 1):
            prefix = key[:end]
            self.subtotals.pop(prefix, None)
            count = counts.get(prefix)
            if count is None:
                insort(self.prefixes, prefix)
                counts[prefix] = 1
            else:
                counts[prefix] = count + 1

    def discard(self, key: tuple) -> None:
        counts = self.counts
        for end in range(1, self.depth + 1):
            prefix = key[:end]
            self.subtotals.pop(prefix, None)
            count = counts[prefix]
            if count == 1:
                del counts[prefix]
                del self.prefixes[bisect_left(self.prefixes, prefix)]
            else:
                counts[prefix] = count - 1


class View(PersistedIndex):
    """A named, sorted projection of one database.

    Parameters
    ----------
    db:
        The backing :class:`NotesDatabase`.
    name:
        View name (unique per application by convention, not enforced).
    selection:
        Selection formula source; defaults to everything.
    columns:
        The :class:`ViewColumn` list. Categorized columns must come first.
    mode:
        ``"auto"`` for maintenance on every change event, ``"manual"``
        for catch-up on :meth:`refresh`.
    hierarchical:
        Show response documents indented beneath their parents.
    persist:
        Keep the view index in a segment sidecar in the database's
        storage engine (the NSF kept view indexes too), loaded and
        topped up on open instead of rebuilt. The meta record, save
        transaction, load rule and refresh rule are
        :mod:`repro.core.sidecar`'s; a segment record here is one
        entry's key, display values, level and parent. Call
        :meth:`save_index` (or :meth:`close`) to write it back; the
        database's :meth:`~NotesDatabase.close` also sweeps registered
        persistent views.
    """

    _ERROR = ViewError

    def __init__(
        self,
        db: NotesDatabase,
        name: str,
        selection: str = "SELECT @All",
        columns: list[ViewColumn] | None = None,
        mode: str = "auto",
        hierarchical: bool = False,
        persist: bool = False,
    ) -> None:
        self.name = name
        self.selection_source = selection
        self.columns = columns or [ViewColumn(title="Subject", item="Subject")]
        self._validate_columns()
        self.hierarchical = hierarchical
        self._selection = compile_formula(selection)
        self._tree: BPlusTree = BPlusTree(order=64)
        # Entries touched since the last save — the next save's segment.
        self._dirty: set[str] = set()
        self._keys: dict[str, tuple] = {}
        self._children: dict[str, set[str]] = {}
        # Reverse of _children: child unid -> parent unid, so _remove can
        # discard its membership in O(1) instead of sweeping every set.
        self._parent_of: dict[str, str] = {}
        # Entries rows() may not show every caller alike: the live document
        # carries a READERS item, or is gone (a view behind the database
        # shows such an entry even to users below Reader). Exact as of
        # _access_stamp (see _sync_access). _state is the database state
        # fingerprint the entries reflect.
        self._restricted: set[str] = set()
        self._access_stamp: tuple | None = None
        self._state = ""
        # The formatted name and column titles, which repro.web.render
        # fills on the first render (a design change builds a new view).
        self.heading: Any = None
        # Built by the first categorized window after the entries are
        # (re)loaded; _insert/_remove keep it current from then on.
        self._headings: _HeadingIndex | None = None
        # The meta record and the segments share one key prefix.
        sidecar_key = b"viewidx:" + name.encode()
        self._open_index(
            db, mode, persist, self.save_index,
            meta_key=sidecar_key,
            namespace=sidecar_key,
            stats_name="entries",
            design=self._design_fingerprint(),
        )

    # -- column checks ----------------------------------------------------

    def _validate_columns(self) -> None:
        seen_plain_sort = False
        for column in self.columns:
            if column.categorized:
                if seen_plain_sort:
                    raise ViewError(
                        "categorized columns must precede sorted columns"
                    )
            elif column.sort != SortOrder.NONE:
                seen_plain_sort = True

    @property
    def _sorted_columns(self) -> list[ViewColumn]:
        return [c for c in self.columns if c.sort != SortOrder.NONE]

    # -- index persistence -----------------------------------------------

    def _design_fingerprint(self) -> str:
        import hashlib

        spec = repr((
            self.selection_source,
            self.hierarchical,
            [(c.title, c.item, c.formula, c.sort.value, c.categorized,
              c.totals) for c in self.columns],
        ))
        return hashlib.sha256(spec.encode()).hexdigest()

    @staticmethod
    def _encode_key(key: tuple) -> list:
        out = []
        for component in key:
            if isinstance(component, Descending):
                out.append(["d", list(component.inner)])
            else:
                out.append(["a", list(component)])
        return out

    @staticmethod
    def _decode_key(encoded: list) -> tuple:
        components = []
        for kind, inner in encoded:
            value = tuple(inner)
            components.append(Descending(value) if kind == "d" else value)
        return tuple(components)

    def _record_for(self, unid: str) -> tuple:
        """The per-entry segment record: everything a reopen needs to put
        the entry back (key, display values, level, parent link)."""
        key = self._keys[unid]
        entry = self._tree.get(key)
        return (
            self._encode_key(key),
            list(entry.values),
            entry.level,
            self._parent_of.get(unid),
        )

    def save_index(self) -> None:
        """Write the entries changed since the last save as one segment,
        plus the checkpoint (see :mod:`repro.core.sidecar`)."""
        self._save_index()

    def _take_delta(self, fresh: bool) -> tuple[dict, set[str]]:
        if fresh:
            dirty = set(self._keys)
            removed: set[str] = set()
        else:
            dirty = {unid for unid in self._dirty if unid in self._keys}
            removed = self._dirty - dirty
        self._dirty.clear()
        return {unid: self._record_for(unid) for unid in dirty}, removed

    def _unsaved(self) -> tuple[int, int]:
        return len(self._dirty), len(self._keys)

    def _adopt_stack(self) -> None:
        pairs = []
        for unid, record in self._stack.live_items():
            encoded_key, values, level, parent = record
            key = self._decode_key(encoded_key)
            pairs.append((key, _Entry(unid, tuple(values), level)))
            self._keys[unid] = key
            if parent is not None:
                self._children.setdefault(parent, set()).add(unid)
                self._parent_of[unid] = parent
        pairs.sort(key=lambda pair: pair[0])  # segments are unordered
        self._tree.bulk_load(pairs)
        self._headings = None
        self._access_stamp = None  # loaded entries: reader access unchecked

    def _catch_up(self, changes: tuple[list[str], list[str]]) -> None:
        super()._catch_up(changes)
        self._state = self._checkpoint.state

    def rebuild(self) -> int:
        """Discard and rebuild the whole index; returns the entry count.

        Keys are computed once per document (parents before children, so
        hierarchical placement is correct regardless of creation order —
        replication can deliver responses first), sorted, and bulk-loaded
        into a fresh B+tree.
        """
        started = perf_counter()
        self._tree = BPlusTree(order=64)
        self._headings = None
        self._keys.clear()
        self._children.clear()
        self._parent_of.clear()
        self._restricted.clear()
        self._access_stamp = None
        # The on-disk stack no longer matches anything incremental; the
        # next save rewrites it from scratch (and deletes the old keys).
        self._stack = None
        self._dirty.clear()
        docs = [doc for doc in self.db.all_documents() if self._selected(doc)]
        if self.hierarchical:
            docs.sort(key=self._hierarchy_depth)
        pairs = []
        for doc in docs:
            key, level = self._key_for(doc)
            values = tuple(
                column.value_for(doc, self.db) for column in self.columns
            )
            self._keys[doc.unid] = key
            if doc.readers is not None:
                self._restricted.add(doc.unid)
            if doc.parent_unid is not None:
                self._children.setdefault(doc.parent_unid, set()).add(doc.unid)
                self._parent_of[doc.unid] = doc.parent_unid
            pairs.append((key, _Entry(doc.unid, values, level)))
        pairs.sort(key=lambda pair: pair[0])
        self._tree.bulk_load(pairs)
        self.rebuilds += 1
        self._checkpoint = self.db.checkpoint()
        self._state = self._checkpoint.state
        # _restricted was filled from the live documents just read.
        self._access_stamp = (readers_epoch(), None)
        self.catch_up.record_rebuild(perf_counter() - started)
        return len(self._tree)

    def _hierarchy_depth(self, doc: Document) -> int:
        depth = 0
        current = doc
        while current.parent_unid is not None and depth < 64:
            parent = self.db.try_get(current.parent_unid)
            if parent is None:
                break
            depth += 1
            current = parent
        return depth

    def _on_change(self, kind: ChangeKind, payload, old: Document | None) -> None:
        self.incremental_ops += 1
        self._reindex(payload.unid)
        self._state = self.db.state_fingerprint()

    def _reindex(self, unid: str) -> None:
        """Re-derive one document's entry from the live database: drop
        it, put it back if the note is live and selected, and re-key its
        responses. Change events and catch-up replay both land here."""
        self._remove(unid)
        doc = self.db.try_get(unid)
        if doc is not None and self._selected(doc):
            self._insert(doc)
        self._rekey_descendants(unid)

    # -- selection ----------------------------------------------------------

    def _selected(self, doc: Document) -> bool:
        # Design notes are a different note class: never shown in data views.
        form = doc.form
        if isinstance(form, str) and form.startswith("$Design"):
            return False
        selected, wants_children, wants_descendants = self._selection.select_ex(
            doc, db=self.db
        )
        if selected:
            return True
        if not doc.is_response:
            return False
        if wants_descendants:
            return self._ancestor_selected(doc, max_depth=None)
        if wants_children:
            return self._ancestor_selected(doc, max_depth=1)
        return False

    def _ancestor_selected(self, doc: Document, max_depth: int | None) -> bool:
        depth = 0
        current = doc
        while current.parent_unid is not None:
            parent = self.db.try_get(current.parent_unid)
            if parent is None:
                return False
            depth += 1
            if max_depth is not None and depth > max_depth:
                return False
            selected, _, _ = self._selection.select_ex(parent, db=self.db)
            if selected:
                return True
            current = parent
        return False

    # -- index operations ---------------------------------------------------

    def _base_key(self, doc: Document) -> tuple:
        components = []
        for column in self._sorted_columns:
            components.append(column.key_component(column.value_for(doc, self.db)))
        if not components:
            components.append(collate(doc.created))
        return tuple(components)

    def _key_for(self, doc: Document) -> tuple[tuple, int]:
        """Full collation key and display level for ``doc``."""
        marker = (1, doc.created, doc.unid)
        if self.hierarchical and doc.parent_unid is not None:
            parent_key = self._keys.get(doc.parent_unid)
            if parent_key is not None:
                level = self._level_of(parent_key) + 1
                return parent_key + ((2, doc.created, doc.unid),), level
        return self._base_key(doc) + (marker,), 0

    def _level_of(self, key: tuple) -> int:
        return sum(
            1
            for component in key
            if isinstance(component, tuple) and component and component[0] == 2
        )

    def _insert(self, doc: Document) -> None:
        key, level = self._key_for(doc)
        values = tuple(column.value_for(doc, self.db) for column in self.columns)
        self._tree.insert(key, _Entry(doc.unid, values, level))
        if self._headings is not None:
            self._headings.add(key)
        self._keys[doc.unid] = key
        self._dirty.add(doc.unid)
        if doc.readers is not None:
            self._restricted.add(doc.unid)
        if doc.parent_unid is not None:
            self._children.setdefault(doc.parent_unid, set()).add(doc.unid)
            self._parent_of[doc.unid] = doc.parent_unid

    def _remove(self, unid: str) -> None:
        key = self._keys.pop(unid, None)
        if key is None:
            return
        self._dirty.add(unid)
        self._restricted.discard(unid)
        try:
            self._tree.delete(key)
        except KeyError:  # pragma: no cover - defensive
            pass
        else:
            if self._headings is not None:
                self._headings.discard(key)
        parent = self._parent_of.pop(unid, None)
        if parent is not None:
            siblings = self._children.get(parent)
            if siblings is not None:
                siblings.discard(unid)
                if not siblings:
                    del self._children[parent]

    def _rekey_descendants(self, unid: str) -> None:
        """Re-insert (or re-evaluate) responses after their ancestor moved."""
        if not self.hierarchical:
            return
        for child_unid in list(self._children.get(unid, ())):
            self._reindex(child_unid)
        # Responses that were excluded (orphans) may become eligible now.
        for doc in self.db.responses(unid):
            if doc.unid not in self._keys and self._selected(doc):
                self._reindex(doc.unid)

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, unid: str) -> bool:
        return unid in self._keys

    def entries(self) -> Iterator[_Entry]:
        """All entries in collation order (no category rows)."""
        for _, entry in self._tree.items():
            yield entry

    def all_unids(self) -> list[str]:
        """Document UNIDs in view order."""
        return [entry.unid for entry in self.entries()]

    def documents(self, as_user: str | None = None) -> Iterator[Document]:
        """Documents in view order, honouring reader fields for ``as_user``."""
        for entry in self.entries():
            doc = self.db.try_get(entry.unid)
            if doc is None:
                continue
            if as_user is None or self.db._can_read(as_user, doc):
                yield doc

    def rows(self, as_user: str | None = None) -> list:
        """Render the view: category rows interleaved with document rows."""
        category_indices = [
            index for index, column in enumerate(self.columns) if column.categorized
        ]
        n_categories = len(category_indices)
        totals_columns = [
            index for index, column in enumerate(self.columns) if column.totals
        ]
        output: list = []
        open_values: list = [object()] * n_categories  # sentinels != anything
        # First pass gathers rows; category counts/subtotals need a second
        # pass, so collect member indices per open category.
        pending: list[tuple[int, Any, int]] = []  # (output idx, value, level)

        db = self.db
        for entry in self.entries():
            if as_user is not None:
                doc = db.try_get(entry.unid)
                if doc is not None and not db._can_read(as_user, doc):
                    continue
            # Responses (level > 0) live under their ancestor's category:
            # their own column values never open or close category groups.
            if entry.level == 0:
                for depth in range(n_categories):
                    value = entry.values[category_indices[depth]]
                    if isinstance(value, list):
                        value = value[0] if value else ""
                    if value != open_values[depth]:
                        for reset in range(depth, n_categories):
                            open_values[reset] = object()
                        open_values[depth] = value
                        pending.append((len(output), value, depth))
                        output.append(None)  # placeholder for CategoryRow
            output.append(entry.display(n_categories))
        # Fill in category rows with counts and subtotals.
        for position, (index, value, level) in enumerate(pending):
            end = (
                pending[position + 1][0]
                if position + 1 < len(pending)
                else len(output)
            )
            members = [
                row
                for row in output[index + 1 : end]
                if isinstance(row, DocumentRow)
            ]
            # A deeper category's members also belong to enclosing ones; for
            # level-L rows count every document row until the next category
            # at a level <= L.
            if level < n_categories - 1:
                stop = len(output)
                for later_index, _, later_level in pending[position + 1 :]:
                    if later_level <= level:
                        stop = later_index
                        break
                members = [
                    row
                    for row in output[index + 1 : stop]
                    if isinstance(row, DocumentRow)
                ]
            subtotals = {}
            for column_index in totals_columns:
                subtotal = 0
                for row in members:
                    cell = row.values[column_index]
                    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                        subtotal += cell
                subtotals[column_index] = subtotal
            output[index] = CategoryRow(
                value=value, level=level, count=len(members), subtotals=subtotals
            )
        return output

    def window(
        self, start: int, count: int, as_user: str | None = None
    ) -> tuple[list, int]:
        """One page of :meth:`rows`: ``(rows, total_rows)`` where ``rows``
        is ``self.rows(as_user)[start - 1 : start - 1 + count]`` and
        ``total_rows`` is ``len(self.rows(as_user))``.

        ``start`` is 1-based. When every entry is visible to ``as_user``
        the page is read by position from the counted B+tree — O(log n +
        count), plus O(log H · log n) to find the first heading among H
        in a categorized view — and no document is access-checked. A user below Reader sees
        nothing. When reader fields could hide some entries from the
        caller, the page is sliced from :meth:`rows`.
        """
        if start < 1 or count < 0:
            raise ViewError(f"window needs start >= 1 and count >= 0, got {start}, {count}")
        visible = self._all_visible(as_user)
        if visible is None:
            rows = self.rows(as_user)
            return rows[start - 1 : start - 1 + count], len(rows)
        if not visible:
            return [], 0
        categories = [
            index for index, column in enumerate(self.columns) if column.categorized
        ]
        if not categories:
            page = [
                entry.display(0)
                for _, entry in islice(self._tree.items_from(start - 1), count)
            ]
            return page, len(self._tree)
        return self._category_window(start - 1, count, categories)

    def _all_visible(self, as_user: str | None) -> bool | None:
        """True when :meth:`rows` would show ``as_user`` every entry, False
        when it would show none, None when it must check entry by entry."""
        acl = self.db.acl
        if as_user is None or acl is None:
            return True
        self._sync_access()
        if self._restricted:
            return None
        return acl.level_of(as_user) >= AclLevel.READER

    def _sync_access(self) -> None:
        """Make ``_restricted`` exact for the live database.

        ``_insert``/``_remove`` keep it exact while the entries reflect
        the database state; a READERS item edited in place (the readers
        epoch moved) or a view behind the database (a manual view between
        refreshes, a closed auto view) needs a rescan — once per such
        state.
        """
        fingerprint = self.db.state_fingerprint()
        stamp = (readers_epoch(), None if fingerprint == self._state else fingerprint)
        if stamp == self._access_stamp:
            return
        self._restricted = {
            entry.unid
            for entry in self.entries()
            if (doc := self.db.try_get(entry.unid)) is None or doc.readers is not None
        }
        self._access_stamp = stamp

    def _category_window(
        self, first: int, count: int, categories: list[int]
    ) -> tuple[list, int]:
        """The positional read behind :meth:`window` for a categorized view.

        A depth-d heading covers the run of entries sharing ``key[:d + 1]``
        — exactly the grouping :meth:`rows` makes, since collation keeps
        each value distinct and responses extend their parent's key. A
        binary search over the heading index finds the last heading at or
        before row ``first``; from there a heading is followed by its
        first child heading, or (at the deepest depth) by its entries, so
        the stored counts place every row of the page.
        """
        tree = self._tree
        depth_count = len(categories)
        headings = self._headings
        if headings is None:
            headings = self._headings = _HeadingIndex(depth_count, iter(tree))
        prefixes, counts = headings.prefixes, headings.counts
        total = len(prefixes) + len(tree)
        stop = min(first + count, total)
        if first >= stop:
            return [], total
        # The last heading whose row is at or before ``first``; heading 0
        # is row 0. ``position`` is the entry index of its first entry.
        index, position = 0, 0
        lo, hi = 1, len(prefixes)
        while lo < hi:
            mid = (lo + hi) // 2
            rank = tree.rank(prefixes[mid])
            if mid + rank <= first:
                index, position, lo = mid, rank, mid + 1
            else:
                hi = mid
        row = index + position
        run_end = position  # entries before run_end belong to a shown heading
        if row < first:  # first falls among the entries of a deepest heading
            run_end = position + counts[prefixes[index]]
            position += first - row - 1
            index += 1
        totals = [i for i, column in enumerate(self.columns) if column.totals]
        items = tree.items_from(position)
        entry = next(items)[1]
        page: list = []
        for _ in range(stop - first):
            if position < run_end:
                page.append(entry.display(depth_count))
                position += 1
                entry = next(items, (None, None))[1]
                continue
            prefix = prefixes[index]
            index += 1
            depth = len(prefix) - 1
            value = entry.values[categories[depth]]
            if isinstance(value, list):
                value = value[0] if value else ""
            members = counts[prefix]
            page.append(CategoryRow(
                value=value, level=depth, count=members,
                subtotals=self._subtotals(prefix, position, members, totals),
            ))
            if depth + 1 == depth_count:
                run_end = position + members
        return page, total

    def _subtotals(
        self, prefix: tuple, position: int, members: int, totals: list[int]
    ) -> Mapping:
        """The heading ``prefix``'s per-column sums over its ``members``
        entries from ``position``, added in entry order as :meth:`rows`
        adds them (so floats agree bit for bit), and kept until an entry
        under the heading comes or goes."""
        if not totals:
            return _NO_SUBTOTALS
        cache = self._headings.subtotals
        subtotals = cache.get(prefix)
        if subtotals is None:
            sums = dict.fromkeys(totals, 0)
            for _, entry in islice(self._tree.items_from(position), members):
                values = entry.values
                for column_index in totals:
                    cell = values[column_index]
                    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                        sums[column_index] += cell
            subtotals = cache[prefix] = MappingProxyType(sums)
        return subtotals

    def totals(self) -> dict[int, float]:
        """Grand totals for every totals column, keyed by column index."""
        sums: dict[int, float] = {
            index: 0
            for index, column in enumerate(self.columns)
            if column.totals
        }
        for entry in self.entries():
            for index in sums:
                cell = entry.values[index]
                if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                    sums[index] += cell
        return sums

    def documents_by_key(self, value: Any) -> list[Document]:
        """Index lookup: documents whose first sort column equals ``value``.

        This is the ``GetDocumentByKey`` operation — a B+tree descent, not a
        scan (experiment E6 measures exactly this).
        """
        if not self._sorted_columns:
            raise ViewError(f"view {self.name!r} has no sorted column")
        component = self._sorted_columns[0].key_component(value)
        matches = []
        for key, entry in self._tree.range(lo=(component,)):
            first = key[0]
            if first != component:
                break
            doc = self.db.try_get(entry.unid)
            if doc is not None:
                matches.append(doc)
        return matches

    def first_by_key(self, value: Any) -> Document | None:
        """First match of :meth:`documents_by_key`, or None."""
        matches = self.documents_by_key(value)
        return matches[0] if matches else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"View({self.name!r}, {len(self)} entries, mode={self.mode})"
