"""A categorized view keeps a heading index: every category prefix in
collation order with its member count. A page binary-searches it for its
first heading instead of walking the headings before it, and the index
stays equal to one built fresh from the entries through every path that
changes them."""

import random

import pytest

from repro.core import NotesDatabase
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.views import CategoryRow, SortOrder, View, ViewColumn
from repro.views.view import _HeadingIndex

ADMIN = "admin/Acme"


def columns(depth=1):
    cats = [ViewColumn(title=f"Cat{d}", item=f"Cat{d}", categorized=True)
            for d in range(depth)]
    return cats + [
        ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
        ViewColumn(title="Amount", item="Amount", totals=True),
    ]


def memo(db, cat0, cat1="x", amount=1):
    db.clock.advance(1)
    return db.create({"Form": "Memo", "Cat0": cat0, "Cat1": cat1,
                      "Subject": f"memo {cat0} {cat1}", "Amount": amount},
                     author=ADMIN).unid


def assert_index_current(view):
    """Every page equals the rows() slice, and the kept index equals one
    built fresh from the entries."""
    rows = view.rows()
    for start in range(1, len(rows) + 2):
        page, total = view.window(start, 3)
        assert total == len(rows)
        assert page == rows[start - 1:start + 2]
        assert [dict(row.subtotals) for row in page
                if isinstance(row, CategoryRow)] == [
            row.subtotals for row in rows[start - 1:start + 2]
            if isinstance(row, CategoryRow)]
    kept = view._headings
    fresh = _HeadingIndex(kept.depth, iter(view._tree))
    assert kept.prefixes == fresh.prefixes
    assert kept.counts == fresh.counts


def heading_values(view):
    return [(row.value, row.level, row.count) for row in view.rows()
            if isinstance(row, CategoryRow)]


def test_last_page_of_many_headings_reads_few_nodes():
    db = NotesDatabase("h.nsf", clock=VirtualClock(), rng=random.Random(1))
    for index in range(2500):
        memo(db, f"k{index:05d}", amount=index)
    view = View(db, "ByKey", columns=columns())
    _, total = view.window(1, 0)  # builds the heading index
    assert len(view._headings.prefixes) == 2500
    before = view._tree.node_reads
    page, _ = view.window(total - 29, 30)
    assert view._tree.node_reads - before < 200
    assert page == view.rows()[total - 30:]


def test_delete_that_empties_a_category_drops_its_heading():
    db = NotesDatabase("h.nsf", clock=VirtualClock(), rng=random.Random(2))
    for cat in ("a", "b", "b", "c"):
        memo(db, cat)
    only_a = db.unids()[0]
    view = View(db, "V", columns=columns())
    assert_index_current(view)
    db.delete(only_a, author=ADMIN)
    assert_index_current(view)
    assert heading_values(view) == [("b", 0, 2), ("c", 0, 1)]


def test_create_opens_a_category_between_two_existing_ones():
    db = NotesDatabase("h.nsf", clock=VirtualClock(), rng=random.Random(3))
    for cat0, cat1 in (("a", "x"), ("a", "z"), ("c", "x")):
        memo(db, cat0, cat1)
    view = View(db, "V", columns=columns(depth=2))
    assert_index_current(view)
    headings = view._headings
    memo(db, "b", "y", amount=5)
    memo(db, "a", "y", amount=7)
    assert view._headings is headings  # kept up to date, not rebuilt
    assert_index_current(view)
    assert heading_values(view) == [
        ("a", 0, 3), ("x", 1, 1), ("y", 1, 1), ("z", 1, 1),
        ("b", 0, 1), ("y", 1, 1), ("c", 0, 1), ("x", 1, 1)]


def test_rebuild_drops_the_index_and_the_next_page_rebuilds_it():
    db = NotesDatabase("h.nsf", clock=VirtualClock(), rng=random.Random(4))
    for cat in ("a", "b", "c"):
        memo(db, cat)
    view = View(db, "V", columns=columns(), mode="manual")
    assert_index_current(view)
    memo(db, "d")
    db.delete(db.unids()[0], author=ADMIN)
    view.rebuild()
    assert view._headings is None
    assert_index_current(view)
    assert heading_values(view) == [("b", 0, 1), ("c", 0, 1), ("d", 0, 1)]


def test_manual_refresh_updates_the_index_in_place():
    db = NotesDatabase("h.nsf", clock=VirtualClock(), rng=random.Random(5))
    for cat in ("a", "b", "c"):
        memo(db, cat)
    view = View(db, "V", columns=columns(), mode="manual")
    assert_index_current(view)
    headings = view._headings
    memo(db, "bb", amount=3)
    db.delete(db.unids()[2], author=ADMIN)  # the only "c"
    view.refresh()
    assert view.rebuilds == 1  # the constructor's; refresh replayed changes
    assert view._headings is headings
    assert_index_current(view)
    assert heading_values(view) == [("a", 0, 1), ("b", 0, 1), ("bb", 0, 1)]


def test_reopened_persisted_view_builds_its_index_from_the_loaded_entries(tmp_path):
    def open_db():
        engine = StorageEngine(str(tmp_path / "nsf"))
        return NotesDatabase("h.nsf", clock=VirtualClock(),
                             rng=random.Random(6), engine=engine)

    db = open_db()
    for cat in ("a", "b", "b", "c"):
        memo(db, cat)
    view = View(db, "V", columns=columns(), persist=True)
    assert_index_current(view)
    view.close()
    db.close()

    db = open_db()
    view = View(db, "V", columns=columns(), persist=True)
    assert view.loaded_from_disk
    assert view._headings is None  # nothing built at open
    assert_index_current(view)
    memo(db, "ab", amount=4)
    assert_index_current(view)
    assert heading_values(view) == [
        ("a", 0, 1), ("ab", 0, 1), ("b", 0, 2), ("c", 0, 1)]
    view.close()
    db.close()


def test_a_page_cannot_change_the_subtotals_the_next_page_shows():
    db = NotesDatabase("h.nsf", clock=VirtualClock(), rng=random.Random(7))
    for amount in (1, 2, 4):
        memo(db, "a", amount=amount)
    view = View(db, "V", columns=columns())
    heading = view.window(1, 1)[0][0]
    assert heading.subtotals == {2: 7}
    with pytest.raises(TypeError):
        heading.subtotals[2] = 0
    again = view.window(1, 1)[0][0]
    assert again.subtotals == {2: 7}
    memo(db, "a", amount=8)
    assert view.window(1, 1)[0][0].subtotals == {2: 15}
    assert heading.subtotals == {2: 7}  # a page keeps the sums it showed
