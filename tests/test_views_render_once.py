"""A view hands out one row object per entry, and a page joins the
fragments rendered into those rows: who may see a row, when rows are
made, and what a read fetches."""

import random

from repro.core import Item, ItemType, NotesDatabase
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.views import DocumentRow, SortOrder, View, ViewColumn
from repro.web.render import render_view, render_view_entries_xml

ADMIN = "admin/Acme"


def columns(categorized=False):
    return [
        ViewColumn(title="Cat", item="Cat", categorized=categorized,
                   sort=SortOrder.ASCENDING),
        ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
    ]


def fill(db, count=12):
    unids = []
    for index in range(count):
        db.clock.advance(1)
        unids.append(db.create({"Form": "Memo", "Cat": f"c{index % 3}",
                                "Subject": f"memo {index}"}, author=ADMIN).unid)
    return unids


def test_rows_are_kept_until_their_note_changes():
    db = NotesDatabase("r.nsf", clock=VirtualClock(), rng=random.Random(1))
    unids = fill(db)
    view = View(db, "ByCat", columns=columns(categorized=True))
    first = {row.unid: row for row in view.rows() if isinstance(row, DocumentRow)}
    page, _ = view.window(1, 100)
    assert all(first[row.unid] is row for row in page if isinstance(row, DocumentRow))
    render_view(view, "r.nsf", 1, 100)
    assert first[unids[0]].html is not None
    db.clock.advance(1)
    db.update(unids[0], {"Subject": "renamed"}, author=ADMIN)
    again = {row.unid: row for row in view.rows() if isinstance(row, DocumentRow)}
    assert again[unids[0]] is not first[unids[0]]
    assert again[unids[0]].html is None
    assert again[unids[1]] is first[unids[1]]


def test_restricted_rows_and_fragments_stay_hidden():
    db = NotesDatabase("r.nsf", clock=VirtualClock(), rng=random.Random(2))
    acl = AccessControlList(default_level=AclLevel.READER)
    acl.add(ADMIN, AclLevel.MANAGER)
    db.acl = acl
    unids = fill(db)
    hidden = set(unids[::4])
    for unid in hidden:
        db.clock.advance(1)
        db.update(unid, {"Subject": f"secret {unid}",
                         "Readers": Item("Readers", ItemType.READERS, [ADMIN])},
                  author=ADMIN)
    for categorized in (False, True):
        view = View(db, f"V{categorized}", columns=columns(categorized))
        # The admin's reads make a row and both fragments for every entry.
        admin_pages = [render_view(view, "r.nsf", 1, 100, as_user=ADMIN),
                       render_view_entries_xml(view, 1, 100, as_user=ADMIN)]
        assert all(f"secret {unid}" in page
                   for page in admin_pages for unid in hidden)
        for user in ("peon/Acme", "boss/Acme"):
            rows = view.rows(as_user=user)
            page, total = view.window(1, 100, as_user=user)
            assert page == rows and total == len(rows)
            assert not {row.unid for row in rows
                        if isinstance(row, DocumentRow)} & hidden
            for text in (render_view(view, "r.nsf", 1, 100, as_user=user),
                         render_view_entries_xml(view, 1, 100, as_user=user)):
                assert "secret" not in text
                assert not any(unid in text for unid in hidden)
                assert all(unid in text for unid in set(unids) - hidden)
        view.close()


def test_reopened_persisted_view_holds_no_rows_before_its_first_read(tmp_path):
    def open_db():
        engine = StorageEngine(str(tmp_path / "nsf"))
        return NotesDatabase("r.nsf", clock=VirtualClock(),
                             rng=random.Random(3), engine=engine)

    db = open_db()
    fill(db)
    view = View(db, "ByCat", columns=columns(categorized=True), persist=True)
    render_view(view, "r.nsf", 1, 100)
    render_view_entries_xml(view, 1, 100)
    assert all(entry.row is not None for entry in view.entries())
    view.close()
    db.close()

    db = open_db()
    view = View(db, "ByCat", columns=columns(categorized=True), persist=True)
    assert view.loaded_from_disk
    assert all(entry.row is None for entry in view.entries())
    view.window(1, 5)
    made = [entry for entry in view.entries() if entry.row is not None]
    assert made and len(made) < len(view)
    assert all(entry.row.html is None and entry.row.xml is None for entry in made)
    view.close()
    db.close()


def test_rows_without_a_user_fetch_no_document(monkeypatch):
    db = NotesDatabase("r.nsf", clock=VirtualClock(), rng=random.Random(4))
    fill(db)
    for categorized in (False, True):
        view = View(db, f"V{categorized}", columns=columns(categorized))
        fetched = []

        def fetch(unid, *args, **kwargs):
            fetched.append(unid)
            raise AssertionError("rows() fetched a document")

        with monkeypatch.context() as patch:
            patch.setattr(db, "try_get", fetch)
            patch.setattr(db, "get", fetch)
            rows = view.rows()
            page, _ = view.window(2, 6)
        assert fetched == []
        assert len([row for row in rows if isinstance(row, DocumentRow)]) == 12
        assert page == rows[1:7]
        view.close()
