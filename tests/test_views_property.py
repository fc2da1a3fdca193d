"""Property-based view tests: the incremental index always equals a fresh
rebuild, view order always equals the collation-sorted document list, and
a positional page (``View.window``) always equals the slice of ``rows()``.

The window properties run twice: a reduced-example fast lane in the
default job and a ``slow``-marked lane with the full example budget
(``pytest -m slow``). Their schedules also rebuild the view, and close and
reopen it (a persisted view on an engine-backed database loads its saved
entries), so the heading index a categorized window reads is checked
after every path that resets it.
"""

import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Item, ItemType, NotesDatabase
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock
from repro.storage import StorageEngine
from repro.views import CategoryRow, SortOrder, View, ViewColumn

subjects = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           max_codepoint=127),
    min_size=1,
    max_size=8,
)

operations = st.lists(
    st.tuples(
        st.sampled_from(["create", "update", "delete", "retype"]),
        st.integers(min_value=0, max_value=100),
        subjects,
    ),
    max_size=40,
)


def fresh_db():
    return NotesDatabase("prop.nsf", clock=VirtualClock(),
                         rng=random.Random(42))


def make_view(db, mode):
    return View(
        db, "P",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Subject", item="Subject",
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="N", item="N"),
        ],
        mode=mode,
    )


def apply(db, ops):
    counter = 0
    for op, pick, subject in ops:
        db.clock.advance(1)
        unids = db.unids()
        if op == "create" or not unids:
            counter += 1
            db.create({"Form": "Memo", "Subject": subject, "N": counter})
        elif op == "update":
            db.update(unids[pick % len(unids)], {"Subject": subject})
        elif op == "retype":
            db.update(unids[pick % len(unids)],
                      {"Form": "Other" if pick % 2 else "Memo"})
        else:
            db.delete(unids[pick % len(unids)])


@given(ops=operations)
@settings(max_examples=50, deadline=None)
def test_incremental_view_equals_rebuild(ops):
    db = fresh_db()
    incremental = make_view(db, "auto")
    apply(db, ops)
    rebuilt = make_view(db, "manual")
    assert incremental.all_unids() == rebuilt.all_unids()
    assert [e.values for e in incremental.entries()] == [
        e.values for e in rebuilt.entries()
    ]


@given(ops=operations)
@settings(max_examples=50, deadline=None)
def test_view_order_matches_sorted_documents(ops):
    db = fresh_db()
    view = make_view(db, "auto")
    apply(db, ops)
    from repro.views import collate

    expected = sorted(
        (doc for doc in db.all_documents() if doc.form == "Memo"),
        key=lambda doc: (collate(doc.get("Subject", "")),
                         (1, doc.created, doc.unid)),
    )
    assert view.all_unids() == [doc.unid for doc in expected]


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_view_membership_matches_selection(ops):
    db = fresh_db()
    view = make_view(db, "auto")
    apply(db, ops)
    memos = {doc.unid for doc in db.all_documents() if doc.form == "Memo"}
    assert set(view.all_unids()) == memos
    assert len(view) == len(memos)


# -- positional windows equal the rows() slice -------------------------------

ADMIN = "admin/Acme"  # Manager; named in every READERS list so it may edit
USERS = [None, "boss/Acme", "peon/Acme", "guest/Acme"]
CATEGORY_VALUES = ["Eng", "eng", "Sales", ["Ops", "Eng"], ["eng"], [], 7, 7.0, ""]
AMOUNTS = [1, 2, 0.1, 0.2, 1.5, -3, "n/a"]
READERS_LISTS = [[ADMIN, "boss/Acme"], [ADMIN], [ADMIN, "peon/Acme"]]

window_shapes = st.fixed_dictionaries({
    "categories": st.integers(min_value=0, max_value=2),
    "descending": st.integers(min_value=0, max_value=1),
    "hierarchical": st.booleans(),
    "mode": st.sampled_from(["auto", "manual"]),
    "acl": st.sampled_from([True, True, False]),
    "persist": st.booleans(),
})

window_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "create", "create", "create", "respond", "update", "delete",
            "soft_delete", "restore", "readers_update", "readers_in_place",
            "unrestrict_update", "unrestrict_in_place", "refresh",
            "rebuild", "reopen",
        ]),
        # A small pick range makes ops land on the same few documents.
        st.integers(min_value=0, max_value=5),
        # The page every user reads after the op: (start, count).
        st.tuples(st.integers(min_value=1, max_value=50),
                  st.integers(min_value=0, max_value=15)),
    ),
    min_size=5,
    max_size=45,
)

WINDOW_SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_window_view(db, shape):
    columns = [
        ViewColumn(
            title=f"Cat{depth}", item=f"Cat{depth}", categorized=True,
            sort=(SortOrder.DESCENDING if depth == shape["descending"]
                  else SortOrder.ASCENDING),
        )
        for depth in range(shape["categories"])
    ]
    columns += [
        ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
        ViewColumn(title="Amount", item="Amount", totals=True),
    ]
    return View(db, "W", selection='SELECT Form = "Memo"', columns=columns,
                mode=shape["mode"], hierarchical=shape["hierarchical"],
                persist=shape["persist"])


def check_window(view, start, count, user):
    rows = view.rows(as_user=user)
    page, total = view.window(start, count, as_user=user)
    expected = rows[start - 1:start - 1 + count]
    assert total == len(rows)
    assert page == expected
    # CategoryRow.subtotals is compare=False: check it on its own.
    assert [row.subtotals for row in page if isinstance(row, CategoryRow)] == [
        row.subtotals for row in expected if isinstance(row, CategoryRow)]


def apply_window_op(db, view, op, pick, rng, shape=None):
    """Apply one op; returns the view to read next (``reopen`` replaces
    it: the old one is closed, a note is created while no view is open,
    and the new one loads the saved entries when persisted)."""
    unids = db.unids()
    live = unids[pick % len(unids)] if unids else None

    def memo():
        return {"Form": "Memo",
                "Cat0": rng.choice(CATEGORY_VALUES),
                "Cat1": rng.choice(CATEGORY_VALUES),
                "Subject": rng.choice(["alpha", "Alpha", "beta", "gamma"]),
                "Amount": rng.choice(AMOUNTS)}

    if op == "create" or live is None:
        db.create(memo(), author=ADMIN)
    elif op == "respond":
        db.create(memo(), author=ADMIN, parent=live)
    elif op == "update":
        items = memo()
        del items["Form"]
        db.update(live, dict(rng.sample(sorted(items.items()), 2)), author=ADMIN)
    elif op == "delete":
        db.delete(live, author=ADMIN)
    elif op == "soft_delete":
        db.soft_delete(live, author=ADMIN)
    elif op == "restore":
        if db.trash:
            db.restore(db.trash[pick % len(db.trash)], author=ADMIN)
    elif op == "readers_update":
        readers = Item("Readers", ItemType.READERS, rng.choice(READERS_LISTS))
        db.update(live, {"Readers": readers}, author=ADMIN)
    elif op == "readers_in_place":
        # No db.update: the live document changes under the view.
        db.get(live).set("Readers", rng.choice(READERS_LISTS), ItemType.READERS)
    elif op == "unrestrict_update":
        db.update(live, {}, author=ADMIN, remove_items=["Readers"])
    elif op == "unrestrict_in_place":
        doc = db.get(live)
        if "Readers" in doc:
            doc.remove_item("Readers")
    elif op == "refresh":
        view.refresh()
    elif op == "rebuild":
        view.rebuild()
    elif op == "reopen":
        view.close()
        db.create(memo(), author=ADMIN)
        view = make_window_view(db, shape)
        assert view.loaded_from_disk == shape["persist"]
    return view


def check_windows_match_rows(shape, ops, seed):
    if shape["persist"]:
        with tempfile.TemporaryDirectory() as directory:
            engine = StorageEngine(f"{directory}/nsf")
            try:
                run_window_schedule(shape, ops, seed, engine)
            finally:
                engine.close()
    else:
        run_window_schedule(shape, ops, seed, None)


def run_window_schedule(shape, ops, seed, engine):
    db = NotesDatabase("window.nsf", clock=VirtualClock(),
                       rng=random.Random(seed), engine=engine)
    if shape["acl"]:
        acl = AccessControlList(default_level=AclLevel.READER)
        acl.add(ADMIN, AclLevel.MANAGER)
        acl.add("guest/Acme", AclLevel.NO_ACCESS)
        db.acl = acl
    rng = random.Random(seed)
    for _ in range(6):
        db.clock.advance(1)
        apply_window_op(db, None, "create", 0, rng)
    view = make_window_view(db, shape)
    for op, pick, (start, count) in ops:
        db.clock.advance(1)
        view = apply_window_op(db, view, op, pick, rng, shape)
        for user in USERS:
            check_window(view, start, count, user)
    view.refresh()
    rows = view.rows()
    for user in USERS:
        for start in range(1, len(rows) + 2):
            check_window(view, start, 4, user)
    view.close()


@settings(max_examples=60, parent=WINDOW_SETTINGS)
@given(shape=window_shapes, ops=window_ops, seed=st.integers(0, 2**16))
def test_window_equals_rows_slice(shape, ops, seed):
    check_windows_match_rows(shape, ops, seed)


@pytest.mark.slow
@settings(max_examples=250, parent=WINDOW_SETTINGS)
@given(shape=window_shapes, ops=window_ops, seed=st.integers(0, 2**16))
def test_window_equals_rows_slice_full(shape, ops, seed):
    check_windows_match_rows(shape, ops, seed)
