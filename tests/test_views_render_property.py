"""Property test of rendered view pages: a page built from the rows and
fragments a view keeps equals the same page rendered over a freshly built
view, after any interleaving of creates, edits (subject and category
moves), deletes, READERS toggles and view design replacements.

The fresh view is a ``manual`` view built from the database at the moment
of the check, so it holds no row object or fragment from an earlier read.
Each step renders every window for every user twice, so the second render
of a page (and every render of the steps after) joins kept fragments.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Item, ItemType, NotesDatabase
from repro.design.application import Application
from repro.security import AccessControlList, AclLevel
from repro.sim import VirtualClock
from repro.views import SortOrder, View, ViewColumn
from repro.web.render import render_view, render_view_entries_xml

ADMIN = "admin/Acme"  # Manager; named in every READERS list so it may edit
USERS = [None, ADMIN, "boss/Acme", "peon/Acme", "guest/Acme"]
CATEGORIES = ["Eng", "Sales & Ops", "<Ops>", ["Eng", "Legal"], ""]
SUBJECTS = ["alpha", "Alpha", "beta <b>", "gamma & delta", 'say "hi"']
AMOUNTS = [1, 2.0, 0.5, -3, "n/a"]
READERS_LISTS = [[ADMIN, "boss/Acme"], [ADMIN], [ADMIN, "peon/Acme"]]
WINDOWS = [(1, 5), (3, 30), (7, 4), (1, 0), (40, 10)]

# Two designs per view name; a "design" op swaps a view to its other one.
DESIGNS = {
    "ByCategory": [
        dict(selection='SELECT Form = "Memo"', columns=[
            ViewColumn(title="Category", item="Cat", categorized=True,
                       sort=SortOrder.ASCENDING),
            ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount", totals=True),
        ]),
        dict(selection='SELECT Form = "Memo"', hierarchical=True, columns=[
            ViewColumn(title="Area <&>", item="Cat", categorized=True,
                       sort=SortOrder.DESCENDING),
            ViewColumn(title="Title", item="Subject", sort=SortOrder.DESCENDING),
        ]),
    ],
    "Flat": [
        dict(selection='SELECT Form = "Memo"', hierarchical=True, columns=[
            ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
            ViewColumn(title="Tags", item="Cat"),
            ViewColumn(title="Amount", item="Amount"),
        ]),
        dict(selection='SELECT Form = "Memo" & Subject != "alpha"', columns=[
            ViewColumn(title='"Amount"', item="Amount", sort=SortOrder.ASCENDING),
            ViewColumn(title="Subject", item="Subject"),
        ]),
    ],
}

operations = st.lists(
    st.tuples(
        st.sampled_from([
            "create", "create", "respond", "edit_subject", "edit_category",
            "edit_amount", "delete", "readers_on", "readers_off",
            "readers_in_place", "design",
        ]),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=4,
    max_size=30,
)


def memo(rng):
    return {"Form": "Memo", "Cat": rng.choice(CATEGORIES),
            "Subject": rng.choice(SUBJECTS), "Amount": rng.choice(AMOUNTS)}


def apply(app, designs, op, pick, rng):
    db = app.db
    unids = [doc.unid for doc in db.all_documents() if doc.form == "Memo"]
    live = unids[pick % len(unids)] if unids else None
    if op == "create" or live is None:
        db.create(memo(rng), author=ADMIN)
    elif op == "respond":
        db.create(memo(rng), author=ADMIN, parent=live)
    elif op == "edit_subject":
        db.update(live, {"Subject": rng.choice(SUBJECTS)}, author=ADMIN)
    elif op == "edit_category":
        db.update(live, {"Cat": rng.choice(CATEGORIES)}, author=ADMIN)
    elif op == "edit_amount":
        db.update(live, {"Amount": rng.choice(AMOUNTS)}, author=ADMIN)
    elif op == "delete":
        db.delete(live, author=ADMIN)
    elif op == "readers_on":
        readers = Item("Readers", ItemType.READERS, rng.choice(READERS_LISTS))
        db.update(live, {"Readers": readers}, author=ADMIN)
    elif op == "readers_off":
        db.update(live, {}, author=ADMIN, remove_items=["Readers"])
    elif op == "readers_in_place":
        # No db.update: the live document changes under the views.
        db.get(live).set("Readers", rng.choice(READERS_LISTS), ItemType.READERS)
    elif op == "design":
        name = sorted(DESIGNS)[pick % len(DESIGNS)]
        designs[name] = 1 - designs[name]
        app.save_view(name, **DESIGNS[name][designs[name]])


def pages(view, user):
    out = []
    for start, count in WINDOWS:
        out.append(render_view(view, "prop.nsf", start, count, as_user=user))
        out.append(render_view_entries_xml(view, start, count, as_user=user))
    return out


def check(app, designs):
    for name, view in app.views.items():
        fresh = View(app.db, name, mode="manual", **DESIGNS[name][designs[name]])
        rows = {user: view.rows(as_user=user) for user in USERS}
        for user in USERS:
            expected = pages(fresh, user)
            assert pages(view, user) == expected, (name, user)
            assert pages(view, user) == expected, (name, user)  # all kept
            for start, count in WINDOWS:
                page, total = view.window(start, count, as_user=user)
                assert page == rows[user][start - 1:start - 1 + count]
                assert total == len(rows[user])


def run(ops, seed):
    rng = random.Random(seed)
    db = NotesDatabase("prop.nsf", clock=VirtualClock(), rng=random.Random(seed))
    acl = AccessControlList(default_level=AclLevel.READER)
    acl.add(ADMIN, AclLevel.MANAGER)
    acl.add("designer", AclLevel.MANAGER)
    acl.add("guest/Acme", AclLevel.NO_ACCESS)
    db.acl = acl
    app = Application(db)
    designs = {name: 0 for name in DESIGNS}
    for name in DESIGNS:
        app.save_view(name, **DESIGNS[name][0])
    for _ in range(8):
        db.clock.advance(1)
        apply(app, designs, "create", 0, rng)
    check(app, designs)
    for op, pick in ops:
        db.clock.advance(1)
        apply(app, designs, op, pick, rng)
        check(app, designs)
    app.close()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, seed=st.integers(0, 2**16))
def test_kept_fragments_render_as_a_fresh_view(ops, seed):
    run(ops, seed)
