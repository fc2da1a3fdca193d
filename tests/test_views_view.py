"""Tests for View: selection, ordering, categories, incremental updates."""

import pytest

from repro.core import Item, ItemType, NotesDatabase
from repro.errors import ViewError
from repro.security import AccessControlList, AclLevel
from repro.views import CategoryRow, DocumentRow, SortOrder, View, ViewColumn


@pytest.fixture
def orders(db, clock):
    for index in range(12):
        clock.advance(1)
        db.create(
            {
                "Form": "Order",
                "Customer": f"cust{index % 3}",
                "Region": ["west", "east"][index % 2],
                "Amount": (index * 13) % 40,
            }
        )
    db.create({"Form": "Noise", "Customer": "zzz", "Amount": 1_000_000})
    return db


def make_view(db, **kw):
    defaults = dict(
        selection='SELECT Form = "Order"',
        columns=[
            ViewColumn(title="Customer", item="Customer", sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
    )
    defaults.update(kw)
    return View(db, "test", **defaults)


class TestSelectionAndOrder:
    def test_selection_filters(self, orders):
        view = make_view(orders)
        assert len(view) == 12

    def test_entries_sorted_by_collation(self, orders):
        view = make_view(orders)
        customers = [entry.values[0] for entry in view.entries()]
        assert customers == sorted(customers)

    def test_descending_sort(self, orders):
        view = make_view(
            orders,
            columns=[ViewColumn(title="Amount", item="Amount",
                                sort=SortOrder.DESCENDING)],
        )
        amounts = [entry.values[0] for entry in view.entries()]
        assert amounts == sorted(amounts, reverse=True)

    def test_no_sorted_column_falls_back_to_created(self, orders):
        view = make_view(
            orders, columns=[ViewColumn(title="Amount", item="Amount")]
        )
        amounts = [entry.values[0] for entry in view.entries()]
        expected = [(index * 13) % 40 for index in range(12)]
        assert amounts == expected

    def test_multi_key_sort(self, orders):
        view = make_view(
            orders,
            columns=[
                ViewColumn(title="Region", item="Region", sort=SortOrder.ASCENDING),
                ViewColumn(title="Amount", item="Amount", sort=SortOrder.ASCENDING),
            ],
        )
        pairs = [(e.values[0], e.values[1]) for e in view.entries()]
        assert pairs == sorted(pairs)

    def test_formula_column_in_key(self, orders):
        view = make_view(
            orders,
            columns=[
                ViewColumn(title="Bucket", formula='@If(Amount > 20; "high"; "low")',
                           sort=SortOrder.ASCENDING),
                ViewColumn(title="Amount", item="Amount"),
            ],
        )
        buckets = [e.values[0] for e in view.entries()]
        assert buckets == sorted(buckets)

    def test_invalid_mode_rejected(self, orders):
        with pytest.raises(ViewError):
            make_view(orders, mode="sometimes")

    def test_categorized_after_sorted_rejected(self, orders):
        with pytest.raises(ViewError):
            make_view(
                orders,
                columns=[
                    ViewColumn(title="A", item="Amount", sort=SortOrder.ASCENDING),
                    ViewColumn(title="C", item="Customer", categorized=True),
                ],
            )


class TestIncrementalMaintenance:
    def test_create_appears(self, orders):
        view = make_view(orders)
        doc = orders.create({"Form": "Order", "Customer": "aaa", "Amount": 1})
        assert doc.unid in view
        assert view.all_unids()[0] == doc.unid  # sorts first

    def test_update_moves_entry(self, orders):
        view = make_view(orders)
        doc = orders.create({"Form": "Order", "Customer": "aaa", "Amount": 1})
        orders.update(doc.unid, {"Customer": "zzz"})
        assert view.all_unids()[-1] == doc.unid

    def test_update_out_of_selection_removes(self, orders):
        view = make_view(orders)
        doc = orders.create({"Form": "Order", "Customer": "mid", "Amount": 2})
        orders.update(doc.unid, {"Form": "Noise"})
        assert doc.unid not in view

    def test_update_into_selection_adds(self, orders):
        view = make_view(orders)
        doc = orders.create({"Form": "Noise", "Customer": "x"})
        assert doc.unid not in view
        orders.update(doc.unid, {"Form": "Order"})
        assert doc.unid in view

    def test_delete_removes(self, orders):
        view = make_view(orders)
        doc = orders.create({"Form": "Order", "Customer": "gone"})
        orders.delete(doc.unid)
        assert doc.unid not in view

    def test_soft_delete_removes_restore_readds(self, orders):
        view = make_view(orders)
        doc = orders.create({"Form": "Order", "Customer": "trashy"})
        orders.soft_delete(doc.unid)
        assert doc.unid not in view
        orders.restore(doc.unid)
        assert doc.unid in view

    def test_manual_mode_stale_until_refresh(self, orders):
        view = make_view(orders, mode="manual")
        orders.create({"Form": "Order", "Customer": "late"})
        assert len(view) == 12
        view.refresh()
        assert len(view) == 13

    def test_rebuild_equals_incremental(self, orders):
        auto = make_view(orders)
        for index in range(5):
            doc = orders.create({"Form": "Order", "Customer": f"n{index}",
                                 "Amount": index})
            if index % 2:
                orders.update(doc.unid, {"Customer": f"m{index}"})
        manual = make_view(orders, mode="manual")
        assert auto.all_unids() == manual.all_unids()

    def test_closed_view_stops_updating(self, orders):
        view = make_view(orders)
        view.close()
        orders.create({"Form": "Order", "Customer": "after-close"})
        assert len(view) == 12


class TestCategoriesAndTotals:
    @pytest.fixture
    def view(self, orders):
        return make_view(
            orders,
            columns=[
                ViewColumn(title="Region", item="Region", categorized=True),
                ViewColumn(title="Customer", item="Customer",
                           sort=SortOrder.ASCENDING),
                ViewColumn(title="Amount", item="Amount", totals=True),
            ],
        )

    def test_category_rows_emitted(self, view):
        rows = view.rows()
        categories = [row for row in rows if isinstance(row, CategoryRow)]
        assert [category.value for category in categories] == ["east", "west"]

    def test_category_counts(self, view):
        rows = view.rows()
        categories = [row for row in rows if isinstance(row, CategoryRow)]
        assert sum(category.count for category in categories) == 12

    def test_category_subtotals_sum_to_grand_total(self, view):
        rows = view.rows()
        categories = [row for row in rows if isinstance(row, CategoryRow)]
        grand = view.totals()[2]
        assert sum(category.subtotals[2] for category in categories) == grand

    def test_document_rows_indented_under_categories(self, view):
        rows = view.rows()
        doc_rows = [row for row in rows if isinstance(row, DocumentRow)]
        assert all(row.level == 1 for row in doc_rows)

    def test_two_level_categories(self, orders):
        view = make_view(
            orders,
            columns=[
                ViewColumn(title="Region", item="Region", categorized=True),
                ViewColumn(title="Customer", item="Customer", categorized=True),
                ViewColumn(title="Amount", item="Amount", totals=True),
            ],
        )
        rows = view.rows()
        level0 = [r for r in rows if isinstance(r, CategoryRow) and r.level == 0]
        level1 = [r for r in rows if isinstance(r, CategoryRow) and r.level == 1]
        assert len(level0) == 2
        assert len(level1) == 6  # 3 customers per region
        assert sum(r.count for r in level0) == 12
        assert sum(r.count for r in level1) == 12


class TestKeyLookup:
    def test_documents_by_key(self, orders):
        view = make_view(orders)
        matches = view.documents_by_key("cust1")
        assert matches and all(d.get("Customer") == "cust1" for d in matches)

    def test_first_by_key_missing(self, orders):
        view = make_view(orders)
        assert view.first_by_key("nobody") is None

    def test_lookup_on_descending_view(self, orders):
        view = make_view(
            orders,
            columns=[ViewColumn(title="Amount", item="Amount",
                                sort=SortOrder.DESCENDING)],
        )
        matches = view.documents_by_key(26)
        assert matches and all(d.get("Amount") == 26 for d in matches)

    def test_lookup_without_sorted_column_rejected(self, orders):
        view = make_view(
            orders, columns=[ViewColumn(title="Amount", item="Amount")]
        )
        with pytest.raises(ViewError):
            view.documents_by_key(5)


class TestReaderAccessAfterRebuild:
    """A rebuild reads every selected document, so it leaves the
    restricted set exact: the first page after it rescans nothing."""

    def _count_reads(self, db):
        reads = []
        try_get = db.try_get
        db.try_get = lambda unid: reads.append(unid) or try_get(unid)
        return reads

    def test_first_page_makes_no_rescan(self, orders):
        orders.acl = AccessControlList(default_level=AclLevel.READER)
        view = make_view(orders)
        view.rebuild()
        reads = self._count_reads(orders)
        page, total = view.window(1, 5, as_user="peon/Acme")
        assert total == 12 and len(page) == 5
        assert reads == []

    def test_restricted_set_is_exact_after_rebuild(self, orders):
        hidden = orders.unids()[:2]
        for unid in hidden:
            orders.update(unid, {"Secret": Item.of("Secret", ["boss/Acme"], ItemType.READERS)})
        view = make_view(orders)
        view.rebuild()
        assert view._restricted == set(hidden)
        reads = self._count_reads(orders)
        view._sync_access()
        assert reads == []
        # An in-place READERS edit after the rebuild still rescans.
        orders.get(hidden[0]).remove_item("Secret")
        view._sync_access()
        assert len(reads) == 12 and view._restricted == {hidden[1]}
