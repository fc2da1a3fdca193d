"""E6 — View navigation is an index operation, not a scan.

Claim: opening a view at a key (GetDocumentByKey) is a B+tree descent —
node touches grow logarithmically with the database while a selection-scan
baseline grows linearly. Opening a view at a *row* (a web client's
``?OpenView&Start=n&Count=30``) is a positional read of the counted
B+tree: ``View.window`` stays flat as the view grows, while slicing the
fully built, access-checked ``rows()`` grows linearly. A view with
thousands of category headings (E6c) reads its middle page in about the
same time as one with four: the page binary-searches the view's heading
index for its first heading instead of walking the headings before it.
"""

from __future__ import annotations

import functools
import statistics
import time

from repro.bench.runners import build_deployment, populate
from repro.bench.tables import print_table
from repro.formula import compile_formula
from repro.security import AccessControlList, AclLevel
from repro.views import SortOrder, View, ViewColumn


def build_view(n_docs: int):
    deployment = build_deployment(1, seed=n_docs + 3)
    db = deployment.databases[0]
    populate(db, n_docs, deployment.rng, advance=0.0)
    view = View(
        db,
        "ByAmount",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title="Amount", item="Amount", sort=SortOrder.ASCENDING),
            ViewColumn(title="Subject", item="Subject"),
        ],
    )
    return db, view


def scan_baseline(db, amount: int):
    """What life is like without a view index: formula-scan everything."""
    formula = compile_formula(f"SELECT Form = \"Memo\" & Amount = {amount}")
    return [doc for doc in db.all_documents() if formula.select(doc)]


def run_cell(n_docs: int):
    db, view = build_view(n_docs)
    target = view._tree  # structural counters live on the B+tree
    probe_amounts = [db.get(unid).get("Amount") for unid in db.unids()[:20]]

    target.node_reads = 0
    start = time.perf_counter()
    for amount in probe_amounts:
        matches = view.documents_by_key(amount)
        assert matches
    lookup_seconds = (time.perf_counter() - start) / len(probe_amounts)
    node_touches = target.node_reads / len(probe_amounts)

    start = time.perf_counter()
    for amount in probe_amounts[:5]:
        assert scan_baseline(db, amount)
    scan_seconds = (time.perf_counter() - start) / 5
    return node_touches, lookup_seconds, scan_seconds, view._tree.height()


def test_e06_table(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (250, 1000, 4000):
            node_touches, lookup_s, scan_s, height = run_cell(n_docs)
            rows.append([
                n_docs, height, round(node_touches, 1),
                round(lookup_s * 1e6, 1), round(scan_s * 1e6, 1),
                round(scan_s / max(lookup_s, 1e-12), 1),
            ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E6  view key lookup vs formula scan",
        ["docs", "tree height", "nodes/lookup", "lookup µs", "scan µs",
         "scan/lookup"],
        rows,
        note="lookup cost ~ tree height (log n); scan cost ~ n",
    )
    touches = [r[2] for r in rows]
    scans = [r[4] for r in rows]
    # node touches grow sub-linearly (log-ish): 16x docs < 4x touches
    assert touches[-1] < touches[0] * 4
    # the scan baseline grows roughly linearly: 16x docs > 4x time
    assert scans[-1] > scans[0] * 4
    assert all(r[5] > 5 for r in rows), "index must beat the scan"


def test_e06_lookup_speed(benchmark):
    db, view = build_view(2000)
    amounts = [db.get(unid).get("Amount") for unid in db.unids()[:50]]
    counter = {"i": 0}

    def one_lookup():
        counter["i"] += 1
        return view.documents_by_key(amounts[counter["i"] % 50])

    result = benchmark(one_lookup)
    assert result


def test_e06_navigation_speed(benchmark):
    from repro.views import ViewNavigator

    db, view = build_view(2000)

    def walk_a_page():
        navigator = ViewNavigator(view)
        navigator.first()
        return navigator.page(50)

    rows = benchmark(walk_a_page)
    assert len(rows) == 50


PAGE = 30
READER = "reader/Acme"


@functools.lru_cache(maxsize=None)
def browse_db(n_docs: int):
    """``n_docs`` memos in a database with an ACL, as the web server
    reads it: every ``rows()`` call access-checks each document for the
    requesting user. E6b and E6c read views over the same databases."""
    deployment = build_deployment(1, seed=n_docs + 5)
    db = deployment.databases[0]
    populate(db, n_docs, deployment.rng, body_bytes=16, advance=0.0)
    db.acl = AccessControlList(default_level=AclLevel.READER)
    return db


def build_browse_view(n_docs: int, category: str = "Categories"):
    """A view over :func:`browse_db` categorized on ``category``: four
    values for ``Categories``, up to 10,000 for ``Amount``."""
    return View(
        browse_db(n_docs),
        f"By{category}",
        selection='SELECT Form = "Memo"',
        columns=[
            ViewColumn(title=category, item=category, categorized=True),
            ViewColumn(title="Subject", item="Subject", sort=SortOrder.ASCENDING),
            ViewColumn(title="Amount", item="Amount"),
        ],
    )


def median_seconds(read, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        read()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def middle_page(view):
    """The middle row of ``view`` and the view's row total, once the page
    there is checked against the ``rows()`` slice."""
    _, total = view.window(1, 0, as_user=READER)
    middle = total // 2
    page, _ = view.window(middle, PAGE, as_user=READER)
    rows = view.rows(as_user=READER)
    assert page == rows[middle - 1:middle - 1 + PAGE] and len(page) == PAGE
    return middle, total


def middle_page_cell(n_docs: int):
    """Median seconds to read the page at the middle row: by position
    (``window``) and by slicing ``rows()``."""
    view = build_browse_view(n_docs)
    middle, total = middle_page(view)
    window_s = median_seconds(lambda: view.window(middle, PAGE, as_user=READER), 300)
    rows_s = median_seconds(
        lambda: view.rows(as_user=READER)[middle - 1:middle - 1 + PAGE], 3)
    return total, window_s, rows_s


def test_e06_middle_row_window(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (1000, 10_000, 50_000):
            total, window_s, rows_s = middle_page_cell(n_docs)
            rows.append([
                n_docs, total, round(window_s * 1e6, 1), round(rows_s * 1e3, 2),
                round(rows_s / max(window_s, 1e-12)),
            ])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E6b open the view at its middle row (30-row page, ACL'd reader)",
        ["docs", "view rows", "window µs", "rows() slice ms", "rows/window"],
        rows,
        note="window ~ log n + page; rows() ~ n",
    )
    windows = [r[2] for r in rows]
    slices = [r[3] for r in rows]
    # The positional read stays flat: 50x docs, within 2x the time.
    assert max(windows) < 2 * min(windows)
    # Building every row grows with the view: 50x docs > 10x time.
    assert slices[-1] > 10 * slices[0]


def many_headings_cell(n_docs: int):
    """Headings in a view categorized on ``Amount``, and the median
    seconds to read its middle page by position."""
    view = build_browse_view(n_docs, category="Amount")
    middle, total = middle_page(view)
    window_s = median_seconds(lambda: view.window(middle, PAGE, as_user=READER), 300)
    view.close()
    return total - len(view), window_s


def test_e06_many_headings_window(benchmark):
    rows = []

    def sweep():
        rows.clear()
        for n_docs in (1000, 10_000, 50_000):
            headings, window_s = many_headings_cell(n_docs)
            rows.append([n_docs, headings, round(window_s * 1e6, 1)])
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "E6c open a view with many headings at its middle row (30-row page)",
        ["docs", "headings", "window µs"],
        rows,
        note="window ~ log(headings) · log n + page",
    )
    windows = [r[2] for r in rows]
    # 10x the headings (50x the docs), within 2x the time: a page no
    # longer walks the headings before it.
    assert max(windows) < 2 * min(windows)
