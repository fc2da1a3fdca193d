"""HTML rendering of databases, views and documents.

Deliberately plain, well-formed HTML — the shape Domino generated: a view
becomes a table with category rows and document links, a document becomes a
definition list of its items (hidden ``$`` items omitted).

A view page is rendered once per row, not once per request: the first
render of a document row keeps its formatted cells in the row object
(:class:`~repro.views.view.DocumentRow` ``html``/``xml``), and every later
page that shows the row joins the kept fragment. A view returns the same
row object until the row's note changes (the entry, and with it the row,
is then made anew) or the view's design does (a new view), so a fragment
never needs invalidating. Each view's heading and column titles are
formatted once too, and kept in the view's ``heading``.
"""

from __future__ import annotations

from html import escape
from urllib.parse import quote_plus

from repro.core.database import NotesDatabase
from repro.core.document import Document
from repro.views.view import CategoryRow, DocumentRow, View


def _fmt_cell(value) -> str:
    if isinstance(value, list):
        return escape(", ".join(str(element) for element in value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return escape(str(value))


class _Heading:
    """A view's formatted constants: name, column headings and the
    ``<entrydata>`` openers of its XML rows."""

    __slots__ = ("h1", "th", "entrydata")

    def __init__(self, view: View) -> None:
        self.h1 = f"<h1>{escape(view.name)}</h1>"
        self.th = (
            "<tr>"
            + "".join(f"<th>{escape(c.title)}</th>" for c in view.columns)
            + "</tr>"
        )
        self.entrydata = [
            f'    <entrydata name="{escape(column.title)}"><text>'
            for column in view.columns
        ]


def _heading(view: View) -> _Heading:
    heading = view.heading
    if heading is None:
        heading = view.heading = _Heading(view)
    return heading


def _html_fragment(row: DocumentRow) -> str:
    """A document row's ``<tr>`` after its link's path prefix."""
    cells = "".join(
        f'<td style="padding-left:{row.level}em">{_fmt_cell(v)}</td>'
        if index == 0
        else f"<td>{_fmt_cell(v)}</td>"
        for index, v in enumerate(row.values)
    )
    return f'{row.unid}?OpenDocument">&#9656;</a></td>{cells}</tr>'


def _xml_fragment(row: DocumentRow, heading: _Heading) -> str:
    """A document row's ``<viewentry>`` after its ``position`` attribute."""
    parts = [f' unid="{row.unid}" indent="{row.level}">']
    for opener, value in zip(heading.entrydata, row.values):
        parts.append(f"{opener}{_fmt_cell(value)}</text></entrydata>")
    parts.append("  </viewentry>")
    return "\n".join(parts)


def render_view(
    view: View,
    db_path: str,
    start: int = 1,
    count: int = 30,
    as_user: str | None = None,
) -> str:
    """Render a window of ``view`` as an HTML table with document links.

    ``start`` is 1-based (values below 1 read from the first row); the
    rows come from :meth:`View.window`, a positional read of the index.
    """
    start = max(start, 1)
    window, total_rows = view.window(start, count, as_user=as_user)
    heading = _heading(view)
    parts = [
        heading.h1,
        f'<table class="view" data-total="{len(view)}">',
        heading.th,
    ]
    link = f'<tr class="doc"><td><a href="/{db_path}/{view.name}/'
    for row in window:
        if isinstance(row, DocumentRow):
            fragment = row.html
            if fragment is None:
                fragment = row.html = _html_fragment(row)
            parts.append(link + fragment)
        elif isinstance(row, CategoryRow):
            parts.append(
                f'<tr class="category" data-level="{row.level}">'
                f'<td colspan="{len(view.columns)}">'
                f"{_fmt_cell(row.value)} ({row.count})</td></tr>"
            )
    parts.append("</table>")
    next_start = start + count
    if count and next_start <= total_rows:
        parts.append(
            f'<a class="next" href="/{db_path}/{view.name}'
            f"?OpenView&Start={next_start}&Count={count}\">Next</a>"
        )
    return "\n".join(parts)


def _doc_title(doc: Document) -> str:
    for item in ("Subject", "Name", "Title"):
        value = doc.get(item)
        if value:
            return str(value)
    return doc.unid


def render_document(doc: Document, db_path: str, view_name: str = "0") -> str:
    """Render one document as HTML (hidden ``$`` items omitted)."""
    parts = [
        f"<h1>{escape(_doc_title(doc))}</h1>",
        f'<div class="meta">form={escape(str(doc.form))} '
        f"rev={doc.seq} by {escape(', '.join(doc.updated_by))}</div>",
        "<dl>",
    ]
    for item in doc:
        if item.name.startswith("$"):
            continue
        parts.append(f"<dt>{escape(item.name)}</dt><dd>{_fmt_cell(item.value)}</dd>")
    parts.append("</dl>")
    if doc.parent_unid:
        parts.append(
            f'<a class="parent" href="/{db_path}/{view_name}/'
            f'{doc.parent_unid}?OpenDocument">parent document</a>'
        )
    return "\n".join(parts)


def render_database(db: NotesDatabase, db_path: str, view_names: list[str]) -> str:
    """Render the database landing page: title + its views."""
    parts = [
        f"<h1>{escape(db.title)}</h1>",
        f'<div class="meta">{len(db)} documents, replica '
        f"{escape(db.replica_id)} on {escape(db.server)}</div>",
        "<ul>",
    ]
    for name in view_names:
        parts.append(
            f'<li><a href="/{db_path}/{name}?OpenView">{escape(name)}</a></li>'
        )
    parts.append("</ul>")
    return "\n".join(parts)


def render_view_entries_xml(
    view: View,
    start: int = 1,
    count: int = 30,
    as_user: str | None = None,
) -> str:
    """The ``?ReadViewEntries`` XML feed — Domino's machine-readable view
    access (the precursor of its REST APIs). Category rows carry their
    value and count; document rows carry unid, position and column values.
    ``start`` is 1-based (values below 1 read from the first row).
    """
    start = max(start, 1)
    window, _ = view.window(start, count, as_user=as_user)
    heading = _heading(view)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<viewentries toplevelentries="{len(view)}" start="{start}">',
    ]
    position = start - 1
    for row in window:
        position += 1
        if isinstance(row, CategoryRow):
            parts.append(
                f'  <viewentry position="{position}" category="true" '
                f'children="{row.count}">'
            )
            parts.append(
                f"    <entrydata><text>{_fmt_cell(row.value)}"
                "</text></entrydata>"
            )
            parts.append("  </viewentry>")
            continue
        fragment = row.xml
        if fragment is None:
            fragment = row.xml = _xml_fragment(row, heading)
        parts.append(f'  <viewentry position="{position}"{fragment}')
    parts.append("</viewentries>")
    return "\n".join(parts)


def render_search_results(
    db: NotesDatabase,
    db_path: str,
    view_name: str,
    query: str,
    hits,
    start: int = 1,
    count: int = 25,
) -> str:
    """Render ranked ``(unid, score)`` hits as an ordered list of links.

    ``hits`` is the page from the 1-based ``start``; a full page (``count``
    hits) ends with a link to the next one, as :func:`render_view`'s do.
    Each document's escaped title is formatted once and kept in
    :attr:`Document.title_html`, which every item change resets.
    """
    parts = [
        f"<h1>Search: {escape(query)}</h1>",
        f'<ol class="results">',
    ]
    href = f"/{db_path}/{view_name}/"
    for unid, score in hits:
        doc = db.try_get(unid)
        if doc is None:
            continue
        title = doc.title_html
        if title is None:
            title = doc.title_html = escape(_doc_title(doc))
        parts.append(
            f'<li><a href="{href}{unid}?OpenDocument">{title}</a> '
            f'<span class="score">{score:.2f}</span></li>'
        )
    parts.append("</ol>")
    if count and len(hits) == count:
        parts.append(
            f'<a class="next" href="/{db_path}/{view_name}?SearchView&Query='
            f'{quote_plus(query)}&Start={start + count}&Count={count}">Next</a>'
        )
    return "\n".join(parts)
